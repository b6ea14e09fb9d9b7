#include "ruledsl/loader.h"

#include <fstream>
#include <set>
#include <sstream>

#include "common/strings.h"
#include "ruledsl/compiled_rule.h"
#include "ruledsl/compiler.h"
#include "ruledsl/parser.h"

namespace scidive::ruledsl {

namespace {

Result<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Error{Errc::kNotFound, str::format("cannot open '%s'", path.c_str())};
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  if (in.bad()) {
    return Error{Errc::kState, str::format("error reading '%s'", path.c_str())};
  }
  return std::move(ss).str();
}

/// Validate `path` off-line, count the outcome in `registry`, and install
/// the ruleset only when it compiled.
template <typename Engine>
Status reload(Engine& engine, obs::MetricsRegistry& registry, const std::string& path) {
  auto ruleset = compile_ruleset_file(path);
  registry
      .counter("scidive_ruleset_reloads_total", "Hot ruleset reload attempts, by outcome",
               {{"result", ruleset.ok() ? "ok" : "error"}})
      .inc();
  if (!ruleset.ok()) return ruleset.error();
  engine.set_rules(make_ruleset(ruleset.value()));
  return Status::Ok();
}

}  // namespace

Result<CompiledRuleset> compile_ruleset_text(std::string_view text, std::string_view filename,
                                             const ParamOverrides& params) {
  auto ast = parse_ruleset(text, filename);
  if (!ast.ok()) return ast.error();
  return compile(ast.value(), filename, params);
}

Result<CompiledRuleset> compile_default_ruleset(const core::RulesConfig& config) {
  auto compiled = compile_ruleset_text(
      kDefaultRulesetText, "<default ruleset>",
      {{"billing-fraud.min_evidence", config.billing_min_evidence},
       {"spit-graylist.call_threshold", config.spit_call_threshold}});
  if (!compiled.ok() || config.spit_graylist) return compiled;
  std::erase_if(compiled.value().rules,
                [](const auto& def) { return def->name == "spit-graylist"; });
  return compiled;
}

Result<CompiledRuleset> compile_ruleset_file(const std::string& path) {
  auto text = read_file(path);
  if (!text.ok()) return text.error();
  return compile_ruleset_text(text.value(), path);
}

Result<CompiledRuleset> compile_ruleset_files(const std::vector<std::string>& paths) {
  CompiledRuleset merged;
  std::set<std::string> names;
  for (const std::string& path : paths) {
    auto one = compile_ruleset_file(path);
    if (!one.ok()) return one.error();
    for (auto& rule : one.value().rules) {
      if (!names.insert(rule->name).second) {
        return Error{Errc::kMalformed,
                     str::format("%s: duplicate rule '%s' (already defined in an earlier file)",
                                 path.c_str(), rule->name.c_str())};
      }
      merged.rules.push_back(std::move(rule));
    }
  }
  return merged;
}

core::RulesetPtr make_ruleset(const CompiledRuleset& ruleset) {
  std::vector<core::RulePtr> rules;
  for (const auto& def : ruleset.rules) rules.push_back(std::make_shared<CompiledRule>(def));
  return core::make_ruleset(std::move(rules));
}

Status reload_from_file(core::ScidiveEngine& engine, const std::string& path) {
  return reload(engine, engine.metrics(), path);
}

Status reload_from_file(core::ShardedEngine& engine, const std::string& path) {
  return reload(engine, engine.frontend_metrics(), path);
}

}  // namespace scidive::ruledsl
