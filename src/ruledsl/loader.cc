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

void count_reload(obs::MetricsRegistry& registry, bool ok) {
  registry
      .counter("scidive_ruleset_reloads_total", "Hot ruleset reload attempts, by outcome",
               {{"result", ok ? "ok" : "error"}})
      .inc();
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

std::vector<core::RulePtr> make_rules(const CompiledRuleset& ruleset) {
  std::vector<core::RulePtr> rules;
  rules.reserve(ruleset.rules.size());
  for (const auto& def : ruleset.rules) {
    rules.push_back(std::make_unique<CompiledRule>(def));
  }
  return rules;
}

Status reload_from_file(core::ScidiveEngine& engine, const std::string& path) {
  auto ruleset = compile_ruleset_file(path);
  if (!ruleset.ok()) {
    count_reload(engine.metrics(), false);
    return ruleset.error();
  }
  engine.set_rules(make_rules(ruleset.value()));
  count_reload(engine.metrics(), true);
  return Status::Ok();
}

Status reload_from_file(core::ShardedEngine& engine, const std::string& path) {
  auto ruleset = compile_ruleset_file(path);
  if (!ruleset.ok()) {
    count_reload(engine.frontend_metrics(), false);
    return ruleset.error();
  }
  engine.set_rules([&ruleset](size_t) { return make_rules(ruleset.value()); });
  count_reload(engine.frontend_metrics(), true);
  return Status::Ok();
}

}  // namespace scidive::ruledsl
