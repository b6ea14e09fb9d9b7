// Loader: text/file -> CompiledRuleset -> live Rule instances, the
// embedded default ruleset, plus atomic hot reload into a running engine.
// Reload is all-or-nothing: the candidate file is parsed and compiled
// off-line first, and only a fully valid ruleset replaces the running
// rules — an invalid file leaves the engine untouched (and is counted in
// scidive_ruleset_reloads_total{result="error"}).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "ruledsl/program.h"
#include "scidive/engine.h"
#include "scidive/sharded_engine.h"

namespace scidive::ruledsl {

/// Compile ruleset source text. `filename` only labels diagnostics;
/// `params` overrides parameter defaults by "rule.param" name.
Result<CompiledRuleset> compile_ruleset_text(std::string_view text,
                                             std::string_view filename = "<input>",
                                             const ParamOverrides& params = {});

/// The default ruleset's source: the .sdr files of src/scidive/rules/,
/// joined in ruleset order and embedded in the library at build time.
extern const std::string_view kDefaultRulesetText;

/// Compile the embedded default ruleset with `config`'s parameters. Without
/// `config.spit_graylist` the spit-graylist rule is left out.
Result<CompiledRuleset> compile_default_ruleset(const core::RulesConfig& config = {});

/// Read and compile one .sdr file.
Result<CompiledRuleset> compile_ruleset_file(const std::string& path);

/// Read and compile several .sdr files into one ruleset (rule names must be
/// unique across all of them).
Result<CompiledRuleset> compile_ruleset_files(const std::vector<std::string>& paths);

/// Fresh Rule instances for a compiled ruleset. Call once per engine (or
/// per shard): the instances carry mutable per-session state.
std::vector<core::RulePtr> make_rules(const CompiledRuleset& ruleset);

/// Hot reload: validate `path` off-line, then atomically swap the engine's
/// ruleset. On error the running rules are untouched. Either way the
/// outcome is counted in scidive_ruleset_reloads_total{result="ok"|"error"}.
Status reload_from_file(core::ScidiveEngine& engine, const std::string& path);

/// Sharded hot reload: validates off-line, then swaps every shard between
/// flush() boundaries (each shard gets its own rule instances). No event is
/// lost or double-matched across the swap.
Status reload_from_file(core::ShardedEngine& engine, const std::string& path);

}  // namespace scidive::ruledsl
