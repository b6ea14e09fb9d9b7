// The four Table-1 attacks detected by rules loaded from .sdr files at run
// time: the engine's embedded default ruleset is swapped for the files in
// the ruleset directory (by default the source of that same embedded
// ruleset, so an operator can edit a copy and point this program at it)
// before any traffic flows, then each attack runs on the Figure-4 testbed.
// Finishes with a live hot reload (valid and invalid) to show the atomic
// swap.
//
//   $ ./ruleset_ids [ruleset-dir]
#include <cstdio>
#include <string>
#include <vector>

#include "ruledsl/loader.h"
#include "testbed/testbed.h"

using namespace scidive;
using testbed::Testbed;
using testbed::TestbedConfig;

namespace {

#ifndef SCIDIVE_RULESET_DIR
#define SCIDIVE_RULESET_DIR "src/scidive/rules"
#endif

std::vector<std::string> ruleset_paths(const std::string& dir) {
  return {dir + "/bye_attack.sdr", dir + "/fake_im.sdr", dir + "/call_hijack.sdr",
          dir + "/rtp_attack.sdr", dir + "/billing_fraud.sdr"};
}

void report(Testbed& tb, const char* rule) {
  size_t hits = tb.alerts().count_for_rule(rule);
  printf("  IDS verdict: %zu '%s' alert(s) -> %s\n", hits, rule,
         hits > 0 ? "DETECTED" : "MISSED");
  for (const auto& alert : tb.alerts().alerts()) {
    printf("    %s\n", alert.to_string().c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : SCIDIVE_RULESET_DIR;
  auto ruleset = ruledsl::compile_ruleset_files(ruleset_paths(dir));
  if (!ruleset.ok()) {
    fprintf(stderr, "failed to load rulesets: %s\n", ruleset.error().to_string().c_str());
    return 1;
  }
  printf("SCIDIVE — Table-1 attacks vs the declarative ruleset (%zu rules from %s)\n",
         ruleset.value().rules.size(), dir.c_str());
  printf("========================================================================\n");
  int detected = 0;

  {
    printf("\n=== 4.2.1 BYE attack ===\n");
    Testbed tb;
    tb.ids().set_rules(ruledsl::make_rules(ruleset.value()));
    tb.establish_call(sec(3));
    tb.inject_bye_attack();
    tb.run_for(sec(1));
    report(tb, "bye-attack");
    detected += tb.alerts().count_for_rule("bye-attack") > 0;
  }

  {
    printf("\n=== 4.2.2 Fake Instant Messaging ===\n");
    Testbed tb;
    tb.ids().set_rules(ruledsl::make_rules(ruleset.value()));
    tb.register_all();
    tb.client_b().add_contact(tb.client_a().aor(), tb.client_a().sip_endpoint());
    tb.client_b().send_im("alice", "lunch at noon? - bob");
    tb.run_for(sec(1));
    tb.inject_fake_im();
    tb.run_for(sec(1));
    report(tb, "fake-im");
    detected += tb.alerts().count_for_rule("fake-im") > 0;
  }

  {
    printf("\n=== 4.2.3 Call Hijacking ===\n");
    Testbed tb;
    tb.ids().set_rules(ruledsl::make_rules(ruleset.value()));
    tb.establish_call(sec(3));
    tb.inject_call_hijack();
    tb.run_for(sec(1));
    report(tb, "call-hijack");
    detected += tb.alerts().count_for_rule("call-hijack") > 0;
  }

  {
    printf("\n=== 4.2.4 RTP attack ===\n");
    Testbed tb;
    tb.ids().set_rules(ruledsl::make_rules(ruleset.value()));
    tb.establish_call(sec(3));
    tb.inject_rtp_flood(30);
    tb.run_for(sec(1));
    report(tb, "rtp-attack");
    detected += tb.alerts().count_for_rule("rtp-attack") > 0;
  }

  {
    printf("\n=== hot reload ===\n");
    Testbed tb;
    tb.ids().set_rules(ruledsl::make_rules(ruleset.value()));
    tb.establish_call(sec(1));
    // Invalid reload: the running rules stay untouched.
    auto bad = ruledsl::reload_from_file(tb.ids(), dir + "/no_such_file.sdr");
    printf("  invalid reload rejected: %s\n", bad.ok() ? "NO (bug!)" : bad.error().to_string().c_str());
    // Valid reload mid-stream, then the attack still gets caught.
    auto good = ruledsl::reload_from_file(tb.ids(), dir + "/bye_attack.sdr");
    printf("  valid reload: %s (%zu rules live)\n", good.ok() ? "ok" : "FAILED",
           tb.ids().rule_count());
    tb.inject_bye_attack();
    tb.run_for(sec(1));
    report(tb, "bye-attack");
    auto snapshot = tb.ids().metrics_snapshot();
    printf("  scidive_ruleset_reloads_total{result=\"ok\"} = %llu, {result=\"error\"} = %llu\n",
           static_cast<unsigned long long>(
               snapshot.counter_value("scidive_ruleset_reloads_total", {{"result", "ok"}})),
           static_cast<unsigned long long>(
               snapshot.counter_value("scidive_ruleset_reloads_total", {{"result", "error"}})));
  }

  printf("\n%d / 4 attacks detected by DSL rules.\n", detected);
  return detected == 4 ? 0 : 1;
}
