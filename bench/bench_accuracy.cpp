// End-to-end accuracy under mixed load: a benign VoIP workload (calls, IMs,
// mid-call migrations, re-registrations) with and without injected attacks.
// Reports per-rule true positives, false positives and misses, and compares
// SCIDIVE's stateful/session-aware rules with the stateless 4xx strawman —
// the paper's core accuracy claims (§1, §3.3).
#include <cstdio>
#include <memory>

#include "testbed/testbed.h"
#include "testbed/workload.h"

using namespace scidive;
using testbed::BenignWorkload;
using testbed::Testbed;
using testbed::TestbedConfig;
using testbed::WorkloadConfig;

namespace {

struct RunResult {
  Testbed::Score score;
  size_t strawman_alerts = 0;
  size_t total_alerts = 0;
  uint64_t packets = 0;
};

RunResult run(uint64_t seed, bool with_attacks, bool proxy_side) {
  TestbedConfig config;
  config.seed = seed;
  config.require_auth = proxy_side;  // proxy deployments exercise the 401 dance
  config.ids_watches_client_a = !proxy_side;
  config.ids_watches_proxy = proxy_side;
  Testbed tb(config);
  tb.ids().add_rule(std::make_unique<core::Stateless4xxRule>());
  tb.add_client("carol", 3);
  tb.add_client("dave", 4);
  tb.register_all();

  WorkloadConfig wl;
  wl.call_count = 10;
  wl.im_count = 12;
  wl.migration_count = 2;
  wl.reregister_count = proxy_side ? 8 : 3;
  wl.span = sec(60);
  BenignWorkload workload(tb, wl);
  workload.schedule();
  tb.run_for(sec(20));

  if (with_attacks) {
    if (proxy_side) {
      tb.inject_register_flood(20);
      tb.run_for(sec(10));
      tb.inject_password_guessing({"a", "b", "c", "d"});
    } else {
      tb.establish_call(sec(2));
      tb.inject_bye_attack();
      tb.run_for(sec(5));
      tb.establish_call(sec(2));
      tb.inject_call_hijack();
      tb.run_for(sec(5));
      tb.inject_rtp_flood(25);
      tb.run_for(sec(2));
      tb.client_b().send_im("alice", "real message from bob");
      tb.run_for(sec(1));
      tb.inject_fake_im();
    }
  }
  tb.run_for(sec(60));

  RunResult out;
  out.score = tb.score();
  out.strawman_alerts = tb.alerts().count_for_rule("stateless-4xx");
  out.total_alerts = tb.alerts().count();
  out.packets = tb.ids().stats().packets_inspected;
  // The strawman is not ground-truth-mapped; don't double-count it as FP.
  out.score.false_positives -= static_cast<int>(out.strawman_alerts);
  return out;
}

void print_row(const char* label, const RunResult& r, int injected) {
  printf("%-34s | %6d | %4d | %4d | %4d | %9zu | %8llu\n", label, injected,
         r.score.true_positives, r.score.false_positives, r.score.missed, r.strawman_alerts,
         static_cast<unsigned long long>(r.packets));
}

}  // namespace

int main() {
  printf("Detection accuracy under mixed benign + attack load\n");
  printf("====================================================\n\n");
  printf("%-34s | %-6s | %-4s | %-4s | %-4s | %-9s | %-8s\n", "scenario", "inject", "TP",
         "FP", "miss", "strawman", "packets");
  printf("--------------------------------------------------------------------------------"
         "-----\n");

  for (uint64_t seed : {11ull, 22ull, 33ull}) {
    auto benign = run(seed, /*with_attacks=*/false, /*proxy_side=*/false);
    print_row("endpoint IDS, benign only", benign, 0);
  }
  for (uint64_t seed : {11ull, 22ull, 33ull}) {
    auto attacked = run(seed, /*with_attacks=*/true, /*proxy_side=*/false);
    print_row("endpoint IDS, 4 attacks injected", attacked, 4);
  }
  for (uint64_t seed : {44ull, 55ull}) {
    auto benign = run(seed, /*with_attacks=*/false, /*proxy_side=*/true);
    print_row("proxy IDS,   benign only", benign, 0);
  }
  for (uint64_t seed : {44ull, 55ull}) {
    auto attacked = run(seed, /*with_attacks=*/true, /*proxy_side=*/true);
    print_row("proxy IDS,   flood+guess injected", attacked, 2);
  }

  printf("\nexpected shape (paper): SCIDIVE rules detect every injected attack with\n");
  printf("zero false positives on benign traffic (incl. mobility and 401 dances);\n");
  printf("the session-unaware 4xx strawman false-alarms whenever routine challenges\n");
  printf("cluster — the motivating example of §3.3.\n");
  return 0;
}
