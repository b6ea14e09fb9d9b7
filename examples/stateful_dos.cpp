// The §3.3 stateful-detection scenarios: a REGISTER-flood DoS and a digest
// password-guessing attack against the proxy, with legitimate clients doing
// their routine 401 challenge dances at the same time. Shows why the
// session-aware stateful rules stay quiet for the legitimate traffic while
// the session-unaware "count 4xx" strawman (stock-Snort style) false-alarms.
//
//   $ ./stateful_dos
#include <cstdio>
#include <memory>

#include "testbed/testbed.h"
#include "testbed/workload.h"

using namespace scidive;
using testbed::Testbed;
using testbed::TestbedConfig;

namespace {

std::unique_ptr<Testbed> make_proxy_watching_testbed() {
  TestbedConfig config;
  config.require_auth = true;
  config.ids_watches_client_a = false;
  config.ids_watches_proxy = true;
  return std::make_unique<Testbed>(config);
}

}  // namespace

int main() {
  printf("SCIDIVE — stateful detection at the proxy (paper §3.3)\n");
  printf("=======================================================\n");

  {
    printf("\n--- scenario 1: benign load only (5 clients re-registering) ---\n");
    auto tb = make_proxy_watching_testbed();
    // Enable the strawman next to the real ruleset for comparison.
    std::vector<core::RulePtr> rules = tb->ids().ruleset()->rules();
    rules.push_back(std::make_shared<core::Stateless4xxRule>());
    tb->ids().set_rules(core::make_ruleset(std::move(rules)));
    tb->add_client("carol", 3);
    tb->add_client("dave", 4);
    tb->add_client("erin", 5);
    tb->register_all();
    // Every re-registration = one unauthenticated attempt + 401 + retry.
    for (auto* client : tb->clients()) client->register_now();
    tb->run_for(sec(5));
    for (auto* client : tb->clients()) client->register_now();
    tb->run_for(sec(5));

    printf("  401 challenges issued by proxy: %llu\n",
           static_cast<unsigned long long>(tb->proxy().stats().registers_challenged));
    printf("  stateful rules fired:   %zu (register-flood) + %zu (password-guess)\n",
           tb->alerts().count_for_rule("register-flood"),
           tb->alerts().count_for_rule("password-guess"));
    printf("  stateless strawman:     %zu alert(s)%s\n",
           tb->alerts().count_for_rule("stateless-4xx"),
           tb->alerts().count_for_rule("stateless-4xx") > 0
               ? "  <- false alarms on healthy traffic!"
               : "");
  }

  {
    printf("\n--- scenario 2: REGISTER flood DoS ---\n");
    auto tb = make_proxy_watching_testbed();
    tb->register_all();
    printf("  attacker hammers REGISTER, ignoring every 401...\n");
    tb->inject_register_flood(25);
    tb->run_for(sec(10));
    size_t hits = tb->alerts().count_for_rule("register-flood");
    printf("  register-flood alerts: %zu -> %s\n", hits, hits ? "DETECTED" : "missed");
    if (!tb->alerts().alerts().empty())
      printf("    %s\n", tb->alerts().alerts()[0].to_string().c_str());
  }

  {
    printf("\n--- scenario 3: password guessing ---\n");
    auto tb = make_proxy_watching_testbed();
    tb->register_all();
    printf("  attacker answers the digest challenge with a dictionary...\n");
    tb->inject_password_guessing({"123456", "password", "qwerty", "letmein", "admin"});
    tb->run_for(sec(10));
    size_t hits = tb->alerts().count_for_rule("password-guess");
    printf("  password-guess alerts: %zu -> %s\n", hits, hits ? "DETECTED" : "missed");
    printf("  (flood rule untriggered: %zu — the two attacks are told apart)\n",
           tb->alerts().count_for_rule("register-flood"));
  }

  printf("\ndone.\n");
  return 0;
}
