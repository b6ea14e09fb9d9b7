// Distributed SCIDIVE (§6): the four Table-1 attacks through a 3-node
// cooperative fleet, membership churn mid-stream, and fleet-wide verdict
// screening — a SPIT graylist computed on one node rate-limits the spammer
// on every other.
//
//   $ ./fleet_ids
#include <cstdio>

#include <string>
#include <vector>

#include "capture/carrier_mix.h"
#include "fleet/fleet.h"
#include "pkt/packet.h"
#include "scidive/enforce.h"
#include "scidive/rules.h"
#include "testbed/testbed.h"

using namespace scidive;

namespace {

const char* kAttackRules[] = {"bye-attack", "fake-im", "call-hijack", "rtp-attack"};

size_t count_rule(const std::vector<core::Alert>& alerts, std::string_view rule) {
  size_t n = 0;
  for (const core::Alert& a : alerts) {
    if (a.rule == rule) ++n;
  }
  return n;
}

/// All four attack rules present in the merged union?
int detected(const std::vector<core::Alert>& alerts) {
  int hits = 0;
  for (const char* rule : kAttackRules) {
    size_t n = count_rule(alerts, rule);
    printf("    %-12s %zu alert(s) -> %s\n", rule, n, n > 0 ? "DETECTED" : "MISSED");
    hits += n > 0;
  }
  return hits;
}

fleet::FleetConfig base_config() {
  fleet::FleetConfig fc;
  fc.node.engine.num_shards = 1;
  fc.node.engine.engine.obs.time_stages = false;
  return fc;
}

}  // namespace

int main() {
  printf("SCIDIVE — cooperative fleet across 3 IDS nodes\n");
  printf("===============================================\n\n");
  const std::vector<pkt::Packet> stream = testbed::four_attacks_stream();
  uint64_t stream_bytes = 0;
  for (const pkt::Packet& p : stream) stream_bytes += p.data.size();
  printf("captured %zu packets (%llu bytes): the four Table-1 attacks\n\n",
         stream.size(), (unsigned long long)stream_bytes);
  int score = 0;

  printf("1) static fleet: sessions partitioned by the rendezvous ring\n");
  {
    fleet::Fleet cluster(base_config(), {"ids-a", "ids-b", "ids-c"});
    for (const pkt::Packet& p : stream) cluster.on_packet(p);
    cluster.flush();
    score += detected(cluster.merged_alerts()) == 4;
    for (size_t i = 0; i < cluster.size(); ++i) {
      fleet::FleetNode& node = cluster.node_at(i);
      printf("    %s owns %zu/64 slots, raised %zu alert(s) locally\n",
             node.name().c_str(), cluster.ring().slots_of(node.name()).size(),
             node.engine().merged_alerts().size());
    }
    const fleet::FleetNodeStats ns = cluster.node_stats();
    printf("    SEP economy: %llu events shared, %llu gossip bytes "
           "(%.3f%% of monitored traffic), %llu records dropped\n\n",
           (unsigned long long)ns.events_shared,
           (unsigned long long)ns.gossip_bytes_built,
           stream_bytes ? 100.0 * ns.gossip_bytes_built / stream_bytes : 0.0,
           (unsigned long long)ns.gossip_records_dropped);
  }

  printf("2) churn mid-stream: ids-d joins at 1/3, ids-a leaves at 2/3\n");
  {
    fleet::Fleet cluster(base_config(), {"ids-a", "ids-b", "ids-c"});
    for (size_t i = 0; i < stream.size(); ++i) {
      if (i == stream.size() / 3) cluster.add_node("ids-d");
      if (i == 2 * stream.size() / 3) cluster.remove_node("ids-a");
      cluster.on_packet(stream[i]);
    }
    cluster.flush();
    score += detected(cluster.merged_alerts()) == 4;
    printf("    %llu session record(s) moved to a new owner; "
           "attacks tracked since their INVITE still fired\n\n",
           (unsigned long long)cluster.stats().sessions_handed_off);
  }

  printf("3) verdict screening: SPIT graylisted on one node, limited on all\n");
  {
    capture::CarrierMixConfig mix;
    mix.seed = 0x5b17;
    mix.provisioned_users = 200;
    mix.call_rate_hz = 3.0;
    mix.im_rate_hz = 2.0;
    mix.register_rate_hz = 3.0;
    mix.mean_call_hold_sec = 4.0;
    mix.rtp_interval = msec(40);
    mix.spit_callers = 2;
    mix.spit_call_rate_hz = 6.0;
    mix.spit_hold = msec(300);
    mix.max_packets = 3000;
    capture::CarrierMixSource source(mix);

    fleet::FleetConfig fc = base_config();
    fc.node.engine.route_invite_by_caller = true;
    fc.node.engine.engine.enforce.mode = core::EnforcementMode::kInline;
    fc.pump_every_packets = 256;
    fleet::Fleet cluster(fc, {"ids-a", "ids-b"});
    for (size_t i = 0; i < cluster.size(); ++i) {
      cluster.node_at(i).engine().set_rules([](size_t) {
        core::RulesConfig rc;
        rc.spit_graylist = true;
        return core::make_default_ruleset(rc);
      });
    }
    cluster.run(source);

    size_t screened_everywhere = 0;
    for (const core::Verdict& v : cluster.merged_verdicts()) {
      if (v.action != core::VerdictAction::kRateLimit || v.aor.empty()) continue;
      bool armed_on_all = true;
      for (size_t i = 0; i < cluster.size(); ++i) {
        core::Enforcer* enforcer = cluster.node_at(i).engine().shard(0).enforcer();
        armed_on_all = armed_on_all && enforcer != nullptr &&
                       enforcer->limiter().armed(core::aor_key(v.aor));
      }
      printf("    %s graylisted -> rate limiter armed on %s\n", v.aor.c_str(),
             armed_on_all ? "every node" : "SOME NODES ONLY");
      screened_everywhere += armed_on_all;
    }
    score += screened_everywhere >= 1;
  }

  const bool ok = score == 3;
  printf("\n%s\n", ok ? "the fleet detects, survives churn, and screens fleet-wide."
                      : "UNEXPECTED: a scenario did not behave as designed");
  return ok ? 0 : 1;
}
