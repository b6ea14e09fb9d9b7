// Cooperative vs single-point detection matrix (paper §4.2.2 / §6
// extension): two fake-IM variants against two IDS deployments — one node
// beside each client, either alone or joined into a two-node fleet over
// UDP gossip — plus the control-channel cost the paper worries about
// ("does not overwhelm the system with control messages").
#include <cstdio>

#include "fleet/udp_transport.h"
#include "testbed/testbed.h"
#include "voip/attack.h"

using namespace scidive;
using testbed::Testbed;

namespace {

fleet::FleetNodeConfig node_config(const std::string& name) {
  fleet::FleetNodeConfig config;
  config.name = name;
  config.engine.num_shards = 1;
  return config;
}

struct Deployment {
  Testbed tb;
  netsim::Host ids_a_host{"ids-a", pkt::Ipv4Address(10, 0, 0, 10), tb.net()};
  netsim::Host ids_b_host{"ids-b", pkt::Ipv4Address(10, 0, 0, 11), tb.net()};
  fleet::FleetNode ids_a{node_config("ids-a")};
  fleet::FleetNode ids_b{node_config("ids-b")};
  fleet::UdpGossipLink link_a{ids_a_host, ids_a};
  fleet::UdpGossipLink link_b{ids_b_host, ids_b};

  /// Both deployments put a node beside each client; only the cooperative
  /// one joins them (peers, peer-homed users, host vouching, gossip links).
  explicit Deployment(bool cooperative) {
    tb.net().attach(ids_a_host, netsim::LinkConfig{.delay = DelayModel::fixed(msec(1))});
    tb.net().attach(ids_b_host, netsim::LinkConfig{.delay = DelayModel::fixed(msec(1))});
    tb.net().add_tap(fleet::node_tap(ids_a, tb.client_a().host().address()));
    tb.net().add_tap(fleet::node_tap(ids_b, tb.client_b().host().address()));
    if (cooperative) {
      ids_a.add_peer("ids-b");
      ids_b.add_peer("ids-a");
      ids_a.attach_local_agent(tb.client_a());
      ids_b.attach_local_agent(tb.client_b());
      ids_a.add_peer_user(tb.client_b().aor());
      ids_b.add_peer_user(tb.client_a().aor());
      link_a.add_peer("ids-b", {ids_b_host.address(), fleet::kFleetPort});
      link_b.add_peer("ids-a", {ids_a_host.address(), fleet::kFleetPort});
    }
    link_a.start();
    link_b.start();
  }

  void seed_history() {
    tb.register_all();
    tb.client_b().add_contact(tb.client_a().aor(), tb.client_a().sip_endpoint());
    tb.client_b().send_im("alice", "legitimate history");
    tb.run_for(sec(2));
  }

  /// Quiesce both engines so alerts and stats are safe to read.
  void settle() {
    ids_a.pump(tb.now());
    ids_b.pump(tb.now());
  }

  size_t detections() const {
    size_t n = 0;
    for (const core::Alert& alert : ids_a.engine().merged_alerts()) {
      if (alert.rule == "fake-im" || alert.rule == fleet::FleetNode::kFleetFakeImRule) ++n;
    }
    return n;
  }
};

}  // namespace

int main() {
  printf("Cooperative vs endpoint-only detection of forged IMs\n");
  printf("=====================================================\n\n");
  printf("%-28s | %-18s | %-18s\n", "attack variant", "endpoint-only IDS", "cooperative IDS");
  printf("----------------------------------------------------------------------\n");

  struct Case {
    const char* name;
    bool spoofed;
  };
  for (const Case test_case : {Case{"fake IM (attacker's IP)", false},
                               Case{"fake IM (spoofed bob IP)", true}}) {
    size_t detected[2];
    for (int coop = 0; coop <= 1; ++coop) {
      Deployment d(coop == 1);
      d.seed_history();
      voip::FakeImAttacker attacker(d.tb.attacker_host());
      if (test_case.spoofed) {
        attacker.send_spoofed(d.tb.client_a().sip_endpoint(), d.tb.client_b().aor(),
                              d.tb.client_b().sip_endpoint(), "pay up");
      } else {
        attacker.send(d.tb.client_a().sip_endpoint(), d.tb.client_b().aor(), "pay up");
      }
      d.tb.run_for(sec(2));
      d.settle();
      detected[coop] = d.detections();
    }
    printf("%-28s | %-18s | %-18s\n", test_case.name,
           detected[0] ? "DETECTED" : "missed", detected[1] ? "DETECTED" : "missed");
  }

  // False alarms + control-channel overhead under a benign IM exchange.
  {
    Deployment d(true);
    d.seed_history();
    for (int i = 0; i < 10; ++i) {
      d.tb.client_b().send_im("alice", "chat " + std::to_string(i));
      d.tb.run_for(msec(700));
    }
    d.tb.run_for(sec(2));
    d.settle();
    const fleet::FleetNodeStats a = d.ids_a.stats();
    const fleet::FleetNodeStats b = d.ids_b.stats();
    printf("\nbenign run (11 genuine IMs): alerts=%zu, claims confirmed by ids-a=%llu\n"
           "control channel: vouches sent by ids-b=%llu, received by ids-a=%llu;\n"
           "gossip frames built ids-a=%llu ids-b=%llu (%llu + %llu bytes) — about one\n"
           "frame per vouched IM. Datagrams sent incl. one liveness hello per peer\n"
           "per 50 ms pump tick: ids-a=%llu ids-b=%llu\n",
           d.ids_a.engine().merged_alerts().size(),
           static_cast<unsigned long long>(a.claims_confirmed),
           static_cast<unsigned long long>(b.vouches_sent),
           static_cast<unsigned long long>(a.vouches_received),
           static_cast<unsigned long long>(a.gossip_frames_built),
           static_cast<unsigned long long>(b.gossip_frames_built),
           static_cast<unsigned long long>(a.gossip_bytes_built),
           static_cast<unsigned long long>(b.gossip_bytes_built),
           static_cast<unsigned long long>(d.link_a.frames_sent()),
           static_cast<unsigned long long>(d.link_b.frames_sent()));
  }

  printf("\nexpected shape: the endpoint-only deployment catches the clumsy forgery\n");
  printf("but misses the spoofed one (the paper's admitted blind spot); the\n");
  printf("cooperative deployment catches both with zero benign false alarms.\n");
  return 0;
}
