// Cooperative detection demo (paper §4.2.2 / §6): one SCIDIVE node beside
// each client, the two exchanging SEP-v2 gossip over UDP.
//
// The paper concedes its fake-IM rule fails against source-IP spoofing:
//   "If the attacker is able to spoof its IP address, then this rule will
//    not work. ... This motivates a more ambitious architecture like
//    deploying IDS on both client ends."
// This program runs that architecture as a two-node fleet: bob's node
// vouches for IMs bob really sent; alice's node holds any incoming "from
// bob" for that vouch and flags it when none arrives — spoofed or not.
// Exit code 0 only if the spoofed IM is caught and the genuine one confirmed.
//
//   $ ./cooperative_ids
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

size_t rule_count(const fleet::FleetNode& node, std::string_view rule) {
  size_t n = 0;
  for (const core::Alert& alert : node.engine().merged_alerts()) {
    if (alert.rule == rule) ++n;
  }
  return n;
}

}  // namespace

int main() {
  printf("SCIDIVE — cooperative detection across two IDS nodes\n");
  printf("=====================================================\n\n");

  Testbed tb;  // reuse the Figure-4 plant; we bring our own IDS nodes
  voip::UserAgent& alice = tb.client_a();
  voip::UserAgent& bob = tb.client_b();
  netsim::Host ids_a_host("ids-a", pkt::Ipv4Address(10, 0, 0, 10), tb.net());
  netsim::Host ids_b_host("ids-b", pkt::Ipv4Address(10, 0, 0, 11), tb.net());
  tb.net().attach(ids_a_host, netsim::LinkConfig{.delay = DelayModel::fixed(msec(1))});
  tb.net().attach(ids_b_host, netsim::LinkConfig{.delay = DelayModel::fixed(msec(1))});

  fleet::FleetNode ids_a(node_config("ids-a"));
  fleet::FleetNode ids_b(node_config("ids-b"));
  fleet::UdpGossipLink link_a(ids_a_host, ids_a);
  fleet::UdpGossipLink link_b(ids_b_host, ids_b);
  tb.net().add_tap(fleet::node_tap(ids_a, alice.host().address()));
  tb.net().add_tap(fleet::node_tap(ids_b, bob.host().address()));
  ids_a.add_peer("ids-b");
  ids_b.add_peer("ids-a");
  ids_a.add_peer_user(bob.aor());
  ids_b.add_peer_user(alice.aor());
  ids_a.attach_local_agent(alice);
  ids_b.attach_local_agent(bob);
  link_a.add_peer("ids-b", {ids_b_host.address(), fleet::kFleetPort});
  link_b.add_peer("ids-a", {ids_a_host.address(), fleet::kFleetPort});
  link_a.start();
  link_b.start();

  printf("1) bob sends a genuine IM to alice\n");
  tb.register_all();
  bob.add_contact(alice.aor(), alice.sip_endpoint());
  bob.send_im("alice", "lunch?");
  tb.run_for(sec(2));
  ids_a.pump(tb.now());
  const fleet::FleetNodeStats genuine = ids_a.stats();
  printf("   claims held=%llu confirmed=%llu flagged=%llu (vouched -> silent)\n\n",
         (unsigned long long)genuine.claims_held, (unsigned long long)genuine.claims_confirmed,
         (unsigned long long)genuine.claims_flagged);

  printf("2) attacker forges an IM 'from bob' with bob's IP spoofed perfectly\n");
  voip::FakeImAttacker attacker(tb.attacker_host());
  attacker.send_spoofed(alice.sip_endpoint(), bob.aor(), bob.sip_endpoint(), "wire money now");
  tb.run_for(sec(2));
  ids_a.pump(tb.now());
  ids_b.pump(tb.now());
  for (const core::Alert& alert : ids_a.engine().merged_alerts())
    printf(">>> [ids-a] %s\n", alert.to_string().c_str());
  const size_t local = rule_count(ids_a, "fake-im");
  const size_t cooperative = rule_count(ids_a, fleet::FleetNode::kFleetFakeImRule);
  printf("\n   local fake-im rule alerts:  %zu   (blind: source IP looked right)\n", local);
  printf("   fleet-fake-im alerts:       %zu   (bob's IDS never vouched the send)\n",
         cooperative);

  const fleet::FleetNodeStats a = ids_a.stats();
  const fleet::FleetNodeStats b = ids_b.stats();
  printf("\ncontrol-channel cost: %llu vouches sent by ids-b, %llu received by ids-a;\n"
         "gossip frames built ids-a=%llu ids-b=%llu (%llu + %llu bytes)\n",
         (unsigned long long)b.vouches_sent, (unsigned long long)a.vouches_received,
         (unsigned long long)a.gossip_frames_built, (unsigned long long)b.gossip_frames_built,
         (unsigned long long)a.gossip_bytes_built, (unsigned long long)b.gossip_bytes_built);
  const bool ok = cooperative >= 1 && a.claims_confirmed == 1;
  printf("\n%s\n", ok ? "cooperative detection closed the spoofing blind spot."
                      : "UNEXPECTED: scenario did not behave as designed");
  return ok ? 0 : 1;
}
