// Shared capture streams for the topology oracle and fleet tests:
// deterministic packet streams recorded off the testbed (the four Table-1
// attacks) and the carrier-mix generator (SPIT prevention).
#pragma once

#include <set>
#include <vector>

#include "capture/carrier_mix.h"
#include "capture/packet_source.h"
#include "pkt/packet.h"
#include "testbed/testbed.h"

namespace scidive::capture::testing {

/// One testbed run carrying the four §5 single-point attacks back to back
/// (BYE teardown, fake IM, call hijack, RTP flood), captured off the wire.
/// Deterministic for a fixed seed.
inline std::vector<pkt::Packet> four_attacks_stream() {
  std::vector<pkt::Packet> out;
  testbed::TestbedConfig cfg;
  cfg.ids_obs.time_stages = false;
  testbed::Testbed tb(cfg);
  tb.net().add_tap([&out](const pkt::Packet& p) { out.push_back(p); });

  tb.establish_call(sec(3));
  tb.inject_bye_attack();
  tb.run_for(sec(1));

  tb.client_b().add_contact(tb.client_a().aor(), tb.client_a().sip_endpoint());
  tb.client_b().send_im("alice", "lunch at noon? - bob");
  tb.run_for(sec(1));
  tb.inject_fake_im();
  tb.run_for(sec(1));

  tb.establish_call(sec(2));
  tb.inject_call_hijack();
  tb.run_for(sec(1));

  tb.establish_call(sec(2));
  tb.inject_rtp_flood(30);
  tb.run_for(sec(2));
  return out;
}

/// Carrier mix with a SPIT cohort spliced in: benign calls, IMs and
/// registration churn from 200 users plus two spam identities hammering
/// INVITEs, hot enough inside the graylist window that the prevention rule
/// must fire, so verdict parity is tested on a stream that emits verdicts.
inline std::vector<pkt::Packet> spit_mix_stream(uint64_t seed) {
  capture::CarrierMixConfig mix;
  mix.seed = seed;
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
  return capture::read_all(source);
}

/// The testbed IDS's home scope (client A), for fleet-level and engine filtering.
inline std::set<pkt::Ipv4Address> testbed_home() {
  return {pkt::Ipv4Address(10, 0, 0, 1)};
}

}  // namespace scidive::capture::testing
