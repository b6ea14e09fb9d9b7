// Shared capture streams for the topology oracle and fleet tests: the
// carrier-mix generator with a SPIT cohort (verdict parity). The four
// Table-1 attacks come from testbed::four_attacks_stream().
#pragma once

#include <set>
#include <vector>

#include "capture/carrier_mix.h"
#include "capture/packet_source.h"
#include "pkt/packet.h"

namespace scidive::capture::testing {

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
