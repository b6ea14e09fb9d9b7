// Seeded capture streams for the end-to-end benchmark, and the deployment
// each workload runs under. The topologies only ever see the packets built
// here; the seed is the one input that varies them.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "pkt/packet.h"
#include "scidive/engine.h"

namespace perfbench {

namespace pkt = scidive::pkt;
using scidive::SimDuration;
using scidive::SimTime;

enum class Workload { kCarrierMix, kSignalingStorm, kMediaFanout };

std::optional<Workload> parse_workload(std::string_view name);
std::string_view workload_name(Workload w);

/// A pre-generated capture. Two shapes:
///   - stored (carrier mixes): `packets` is the whole capture, replayed from
///     the start into a freshly built topology on every pass;
///   - flow templates (media_fanout): pass 0 is the first touch — the
///     signaling in `warmup` that binds every flow, then `first_rounds`
///     rounds of RTP that create each flow's state. Every later pass emits
///     the next `rounds_per_pass` rounds of in-order RTP, one packet per
///     flow per round in the seeded `order`, by patching sequence, RTP
///     timestamp and capture time into the flow's template. Passes continue
///     the same flows, so a topology stays warm.
struct Stream {
  Workload workload = Workload::kCarrierMix;
  uint64_t seed = 0;
  std::vector<pkt::Packet> warmup;
  std::vector<pkt::Packet> packets;
  std::vector<pkt::Packet> flows;  // RTP templates, UDP checksum zeroed
  std::vector<uint32_t> order;     // flow index of each packet, round by round
  uint32_t first_rounds = 0;
  uint32_t rounds_per_pass = 0;
  SimTime media_start = 0;         // capture time of round 0
  SimDuration round_period = 0;    // one RTP packetization interval
  uint64_t sip_packets = 0;        // SIP datagrams in warmup + one pass
  uint64_t digest = 0;             // content hash of everything a pass can emit

  bool continuous() const { return !flows.empty(); }
  /// Packets of pass `pass` (for stored captures every pass is the capture).
  size_t packets_in_pass(uint64_t pass) const {
    if (!continuous()) return packets.size();
    return pass == 0 ? warmup.size() + first_rounds * flows.size()
                     : rounds_per_pass * flows.size();
  }
  /// Passes a traced round feeds to each fresh topology: the capture, or
  /// the first touch plus one steady pass.
  uint64_t traced_passes() const { return continuous() ? 2 : 1; }
  size_t traced_packets() const {
    size_t n = 0;
    for (uint64_t p = 0; p < traced_passes(); ++p) n += packets_in_pass(p);
    return n;
  }
};

/// Builds the capture for (workload, seed). `scale` shrinks it for the
/// self-test (1.0 is the benchmark's size).
Stream generate(Workload workload, uint64_t seed, double scale);

/// Hex spelling of a stream digest.
std::string digest_hex(uint64_t digest);

namespace detail {
void patch_rtp(pkt::Packet& packet, uint64_t round, SimTime time);
}

/// Calls fn(const pkt::Packet&) for every packet of pass `pass`, in order
/// (the warm-up first on pass 0). Flow-template packets are patched in
/// place, so `fn` must not keep the reference past its return.
template <typename Fn>
void replay(Stream& stream, uint64_t pass, Fn&& fn) {
  if (pass == 0) {
    for (const pkt::Packet& packet : stream.warmup) fn(packet);
  }
  if (!stream.continuous()) {
    for (const pkt::Packet& packet : stream.packets) fn(packet);
    return;
  }
  const size_t flows = stream.flows.size();
  const uint64_t first_round =
      pass == 0 ? 0 : stream.first_rounds + (pass - 1) * stream.rounds_per_pass;
  const size_t emitted = (pass == 0 ? stream.first_rounds : stream.rounds_per_pass) * flows;
  const SimDuration step = stream.round_period / static_cast<SimDuration>(flows);
  for (size_t i = 0; i < emitted; ++i) {
    const uint64_t round = first_round + i / flows;
    const SimTime time = stream.media_start +
                         static_cast<SimTime>(round) * stream.round_period +
                         static_cast<SimTime>(i % flows) * step;
    pkt::Packet& packet = stream.flows[stream.order[i]];
    detail::patch_rtp(packet, round, time);
    fn(static_cast<const pkt::Packet&>(packet));
  }
}

/// The shipped production config every topology runs: fast path on, stage
/// timing on, enforcement off. signaling_storm runs the prevention
/// deployment instead: SPIT graylisting, inline enforcement, and INVITEs
/// routed by caller in the sharded and fleet topologies.
struct Deployment {
  scidive::core::EngineConfig engine;
  bool route_invite_by_caller = false;
};

Deployment deployment_for(Workload workload);

}  // namespace perfbench
