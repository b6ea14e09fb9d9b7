// The capture boundary (ROADMAP item 3): everything that can produce or
// consume captured packets speaks one of two tiny interfaces, so the
// engines, the testbed, the benches and the CLI never care whether bytes
// came from netsim, a pcap file, a live socket or a statistical workload
// generator.
//
//   - PacketSource is pull-based: the consumer (an engine drive loop, the
//     CLI) calls next() until it returns false. File and generator sources
//     are exhausted then; live sources return false only after stop().
//   - PacketSink is push-based: taps, recorders and exporters implement
//     write(). A sink's tap() adapter, like every engine's, is a PacketTap:
//     the callback type netsim::Network::add_tap takes (netsim::PacketTap
//     aliases it), so the engines need no netsim dependency for it.
//
// In the paper's terms (§4.1) a PacketSource is one tap location: the
// client-side deployment of Figure 3 is a source at the endpoint, a
// proxy-side deployment is a source on the proxy segment, and the core
// deployment is a source behind a span port. The engine is placement-
// agnostic; only the source moves.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "pkt/packet.h"

namespace scidive::capture {

/// Push-side packet callback: engine and sink taps, netsim::Network taps.
using PacketTap = std::function<void(const pkt::Packet&)>;

class PacketSource {
 public:
  virtual ~PacketSource() = default;

  /// Pull the next packet. Returns false when the source is exhausted (file
  /// sources, bounded generators) or stopped (live sources). A false return
  /// is terminal for finite sources; live sources document their own
  /// semantics.
  virtual bool next(pkt::Packet* out) = 0;

  /// Stable label for metrics/diagnostics ("pcap", "udp", "carrier_mix").
  virtual std::string_view name() const = 0;
};

class PacketSink {
 public:
  virtual ~PacketSink() = default;

  virtual void write(const pkt::Packet& packet) = 0;

  /// Adapter for netsim::Network::add_tap.
  PacketTap tap() {
    return [this](const pkt::Packet& packet) { write(packet); };
  }
};

/// Drain a source into a callback. Returns the number of packets fed.
inline uint64_t drain(PacketSource& source, const PacketTap& consumer) {
  pkt::Packet packet;
  uint64_t fed = 0;
  while (source.next(&packet)) {
    consumer(packet);
    ++fed;
  }
  return fed;
}

/// Materialize a whole (finite!) source. Test/CLI convenience.
inline std::vector<pkt::Packet> read_all(PacketSource& source) {
  std::vector<pkt::Packet> out;
  pkt::Packet packet;
  while (source.next(&packet)) out.push_back(std::move(packet));
  return out;
}

}  // namespace scidive::capture
