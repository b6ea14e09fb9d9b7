#include "fleet/udp_transport.h"

#include "pkt/ipv4.h"

namespace scidive::fleet {

netsim::PacketTap node_tap(FleetNode& node, pkt::Ipv4Address watch) {
  return [&node, watch](const pkt::Packet& packet) {
    auto ip = pkt::parse_ipv4(packet.data);
    if (!ip.ok()) return;
    if (ip.value().header.src != watch && ip.value().header.dst != watch) return;
    node.on_packet_to_slot(0, packet);
  };
}

void UdpGossipLink::start() {
  if (running_) return;
  running_ = true;
  host_.bind_udp(kFleetPort,
                 [this](pkt::Endpoint, std::span<const uint8_t> payload, SimTime now) {
                   ++frames_received_;
                   node_.on_datagram(payload, now);
                 });
  schedule();
}

void UdpGossipLink::stop() {
  if (!running_) return;
  running_ = false;
  host_.unbind_udp(kFleetPort);
}

void UdpGossipLink::schedule() {
  host_.after(interval_, [this] {
    if (!running_) return;
    tick();
    schedule();
  });
}

void UdpGossipLink::tick() {
  node_.pump(host_.now());
  send_all();
  // Heartbeats keep peers' liveness windows fed even when idle, so
  // fail-open never triggers against a healthy-but-quiet node.
  for (const auto& [name, endpoint] : peers_) {
    host_.send_udp(kFleetPort, endpoint, encode_hello(node_.name(), node_.epoch()));
    ++frames_sent_;
  }
}

void UdpGossipLink::send_all() {
  // Queues batch many records per frame; drain until empty this tick.
  for (int spin = 0; spin < 1024; ++spin) {
    auto frames = node_.take_frames();
    if (frames.empty()) break;
    for (auto& [to, frame] : frames) {
      auto it = peers_.find(to);
      if (it == peers_.end()) continue;
      host_.send_udp(kFleetPort, it->second, frame);
      ++frames_sent_;
    }
  }
}

}  // namespace scidive::fleet
