// Netsim transport for fleet gossip: one UdpGossipLink binds a FleetNode
// to a simulated Host, carrying SEP-v2 frames as real UDP datagrams on
// kFleetPort — so gossip rides the same network the attacks do, including
// netsim's FaultConfig loss/duplication/delay. A self-rescheduling tick
// pumps the node (quiesce, drain, judge) and flushes its gossip queues;
// liveness heartbeats ride every tick. node_tap() feeds a node the traffic
// of the one host it sits beside — with a link per node, that is the
// per-client cooperative deployment of §6.
//
// The channel is deliberately unauthenticated, as 2004-era control
// channels were (the paper's own trust assumption); a deployment would
// wrap it in an authenticated transport. The decoder treats every peer
// datagram as untrusted regardless.
#pragma once

#include <map>
#include <string>

#include "fleet/node.h"
#include "netsim/host.h"

namespace scidive::fleet {

/// Deliver only the packets touching `watch` to the node — the per-client
/// deployment of Figure 4, one IDS beside each monitored host. The node's
/// engine has no home scope of its own (see FleetNodeConfig::engine), so
/// this is the only filter. The node must outlive the tap.
netsim::PacketTap node_tap(FleetNode& node, pkt::Ipv4Address watch);

class UdpGossipLink {
 public:
  UdpGossipLink(netsim::Host& host, FleetNode& node, SimDuration pump_interval = msec(50))
      : host_(host), node_(node), interval_(pump_interval <= 0 ? msec(50) : pump_interval) {}

  /// Where a peer's SEP endpoint lives on the simulated network.
  void add_peer(const std::string& name, pkt::Endpoint endpoint) {
    peers_[name] = endpoint;
  }

  /// Bind the SEP port and start the pump tick.
  void start();
  /// Unbind and stop rescheduling (the link can be restarted).
  void stop();

  /// One pump round now: quiesce the node, send its frames and heartbeats.
  void tick();

  uint64_t frames_sent() const { return frames_sent_; }
  uint64_t frames_received() const { return frames_received_; }
  bool running() const { return running_; }

 private:
  void schedule();
  void send_all();

  netsim::Host& host_;
  FleetNode& node_;
  SimDuration interval_;
  std::map<std::string, pkt::Endpoint> peers_;
  bool running_ = false;
  uint64_t frames_sent_ = 0;
  uint64_t frames_received_ = 0;
};

}  // namespace scidive::fleet
