// The simulated LAN of the paper's Figure 4: hosts attached to a broadcast
// Hub through Links with configurable delay distributions, loss and MTU.
// Promiscuous taps on the hub model the IDS's sniffing position.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "capture/packet_source.h"
#include "common/rng.h"
#include "netsim/simulator.h"
#include "pkt/packet.h"

namespace scidive::netsim {

/// A node that can be attached to the network and receive packets.
class NetworkNode {
 public:
  virtual ~NetworkNode() = default;
  /// Called when a packet addressed to this node's IP arrives.
  virtual void on_packet(const pkt::Packet& packet) = 0;
  virtual pkt::Ipv4Address address() const = 0;
  virtual std::string name() const = 0;
};

/// A promiscuous observer: sees every packet that crosses the hub, at the
/// moment it reaches the hub, regardless of addressing. The IDS attaches
/// here. `const Packet&` only — taps cannot modify traffic.
using PacketTap = capture::PacketTap;

/// Per-link fault-injection knobs (adversarial/impaired network conditions
/// beyond the paper's independent-loss model). All faults are applied on the
/// uplink (sender -> hub) per wire unit, after MTU fragmentation, and are
/// driven by the network's seeded Rng — identical seeds replay identical
/// fault sequences.
struct FaultConfig {
  /// Per-unit probability of on-the-wire corruption: 1..corrupt_max_bytes
  /// random bytes are overwritten with random values. Checksums are NOT
  /// recomputed — receivers and the IDS see genuinely damaged datagrams.
  double corrupt = 0.0;
  size_t corrupt_max_bytes = 4;
  /// Per-unit probability the unit is delivered twice (both copies sample
  /// their own delay, so duplicates may also arrive out of order).
  double duplicate = 0.0;
  /// Per-unit probability the unit is held back an extra reorder_window
  /// before entering the hub, letting later traffic overtake it.
  double reorder = 0.0;
  SimDuration reorder_window = msec(20);
  /// Gilbert-Elliott burst loss: per-unit chance of entering the bad state
  /// (burst_enter), of leaving it again (burst_exit), and the loss rate
  /// while inside it. burst_enter == 0 disables the model entirely.
  double burst_enter = 0.0;
  double burst_exit = 0.3;
  double burst_loss = 0.9;

  bool any() const {
    return corrupt > 0 || duplicate > 0 || reorder > 0 || burst_enter > 0;
  }
};

/// Per-attachment link properties (host <-> hub).
struct LinkConfig {
  DelayModel delay = DelayModel::fixed(msec(1));
  double loss = 0.0;   // independent per-packet loss probability
  size_t mtu = 1500;   // fragmentation threshold on transmit
  FaultConfig faults;  // adversarial impairment knobs (default: none)
};

struct NetworkStats {
  uint64_t packets_sent = 0;       // send() calls
  uint64_t fragments_created = 0;  // extra fragments due to MTU
  uint64_t packets_delivered = 0;  // handed to a destination node
  uint64_t packets_lost = 0;       // dropped by link loss (incl. burst loss)
  uint64_t packets_unroutable = 0; // no attached node had the dst address
  uint64_t packets_corrupted = 0;  // units damaged by FaultConfig::corrupt
  uint64_t packets_duplicated = 0; // extra copies injected by duplicate
  uint64_t packets_reordered = 0;  // units held back by reorder
  uint64_t packets_lost_burst = 0; // subset of packets_lost from burst state
};

/// Single-segment broadcast network ("the hub"). All attached nodes share
/// the medium; delivery delay from A to B is sample(A.link) + sample(B.link).
class Network {
 public:
  Network(Simulator& sim, uint64_t seed) : sim_(sim), rng_(seed) {}

  /// Attach a node. The node must outlive the network.
  void attach(NetworkNode& node, LinkConfig link);
  void detach(NetworkNode& node);

  /// Replace the link configuration of an attached node (e.g. to change
  /// delay distribution mid-experiment).
  void set_link(NetworkNode& node, LinkConfig link);

  /// Designate an attached node as this segment's gateway: packets whose
  /// destination matches no attached node are handed to it instead of being
  /// dropped (multi-segment topologies; see netsim::Router).
  void set_gateway(NetworkNode& node);

  /// Transmit a packet from `from`. Fragmentation (per the sender's MTU),
  /// loss and delays are applied; the packet is delivered to the node(s)
  /// whose address equals the IP destination, and to every tap.
  void send(NetworkNode& from, pkt::Packet packet);

  /// Inject a packet as if it appeared on the wire from a node with the
  /// packet's source address (used by attackers forging sources).
  void inject(pkt::Packet packet, const LinkConfig& link);

  void add_tap(PacketTap tap) { taps_.push_back(std::move(tap)); }

  const NetworkStats& stats() const { return stats_; }
  Simulator& simulator() { return sim_; }

 private:
  struct Attachment {
    NetworkNode* node;
    LinkConfig link;
    /// Gilbert-Elliott burst-loss state for this node's uplink.
    bool burst_bad = false;
  };

  void transmit(const LinkConfig& uplink, bool& burst_bad, pkt::Packet packet);
  void deliver_fragment(pkt::Packet fragment);

  Attachment* find(NetworkNode& node);

  Simulator& sim_;
  Rng rng_;
  std::vector<Attachment> attachments_;
  std::vector<PacketTap> taps_;
  NetworkNode* gateway_ = nullptr;
  NetworkStats stats_;
  /// Burst-loss state for inject()ed traffic (no attachment to hold it).
  bool inject_burst_bad_ = false;
};

}  // namespace scidive::netsim
