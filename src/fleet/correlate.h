// Cross-node correlation (§4.2.2 generalized fleet-wide).
//
// FleetCorrelator aggregates attack evidence that is individually
// sub-threshold on every node: a REGISTER flood or digest-guessing run
// spread across N capture points looks like N quiet trickles until the
// per-node partial counters are merged. Each node keeps cumulative
// per-window partials keyed by SOURCE ADDRESS (not AOR — principal routing
// already concentrates one AOR's traffic on one node; what genuinely
// splits across nodes is one source hammering many identities) and gossips
// each advance. Partials merge with max(), which is idempotent under
// re-delivery and reordering, and only the ring owner of a key raises the
// alert — exactly once per (kind, key, window) fleet-wide.
//
// Cost follows change, not table size:
//   * one flat table keyed by WindowKey (kind and IPv4 source packed into
//     one word, plus the window start); each record holds the per-node
//     counts and its alerted flag. The address is formatted only for the
//     wire (counter()) and for the ownership check and alert text;
//   * a local increment, or a remote merge that creates a window or raises
//     a count, queues the window once on a dirty list, and evaluate() visits
//     only those. ownership_changed() (membership churn changes is_owner's
//     answers) makes the next evaluate() visit every window, so a window
//     that crossed the threshold under its old owner alerts exactly once
//     at the new one;
//   * pruning sweeps the table only when a kind's latest window advances
//     (the only time the horizon moves): once per window length of capture
//     time, not once per event.
//
// VouchStore holds host-based ground truth received from peers (IMs,
// hangups and media moves): "this client really performed the keyed
// action around time t".
#pragma once

#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/flat_map.h"
#include "fleet/sep_wire.h"
#include "pkt/addr.h"
#include "scidive/alert.h"
#include "scidive/event.h"

namespace scidive::fleet {

struct CorrelatorConfig {
  /// Fleet-wide REGISTERs from one source within one window.
  uint64_t register_flood_threshold = 20;
  SimDuration register_flood_window = sec(10);
  /// Fleet-wide auth failures from one source within one window.
  uint64_t digest_guess_threshold = 8;
  SimDuration digest_guess_window = sec(30);
  /// Windows older than this many window-lengths behind the latest
  /// activity are pruned (bounds memory; late partials for a pruned window
  /// are ignored, which at worst suppresses — never duplicates — an alert).
  size_t retain_windows = 8;
};

struct CorrelatorStats {
  uint64_t partials_updated = 0;   // local events that advanced a counter
  uint64_t partials_merged = 0;    // remote partials absorbed
  uint64_t alerts_raised = 0;
  uint64_t windows_pruned = 0;
  uint64_t windows_evaluated = 0;  // windows evaluate() visited
  /// Remote partials whose key is not an IPv4 literal (no node sends one:
  /// keys are source addresses), dropped unmerged.
  uint64_t counters_dropped = 0;
};

inline constexpr const char* kFleetRegisterFloodRule = "fleet-register-flood";
inline constexpr const char* kFleetDigestGuessRule = "fleet-digest-guess";

/// One correlation window: `source` packs the counter kind (high 32 bits)
/// and the IPv4 source address (low 32 bits); `start` is the window start.
struct WindowKey {
  uint64_t source = 0;
  SimTime start = 0;

  static WindowKey of(CounterKind kind, pkt::Ipv4Address addr, SimTime start) {
    return {static_cast<uint64_t>(kind) << 32 | addr.value(), start};
  }
  CounterKind kind() const { return static_cast<CounterKind>(source >> 32); }
  pkt::Ipv4Address addr() const { return pkt::Ipv4Address(static_cast<uint32_t>(source)); }
  bool operator==(const WindowKey&) const = default;
};

struct WindowKeyHash {
  uint64_t operator()(const WindowKey& k) const {
    return flat_mix64(k.source ^ flat_mix64(static_cast<uint64_t>(k.start)));
  }
};

/// This node's cumulative count for one window after a local event.
struct LocalPartial {
  WindowKey window;
  uint64_t count = 0;
};

class FleetCorrelator {
 public:
  explicit FleetCorrelator(std::string self_node, CorrelatorConfig config = {});

  /// Feed one locally generated engine event. When it advances a fleet
  /// counter, this node's updated cumulative count for the window is
  /// returned; counter() turns it into the record to gossip.
  std::optional<LocalPartial> on_local_event(const core::Event& event);

  /// The wire record of a local partial (formats the source address).
  static SepCounter counter(const LocalPartial& partial);

  /// Merge a peer's partial. max() semantics: cumulative counts make
  /// duplicate and out-of-order delivery harmless.
  void on_remote_counter(std::string_view from_node, const SepCounter& counter);

  /// is_owner's answers may have changed (membership churn): the next
  /// evaluate() visits every window, not just the changed ones.
  void ownership_changed() { evaluate_all_ = true; }

  /// Threshold pass over the windows changed since the last pass.
  /// `is_owner(key)` decides whether this node is the deterministic
  /// coordinator for a key (the fleet ring's owner); only the owner alerts,
  /// once per (kind, key, window). Alerts come out in (kind, key text,
  /// window) order.
  std::vector<core::Alert> evaluate(const std::function<bool(std::string_view)>& is_owner);

  const CorrelatorStats& stats() const { return stats_; }
  size_t windows() const { return windows_.size(); }

 private:
  struct NodeCount {
    uint32_t node = 0;  // index into nodes_
    uint64_t count = 0;
  };
  struct Window {
    std::vector<NodeCount> counts;  // one entry per reporting node
    bool alerted = false;
    bool dirty = false;  // queued on dirty_
  };
  SimDuration window_of(CounterKind kind) const;
  uint64_t threshold_of(CounterKind kind) const;
  /// Advance the kind's latest window to `start`, pruning the kind's
  /// windows below the horizon when it moves. Returns false when `start`
  /// itself is below the horizon.
  bool admit(CounterKind kind, SimTime start);
  void mark_dirty(const WindowKey& key, Window& window);
  uint32_t node_index(std::string_view name);

  CorrelatorConfig config_;
  std::vector<std::string> nodes_;  // [0] is this node; peers as first heard
  FlatMap<WindowKey, Window, WindowKeyHash> windows_;
  std::vector<WindowKey> dirty_;
  bool evaluate_all_ = false;
  SimTime latest_window_[2] = {0, 0};  // per kind, for pruning
  CorrelatorStats stats_;
};

/// Peer-vouched ground truth, pruned by age.
class VouchStore {
 public:
  explicit VouchStore(SimDuration match_window, size_t max_entries = 4096)
      : match_window_(match_window), max_entries_(max_entries == 0 ? 1 : max_entries) {}

  void add(const SepVouch& vouch);
  /// Did any peer vouch this (kind, key) within match_window of `around`?
  bool vouched(VouchKind kind, std::string_view key, SimTime around) const;
  size_t size() const { return vouches_.size(); }

 private:
  SimDuration match_window_;
  size_t max_entries_;
  std::deque<SepVouch> vouches_;
};

}  // namespace scidive::fleet
