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
// VouchStore holds host-based ground truth received from peers (IMs,
// hangups and media moves): "this client really performed the keyed
// action around time t".
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "fleet/sep_wire.h"
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
  uint64_t partials_updated = 0;  // local events that advanced a counter
  uint64_t partials_merged = 0;   // remote partials absorbed
  uint64_t alerts_raised = 0;
  uint64_t windows_pruned = 0;
};

inline constexpr const char* kFleetRegisterFloodRule = "fleet-register-flood";
inline constexpr const char* kFleetDigestGuessRule = "fleet-digest-guess";

class FleetCorrelator {
 public:
  explicit FleetCorrelator(std::string self_node, CorrelatorConfig config = {});

  /// Feed one locally generated engine event. When it advances a fleet
  /// counter, the updated partial (this node's cumulative count for the
  /// window) is returned for gossiping.
  std::optional<SepCounter> on_local_event(const core::Event& event);

  /// Merge a peer's partial. max() semantics: cumulative counts make
  /// duplicate and out-of-order delivery harmless.
  void on_remote_counter(std::string_view from_node, const SepCounter& counter);

  /// Threshold pass. `is_owner(key)` decides whether this node is the
  /// deterministic coordinator for a key (the fleet ring's owner); only
  /// the owner alerts, once per (kind, key, window).
  std::vector<core::Alert> evaluate(const std::function<bool(std::string_view)>& is_owner);

  const CorrelatorStats& stats() const { return stats_; }

 private:
  // (kind, key, window_start) — std::map for deterministic iteration.
  using WindowKey = std::tuple<uint8_t, std::string, SimTime>;

  SimDuration window_of(CounterKind kind) const;
  uint64_t threshold_of(CounterKind kind) const;
  void prune(CounterKind kind, SimTime latest_window);

  std::string self_;
  CorrelatorConfig config_;
  std::map<WindowKey, std::map<std::string, uint64_t, std::less<>>> partials_;
  std::set<WindowKey> alerted_;
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
