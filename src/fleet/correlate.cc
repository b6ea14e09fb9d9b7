#include "fleet/correlate.h"

#include <algorithm>
#include <tuple>

#include "common/strings.h"

namespace scidive::fleet {

namespace {

size_t kind_slot(CounterKind kind) { return kind == CounterKind::kRegisterFlood ? 0 : 1; }

}  // namespace

FleetCorrelator::FleetCorrelator(std::string self_node, CorrelatorConfig config)
    : config_(config) {
  if (config_.register_flood_window <= 0) config_.register_flood_window = sec(10);
  if (config_.digest_guess_window <= 0) config_.digest_guess_window = sec(30);
  if (config_.retain_windows == 0) config_.retain_windows = 1;
  nodes_.push_back(std::move(self_node));
}

SimDuration FleetCorrelator::window_of(CounterKind kind) const {
  return kind == CounterKind::kRegisterFlood ? config_.register_flood_window
                                             : config_.digest_guess_window;
}

uint64_t FleetCorrelator::threshold_of(CounterKind kind) const {
  return kind == CounterKind::kRegisterFlood ? config_.register_flood_threshold
                                             : config_.digest_guess_threshold;
}

std::optional<LocalPartial> FleetCorrelator::on_local_event(const core::Event& event) {
  CounterKind kind;
  switch (event.type) {
    case core::EventType::kSipRegisterSeen: kind = CounterKind::kRegisterFlood; break;
    case core::EventType::kSipAuthFailure: kind = CounterKind::kDigestGuess; break;
    default: return std::nullopt;
  }
  if (event.endpoint.addr.value() == 0) return std::nullopt;
  const SimDuration window = window_of(kind);
  const SimTime window_start = event.time >= 0 ? event.time - event.time % window : 0;
  const WindowKey key = WindowKey::of(kind, event.endpoint.addr, window_start);
  ++stats_.partials_updated;
  // A window already below the horizon is not stored; its gossip carries
  // this event alone.
  if (!admit(kind, window_start)) return LocalPartial{key, 1};
  Window& w = *windows_.try_emplace(key).first;
  if (w.counts.empty() || w.counts.front().node != 0) w.counts.insert(w.counts.begin(), {0, 0});
  const uint64_t count = ++w.counts.front().count;
  mark_dirty(key, w);
  return LocalPartial{key, count};
}

SepCounter FleetCorrelator::counter(const LocalPartial& partial) {
  return SepCounter{partial.window.kind(), partial.window.addr().to_string(),
                    partial.window.start, partial.count};
}

void FleetCorrelator::on_remote_counter(std::string_view from_node, const SepCounter& counter) {
  if (counter.kind != CounterKind::kRegisterFlood && counter.kind != CounterKind::kDigestGuess)
    return;
  const auto addr = pkt::Ipv4Address::parse(counter.key);
  if (!addr) {
    ++stats_.counters_dropped;
    return;
  }
  ++stats_.partials_merged;
  if (!admit(counter.kind, counter.window_start)) return;  // late: at worst suppresses
  const WindowKey key = WindowKey::of(counter.kind, *addr, counter.window_start);
  const uint32_t node = node_index(from_node);
  Window& w = *windows_.try_emplace(key).first;
  auto it = std::find_if(w.counts.begin(), w.counts.end(),
                         [node](const NodeCount& nc) { return nc.node == node; });
  if (it == w.counts.end()) {
    w.counts.push_back({node, counter.count});
  } else if (counter.count > it->count) {
    it->count = counter.count;
  } else {
    return;  // nothing rose: the window's verdict cannot change
  }
  mark_dirty(key, w);
}

void FleetCorrelator::mark_dirty(const WindowKey& key, Window& window) {
  if (window.dirty) return;
  window.dirty = true;
  dirty_.push_back(key);
}

uint32_t FleetCorrelator::node_index(std::string_view name) {
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i] == name) return static_cast<uint32_t>(i);
  }
  nodes_.emplace_back(name);
  return static_cast<uint32_t>(nodes_.size() - 1);
}

std::vector<core::Alert> FleetCorrelator::evaluate(
    const std::function<bool(std::string_view)>& is_owner) {
  struct Raised {
    CounterKind kind;
    std::string key;
    SimTime start;
    core::Alert alert;
  };
  std::vector<Raised> raised;
  auto visit = [&](const WindowKey& wk, Window& w) {
    w.dirty = false;
    ++stats_.windows_evaluated;
    if (w.alerted) return;
    const CounterKind kind = wk.kind();
    uint64_t total = 0;
    for (const NodeCount& nc : w.counts) total += nc.count;
    if (total < threshold_of(kind)) return;
    std::string key = wk.addr().to_string();
    if (!is_owner(key)) return;
    w.alerted = true;
    ++stats_.alerts_raised;
    core::Alert alert;
    alert.rule = kind == CounterKind::kRegisterFlood ? kFleetRegisterFloodRule
                                                    : kFleetDigestGuessRule;
    alert.severity = core::Severity::kCritical;
    alert.session =
        str::format("fleet:%s@%lld", key.c_str(), static_cast<long long>(wk.start));
    alert.time = wk.start;
    alert.message = str::format(
        "%llu %s from %s across %zu node(s) within one window (threshold %llu)",
        static_cast<unsigned long long>(total),
        kind == CounterKind::kRegisterFlood ? "REGISTERs" : "auth failures", key.c_str(),
        w.counts.size(), static_cast<unsigned long long>(threshold_of(kind)));
    raised.push_back({kind, std::move(key), wk.start, std::move(alert)});
  };
  if (evaluate_all_) {
    evaluate_all_ = false;
    windows_.for_each(visit);
  } else {
    for (const WindowKey& wk : dirty_) {
      if (Window* w = windows_.find(wk)) visit(wk, *w);  // absent: pruned since
    }
  }
  dirty_.clear();

  std::sort(raised.begin(), raised.end(), [](const Raised& a, const Raised& b) {
    return std::tie(a.kind, a.key, a.start) < std::tie(b.kind, b.key, b.start);
  });
  std::vector<core::Alert> out;
  out.reserve(raised.size());
  for (Raised& r : raised) out.push_back(std::move(r.alert));
  return out;
}

bool FleetCorrelator::admit(CounterKind kind, SimTime start) {
  SimTime& latest = latest_window_[kind_slot(kind)];
  const bool moved = start > latest;
  if (moved) latest = start;
  const SimTime cutoff =
      latest - window_of(kind) * static_cast<SimDuration>(config_.retain_windows);
  if (cutoff <= 0) return true;
  // The horizon moves only with the latest window, and no window is stored
  // below it, so only a move can leave windows to prune.
  if (moved) {
    stats_.windows_pruned += windows_.erase_if([&](const WindowKey& wk, const Window&) {
      return wk.kind() == kind && wk.start < cutoff;
    });
  }
  return start >= cutoff;
}

void VouchStore::add(const SepVouch& vouch) {
  vouches_.push_back(vouch);
  while (vouches_.size() > max_entries_) vouches_.pop_front();
}

bool VouchStore::vouched(VouchKind kind, std::string_view key, SimTime around) const {
  for (const SepVouch& v : vouches_) {
    if (v.kind != kind || v.key != key) continue;
    const SimDuration delta = v.time >= around ? v.time - around : around - v.time;
    if (delta <= match_window_) return true;
  }
  return false;
}

}  // namespace scidive::fleet
