#include "fleet/node.h"

#include <algorithm>
#include <tuple>

#include "common/strings.h"

namespace scidive::fleet {

FleetNode::FleetNode(FleetNodeConfig config)
    : config_(std::move(config)),
      engine_([this] {
        core::ShardedEngineConfig ec = config_.engine;
        ec.engine.home_addresses.clear();  // the fleet dispatcher filters once
        return ec;
      }()),
      correlator_(config_.name, config_.correlator),
      vouches_(config_.match_window) {
  event_buffers_.resize(engine_.num_shards());
  verdict_buffers_.resize(engine_.num_shards());
  for (size_t i = 0; i < engine_.num_shards(); ++i) {
    auto* buffer = &event_buffers_[i];
    engine_.shard(i).set_event_callback(
        [buffer](const core::Event& event) { buffer->push_back(event); });
    auto* verdicts = &verdict_buffers_[i];
    engine_.shard(i).set_verdict_callback([verdicts](const core::Verdict& verdict) {
      if (verdict.action != core::VerdictAction::kPass) verdicts->push_back(verdict);
    });
  }
}

void FleetNode::add_peer(const std::string& name) {
  if (name == config_.name || name.empty()) return;
  if (std::find(peer_names_.begin(), peer_names_.end(), name) != peer_names_.end()) return;
  peer_names_.push_back(name);
  peer_queues_.push_back(
      std::make_unique<GossipQueue>(config_.name, config_.epoch, config_.gossip));
  correlator_.ownership_changed();
}

void FleetNode::remove_peer(const std::string& name) {
  for (size_t i = 0; i < peer_names_.size(); ++i) {
    if (peer_names_[i] != name) continue;
    // Fold the departing queue's accounting into the node totals so the
    // monotone gossip counters never regress.
    const GossipStats& gs = peer_queues_[i]->stats();
    stats_.gossip_records_dropped += gs.records_dropped;
    stats_.gossip_frames_built += gs.frames_built;
    stats_.gossip_bytes_built += gs.bytes_built;
    peer_names_.erase(peer_names_.begin() + static_cast<ptrdiff_t>(i));
    peer_queues_.erase(peer_queues_.begin() + static_cast<ptrdiff_t>(i));
    correlator_.ownership_changed();
    return;
  }
}

std::vector<std::string> FleetNode::peers() const { return peer_names_; }

void FleetNode::add_peer_user(const std::string& aor) { peer_users_.insert(aor); }

void FleetNode::attach_local_agent(voip::UserAgent& agent) {
  const std::string aor = agent.aor();
  agent.on_im_sent = [this, &agent, aor](const std::string&, const std::string&) {
    SepVouch vouch{VouchKind::kIm, aor, agent.host().now()};
    ++stats_.vouches_sent;
    vouches_.add(vouch);
    broadcast(SepRecord{vouch});
  };
  agent.on_bye_sent = [this, &agent](const std::string& call_id) {
    SepVouch vouch{VouchKind::kBye, call_id, agent.host().now()};
    ++stats_.vouches_sent;
    vouches_.add(vouch);
    broadcast(SepRecord{vouch});
  };
  agent.on_reinvite_sent = [this, &agent](const std::string& call_id) {
    SepVouch vouch{VouchKind::kReinvite, call_id, agent.host().now()};
    ++stats_.vouches_sent;
    vouches_.add(vouch);
    broadcast(SepRecord{vouch});
  };
}

void FleetNode::broadcast(const SepRecord& record) {
  for (auto& queue : peer_queues_) queue->offer(record);
}

void FleetNode::on_datagram(std::span<const uint8_t> payload, SimTime now) {
  auto frame = decode_frame(payload);
  if (!frame.ok()) {
    ++stats_.parse_errors;
    return;
  }
  SepFrame& f = frame.value();
  if (f.node == config_.name) return;  // own reflection
  ++stats_.frames_received;
  stats_.unknown_records += f.unknown_skipped;
  if (now > last_peer_heard_) last_peer_heard_ = now;
  for (SepRecord& rec : f.records) {
    if (remote_records_.size() >= config_.remote_buffer_max) remote_records_.pop_front();
    remote_records_.push_back({f.node, rec});
    inbox_.emplace_back(f.node, std::move(rec));
  }
}

void FleetNode::pump(SimTime now) {
  engine_.flush();
  on_engine_outputs(now);
  apply_inbox(now);
  judge_held(now);
  for (core::Alert& alert : correlator_.evaluate(is_owner_))
    engine_.shard(0).alerts().raise(std::move(alert));
}

void FleetNode::on_engine_outputs(SimTime) {
  // Latest partial per correlation window: a burst of REGISTERs advances
  // one cumulative counter many times, but only the newest value needs the
  // wire (§6's control-message economy; max() merge makes it lossless).
  FlatMap<WindowKey, uint64_t, WindowKeyHash> latest_partials;
  for (auto& buffer : event_buffers_) {
    for (core::Event& event : buffer) {
      if (config_.shared_types.contains(event.type)) {
        ++stats_.events_shared;
        broadcast(SepRecord{event});
      }
      if (auto partial = correlator_.on_local_event(event))
        latest_partials.insert_or_assign(partial->window, partial->count);
      if (!event.aor.empty() && peer_users_.contains(event.aor)) {
        switch (event.type) {
          case core::EventType::kImMessageSeen:
            hold_claim(VouchKind::kIm, event.aor, event);
            break;
          case core::EventType::kSipByeSeen:
            hold_claim(VouchKind::kBye, event.session, event);
            break;
          case core::EventType::kSipReinviteSeen:
            hold_claim(VouchKind::kReinvite, event.session, event);
            break;
          default:
            break;
        }
      }
    }
    buffer.clear();
  }
  // In (kind, key text, window) order, so what the bounded peer queues
  // receive does not depend on the hash table's layout.
  std::vector<SepCounter> counters;
  counters.reserve(latest_partials.size());
  latest_partials.for_each([&counters](const WindowKey& window, uint64_t count) {
    counters.push_back(FleetCorrelator::counter({window, count}));
  });
  std::sort(counters.begin(), counters.end(), [](const SepCounter& a, const SepCounter& b) {
    return std::tie(a.kind, a.key, a.window_start) < std::tie(b.kind, b.key, b.window_start);
  });
  for (const SepCounter& counter : counters) {
    ++stats_.counters_shared;
    broadcast(SepRecord{counter});
  }
  // Newly raised local verdicts propagate so a principal blocked here is
  // screened on every peer: all of them, not only those a shard's verdict
  // sink still retains.
  for (auto& buffer : verdict_buffers_) {
    for (const core::Verdict& v : buffer) {
      ++stats_.verdicts_shared;
      broadcast(SepRecord{SepVerdict{v.rule, v.action, v.session, v.aor, v.endpoint, v.time}});
    }
    buffer.clear();
  }
}

void FleetNode::apply_inbox(SimTime) {
  for (auto& [from, rec] : inbox_) {
    std::visit(
        [&, this](auto& r) {
          using T = std::decay_t<decltype(r)>;
          if constexpr (std::is_same_v<T, core::Event>) {
            ++stats_.events_received;
          } else if constexpr (std::is_same_v<T, SepVerdict>) {
            ++stats_.verdicts_adopted;
            core::Verdict v;
            v.rule = r.rule;
            v.action = r.action;
            v.session = r.session;
            v.time = r.time;
            v.aor = r.aor;
            v.endpoint = r.endpoint;
            v.message = "adopted from fleet peer " + from;
            engine_.adopt_verdict(v);
          } else if constexpr (std::is_same_v<T, SepCounter>) {
            ++stats_.counters_merged;
            correlator_.on_remote_counter(from, r);
          } else if constexpr (std::is_same_v<T, SepVouch>) {
            ++stats_.vouches_received;
            vouches_.add(r);
          } else {
            ++stats_.handoffs_heard;
          }
        },
        rec);
  }
  inbox_.clear();
}

void FleetNode::hold_claim(VouchKind kind, std::string key, const core::Event& event) {
  ++stats_.claims_held;
  held_.push_back({kind, std::move(key), event, event.time + config_.verify_delay});
}

bool FleetNode::peer_live(SimTime now) const {
  if (config_.peer_liveness_window <= 0) return true;  // fail-closed
  return last_peer_heard_ >= 0 && now - last_peer_heard_ <= config_.peer_liveness_window;
}

void FleetNode::judge_held(SimTime now) {
  // Deadlines are not monotone across shards, so scan instead of popping.
  for (auto it = held_.begin(); it != held_.end();) {
    if (it->deadline > now) {
      ++it;
      continue;
    }
    if (vouches_.vouched(it->kind, it->key, it->event.time)) {
      ++stats_.claims_confirmed;
    } else if (!peer_live(now)) {
      ++stats_.claims_skipped_peer_down;  // fail-open
    } else {
      ++stats_.claims_flagged;
      core::Alert alert;
      alert.rule = it->kind == VouchKind::kIm      ? kFleetFakeImRule
                   : it->kind == VouchKind::kBye   ? kFleetSpoofedByeRule
                                                   : kFleetSpoofedReinviteRule;
      alert.severity = core::Severity::kCritical;
      alert.session = it->event.session;
      alert.time = now;
      alert.message = str::format(
          "%s claiming %s: no host vouch within %s of the claim (source %s)",
          it->kind == VouchKind::kIm ? "IM" : it->kind == VouchKind::kBye ? "BYE" : "re-INVITE",
          it->event.aor.c_str(), format_time(config_.verify_delay).c_str(),
          it->event.endpoint.to_string().c_str());
      engine_.shard(0).alerts().raise(std::move(alert));
    }
    it = held_.erase(it);
  }
}

std::vector<std::pair<std::string, Bytes>> FleetNode::take_frames() {
  std::vector<std::pair<std::string, Bytes>> out;
  for (size_t i = 0; i < peer_queues_.size(); ++i) {
    if (peer_queues_[i]->empty()) continue;
    out.emplace_back(peer_names_[i], peer_queues_[i]->take_frame());
  }
  return out;
}

bool FleetNode::gossip_pending() const {
  for (const auto& queue : peer_queues_) {
    if (!queue->empty()) return true;
  }
  return false;
}

std::vector<std::pair<std::string, Bytes>> FleetNode::hello_frames() const {
  std::vector<std::pair<std::string, Bytes>> out;
  for (const std::string& name : peer_names_)
    out.emplace_back(name, encode_hello(config_.name, config_.epoch));
  return out;
}

FleetNodeStats FleetNode::stats() const {
  FleetNodeStats out = stats_;
  for (const auto& queue : peer_queues_) {
    const GossipStats& gs = queue->stats();
    out.gossip_records_dropped += gs.records_dropped;
    out.gossip_frames_built += gs.frames_built;
    out.gossip_bytes_built += gs.bytes_built;
  }
  return out;
}

void FleetNode::sync_metrics() {
  obs::MetricsRegistry& reg = engine_.frontend_metrics();
  const FleetNodeStats s = stats();
  reg.counter("scidive_fleet_events_shared_total", "Engine events gossiped to fleet peers")
      .sync(s.events_shared);
  reg.counter("scidive_fleet_events_received_total", "Peer engine events heard over SEP")
      .sync(s.events_received);
  reg.counter("scidive_fleet_frames_received_total", "SEP frames accepted from peers")
      .sync(s.frames_received);
  reg.counter("scidive_fleet_parse_errors_total", "Undecodable SEP datagrams")
      .sync(s.parse_errors);
  reg.counter("scidive_fleet_unknown_records_total",
              "Record types skipped for forward compatibility")
      .sync(s.unknown_records);
  reg.counter("scidive_fleet_verdicts_shared_total", "Local non-pass verdicts gossiped")
      .sync(s.verdicts_shared);
  reg.counter("scidive_fleet_verdicts_adopted_total", "Peer verdicts applied locally")
      .sync(s.verdicts_adopted);
  reg.counter("scidive_fleet_vouches_total", "Host-truth vouch records by direction",
              {{"dir", "sent"}})
      .sync(s.vouches_sent);
  reg.counter("scidive_fleet_vouches_total", "Host-truth vouch records by direction",
              {{"dir", "received"}})
      .sync(s.vouches_received);
  reg.counter("scidive_fleet_counters_shared_total", "Correlator partials gossiped")
      .sync(s.counters_shared);
  reg.counter("scidive_fleet_counters_merged_total", "Peer correlator partials merged")
      .sync(s.counters_merged);
  reg.counter("scidive_fleet_claims_total", "Vouch-held claims by outcome",
              {{"outcome", "confirmed"}})
      .sync(s.claims_confirmed);
  reg.counter("scidive_fleet_claims_total", "Vouch-held claims by outcome",
              {{"outcome", "flagged"}})
      .sync(s.claims_flagged);
  reg.counter("scidive_fleet_claims_total", "Vouch-held claims by outcome",
              {{"outcome", "skipped_peer_down"}})
      .sync(s.claims_skipped_peer_down);
  reg.counter("scidive_fleet_principals_handed_off_total",
              "Principal records handed to a new owner on fleet churn")
      .sync(s.principals_handed_off);
  reg.counter("scidive_fleet_gossip_drops_total",
              "Records dropped at full per-peer gossip queues")
      .sync(s.gossip_records_dropped);
  reg.counter("scidive_fleet_gossip_frames_total", "SEP frames built for peers")
      .sync(s.gossip_frames_built);
  reg.counter("scidive_fleet_gossip_bytes_total", "SEP frame bytes built for peers")
      .sync(s.gossip_bytes_built);
  int64_t depth = 0;
  for (const auto& queue : peer_queues_) depth += static_cast<int64_t>(queue->depth());
  reg.gauge("scidive_fleet_gossip_queue_depth", "Records queued for gossip across peer queues")
      .set(depth);
}

obs::Snapshot FleetNode::metrics_snapshot() {
  sync_metrics();
  return engine_.metrics_snapshot();
}

}  // namespace scidive::fleet
