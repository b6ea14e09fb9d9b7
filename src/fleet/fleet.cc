#include "fleet/fleet.h"

#include <algorithm>

#include "pkt/ipv4.h"

namespace scidive::fleet {

namespace {

void accumulate(FleetNodeStats& out, const FleetNodeStats& s) {
  out.events_shared += s.events_shared;
  out.events_received += s.events_received;
  out.frames_received += s.frames_received;
  out.parse_errors += s.parse_errors;
  out.unknown_records += s.unknown_records;
  out.verdicts_shared += s.verdicts_shared;
  out.verdicts_adopted += s.verdicts_adopted;
  out.vouches_sent += s.vouches_sent;
  out.vouches_received += s.vouches_received;
  out.counters_shared += s.counters_shared;
  out.counters_merged += s.counters_merged;
  out.handoffs_announced += s.handoffs_announced;
  out.handoffs_heard += s.handoffs_heard;
  out.principals_handed_off += s.principals_handed_off;
  out.claims_held += s.claims_held;
  out.claims_confirmed += s.claims_confirmed;
  out.claims_flagged += s.claims_flagged;
  out.claims_skipped_peer_down += s.claims_skipped_peer_down;
  out.gossip_records_dropped += s.gossip_records_dropped;
  out.gossip_frames_built += s.gossip_frames_built;
  out.gossip_bytes_built += s.gossip_bytes_built;
}

void add_node_tagged(obs::Snapshot& out, const obs::Snapshot& snap, const std::string& name) {
  for (const obs::Sample& sample : snap.samples()) {
    obs::Sample tagged = sample;
    auto pos = std::lower_bound(
        tagged.labels.begin(), tagged.labels.end(), std::string_view("node"),
        [](const auto& label, std::string_view key) { return label.first < key; });
    tagged.labels.insert(pos, {"node", name});
    out.add(std::move(tagged));
  }
}

core::ShardRouterConfig dispatcher_router_config(const FleetConfig& config) {
  core::ShardRouterConfig rc;
  rc.num_shards = config.num_slots == 0 ? 1 : config.num_slots;
  rc.distiller = config.node.engine.engine.distiller;
  rc.route_invite_by_caller = config.node.engine.route_invite_by_caller;
  return rc;
}

}  // namespace

Fleet::Fleet(FleetConfig config, std::vector<std::string> node_names)
    : config_(std::move(config)),
      ring_(config_.num_slots == 0 ? 1 : config_.num_slots),
      router_(dispatcher_router_config(config_)),
      rng_(config_.loss_seed) {
  config_.num_slots = ring_.num_slots();
  for (const std::string& name : node_names) ring_.add_node(name);
  for (const std::string& name : node_names) {
    if (ring_.contains(name)) nodes_.push_back(make_node(name));
  }
  for (auto& a : nodes_) {
    for (auto& b : nodes_) {
      if (a != b) a->add_peer(b->name());
    }
  }
  rebuild_slot_cache();
}

std::unique_ptr<FleetNode> Fleet::make_node(const std::string& name) {
  FleetNodeConfig nc = config_.node;
  nc.name = name;
  auto node = std::make_unique<FleetNode>(std::move(nc));
  if (rules_ != nullptr) node->engine().set_rules(rules_);
  node->set_owner_check(
      [this, name](std::string_view key) { return ring_.owner_of_key(key) == name; });
  return node;
}

void Fleet::rebuild_slot_cache() {
  slot_node_.assign(ring_.num_slots(), nullptr);
  for (size_t slot = 0; slot < ring_.num_slots(); ++slot) {
    const std::string_view owner = ring_.owner_of_slot(slot);
    for (auto& node : nodes_) {
      if (node->name() == owner) {
        slot_node_[slot] = node.get();
        break;
      }
    }
  }
}

FleetNode* Fleet::find(const std::string& name) {
  for (auto& node : nodes_) {
    if (node->name() == name) return node.get();
  }
  return nullptr;
}

FleetNode* Fleet::node(const std::string& name) { return find(name); }

void Fleet::on_packet(const pkt::Packet& packet) {
  ++stats_.packets_seen;
  if (packet.timestamp > last_time_) last_time_ = packet.timestamp;
  if (!config_.home_addresses.empty()) {
    auto ip = pkt::parse_ipv4(packet.data);
    const bool ours = ip.ok() && (config_.home_addresses.contains(ip.value().header.src) ||
                                  config_.home_addresses.contains(ip.value().header.dst));
    if (!ours) {
      ++stats_.packets_filtered;
      return;
    }
  }
  auto routed = router_.route(packet);
  if (!routed) {
    ++stats_.fragments_held;
    return;
  }
  FleetNode* owner = slot_node_[routed->shard % slot_node_.size()];
  if (owner == nullptr) return;  // no members
  owner->on_packet_to_slot(routed->shard, routed->reassembled ? *routed->reassembled : packet);
  if (config_.pump_every_packets > 0 && ++packets_since_pump_ >= config_.pump_every_packets) {
    packets_since_pump_ = 0;
    pump_now();
  }
}

uint64_t Fleet::run(capture::PacketSource& source) {
  pkt::Packet packet;
  uint64_t fed = 0;
  while (source.next(&packet)) {
    on_packet(packet);
    ++fed;
  }
  flush();
  return fed;
}

void Fleet::pump_now() {
  for (auto& node : nodes_) node->pump(last_time_);
  deliver_frames(last_time_);
}

void Fleet::flush() {
  const SimTime now = last_time_;
  deliver_hellos(now);
  // Gossip to fixpoint: each round pumps every member (draining engine
  // outputs and applying what the previous round delivered) then delivers
  // the frames that produced. Bounded — records are not re-gossiped on
  // receipt, so the fleet quiesces once queues stop refilling.
  for (int round = 0; round < 64; ++round) {
    for (auto& node : nodes_) node->pump(now);
    if (deliver_frames(now) == 0) break;
  }
  // Settle: advance past every held claim's deadline so vouch judgments
  // land, then drain anything the judgments produced.
  const SimTime settle = now + config_.node.verify_delay + config_.node.match_window + 1;
  for (auto& node : nodes_) node->pump(settle);
  deliver_frames(settle);
  for (auto& node : nodes_) node->pump(settle);
}

size_t Fleet::deliver_frames(SimTime now) {
  size_t delivered = 0;
  for (int spin = 0; spin < 1024; ++spin) {
    bool any = false;
    for (auto& node : nodes_) {
      for (auto& [to, frame] : node->take_frames()) {
        any = true;
        deliver(to, frame, now);
        ++delivered;
      }
    }
    if (!any) break;
  }
  return delivered;
}

void Fleet::deliver_hellos(SimTime now) {
  for (auto& node : nodes_) {
    for (const auto& [to, frame] : node->hello_frames()) deliver(to, frame, now);
  }
}

void Fleet::deliver(const std::string& to, const Bytes& frame, SimTime now) {
  if (config_.gossip_loss > 0 && rng_.chance(config_.gossip_loss)) {
    ++stats_.frames_lost;
    return;
  }
  if (FleetNode* target = find(to)) {
    ++stats_.frames_delivered;
    target->on_datagram(frame, now);
  }
}

size_t Fleet::slot_of_session(const core::SessionId& session) const {
  return router_.session_shard(session);
}

void Fleet::relocate_moved_records() {
  // Sessions and principals move in one pass, each through its engine's
  // extract/install pair: a session's slot is its router slot, a
  // principal's the hash of its AOR (the slot its REGISTER, MESSAGE and
  // by-caller INVITE traffic routes to).
  struct Move {
    FleetNode* source;
    std::string key;  // session id or AOR
    size_t slot;
    bool principal;
  };
  std::vector<Move> moves;
  for (auto& source : nodes_) {
    for (size_t sh = 0; sh < source->engine().num_shards(); ++sh) {
      const core::TrailManager& trails = source->engine().shard(sh).trails();
      for (const core::SessionId& sid : trails.sessions()) {
        // A synthesized id's slot is not derivable from the id, and every
        // node synthesizes its own: it never hands off (counted as skipped).
        if (core::TrailManager::synthetic_session(sid)) {
          ++stats_.handoff_skipped_synthetic;
          continue;
        }
        const size_t slot = slot_of_session(sid);
        if (ring_.owner_of_slot(slot) == source->name()) continue;
        moves.push_back({source.get(), sid, slot, false});
      }
      for (std::string& aor : trails.principals()) {
        const size_t slot = core::ShardRouter::shard_of(aor, ring_.num_slots());
        if (ring_.owner_of_slot(slot) == source->name()) continue;
        moves.push_back({source.get(), std::move(aor), slot, true});
      }
    }
  }
  for (Move& move : moves) {
    FleetNode* target = slot_node_[move.slot];
    if (target == nullptr || target == move.source) continue;
    core::ShardedEngine& to = target->engine();
    if (move.principal) {
      // The new owner already keeps state for this AOR: merging two
      // records has no meaning, so this one stays where it is.
      if (to.shard(move.slot % to.num_shards()).has_principal(move.key)) {
        ++stats_.handoff_skipped_held;
        continue;
      }
      if (!to.install_principal(move.source->engine().extract_principal(move.key),
                                move.slot)) {
        ++stats_.handoff_skipped_invalid;
        continue;
      }
      ++stats_.principals_handed_off;
      move.source->principal_handed_off();
      continue;
    }
    auto transfer = move.source->engine().extract_session(move.key);
    if (!transfer.valid()) {
      ++stats_.handoff_skipped_invalid;
      continue;
    }
    if (!to.install_session(std::move(transfer), move.slot)) {
      ++stats_.handoff_skipped_invalid;
      continue;
    }
    ++stats_.sessions_handed_off;
    move.source->announce_handoff({move.key, target->name(), move.slot});
  }
  deliver_frames(last_time_);
}

void Fleet::set_rules(core::RulesetPtr rules) {
  for (auto& node : nodes_) node->engine().set_rules(rules);
  rules_ = std::move(rules);
}

bool Fleet::add_node(const std::string& name) {
  if (name.empty() || find(name) != nullptr) return false;
  // Quiesce the incumbents so the moved slots' sessions are extractable.
  for (auto& node : nodes_) node->pump(last_time_);
  deliver_frames(last_time_);
  if (!ring_.add_node(name)) return false;
  auto joined = make_node(name);
  for (auto& node : nodes_) {
    node->add_peer(name);
    joined->add_peer(node->name());
  }
  nodes_.push_back(std::move(joined));
  rebuild_slot_cache();
  relocate_moved_records();
  return true;
}

void Fleet::retire_node(FleetNode& node) {
  // Quiesce so the merged views are safe to read; the front-end already
  // counted anything still queued, so this changes no packet accounting.
  node.engine().flush();
  for (core::Alert& alert : node.engine().merged_alerts())
    retired_alerts_.push_back(std::move(alert));
  for (core::Verdict& verdict : node.engine().merged_verdicts())
    retired_verdicts_.push_back(std::move(verdict));
  const obs::Snapshot snap = node.metrics_snapshot();
  retired_metrics_.merge(snap);
  add_node_tagged(retired_rollup_, snap, node.name());
  accumulate(retired_node_stats_, node.stats());
  const core::ShardedEngineStats es = node.engine().stats();
  stats_.retired_engine_seen += es.packets_seen;
  stats_.retired_engine_dropped += es.packets_dropped;
}

bool Fleet::remove_node(const std::string& name) {
  FleetNode* leaving = find(name);
  if (leaving == nullptr || nodes_.size() <= 1) return false;
  // Graceful leave: drain the leaver's gossip, reassign its slots, hand
  // its sessions to the new owners, then unwire it.
  for (auto& node : nodes_) node->pump(last_time_);
  deliver_frames(last_time_);
  ring_.remove_node(name);
  rebuild_slot_cache();
  relocate_moved_records();
  deliver_frames(last_time_);
  for (auto& node : nodes_) {
    if (node.get() != leaving) node->remove_peer(name);
  }
  retire_node(*leaving);
  std::erase_if(nodes_, [&](const auto& node) { return node.get() == leaving; });
  rebuild_slot_cache();
  return true;
}

bool Fleet::crash_node(const std::string& name) {
  FleetNode* crashed = find(name);
  if (crashed == nullptr || nodes_.size() <= 1) return false;
  // No handoff, no drain: the node's sessions and queued gossip are lost.
  // Its slots re-own deterministically; peers fail open on its users once
  // peer_liveness_window elapses without a heartbeat.
  ring_.remove_node(name);
  for (auto& node : nodes_) {
    if (node.get() != crashed) node->remove_peer(name);
  }
  // Alerts it had already raised reached the operator's sink before the
  // crash; only its session state and queued gossip are lost.
  retire_node(*crashed);
  std::erase_if(nodes_, [&](const auto& node) { return node.get() == crashed; });
  rebuild_slot_cache();
  return true;
}

std::vector<core::Alert> Fleet::merged_alerts() const {
  std::vector<core::Alert> out = retired_alerts_;
  for (const auto& node : nodes_) {
    auto alerts = node->engine().merged_alerts();
    out.insert(out.end(), std::make_move_iterator(alerts.begin()),
               std::make_move_iterator(alerts.end()));
  }
  return out;
}

std::vector<core::Verdict> Fleet::merged_verdicts() const {
  std::vector<core::Verdict> out = retired_verdicts_;
  for (const auto& node : nodes_) {
    auto verdicts = node->engine().merged_verdicts();
    out.insert(out.end(), std::make_move_iterator(verdicts.begin()),
               std::make_move_iterator(verdicts.end()));
  }
  return out;
}

FleetNodeStats Fleet::node_stats() const {
  FleetNodeStats out = retired_node_stats_;
  for (const auto& node : nodes_) accumulate(out, node->stats());
  return out;
}

obs::Snapshot Fleet::metrics_rollup() {
  obs::Snapshot out;
  out.merge(retired_rollup_);
  for (auto& node : nodes_) add_node_tagged(out, node->metrics_snapshot(), node->name());
  return out;
}

obs::Snapshot Fleet::merged_metrics() {
  obs::Snapshot out;
  out.merge(retired_metrics_);
  for (auto& node : nodes_) out.merge(node->metrics_snapshot());
  return out;
}

}  // namespace scidive::fleet
