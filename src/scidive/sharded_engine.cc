#include "scidive/sharded_engine.h"

#include <algorithm>
#include <chrono>

#include "pkt/ipv4.h"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace scidive::core {

namespace {

ShardRouterConfig router_config(const ShardedEngineConfig& config) {
  ShardRouterConfig rc;
  rc.num_shards = config.num_shards == 0 ? 1 : config.num_shards;
  rc.distiller = config.engine.distiller;
  rc.route_invite_by_caller = config.route_invite_by_caller;
  return rc;
}

EngineConfig shard_engine_config(const ShardedEngineConfig& config) {
  EngineConfig ec = config.engine;
  ec.home_addresses.clear();  // the front-end already filtered
  return ec;
}

/// A ring slot keeps its datagram buffer across laps; one that grew past
/// this (a reassembled datagram) is released after processing, so ring
/// memory stays bounded at about slots x kSlotBufferBytes.
constexpr size_t kSlotBufferBytes = 2048;

uint64_t elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now() - since)
                                   .count());
}

/// Spin, then sleep, until `done()` holds (the feeder waiting on workers).
template <typename Done>
void wait_until(Done done) {
  for (int spins = 0; !done();) {
    if (++spins < 1024) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
}

}  // namespace

ShardedEngine::ShardedEngine(ShardedEngineConfig config)
    : config_(std::move(config)), router_(router_config(config_)) {
  if (config_.num_shards == 0) config_.num_shards = 1;
  EngineConfig ec = shard_engine_config(config_);
  shards_.reserve(config_.num_shards);
  for (size_t i = 0; i < config_.num_shards; ++i)
    shards_.push_back(std::make_unique<Shard>(ec, config_.queue_capacity));
  // Before any worker starts: each shard's enforcer (present when
  // enforcement is on) records what its rules apply, for forwarding.
  if (shards_.size() > 1) {
    for (auto& shard : shards_) {
      if (Enforcer* enf = shard->engine.enforcer()) enf->set_outbox(&shard->outbox);
    }
  }
  for (size_t i = 0; i < shards_.size(); ++i)
    shards_[i]->worker = std::thread([this, s = shards_[i].get(), i] { worker_loop(*s, i); });
}

ShardedEngine::~ShardedEngine() { stop(); }

void ShardedEngine::pin_worker(size_t index) {
#if defined(__linux__)
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  const unsigned cpu = static_cast<unsigned>(index) % hw;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  // Best effort: a denied pin (cgroup restriction, offline cpu) is not an
  // error — the bench records oversubscription honestly either way.
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)index;
#endif
}

void ShardedEngine::worker_loop(Shard& shard, size_t index) {
  if (config_.pin_workers) pin_worker(index);
  uint64_t hwm = 0;
  int idle_polls = 0;
  for (;;) {
    drain_inbox(shard);
    // Sample ring depth before draining: the high-water mark feeds the
    // scidive_shard_queue_depth_hwm gauge.
    const size_t depth = shard.queue.size();
    if (depth > hwm) {
      hwm = depth;
      shard.queue_depth_hwm.store(hwm, std::memory_order_relaxed);
    }
    const auto poll_start = std::chrono::steady_clock::now();
    // Drain whatever is published, up to one lap. Each slot goes back to
    // the feeder as soon as its packet is processed, so a long drain holds
    // up no enqueue; it only spreads this poll's bookkeeping.
    const size_t n = shard.queue.consume_batch(
        shard.queue.capacity(), [&shard](pkt::Packet& packet, const pkt::Packet* next) {
          // The next packet's bytes are about to be parsed; overlap the
          // miss with this packet's pipeline work.
          if (next != nullptr) __builtin_prefetch(next->data.data());
          shard.engine.on_packet(packet);
          if (packet.data.capacity() > kSlotBufferBytes) packet.data = Bytes();
        });
    if (n != 0) {
      forward_outbox(shard);
      shard.busy_ns.fetch_add(elapsed_ns(poll_start), std::memory_order_relaxed);
      // One release store per batch publishes both the progress counter and
      // every engine mutation made while processing the batch. Ordering
      // matters for flush(): processed must trail the processing itself,
      // and the batch's verdicts must already sit in the other inboxes.
      shard.processed.fetch_add(n, std::memory_order_release);
      idle_polls = 0;
      continue;
    }
    if (stopping_.load(std::memory_order_acquire)) return;
    if (++idle_polls < 64) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    shard.idle_ns.fetch_add(elapsed_ns(poll_start), std::memory_order_relaxed);
  }
}

void ShardedEngine::drain_inbox(Shard& shard) {
  if (shard.inbox_pending.load(std::memory_order_relaxed) == 0) return;
  std::lock_guard<std::mutex> lock(shard.inbox_mu);
  // Only an enforcing shard forwards, and every shard runs one config.
  Enforcer& enforcer = *shard.engine.enforcer();
  for (const Enforcement& enforcement : shard.inbox) enforcer.apply(enforcement);
  shard.inbox.clear();
  // Release: flush() reads zero only after the applies above.
  shard.inbox_pending.store(0, std::memory_order_release);
}

void ShardedEngine::forward_outbox(Shard& shard) {
  if (shard.outbox.empty()) return;
  for (auto& to : shards_) {
    if (to.get() == &shard) continue;
    std::lock_guard<std::mutex> lock(to->inbox_mu);
    to->inbox.insert(to->inbox.end(), shard.outbox.begin(), shard.outbox.end());
    to->inbox_pending.fetch_add(shard.outbox.size(), std::memory_order_relaxed);
  }
  shard.outbox.clear();
}

void ShardedEngine::enqueue(size_t index, const pkt::Packet& packet) {
  Shard& shard = *shards_[index];
  // The slot's buffer already fits the datagram past the ring's first lap.
  const auto fill = [&packet](pkt::Packet& slot) {
    slot.data.assign(packet.data.begin(), packet.data.end());
    slot.timestamp = packet.timestamp;
  };
  if (!shard.queue.try_push_with(fill)) {
    if (config_.overflow == OverflowPolicy::kDrop) {
      shard.dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    do {
      std::this_thread::yield();
    } while (!shard.queue.try_push_with(fill));
  }
  shard.enqueued.fetch_add(1, std::memory_order_relaxed);
}

void ShardedEngine::on_packet(const pkt::Packet& packet) {
  ++seen_;
  const auto& home = config_.engine.home_addresses;
  if (!home.empty()) {
    auto ip = pkt::parse_ipv4(packet.data);
    bool ours = false;
    if (ip.ok()) {
      ours = home.contains(ip.value().header.src) || home.contains(ip.value().header.dst);
    }
    if (!ours) {
      ++filtered_;
      return;
    }
  }
  auto routed = router_.route(packet);
  if (!routed) return;  // fragment held by the router's reassembler
  enqueue(routed->shard, routed->reassembled ? *routed->reassembled : packet);
}

void ShardedEngine::flush() {
  // Rings first. A worker forwards a batch's verdicts before it publishes
  // the batch as processed, so once every ring is drained every forwarded
  // verdict is in an inbox; applying one forwards nothing.
  for (auto& shard : shards_) {
    const uint64_t target = shard->enqueued.load(std::memory_order_acquire);
    wait_until([&] { return shard->processed.load(std::memory_order_acquire) >= target; });
  }
  for (auto& shard : shards_) {
    wait_until([&] { return shard->inbox_pending.load(std::memory_order_acquire) == 0; });
  }
}

void ShardedEngine::stop() {
  if (stopped_) return;
  flush();
  stopping_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
  stopped_ = true;
}

void ShardedEngine::expire_idle(SimTime cutoff) {
  flush();
  std::vector<SessionId> retired;
  for (size_t i = 0; i < shards_.size(); ++i) {
    shards_[i]->engine.expire_idle(cutoff, &retired);
    for (const SessionId& session : retired) router_.forget(session, i);
    retired.clear();
  }
}

void ShardedEngine::set_rules(const RulesetPtr& rules) {
  flush();
  // Quiescent: every worker is parked with its ring empty, so the swap is
  // ordinary single-threaded mutation; the next enqueue's release store
  // publishes it to the worker.
  for (auto& shard : shards_) shard->engine.set_rules(rules);
}

void ShardedEngine::on_packet_to_shard(size_t shard, const pkt::Packet& packet) {
  direct_seen_ += 1;
  enqueue(shard % shards_.size(), packet);
}

TrailManager::ExtractedSession ShardedEngine::extract_session(const SessionId& session) {
  for (auto& shard : shards_) {
    if (shard->engine.has_session(session)) return shard->engine.extract_session(session);
  }
  return {};
}

bool ShardedEngine::install_session(TrailManager::ExtractedSession&& moved, size_t shard) {
  if (!moved.valid()) return false;
  const size_t to = shard % shards_.size();
  const SessionId id = moved.id;
  if (shards_[to]->engine.has_session(id)) return false;
  shards_[to]->engine.install_session(std::move(moved));
  router_.repoint(id, to, shards_[to]->engine.trails().media_endpoints(id));
  return true;
}

TrailManager::ExtractedPrincipal ShardedEngine::extract_principal(std::string_view aor) {
  for (auto& shard : shards_) {
    if (shard->engine.has_principal(aor)) return shard->engine.extract_principal(aor);
  }
  return {};
}

bool ShardedEngine::install_principal(TrailManager::ExtractedPrincipal&& moved, size_t shard) {
  if (!moved.valid()) return false;
  ScidiveEngine& engine = shards_[shard % shards_.size()]->engine;
  if (engine.has_principal(moved.aor)) return false;
  engine.install_principal(std::move(moved));
  return true;
}

void ShardedEngine::adopt_verdict(const Verdict& verdict) {
  const Enforcement enforcement = Enforcer::enforcement_of(verdict);
  for (auto& shard : shards_) {
    if (Enforcer* enforcer = shard->engine.enforcer()) enforcer->apply(enforcement);
  }
}

uint64_t ShardedEngine::packets_dropped() const {
  uint64_t n = 0;
  for (const auto& shard : shards_) n += shard->dropped.load(std::memory_order_relaxed);
  return n;
}

ShardedEngineStats ShardedEngine::stats() const {
  ShardedEngineStats out;
  out.packets_seen = seen_ + direct_seen_;
  out.packets_filtered = filtered_;
  out.packets_dropped = packets_dropped();
  for (const auto& shard : shards_) {
    const EngineStats s = shard->engine.stats();
    out.engine.packets_seen += s.packets_seen;
    out.engine.packets_filtered += s.packets_filtered;
    out.engine.packets_inspected += s.packets_inspected;
    out.engine.events += s.events;
    out.engine.alerts += s.alerts;
    out.engine.processing_ns += s.processing_ns;
  }
  return out;
}

void ShardedEngine::sync_frontend_stats() {
  const ShardRouterStats& router = router_.stats();
  frontend_registry_
      .counter("scidive_frontend_packets_seen_total", "Packets offered to the front-end")
      .sync(seen_);
  frontend_registry_
      .counter("scidive_frontend_packets_filtered_total",
               "Packets outside the home-address scope (filtered before routing)")
      .sync(filtered_);
  for (size_t i = 0; i < shards_.size(); ++i) {
    const obs::Labels shard_label = {{"shard", std::to_string(i)}};
    Shard& s = *shards_[i];
    frontend_registry_
        .counter("scidive_shard_enqueued_total", "Packets enqueued to the shard's ring",
                 shard_label)
        .sync(s.enqueued.load(std::memory_order_relaxed));
    frontend_registry_
        .counter("scidive_shard_dropped_total",
                 "Packets dropped at the shard's full ring (kDrop policy)", shard_label)
        .sync(s.dropped.load(std::memory_order_relaxed));
    const uint64_t processed = s.processed.load(std::memory_order_acquire);
    frontend_registry_
        .gauge("scidive_shard_ring_occupancy", "Packets in the shard's ring at snapshot time",
               shard_label)
        .set(static_cast<int64_t>(s.enqueued.load(std::memory_order_relaxed) - processed));
    frontend_registry_
        .gauge("scidive_shard_queue_depth_hwm",
               "High-water mark of the shard ring depth observed by the worker", shard_label)
        .set_max(static_cast<int64_t>(s.queue_depth_hwm.load(std::memory_order_relaxed)));
    frontend_registry_
        .counter("scidive_shard_worker_busy_ns_total",
                 "Wall-clock nanoseconds the shard worker spent processing batches",
                 shard_label)
        .sync(s.busy_ns.load(std::memory_order_relaxed));
    frontend_registry_
        .counter("scidive_shard_worker_idle_ns_total",
                 "Wall-clock nanoseconds the shard worker spent polling an empty ring",
                 shard_label)
        .sync(s.idle_ns.load(std::memory_order_relaxed));
  }
  frontend_registry_
      .counter("scidive_router_by_call_id_total", "Packets routed by Call-ID affinity")
      .sync(router.by_call_id);
  frontend_registry_
      .counter("scidive_router_by_principal_total", "Packets routed by From-AOR affinity")
      .sync(router.by_principal);
  frontend_registry_
      .counter("scidive_router_by_media_binding_total",
               "Packets routed via the SDP-learned media endpoint map")
      .sync(router.by_media_binding);
  frontend_registry_
      .counter("scidive_router_by_flow_hash_total", "Packets routed by the 4-tuple fallback")
      .sync(router.by_flow_hash);
  frontend_registry_
      .counter("scidive_router_media_bindings_learned_total",
               "Media endpoint bindings the router learned from signaling")
      .sync(router.media_bindings_learned);
  frontend_registry_
      .counter("scidive_router_fragments_held_total",
               "Fragments held by the router's reassembler awaiting completion")
      .sync(router.fragments_held);
  frontend_registry_
      .counter("scidive_router_datagrams_reassembled_total",
               "Fragmented datagrams the router reassembled before routing")
      .sync(router.datagrams_reassembled);
  frontend_registry_
      .gauge("scidive_router_media_bindings", "Media endpoint bindings currently mapped")
      .set(static_cast<int64_t>(router_.media_binding_count()));
  frontend_registry_
      .gauge("scidive_router_affinity_overrides",
             "Session-affinity overrides (caller dialog pins and handed-off sessions)")
      .set(static_cast<int64_t>(router_.override_count()));
}

obs::Snapshot ShardedEngine::metrics_snapshot() {
  flush();
  obs::Snapshot out;
  for (auto& shard : shards_) out.merge(shard->engine.metrics_snapshot());
  sync_frontend_stats();
  out.merge(frontend_registry_.snapshot());
  return out;
}

std::vector<Alert> ShardedEngine::merged_alerts() const {
  std::vector<Alert> out;
  for (const auto& shard : shards_) {
    const auto& alerts = shard->engine.alerts().alerts();
    out.insert(out.end(), alerts.begin(), alerts.end());
  }
  std::stable_sort(out.begin(), out.end(), [](const Alert& a, const Alert& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.session != b.session) return a.session < b.session;
    if (a.rule != b.rule) return a.rule < b.rule;
    return a.message < b.message;
  });
  return out;
}

size_t ShardedEngine::alert_count() const {
  size_t n = 0;
  for (const auto& shard : shards_) n += shard->engine.alerts().count();
  return n;
}

std::vector<Verdict> ShardedEngine::merged_verdicts() const {
  std::vector<Verdict> out;
  for (const auto& shard : shards_) {
    const auto& verdicts = shard->engine.verdicts().verdicts();
    out.insert(out.end(), verdicts.begin(), verdicts.end());
  }
  std::stable_sort(out.begin(), out.end(), [](const Verdict& a, const Verdict& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.session != b.session) return a.session < b.session;
    if (a.rule != b.rule) return a.rule < b.rule;
    return a.message < b.message;
  });
  return out;
}

}  // namespace scidive::core
