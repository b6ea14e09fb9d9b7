#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "pkt/ipv4.h"
#include "pkt/packet.h"
#include "scidive/rules.h"
#include "topologies.h"

namespace perfbench {

using namespace scidive;

// One packet in kSampleEvery keeps full spans, up to kMaxTraces packets.
constexpr uint64_t kSampleEvery = 251;
constexpr uint64_t kMaxTraces = 1000;

uint32_t SpanLog::packet_trace(uint64_t index) {
  if (index % kSampleEvery != 0 || index / kSampleEvery >= kMaxTraces) return 0;
  return static_cast<uint32_t>(index + 1);
}

uint32_t SpanLog::open(uint32_t trace, uint32_t parent, const char* name, uint64_t start_ns) {
  if (trace == 0) return 0;
  spans_.push_back(Span{trace, static_cast<uint32_t>(spans_.size() + 1), parent, name,
                        start_ns, start_ns});
  return spans_.back().id;
}

void SpanLog::close(uint32_t id, uint64_t end_ns) {
  if (id != 0) spans_[id - 1].end_ns = end_ns;
}

uint32_t SpanLog::record(uint32_t trace, uint32_t parent, const char* name, uint64_t start_ns,
                         uint64_t end_ns) {
  const uint32_t id = open(trace, parent, name, start_ns);
  close(id, end_ns);
  return id;
}

bool SpanLog::write_json(const std::string& path, const std::string& header_fields) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{%s, \"spans\": [", header_fields.c_str());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"trace\": %u, \"id\": %u, \"parent\": %u, \"name\": \"%s\", "
                 "\"start_ns\": %llu, \"end_ns\": %llu}",
                 i == 0 ? "" : ",", s.trace, s.id, s.parent, s.name,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

namespace {

struct Mean {
  double sum = 0;
  uint64_t n = 0;
  void add(double v) {
    sum += v;
    ++n;
  }
  double mean() const { return n == 0 ? 0.0 : sum / static_cast<double>(n); }
};

// The shadow classifies by distilled protocol; the engine pass further
// splits RTP by whether the fast path bypassed it.
enum Class : uint8_t { kSip, kRtp, kOther };

/// One packet through the shadow: its class, the summed time of the layers
/// the engine's slow path runs for it, and the fast-path peek alone (what a
/// bypassed packet costs in layer terms).
struct ShadowSample {
  Class cls = kOther;
  float layers_ns = 0;
  float peek_ns = 0;
};

/// The engine's slow path, rebuilt from the library's public layers.
class ShadowPipeline {
 public:
  ShadowPipeline(const core::EngineConfig& config, double clock_ns)
      : clock_ns_(clock_ns),
        distiller_(config.distiller),
        trails_(config.max_footprints_per_trail),
        events_(trails_, config.events),
        sink_(config.obs.alert_capacity),
        verdicts_(config.enforce.verdict_capacity),
        enforcing_(config.enforce.mode != core::EnforcementMode::kOff) {
    // Without enforcement the engine never calls decide(); the shadow still
    // times it (on empty stores) but leaves it out of the layer sum.
    core::EnforceConfig ec = config.enforce;
    if (!enforcing_) ec.mode = core::EnforcementMode::kPassive;
    enforcer_ = std::make_unique<core::Enforcer>(ec);
    rules_ = core::make_default_ruleset(config.rules);
    for (size_t i = 0; i < rules_.size(); ++i) {
      const core::EventTypeMask mask = rules_[i]->subscriptions();
      for (size_t t = 0; t < core::kEventTypeCount; ++t) {
        if (mask & (core::EventTypeMask{1} << t)) {
          subscribers_[t].push_back(static_cast<uint32_t>(i));
        }
      }
    }
    event_buf_.reserve(16);
  }

  ShadowSample process_packet(const pkt::Packet& packet, SpanLog& log, uint32_t trace) {
    const uint64_t t0 = now_ns();
    const uint32_t root = log.open(trace, 0, "shadow.packet", t0);
    // The IPv4/UDP decode that both the peek and the distiller repeat.
    auto ip = pkt::parse_ipv4(packet.data);
    auto udp = pkt::parse_udp_packet(packet.data);
    observed += ip.ok() + udp.ok();
    const uint64_t t1 = now_ns();
    auto peeked = distiller_.peek_rtp(packet);
    observed += peeked.has_value();
    const uint64_t t2 = now_ns();
    auto fp = distiller_.distill(packet);
    const uint64_t t3 = now_ns();
    ShadowSample sample;
    sample.cls = !fp                                    ? kOther
                 : fp->protocol == core::Protocol::kSip ? kSip
                 : fp->protocol == core::Protocol::kRtp ? kRtp
                                                        : kOther;
    decode.add(net(t0, t1));
    peek.add(net(t1, t2));
    distill[sample.cls].add(net(t2, t3));
    log.record(trace, root, "pkt.ipv4_udp_decode", t0, t1);
    log.record(trace, root, "distiller.peek", t1, t2);
    log.record(trace, root, "distiller.distill", t2, t3);
    double layers = net(t1, t2) + net(t2, t3);
    uint64_t end = t3;
    if (fp) {
      uint64_t src_k = 0, principal_k = 0;
      if (!fp->src.addr.is_unspecified()) src_k = core::source_key(fp->src.addr);
      if (const core::SipFootprint* sip = fp->sip(); sip != nullptr && !sip->from_aor.empty()) {
        principal_k = core::aor_key(sip->from_aor);
      }
      const SimTime time = fp->time;
      const uint64_t a0 = now_ns();
      core::Trail& trail = trails_.add(std::move(*fp));
      const uint64_t a1 = now_ns();
      const uint64_t sess_k = core::session_key(trail.key().session);
      event_buf_.clear();
      const uint64_t e0 = now_ns();
      events_.process(trail.back(), trail, event_buf_);
      const uint64_t e1 = now_ns();
      add.add(net(a0, a1));
      process[sample.cls].add(net(e0, e1));
      log.record(trace, root, "trail_manager.add", a0, a1);
      log.record(trace, root, "event_generator.process", e0, e1);

      // One span around the packet's whole dispatch: its rule cost, zero
      // dispatches included.
      core::RuleContext ctx(trails_, sink_, nullptr, enforcing_ ? &verdicts_ : nullptr,
                            enforcing_ ? enforcer_.get() : nullptr);
      const uint64_t r0 = now_ns();
      for (const core::Event& event : event_buf_) {
        for (uint32_t i : subscribers_[static_cast<size_t>(event.type)]) {
          rules_[i]->on_event(event, ctx);
          ++dispatches;
        }
      }
      const uint64_t r1 = now_ns();
      rules.add(net(r0, r1));
      log.record(trace, root, "rules.on_event", r0, r1);

      const uint64_t d0 = now_ns();
      core::VerdictAction decision = enforcer_->decide(src_k, sess_k, principal_k, time);
      if (enforcing_) decision = core::max_action(decision, verdicts_.take_pending());
      const uint64_t d1 = now_ns();
      observed += static_cast<uint64_t>(decision);
      decide.add(net(d0, d1));
      log.record(trace, root, "enforce.decide", d0, d1);
      layers += net(a0, a1) + net(e0, e1) + net(r0, r1) + (enforcing_ ? net(d0, d1) : 0.0);
      end = d1;
    }
    log.close(root, end);
    sample.layers_ns = static_cast<float>(layers);
    sample.peek_ns = static_cast<float>(net(t1, t2));
    return sample;
  }

  Mean decode, peek, add, rules, decide;
  Mean distill[3], process[3];
  uint64_t dispatches = 0;
  uint64_t observed = 0;  // keeps results of otherwise-unused calls live

 private:
  double net(uint64_t start, uint64_t end) const {
    return static_cast<double>(end - start) - clock_ns_;
  }

  double clock_ns_;
  core::Distiller distiller_;
  core::TrailManager trails_;
  core::EventGenerator events_;
  std::vector<core::RulePtr> rules_;
  std::vector<uint32_t> subscribers_[core::kEventTypeCount];
  core::AlertSink sink_;
  core::VerdictSink verdicts_;
  bool enforcing_;
  std::unique_ptr<core::Enforcer> enforcer_;
  std::vector<core::Event> event_buf_;
};

/// Calls fn(packet, index) over the packets a traced round feeds a fresh
/// topology (Stream::traced_passes()).
template <typename Fn>
void traced_packets(Stream& stream, Fn&& fn) {
  uint64_t index = 0;
  for (uint64_t pass = 0; pass < stream.traced_passes(); ++pass) {
    replay(stream, pass, [&](const pkt::Packet& packet) { fn(packet, index++); });
  }
}

uint64_t shard_counter(const obs::Snapshot& snap, const char* name, size_t shard) {
  return snap.counter_value(name, {{"shard", std::to_string(shard)}});
}

/// Engine time for one packet class, and the shadow layer time of the same
/// packets: their difference is the engine's unattributed time.
struct ClassTime {
  Mean engine;
  double layers_sum = 0;
  void add(double engine_ns, double layers_ns) {
    engine.add(engine_ns);
    layers_sum += layers_ns;
  }
  double unattributed() const {
    return engine.n == 0 ? 0.0 : engine.mean() - layers_sum / static_cast<double>(engine.n);
  }
};

}  // namespace

LayerMetrics trace_round(Stream& stream, const Deployment& deployment, SpanLog& log,
                         uint64_t* packets_offered) {
  static const double clock_ns = clock_read_ns();
  auto net = [](uint64_t start, uint64_t end) {
    return static_cast<double>(end - start) - clock_ns;
  };
  LayerMetrics m;
  const double n = static_cast<double>(stream.traced_packets());
  m["trace.clock_read_ns"] = clock_ns;

  // --- shadow slow path, layer by layer ----------------------------------
  std::vector<ShadowSample> samples;
  samples.reserve(stream.traced_packets());
  {
    ShadowPipeline shadow(deployment.engine, clock_ns);
    traced_packets(stream, [&](const pkt::Packet& packet, uint64_t i) {
      samples.push_back(shadow.process_packet(packet, log, SpanLog::packet_trace(i)));
    });
    m["pkt.ipv4_udp_decode_ns"] = shadow.decode.mean();
    m["distiller.peek_ns"] = shadow.peek.mean();
    m["distiller.sip_ns"] = shadow.distill[kSip].mean();
    m["distiller.rtp_ns"] = shadow.distill[kRtp].mean();
    m["trail_manager.add_ns"] = shadow.add.mean();
    m["event_generator.process_ns"] = shadow.process[kSip].mean();
    m["event_generator.process_rtp_ns"] = shadow.process[kRtp].mean();
    m["rules.on_event_ns"] = shadow.rules.mean();
    m["rules.dispatches_per_kpkt"] = 1000.0 * static_cast<double>(shadow.dispatches) / n;
    m["enforce.decide_ns"] = shadow.decide.mean();
    *packets_offered += stream.traced_packets();
  }

  // --- engine per packet class --------------------------------------------
  {
    auto single = std::make_unique<SingleTopology>(deployment);
    core::ScidiveEngine& engine = single->engine;
    // sip, all rtp, rtp the fast path did not bypass, everything.
    ClassTime sip, rtp, rtp_slow, all;
    uint64_t bypassed = 0;
    const auto start = Clock::now();
    traced_packets(stream, [&](const pkt::Packet& packet, uint64_t i) {
      const uint64_t t0 = now_ns();
      engine.on_packet(packet);
      const uint64_t t1 = now_ns();
      log.record(SpanLog::packet_trace(i), 0, "engine.on_packet", t0, t1);
      const uint64_t b = engine.fastpath_bypassed();
      const bool bypass = b != bypassed;
      bypassed = b;
      const ShadowSample& s = samples[i];
      const double layers = bypass ? s.peek_ns : s.layers_ns;
      all.add(net(t0, t1), layers);
      if (s.cls == kSip) sip.add(net(t0, t1), layers);
      if (s.cls == kRtp || bypass) rtp.add(net(t0, t1), layers);
      if (s.cls == kRtp && !bypass) rtp_slow.add(net(t0, t1), layers);
    });
    const double traced_s = seconds_since(start);
    *packets_offered += stream.traced_packets();

    m["engine.on_packet_ns.sip"] = sip.engine.mean();
    m["engine.on_packet_ns.rtp"] = rtp.engine.mean();
    m["engine.on_packet_ns.rtp_slow"] = rtp_slow.engine.mean();
    m["engine.unattributed_ns"] = all.unattributed();
    m["engine.unattributed_ns.sip"] = sip.unattributed();
    m["engine.unattributed_ns.rtp"] = rtp.unattributed();
    const core::EngineStats es = engine.stats();
    m["engine.fastpath_hit_share"] =
        es.packets_inspected == 0
            ? 0.0
            : static_cast<double>(engine.fastpath_bypassed()) /
                  static_cast<double>(es.packets_inspected);
    const core::TrailManagerStats& ts = engine.trails().stats();
    m["trail_manager.flow_cache_hit_share"] =
        ts.footprints_routed == 0 ? 0.0
                                  : static_cast<double>(ts.flow_cache_hits) /
                                        static_cast<double>(ts.footprints_routed);
    m["trail_manager.sessions_live"] = static_cast<double>(engine.trails().session_count());
    m["trail_manager.trails_live"] = static_cast<double>(engine.trails().trail_count());
    m["trail_manager.arena_mb"] =
        static_cast<double>(engine.trails().arena_bytes_reserved()) / (1024.0 * 1024.0);
    m["event_generator.sessions_live"] = static_cast<double>(engine.events().tracked_sessions());
    m["engine.traced_pps"] = n / traced_s;

    // Snapshot cost: the observability read an operator pays per scrape.
    std::vector<double> snaps;
    for (int i = 0; i < 3; ++i) {
      const uint64_t s0 = now_ns();
      const obs::Snapshot snap = engine.metrics_snapshot();
      const uint64_t s1 = now_ns();
      snaps.push_back(static_cast<double>(s1 - s0) / 1e6);
      log.record(log.begin_trace(), 0, "obs.snapshot", s0, s1);
    }
    std::sort(snaps.begin(), snaps.end());
    m["obs.snapshot_ms"] = snaps[1];
  }
  {
    // Untraced reference on the same packets: the tracing overhead ratio.
    auto single = std::make_unique<SingleTopology>(deployment);
    const auto start = Clock::now();
    for (uint64_t pass = 0; pass < stream.traced_passes(); ++pass) {
      feed_pass(*single, stream, pass);
    }
    const double untraced_s = seconds_since(start);
    m["engine.untraced_pps"] = n / untraced_s;
    m["trace.overhead_ratio"] = m["engine.untraced_pps"] / m["engine.traced_pps"];
    *packets_offered += stream.traced_packets();
  }

  // --- shard router on its own ---------------------------------------------
  {
    core::ShardRouterConfig rc;
    rc.num_shards = ShardedTopology::kWorkers;
    rc.route_invite_by_caller = deployment.route_invite_by_caller;
    core::ShardRouter router(rc);
    Mean route;
    traced_packets(stream, [&](const pkt::Packet& packet, uint64_t i) {
      const uint64_t t0 = now_ns();
      router.route(packet);
      const uint64_t t1 = now_ns();
      route.add(net(t0, t1));
      log.record(SpanLog::packet_trace(i), 0, "shard_router.route", t0, t1);
    });
    m["shard_router.route_ns"] = route.mean();
  }

  // --- sharded engine --------------------------------------------------------
  {
    auto sharded = std::make_unique<ShardedTopology>(deployment);
    Mean enqueue;
    const auto start = Clock::now();
    traced_packets(stream, [&](const pkt::Packet& packet, uint64_t i) {
      const uint64_t t0 = now_ns();
      sharded->feed(packet);
      const uint64_t t1 = now_ns();
      enqueue.add(net(t0, t1));
      log.record(SpanLog::packet_trace(i), 0, "sharded_engine.on_packet", t0, t1);
    });
    const uint64_t f0 = now_ns();
    sharded->finish();
    const uint64_t f1 = now_ns();
    const double wall_ns = seconds_since(start) * 1e9;
    log.record(log.begin_trace(), 0, "sharded_engine.flush", f0, f1);
    *packets_offered += stream.traced_packets();

    const obs::Snapshot snap = sharded->engine.metrics_snapshot();
    double busy = 0, max_processed = 0, sum_processed = 0;
    int64_t hwm = 0;
    for (size_t s = 0; s < ShardedTopology::kWorkers; ++s) {
      busy += static_cast<double>(shard_counter(snap, "scidive_shard_worker_busy_ns_total", s));
      const double processed =
          static_cast<double>(shard_counter(snap, "scidive_shard_enqueued_total", s));
      max_processed = std::max(max_processed, processed);
      sum_processed += processed;
      hwm = std::max(hwm, snap.gauge_value("scidive_shard_queue_depth_hwm",
                                           {{"shard", std::to_string(s)}}));
    }
    m["sharded_engine.enqueue_ns"] = enqueue.mean();
    m["sharded_engine.flush_ms"] = static_cast<double>(f1 - f0) / 1e6;
    m["sharded_engine.worker_busy_share"] =
        busy / (wall_ns * static_cast<double>(ShardedTopology::kWorkers));
    m["sharded_engine.shard_skew"] =
        sum_processed == 0 ? 0.0
                           : max_processed * static_cast<double>(ShardedTopology::kWorkers) /
                                 sum_processed;
    m["sharded_engine.queue_depth_hwm"] = static_cast<double>(hwm);
    m["sharded_engine.traced_pps"] = n * 1e9 / wall_ns;
  }

  // --- fleet ----------------------------------------------------------------
  {
    auto fleet = std::make_unique<FleetTopology>(deployment);
    Mean dispatch;
    traced_packets(stream, [&](const pkt::Packet& packet, uint64_t i) {
      const uint64_t t0 = now_ns();
      fleet->feed(packet);
      const uint64_t t1 = now_ns();
      dispatch.add(net(t0, t1));
      log.record(SpanLog::packet_trace(i), 0, "fleet.on_packet", t0, t1);
    });
    const uint64_t f0 = now_ns();
    fleet->finish();
    const uint64_t f1 = now_ns();
    log.record(log.begin_trace(), 0, "fleet.flush", f0, f1);
    *packets_offered += stream.traced_packets();
    const fleet::FleetNodeStats ns = fleet->fleet.node_stats();
    m["fleet.dispatch_ns"] = dispatch.mean();
    m["fleet.flush_ms"] = static_cast<double>(f1 - f0) / 1e6;
    m["fleet.gossip_bytes_per_kpkt"] = 1000.0 * static_cast<double>(ns.gossip_bytes_built) / n;
  }
  return m;
}

}  // namespace perfbench
