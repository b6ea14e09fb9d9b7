#include "fuzz/differential.h"

#include <map>
#include <sstream>

#include "capture/pcap.h"
#include "common/strings.h"

namespace scidive::fuzz {
namespace {

/// Identity -> count: "(rule, session)" for alerts, "(rule, session,
/// action)" for verdicts.
using Multiset = std::map<std::string, size_t>;

Multiset alert_multiset(const std::vector<core::Alert>& alerts) {
  Multiset out;
  for (const core::Alert& a : alerts) {
    ++out[str::format("(%s, %s)", a.rule.c_str(), a.session.c_str())];
  }
  return out;
}

Multiset verdict_multiset(const std::vector<core::Verdict>& verdicts) {
  Multiset out;
  for (const core::Verdict& v : verdicts) {
    ++out[str::format("(%s, %s, %s)", v.rule.c_str(), v.session.c_str(),
                      std::string(core::verdict_action_name(v.action)).c_str())];
  }
  return out;
}

void compare_multisets(const char* what, const Multiset& baseline, const Multiset& run,
                       const std::string& who, std::vector<std::string>& mismatches) {
  if (run == baseline) return;
  for (const auto& [key, n] : baseline) {
    auto it = run.find(key);
    const size_t have = it == run.end() ? 0 : it->second;
    if (have != n) {
      mismatches.push_back(str::format("%s: %s %s x%zu, baseline has x%zu", who.c_str(),
                                       what, key.c_str(), have, n));
    }
  }
  for (const auto& [key, n] : run) {
    if (baseline.find(key) == baseline.end()) {
      mismatches.push_back(str::format("%s: extra %s %s x%zu not in baseline", who.c_str(),
                                       what, key.c_str(), n));
    }
  }
}

/// Detection-side metric families that must be topology-invariant. Packet,
/// fragment and reassembly counters are deliberately absent: the single
/// engine reassembles in its distiller while sharded and fleet front-ends
/// reassemble in their routers, so those legitimately differ in placement.
/// Control-plane families (scidive_fleet_*, ring gauges) scale with the
/// topology by design.
bool comparable_sample(const obs::Sample& s) {
  if (s.kind != obs::InstrumentKind::kCounter) return false;
  if (s.name != "scidive_events_total" && s.name != "scidive_events_by_type_total" &&
      s.name != "scidive_alerts_total" && s.name != "scidive_rule_alerts_total" &&
      s.name != "scidive_rule_events_total" && s.name != "scidive_parse_errors_total")
    return false;
  // The ipv4 axis counts fragment-train failures, which land in the router
  // (uncounted by shard distillers) outside the single engine.
  for (const auto& [k, v] : s.labels) {
    if (s.name == "scidive_parse_errors_total" && k == "proto" && v == "ipv4") return false;
  }
  return true;
}

std::string label_string(const obs::Labels& labels) {
  std::string out;
  for (const auto& [k, v] : labels) {
    if (!out.empty()) out += ",";
    out += k + "=" + v;
  }
  return out;
}

void compare_metrics(const obs::Snapshot& baseline, const obs::Snapshot& run,
                     const std::string& who, std::vector<std::string>& mismatches) {
  for (const obs::Sample& s : baseline.samples()) {
    if (!comparable_sample(s)) continue;
    const uint64_t other = run.counter_value(s.name, s.labels);
    if (other != s.counter) {
      mismatches.push_back(str::format(
          "%s: %s{%s} = %llu, baseline = %llu", who.c_str(), s.name.c_str(),
          label_string(s.labels).c_str(), static_cast<unsigned long long>(other),
          static_cast<unsigned long long>(s.counter)));
    }
  }
  // Reverse direction: a lazily-registered cell present only in the run is
  // itself a divergence.
  for (const obs::Sample& s : run.samples()) {
    if (!comparable_sample(s) || s.counter == 0) continue;
    if (baseline.find(s.name, s.labels) == nullptr) {
      mismatches.push_back(str::format("%s: %s{%s} = %llu, absent from baseline",
                                       who.c_str(), s.name.c_str(),
                                       label_string(s.labels).c_str(),
                                       static_cast<unsigned long long>(s.counter)));
    }
  }
}

/// What one run leaves for the comparisons.
struct Outcome {
  std::string who;
  Multiset alerts;
  Multiset verdicts;
  obs::Snapshot metrics;
  uint64_t filtered = 0;
  /// Loss the run's own counters show: ring drops, lost gossip frames,
  /// dropped gossip records.
  uint64_t lost = 0;
};

size_t total(const Multiset& m) {
  size_t n = 0;
  for (const auto& [key, count] : m) n += count;
  return n;
}

/// Runs one topology (std::visit) and checks its accounting identity.
class Runner {
 public:
  Runner(const std::vector<pkt::Packet>& stream, const DifferentialConfig& config,
         DifferentialReport& report)
      : stream_(stream), make_rules_(config.make_rules), report_(report) {
    engine_ = config.engine;
    engine_.obs.time_stages = false;
  }

  Outcome baseline() {
    core::EngineConfig ec = engine_;
    ec.fastpath.enabled = false;
    return single("baseline", ec, stream_);
  }

  Outcome operator()(const FastPath&) {
    core::EngineConfig ec = engine_;
    ec.fastpath.enabled = true;
    return single("fast path", ec, stream_);
  }

  Outcome operator()(const PcapReplay&) {
    std::ostringstream exported(std::ios::binary);
    capture::PcapWriter writer(exported);
    for (const pkt::Packet& packet : stream_) writer.write(packet);
    std::istringstream back(exported.str(), std::ios::binary);
    capture::PcapFileSource source(back);
    const std::vector<pkt::Packet> reimported = capture::read_all(source);
    if (!source.ok()) mismatch("pcap replay: reimport failed: " + source.error());
    if (reimported.size() != stream_.size()) {
      mismatch(str::format("pcap replay: %zu packets in, %zu back", stream_.size(),
                           reimported.size()));
    } else {
      for (size_t i = 0; i < stream_.size(); ++i) {
        if (reimported[i].data != stream_[i].data ||
            reimported[i].timestamp != stream_[i].timestamp) {
          mismatch(str::format("pcap replay: packet %zu differs after reimport", i));
          break;
        }
      }
    }
    return single("pcap replay", engine_, reimported);
  }

  Outcome operator()(const Sharded& t) {
    core::ShardedEngineConfig sc = t.config;
    sc.engine = engine_;
    Outcome out;
    out.who = str::format("%zu shards", sc.num_shards);
    if (sc.route_invite_by_caller) out.who += " by caller";

    core::ShardedEngine sharded(sc);
    if (make_rules_) sharded.set_rules([&](size_t) { return make_rules_(); });
    for (const pkt::Packet& packet : stream_) sharded.on_packet(packet);
    sharded.flush();

    const core::ShardedEngineStats stats = sharded.stats();
    const uint64_t held = sharded.router().stats().fragments_held;
    if (stats.packets_seen != stream_.size() ||
        stats.packets_seen != stats.packets_filtered + stats.packets_dropped + held +
                                  stats.engine.packets_seen) {
      mismatch(str::format(
          "%s: accounting identity broken: offered=%zu seen=%llu filtered=%llu "
          "dropped=%llu held=%llu shard-seen=%llu",
          out.who.c_str(), stream_.size(),
          static_cast<unsigned long long>(stats.packets_seen),
          static_cast<unsigned long long>(stats.packets_filtered),
          static_cast<unsigned long long>(stats.packets_dropped),
          static_cast<unsigned long long>(held),
          static_cast<unsigned long long>(stats.engine.packets_seen)));
    }
    out.alerts = alert_multiset(sharded.merged_alerts());
    out.verdicts = verdict_multiset(sharded.merged_verdicts());
    out.metrics = sharded.metrics_snapshot();
    out.filtered = stats.packets_filtered;
    out.lost = stats.packets_dropped;
    return out;
  }

  Outcome operator()(const FleetRun& t) {
    fleet::FleetConfig fc = t.config;
    fc.home_addresses = engine_.home_addresses;
    fc.node.engine.engine = engine_;
    const bool churn = t.join_at != 0 || t.leave_at != 0;
    Outcome out;
    out.who = str::format("%zu nodes x %zu workers", t.nodes, fc.node.engine.num_shards);
    if (fc.node.engine.route_invite_by_caller) out.who += " by caller";
    if (churn) out.who += " (churn)";

    std::vector<std::string> names;
    for (size_t i = 0; i < t.nodes; ++i) names.push_back(str::format("node-%zu", i));
    fleet::Fleet fleet(fc, names);
    auto install_rules = [&](fleet::FleetNode& node) {
      if (make_rules_) node.engine().set_rules([&](size_t) { return make_rules_(); });
    };
    for (size_t i = 0; i < fleet.size(); ++i) install_rules(fleet.node_at(i));
    size_t fed = 0;
    for (const pkt::Packet& packet : stream_) {
      fleet.on_packet(packet);
      ++fed;
      if (fed == t.join_at && fleet.add_node("joiner")) install_rules(*fleet.node("joiner"));
      if (t.leave_at > t.join_at && fed == t.leave_at) fleet.remove_node("node-0");
    }
    fleet.flush();

    const fleet::FleetStats fs = fleet.stats();
    report_.sessions_handed_off += fs.sessions_handed_off;
    report_.principals_handed_off += fs.principals_handed_off;
    // Every packet offered is filtered, held as an incomplete fragment, or
    // seen by exactly one member's front-end, whose own identity covers its
    // ring drops and shards.
    uint64_t node_seen = fs.retired_engine_seen, node_dropped = fs.retired_engine_dropped;
    for (size_t i = 0; i < fleet.size(); ++i) {
      const core::ShardedEngineStats ns = fleet.node_at(i).engine().stats();
      node_seen += ns.packets_seen;
      node_dropped += ns.packets_dropped;
    }
    const uint64_t held = fleet.router().stats().fragments_held;
    if (fs.packets_seen != stream_.size() ||
        fs.packets_seen != fs.packets_filtered + held + node_seen) {
      mismatch(str::format(
          "%s: accounting identity broken: offered=%zu seen=%llu filtered=%llu "
          "held=%llu node-seen=%llu",
          out.who.c_str(), stream_.size(), static_cast<unsigned long long>(fs.packets_seen),
          static_cast<unsigned long long>(fs.packets_filtered),
          static_cast<unsigned long long>(held),
          static_cast<unsigned long long>(node_seen)));
    }
    out.alerts = alert_multiset(fleet.merged_alerts());
    out.verdicts = verdict_multiset(fleet.merged_verdicts());
    out.metrics = fleet.merged_metrics();
    out.filtered = fs.packets_filtered;
    out.lost = fs.frames_lost + fleet.node_stats().gossip_records_dropped + node_dropped;
    return out;
  }

 private:
  Outcome single(std::string who, const core::EngineConfig& ec,
                 const std::vector<pkt::Packet>& packets) {
    core::ScidiveEngine engine(ec);
    if (make_rules_) engine.set_rules(make_rules_());
    for (const pkt::Packet& packet : packets) engine.on_packet(packet);
    const core::EngineStats stats = engine.stats();
    if (stats.packets_seen != packets.size() ||
        stats.packets_seen != stats.packets_filtered + stats.packets_inspected) {
      mismatch(str::format("%s: accounting identity broken: offered=%zu seen=%llu "
                           "filtered=%llu inspected=%llu",
                           who.c_str(), packets.size(),
                           static_cast<unsigned long long>(stats.packets_seen),
                           static_cast<unsigned long long>(stats.packets_filtered),
                           static_cast<unsigned long long>(stats.packets_inspected)));
    }
    Outcome out;
    out.who = std::move(who);
    out.alerts = alert_multiset(engine.alerts().alerts());
    out.verdicts = verdict_multiset(engine.verdicts().verdicts());
    out.metrics = engine.metrics_snapshot();
    out.filtered = stats.packets_filtered;
    return out;
  }

  void mismatch(std::string m) { report_.mismatches.push_back(std::move(m)); }

  const std::vector<pkt::Packet>& stream_;
  const std::function<std::vector<core::RulePtr>()>& make_rules_;
  DifferentialReport& report_;
  core::EngineConfig engine_;
};

}  // namespace

Sharded sharded_on(size_t workers) {
  Sharded t;
  t.config.num_shards = workers;
  return t;
}

FleetRun fleet_of(size_t nodes, size_t workers_per_node) {
  FleetRun t;
  t.nodes = nodes;
  t.config.node.engine.num_shards = workers_per_node;
  return t;
}

Sharded by_caller(Sharded topology) {
  topology.config.route_invite_by_caller = true;
  return topology;
}

FleetRun by_caller(FleetRun topology) {
  topology.config.node.engine.route_invite_by_caller = true;
  return topology;
}

std::vector<Topology> default_topologies() {
  return {FastPath{},    sharded_on(1), sharded_on(2),
          sharded_on(4), sharded_on(8), by_caller(sharded_on(4))};
}

std::string DifferentialReport::to_string() const {
  if (ok()) {
    return str::format("differential oracle OK: %zu packets, %zu alerts, %zu verdicts",
                       packets, baseline_alerts, baseline_verdicts);
  }
  std::string out = str::format("differential oracle FAILED (%zu mismatches):",
                                mismatches.size());
  for (const std::string& m : mismatches) {
    out += "\n  ";
    out += m;
  }
  return out;
}

DifferentialReport run_differential(const std::vector<pkt::Packet>& stream,
                                    const DifferentialConfig& config) {
  DifferentialReport report;
  report.packets = stream.size();
  Runner runner(stream, config, report);
  const Outcome baseline = runner.baseline();
  report.baseline_alerts = total(baseline.alerts);
  report.baseline_verdicts = total(baseline.verdicts);

  for (const Topology& topology : config.topologies) {
    const Outcome run = std::visit(runner, topology);
    if (run.filtered != baseline.filtered) {
      report.mismatches.push_back(str::format(
          "%s: filtered %llu packets, baseline filtered %llu", run.who.c_str(),
          static_cast<unsigned long long>(run.filtered),
          static_cast<unsigned long long>(baseline.filtered)));
    }
    // Counted loss legitimately trades detections for drops; the lost
    // packets and frames are counted, not hidden. A run whose counters show
    // no loss is held to every comparison.
    if (run.lost != 0) continue;
    compare_multisets("alert", baseline.alerts, run.alerts, run.who, report.mismatches);
    compare_multisets("verdict", baseline.verdicts, run.verdicts, run.who,
                      report.mismatches);
    compare_metrics(baseline.metrics, run.metrics, run.who, report.mismatches);
  }
  return report;
}

}  // namespace scidive::fuzz
