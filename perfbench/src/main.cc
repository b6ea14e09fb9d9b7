// scidive_perfbench: replays a seeded capture through ScidiveEngine, a
// 2-worker ShardedEngine and a 2-node fleet, checks their alert and verdict
// multisets, and prints end-to-end (--trace 0) or per-layer (--trace 1)
// metrics. The last stdout line is the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
//   scidive_perfbench --workload carrier_mix --seed 1 --seconds 10 --trace 0
//
// Exit status: 0 when every check passed, 1 when a correctness check
// failed (the result line then reads "correct": false), 2 on bad usage.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cmath>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "layers.h"
#include "topologies.h"
#include "workloads.h"

using namespace perfbench;
using scidive::pkt::Packet;

namespace {

constexpr int kSetupRounds = 3;
/// Every measured series runs at least this many passes.
constexpr size_t kMinPasses = 3;
/// Fleet-only alerts the single engine does not raise, pinned by rule name:
/// they count in alert_divergence but do not fail the run, so a fix reads
/// as an improvement rather than a broken benchmark.
const std::set<std::string> kKnownFleetDivergence = {"fleet-digest-guess"};

struct Options {
  Workload workload = Workload::kCarrierMix;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double scale = 1.0;
  std::string expect;        // pinned single-engine output digest ("" = unpinned)
  std::string trace_out;     // span log path (trace mode)
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  bool digest_only = false;   // print the stream digest and exit
  bool outputs_only = false;  // print the single-engine output digest and exit
};

bool parse_args(int argc, char** argv, Options* o) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--digest-only" || arg == "--outputs-only") {
      (arg == "--digest-only" ? o->digest_only : o->outputs_only) = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      auto w = parse_workload(value);
      if (!w) return false;
      o->workload = *w;
      have_workload = true;
    } else if (arg == "--seed") {
      o->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (arg == "--seconds") {
      o->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || o->seconds <= 0) return false;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return false;
      o->trace = value == "1";
    } else if (arg == "--scale") {
      o->scale = std::strtod(value.c_str(), &end);
      if (*end != '\0' || o->scale <= 0 || o->scale > 1) return false;
    } else if (arg == "--expect") {
      o->expect = value;
    } else if (arg == "--trace-out") {
      o->trace_out = value;
    } else if (arg == "--git-sha") {
      o->git_sha = value;
    } else if (arg == "--source-digest") {
      o->source_digest = value;
    } else {
      return false;
    }
  }
  return have_workload;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : (v[h - 1] + v[h]) / 2;
}

/// Allocator in-use bytes (arena chunks plus mmapped blocks), not RSS.
double heap_in_use_mb() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string outputs_digest(const Outputs& o) {
  uint64_t h = 0x243f6a8885a308d3ULL;
  auto add = [&h](const std::string& s) {
    for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ULL;
    h = (h ^ 0xff) * 0x100000001b3ULL;
  };
  for (const auto& s : o.alerts) add(s);
  add("--verdicts--");
  for (const auto& s : o.verdicts) add(s);
  return digest_hex(h);
}

std::string rule_of(const std::string& canonical) {
  return canonical.substr(0, canonical.find('|'));
}

/// Per-rule size of the multiset symmetric difference of two sorted lists.
void diff_by_rule(const std::vector<std::string>& a, const std::vector<std::string>& b,
                  std::map<std::string, uint64_t>* out) {
  size_t i = 0, j = 0;
  while (i < a.size() || j < b.size()) {
    if (j == b.size() || (i < a.size() && a[i] < b[j])) {
      ++(*out)[rule_of(a[i++])];
    } else if (i == a.size() || b[j] < a[i]) {
      ++(*out)[rule_of(b[j++])];
    } else {
      ++i;
      ++j;
    }
  }
}

std::map<std::string, uint64_t> divergence(const Outputs& reference, const Outputs& other) {
  std::map<std::string, uint64_t> by_rule;
  diff_by_rule(reference.alerts, other.alerts, &by_rule);
  diff_by_rule(reference.verdicts, other.verdicts, &by_rule);
  return by_rule;
}

uint64_t total(const std::map<std::string, uint64_t>& by_rule) {
  uint64_t n = 0;
  for (const auto& [rule, count] : by_rule) n += count;
  return n;
}

std::string describe(const std::map<std::string, uint64_t>& by_rule) {
  std::string s;
  for (const auto& [rule, count] : by_rule) {
    s += (s.empty() ? "" : ", ") + rule + "=" + std::to_string(count);
  }
  return s.empty() ? "none" : s;
}

/// Expectations that hold for every seed: the benign mixes raise nothing,
/// and the storm raises only SPIT graylisting, one rate-limit verdict per
/// alert, always against a SPIT cohort identity — and at full scale the
/// cohort has had time to cross the threshold, so at least one.
bool structural_ok(Workload w, const Outputs& single, bool full_scale, std::string* why) {
  if (w != Workload::kSignalingStorm) {
    if (single.alerts.empty() && single.verdicts.empty()) return true;
    *why = "benign workload raised alerts or verdicts";
    return false;
  }
  if (single.alerts.size() != single.verdicts.size()) {
    *why = "expected one spit-graylist verdict per alert";
    return false;
  }
  if (full_scale && single.alerts.empty()) {
    *why = "the SPIT cohort was never graylisted";
    return false;
  }
  for (const auto& a : single.alerts) {
    if (rule_of(a) != "spit-graylist") {
      *why = "unexpected alert " + a;
      return false;
    }
  }
  for (const auto& v : single.verdicts) {
    // rule|action|session|time|aor|endpoint
    if (v.rfind("spit-graylist|rate_limit|", 0) != 0 ||
        v.find("|spit") == std::string::npos) {
      *why = "unexpected verdict " + v;
      return false;
    }
  }
  return true;
}

struct Run {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  void fail(const std::string& why) {
    correct = false;
    failures.push_back(why);
  }
};

struct Setup {
  Stream stream;
  std::vector<double> round_s;
  double generate_s = 0;
  Outputs single, sharded, fleet;
  uint64_t dropped = 0;  // sharded + fleet, first-touch passes
};

/// Builds a topology, feeds its first pass (warm-up included) and returns
/// its outputs. The first-touch cost this pays is charged to setup.
template <typename Topology>
Outputs first_touch(Stream& stream, const Deployment& d, uint64_t* dropped) {
  auto topology = std::make_unique<Topology>(d);
  feed_pass(*topology, stream, 0);
  *dropped += topology->dropped();
  return topology->outputs();
}

/// Set-up, repeated kSetupRounds times: generate the capture, then build
/// every topology and run its warm-up and first-touch pass. Each round
/// must reproduce the first round's stream and outputs exactly.
Setup run_setup(const Options& o, const Deployment& d, Run& run) {
  Setup s;
  for (int round = 0; round < kSetupRounds; ++round) {
    const auto start = Clock::now();
    Stream stream = generate(o.workload, o.seed, o.scale);
    const double gen_s = seconds_since(start);
    uint64_t dropped = 0;
    Outputs single = first_touch<SingleTopology>(stream, d, &dropped);
    Outputs sharded = first_touch<ShardedTopology>(stream, d, &dropped);
    Outputs fleet = first_touch<FleetTopology>(stream, d, &dropped);
    s.round_s.push_back(seconds_since(start));
    if (round == 0) {
      s.generate_s = gen_s;
      s.single = std::move(single);
      s.sharded = std::move(sharded);
      s.fleet = std::move(fleet);
      s.dropped = dropped;
      s.stream = std::move(stream);
      continue;
    }
    if (stream.digest != s.stream.digest) run.fail("stream generation is not deterministic");
    if (single != s.single || sharded != s.sharded || fleet != s.fleet) {
      run.fail("topology outputs differ between set-up rounds");
    }
    s.generate_s = std::min(s.generate_s, gen_s);
  }
  return s;
}

/// Repeated timed passes of one topology. A stored capture replays into a
/// topology built (untimed) for that pass and destroyed after it; a
/// flow-template capture continues one topology, built with its first-touch
/// pass (untimed) on construction. Every pass's outputs must equal
/// `reference`.
///
/// Every pass replays the same packets, so the estimates are taken piece by
/// piece: a pass is timed in kSegments segments and the throughput is the
/// packets over the sum of each segment's best time; a latency pass times
/// every call and the percentiles are over each packet's best time. Load
/// from elsewhere on a shared machine only ever slows a piece down, and a
/// burst of it then spoils one piece of one pass, not the whole estimate.
template <typename Topology>
class Lane {
 public:
  static constexpr size_t kSegments = 16;

  Lane(Stream& stream, const Deployment& d, const Outputs& reference, Run& run)
      : stream_(stream), d_(d), reference_(reference), run_(run) {
    const size_t packets = stream_.packets_in_pass(stream_.continuous() ? 1 : 0);
    best_call_ns_.assign(packets, std::numeric_limits<double>::infinity());
    segment_len_ = (packets + kSegments - 1) / kSegments;
    best_segment_s_.assign(kSegments, std::numeric_limits<double>::infinity());
    if (stream_.continuous()) {
      build();
      feed_pass(*topology_, stream_, next_pass_++);
      heap_mb.push_back(heap_in_use_mb() - heap_base_);
    }
  }

  /// One timed pass. With `per_call`, each packet's feed is timed on its
  /// own (the decision-latency pass) instead of the pass in segments.
  void run_pass(bool per_call) {
    if (!stream_.continuous()) build();
    const uint64_t pass = stream_.continuous() ? next_pass_++ : 0;
    const uint64_t packets = stream_.packets_in_pass(pass);
    const uint64_t dropped_before = topology_->dropped();
    size_t i = 0;
    if (per_call) {
      replay(stream_, pass, [&](const Packet& packet) {
        const uint64_t t0 = now_ns();
        topology_->feed(packet);
        const uint64_t t1 = now_ns();
        double& best = best_call_ns_[i++];
        best = std::min(best, static_cast<double>(t1 - t0) - clock_ns_);
      });
      topology_->finish();
      ++latency_passes;
    } else {
      size_t segment = 0;
      double pass_s = 0;
      auto mark = Clock::now();
      auto close_segment = [&] {
        const auto now = Clock::now();
        const double s = std::chrono::duration<double>(now - mark).count();
        best_segment_s_[segment] = std::min(best_segment_s_[segment], s);
        pass_s += s;
        mark = now;
        ++segment;
      };
      replay(stream_, pass, [&](const Packet& packet) {
        topology_->feed(packet);
        if (++i % segment_len_ == 0 && i < packets) {
          topology_->checkpoint();
          close_segment();
        }
      });
      topology_->finish();
      close_segment();
      pps.push_back(static_cast<double>(packets) / pass_s);
    }
    run_.attempted += packets;
    run_.failed += topology_->dropped() - dropped_before;
    if (topology_->outputs() != reference_) {
      run_.fail(std::string(Topology::kName) + " pass diverged from its reference outputs");
      run_.failed += packets;
    }
    if (!stream_.continuous()) {
      heap_mb.push_back(heap_in_use_mb() - heap_base_);
      topology_.reset();
    }
  }

  /// Packets per second over the sum of the best segment times.
  double best_pps() const {
    double s = 0;
    for (double t : best_segment_s_) s += std::isinf(t) ? 0 : t;
    return static_cast<double>(best_call_ns_.size()) / s;
  }
  /// Percentile `q` of the per-packet best call latencies.
  double best_latency_ns(double q) {
    const size_t k = std::min(best_call_ns_.size() - 1,
                              static_cast<size_t>(q * static_cast<double>(best_call_ns_.size())));
    std::nth_element(best_call_ns_.begin(), best_call_ns_.begin() + k, best_call_ns_.end());
    return best_call_ns_[k];
  }

  std::vector<double> pps, heap_mb;
  size_t latency_passes = 0;

 private:
  void build() {
    heap_base_ = heap_in_use_mb();
    topology_ = std::make_unique<Topology>(d_);
  }

  Stream& stream_;
  const Deployment& d_;
  const Outputs& reference_;
  Run& run_;
  const double clock_ns_ = clock_read_ns();
  std::unique_ptr<Topology> topology_;
  uint64_t next_pass_ = 0;
  double heap_base_ = 0;
  size_t segment_len_ = 1;
  std::vector<double> best_segment_s_;
  std::vector<double> best_call_ns_;
};

void print_metric(std::string* json, const std::string& name, double value,
                  const std::string& unit) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  *json += (json->size() > 1 ? ", " : "") + std::string("\"") + name + "\": {\"value\": " +
           buf + ", \"unit\": \"" + unit + "\"}";
}

std::string unit_of(const std::string& name) {
  auto ends_with = [&name](const char* suffix) {
    const std::string s(suffix);
    return name.size() >= s.size() && name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  if (name.find("_ns") != std::string::npos) return "ns";
  if (ends_with("_ms")) return "ms";
  if (ends_with("_mb")) return "MB";
  if (ends_with("_pps")) return "1/s";
  if (ends_with("_per_kpkt")) return "1/kpkt";
  if (ends_with("_share") || ends_with("_ratio") || ends_with("_skew")) return "ratio";
  return "count";
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse_args(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: scidive_perfbench --workload carrier_mix|signaling_storm|media_fanout "
                 "--seed N --seconds S --trace 0|1 [--scale X] [--expect DIGEST] "
                 "[--trace-out PATH] [--git-sha SHA] [--source-digest HEX] [--digest-only | --outputs-only]\n");
    return 2;
  }
  const std::string wname(workload_name(o.workload));
  if (o.digest_only) {
    const Stream stream = generate(o.workload, o.seed, o.scale);
    std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"digest\": \"%s\", \"packets\": %zu}\n",
                wname.c_str(), static_cast<unsigned long long>(o.seed),
                digest_hex(stream.digest).c_str(), stream.traced_packets());
    return 0;
  }
  const Deployment d = deployment_for(o.workload);
  if (o.outputs_only) {
    Stream stream = generate(o.workload, o.seed, o.scale);
    uint64_t dropped = 0;
    const Outputs single = first_touch<SingleTopology>(stream, d, &dropped);
    std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"outputs\": \"%s\", \"alerts\": %zu, "
                "\"verdicts\": %zu}\n",
                wname.c_str(), static_cast<unsigned long long>(o.seed),
                outputs_digest(single).c_str(), single.alerts.size(), single.verdicts.size());
    return 0;
  }

  // Keep freed memory in the process: every pass after the first then runs
  // on pages the allocator has already touched, so page-fault and
  // mmap/munmap churn is paid once, in set-up, not in each timed pass.
  mallopt(M_MMAP_THRESHOLD, 512 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);

  Run run;
  Setup setup = run_setup(o, d, run);
  Stream& stream = setup.stream;

  // --- correctness gate ----------------------------------------------------
  const std::string single_digest = outputs_digest(setup.single);
  std::string why;
  if (!structural_ok(o.workload, setup.single, o.scale == 1.0, &why)) {
    run.fail("single engine: " + why);
  }
  if (!o.expect.empty() && o.expect != single_digest) {
    run.fail("single-engine outputs " + single_digest + " differ from the pinned " + o.expect);
  }
  const auto sharded_div = divergence(setup.single, setup.sharded);
  if (!sharded_div.empty()) {
    run.fail("sharded outputs differ from the single engine: " + describe(sharded_div));
  }
  const auto fleet_div = divergence(setup.single, setup.fleet);
  for (const auto& [rule, count] : fleet_div) {
    if (!kKnownFleetDivergence.contains(rule)) {
      run.fail("fleet outputs differ from the single engine in rule " + rule);
    }
  }
  const uint64_t alert_divergence = total(sharded_div) + total(fleet_div);
  const double drop_share =
      static_cast<double>(setup.dropped) / (2.0 * static_cast<double>(stream.packets_in_pass(0)));

  std::printf(
      "{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, \"stream_digest\": \"%s\", "
      "\"packets_per_pass\": %zu, \"warmup_packets\": %zu, \"git_sha\": \"%s\", "
      "\"source_digest\": \"%s\", \"build_type\": \"%s\", \"nproc\": %u, \"cpu\": \"%s\"}}\n",
      wname.c_str(), static_cast<unsigned long long>(o.seed), digest_hex(stream.digest).c_str(),
      stream.packets_in_pass(1), stream.warmup.size(), json_escape(o.git_sha).c_str(),
      json_escape(o.source_digest).c_str(), PERFBENCH_BUILD_TYPE,
      std::thread::hardware_concurrency(), json_escape(cpu_model()).c_str());
  std::printf("outputs: single alerts=%zu verdicts=%zu digest=%s pinned=%s; sharded divergence: "
              "%s; fleet divergence: %s; alert_divergence=%llu drop_share=%.6g\n",
              setup.single.alerts.size(), setup.single.verdicts.size(), single_digest.c_str(),
              o.expect.empty() ? "no" : (o.expect == single_digest ? "match" : "MISMATCH"),
              describe(sharded_div).c_str(), describe(fleet_div).c_str(),
              static_cast<unsigned long long>(alert_divergence), drop_share);
  std::printf("setup rounds (s):");
  for (double s : setup.round_s) std::printf(" %.3f", s);
  std::printf("\n");

  std::string metrics = "{";
  if (!o.trace) {
    // Passes of every topology interleave across the whole run, so load
    // from elsewhere on the machine lands on all of them alike. Each step
    // runs the series that has had the least time so far, so every series
    // gets a quarter of the run however long its passes are.
    Lane<SingleTopology> single(stream, d, setup.single, run);
    Lane<ShardedTopology> sharded(stream, d, setup.single, run);
    Lane<FleetTopology> fleet(stream, d, setup.fleet, run);
    const std::function<void()> series[] = {
        [&] { single.run_pass(false); }, [&] { single.run_pass(true); },
        [&] { sharded.run_pass(false); }, [&] { fleet.run_pass(false); }};
    double spent[std::size(series)] = {};
    size_t passes[std::size(series)] = {};
    const auto start = Clock::now();
    while (*std::min_element(std::begin(passes), std::end(passes)) < kMinPasses ||
           seconds_since(start) < o.seconds) {
      const size_t next = std::min_element(std::begin(spent), std::end(spent)) - spent;
      const auto t0 = Clock::now();
      series[next]();
      spent[next] += seconds_since(t0);
      ++passes[next];
    }
    auto show = [](const char* name, const auto& lane) {
      std::printf("%s: best %.0f; passes:", name, lane.best_pps());
      for (double x : lane.pps) std::printf(" %.0f", x);
      std::printf("\n");
    };
    show("single_pps", single);
    show("sharded_pps", sharded);
    show("fleet_pps", fleet);
    const double p50 = single.best_latency_ns(0.50);
    const double p99 = single.best_latency_ns(0.99);
    std::printf("decision latency: best of %zu passes for each of %zu packets: p50 %.1f ns, "
                "p99 %.1f ns\n",
                single.latency_passes, stream.packets_in_pass(stream.continuous() ? 1 : 0), p50,
                p99);
    print_metric(&metrics, "setup_s", median(setup.round_s), "s");
    print_metric(&metrics, "single_pps", single.best_pps(), "1/s");
    print_metric(&metrics, "sharded_pps", sharded.best_pps(), "1/s");
    print_metric(&metrics, "fleet_pps", fleet.best_pps(), "1/s");
    print_metric(&metrics, "decision_p50_ns", p50, "ns");
    print_metric(&metrics, "decision_p99_ns", p99, "ns");
    print_metric(&metrics, "engine_heap_mb", median(single.heap_mb), "MB");
  } else {
    SpanLog log;
    std::vector<LayerMetrics> rounds;
    const auto start = Clock::now();
    while (rounds.empty() || seconds_since(start) < o.seconds) {
      SpanLog unsampled;
      rounds.push_back(trace_round(stream, d, rounds.empty() ? log : unsampled, &run.attempted));
    }
    LayerMetrics m;
    for (const auto& [name, value] : rounds.front()) {
      std::vector<double> values;
      for (const auto& r : rounds) values.push_back(r.at(name));
      m[name] = median(values);
    }
    m["capture.gen_ns_per_pkt"] =
        setup.generate_s * 1e9 / static_cast<double>(stream.traced_packets());
    m["capture.sip_share"] = static_cast<double>(stream.sip_packets) /
                             static_cast<double>(stream.traced_packets());
    m["capture.packets"] = static_cast<double>(stream.traced_packets());
    m["topology.alert_divergence"] = static_cast<double>(alert_divergence);
    m["topology.drop_share"] = drop_share;
    std::printf("traced rounds: %zu\n", rounds.size());
    for (const auto& [name, value] : m) print_metric(&metrics, name, value, unit_of(name));
    if (!o.trace_out.empty()) {
      const std::string header = "\"workload\": \"" + wname +
                                 "\", \"seed\": " + std::to_string(o.seed) +
                                 ", \"stream_digest\": \"" + digest_hex(stream.digest) + "\"";
      if (!log.write_json(o.trace_out, header)) run.fail("cannot write " + o.trace_out);
    }
  }
  metrics += "}";

  for (const auto& f : run.failures) std::printf("FAILED: %s\n", f.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              run.correct ? "true" : "false", static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed), metrics.c_str());
  return run.correct ? 0 : 1;
}
