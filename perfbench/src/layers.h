// The traced run: per-layer costs measured by timing calls into each
// layer's public functions from the benchmark's own code. Nothing inside
// the library is instrumented for this.
//
// A shadow pipeline rebuilds the engine's slow path from its parts —
// Distiller::distill -> TrailManager::add -> EventGenerator::process ->
// Rule::on_event -> Enforcer::decide — plus the standalone IPv4/UDP decode
// and the fast-path peek, and times every call. A second pass times
// ScidiveEngine::on_packet per packet class; the class time minus the sum
// of the shadow layers for that class is the engine's unattributed time.
// The sharded engine, its router and the fleet are timed at their call
// boundaries the same way.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

/// One recorded span: a layer call of one sampled packet. Spans of one
/// packet share `trace`; `parent` is the id of the span that caused it
/// (0 for a root).
struct Span {
  uint32_t trace = 0;
  uint32_t id = 0;
  uint32_t parent = 0;
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// Spans kept in memory for a sample of packets, written out at the end.
/// A packet's trace id is derived from its index in the replay, so its
/// spans share one id across the shadow pipeline and every topology. Trace
/// id 0 means "not sampled": every call is then a no-op.
class SpanLog {
 public:
  /// Trace id of packet `index`, or 0 when the packet is not sampled.
  static uint32_t packet_trace(uint64_t index);
  /// A fresh trace id for a call that is not about one packet (flush,
  /// snapshot).
  uint32_t begin_trace() { return kFirstCallTrace + next_trace_++; }
  /// Opens a span (end filled in by close); returns its id.
  uint32_t open(uint32_t trace, uint32_t parent, const char* name, uint64_t start_ns);
  void close(uint32_t id, uint64_t end_ns);
  uint32_t record(uint32_t trace, uint32_t parent, const char* name, uint64_t start_ns,
                  uint64_t end_ns);
  const std::vector<Span>& spans() const { return spans_; }
  /// Writes {<header_fields>, "spans": [...]} as one JSON document.
  bool write_json(const std::string& path, const std::string& header_fields) const;

 private:
  static constexpr uint32_t kFirstCallTrace = 1u << 31;
  std::vector<Span> spans_;
  uint32_t next_trace_ = 0;
};

/// Per-layer metrics of one traced round, by metric name.
using LayerMetrics = std::map<std::string, double>;

/// Runs one traced round over the stream's first pass (warm-up included)
/// through the shadow pipeline and every topology, plus one untraced
/// single-engine pass on the same packets for the tracing-overhead ratio.
/// Adds the packets it offered to `*packets_offered`.
LayerMetrics trace_round(Stream& stream, const Deployment& deployment, SpanLog& log,
                         uint64_t* packets_offered);

}  // namespace perfbench
