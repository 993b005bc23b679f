// Reading the obs:: trace: draining the rings between traced operations
// and turning complete-span events into per-name totals and self times.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

/// Waits until no recorder is armed (every traced call has returned),
/// snapshots the resident events, adds the rings' drop count to @p dropped
/// and clears the rings, so the next window starts empty. Draining after
/// every traced operation (or window of operations) is what keeps the
/// fixed-capacity rings from wrapping.
std::vector<jmh::obs::TraceEvent> drain_trace(std::uint64_t& dropped);

/// Largest number of events any one recording thread holds in @p events:
/// the windowed drains keep this below the ring capacity.
std::size_t max_ring_fill(const std::vector<jmh::obs::TraceEvent>& events);

struct SpanTotals {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;  ///< summed durations
  std::uint64_t self_ns = 0;   ///< summed durations minus direct children
  std::uint64_t arg_sum = 0;   ///< summed span arguments (e.g. group sizes)
};

/// Per span name: count, total and self time. A span's children are the
/// spans of the same thread that start and end inside it; self time is its
/// duration minus its direct children's durations. Times are summed over
/// threads, so for multi-endpoint solves they are CPU time, not wall time.
std::map<std::string, SpanTotals> span_totals(const std::vector<jmh::obs::TraceEvent>& events);

/// max over min of the per-thread summed duration of spans named @p name
/// (1 when fewer than two threads recorded it).
double endpoint_imbalance(const std::vector<jmh::obs::TraceEvent>& events, const char* name);

/// The traced run's accumulator: drained windows of events folded into
/// per-name totals, with the operation count they cover, the drop count
/// and the fullest ring seen.
struct TraceLedger {
  std::map<std::string, SpanTotals> totals;
  std::uint64_t ops = 0;
  std::uint64_t dropped = 0;
  std::size_t max_fill = 0;

  /// Drains the rings (drain_trace) and folds the window in as @p ops
  /// operations. Returns the window's events.
  std::vector<jmh::obs::TraceEvent> drain_window(std::uint64_t ops_in_window);

  /// Summed duration (or self time) of spans named @p name per operation,
  /// in ms, and the count per operation.
  double total_ms_per_op(const std::string& name) const;
  double self_ms_per_op(const std::string& name) const;
  double count_per_op(const std::string& name) const;
  /// Summed span argument of spans named @p name over the whole ledger.
  double arg_sum(const std::string& name) const;

  /// Note lines: one row per span name (count, CPU ms and self CPU ms per
  /// operation), the drop count and the ring fill against its capacity.
  std::vector<std::string> table() const;
};

/// RAII span of the benchmark itself around one call into a layer: arms
/// the recorder for its scope and records a complete event named @p name.
class BenchSpan {
 public:
  BenchSpan(const char* name, jmh::obs::Category cat, bool armed)
      : arm_(armed), span_(name, cat) {}

 private:
  jmh::obs::ArmScope arm_;
  jmh::obs::SpanScope span_;
};

}  // namespace perfbench
