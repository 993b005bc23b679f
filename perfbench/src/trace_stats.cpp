#include "trace_stats.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "common.hpp"

namespace perfbench {

using jmh::obs::TraceEvent;

std::vector<TraceEvent> drain_trace(std::uint64_t& dropped) {
  // An armed scope means a traced call (or a pool task it spawned) may
  // still record; clearing the rings under it would lose its events.
  const auto t0 = Clock::now();
  while (jmh::obs::trace_armed()) {
    if (seconds_since(t0) > 5.0) throw std::runtime_error("trace recorder stayed armed");
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  std::vector<TraceEvent> events = jmh::obs::snapshot_trace_events();
  dropped += jmh::obs::trace_dropped_events();
  jmh::obs::reset_tracing();
  return events;
}

std::size_t max_ring_fill(const std::vector<TraceEvent>& events) {
  std::map<int, std::size_t> per_tid;
  std::size_t worst = 0;
  for (const TraceEvent& e : events) worst = std::max(worst, ++per_tid[e.tid]);
  return worst;
}

std::map<std::string, SpanTotals> span_totals(const std::vector<TraceEvent>& events) {
  std::vector<const TraceEvent*> order;
  order.reserve(events.size());
  for (const TraceEvent& e : events) order.push_back(&e);
  // Per thread, parents before children: by start, longer span first.
  std::sort(order.begin(), order.end(), [](const TraceEvent* x, const TraceEvent* y) {
    if (x->tid != y->tid) return x->tid < y->tid;
    if (x->start_ns != y->start_ns) return x->start_ns < y->start_ns;
    return x->dur_ns > y->dur_ns;
  });
  std::vector<std::uint64_t> child_ns(order.size(), 0);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const TraceEvent& e = *order[i];
    while (!stack.empty()) {
      const TraceEvent& top = *order[stack.back()];
      if (top.tid == e.tid && e.start_ns + e.dur_ns <= top.start_ns + top.dur_ns) break;
      stack.pop_back();
    }
    if (!stack.empty()) child_ns[stack.back()] += e.dur_ns;
    stack.push_back(i);
  }
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < order.size(); ++i) {
    SpanTotals& t = out[order[i]->name];
    ++t.count;
    t.total_ns += order[i]->dur_ns;
    t.self_ns += order[i]->dur_ns - std::min(order[i]->dur_ns, child_ns[i]);
    t.arg_sum += order[i]->arg;
  }
  return out;
}

double endpoint_imbalance(const std::vector<TraceEvent>& events, const char* name) {
  std::map<int, std::uint64_t> per_tid;
  for (const TraceEvent& e : events)
    if (std::string_view(e.name) == name) per_tid[e.tid] += e.dur_ns;
  if (per_tid.size() < 2) return 1.0;
  std::uint64_t lo = UINT64_MAX;
  std::uint64_t hi = 0;
  for (const auto& [tid, ns] : per_tid) {
    lo = std::min(lo, ns);
    hi = std::max(hi, ns);
  }
  return lo == 0 ? 1.0 : static_cast<double>(hi) / static_cast<double>(lo);
}

std::vector<TraceEvent> TraceLedger::drain_window(std::uint64_t ops_in_window) {
  std::vector<TraceEvent> events = drain_trace(dropped);
  max_fill = std::max(max_fill, max_ring_fill(events));
  for (const auto& [name, t] : span_totals(events)) {
    SpanTotals& acc = totals[name];
    acc.count += t.count;
    acc.total_ns += t.total_ns;
    acc.self_ns += t.self_ns;
    acc.arg_sum += t.arg_sum;
  }
  ops += ops_in_window;
  return events;
}

namespace {
const SpanTotals* find(const std::map<std::string, SpanTotals>& m, const std::string& name) {
  const auto it = m.find(name);
  return it == m.end() ? nullptr : &it->second;
}
}  // namespace

double TraceLedger::total_ms_per_op(const std::string& name) const {
  const SpanTotals* t = find(totals, name);
  return t == nullptr || ops == 0 ? 0.0 : static_cast<double>(t->total_ns) * 1e-6 / static_cast<double>(ops);
}

double TraceLedger::self_ms_per_op(const std::string& name) const {
  const SpanTotals* t = find(totals, name);
  return t == nullptr || ops == 0 ? 0.0 : static_cast<double>(t->self_ns) * 1e-6 / static_cast<double>(ops);
}

double TraceLedger::count_per_op(const std::string& name) const {
  const SpanTotals* t = find(totals, name);
  return t == nullptr || ops == 0 ? 0.0 : static_cast<double>(t->count) / static_cast<double>(ops);
}

double TraceLedger::arg_sum(const std::string& name) const {
  const SpanTotals* t = find(totals, name);
  return t == nullptr ? 0.0 : static_cast<double>(t->arg_sum);
}

std::vector<std::string> TraceLedger::table() const {
  std::vector<std::string> out;
  out.push_back(format("trace: %llu traced operations; span times are CPU time summed over "
                       "threads and endpoints, not wall time",
                       static_cast<unsigned long long>(ops)));
  out.push_back(format("  %-26s %12s %16s %16s", "span", "count/op", "cpu_ms/op", "self_cpu_ms/op"));
  for (const auto& [name, t] : totals)
    out.push_back(format("  %-26s %12.3f %16.4f %16.4f", name.c_str(), count_per_op(name),
                         total_ms_per_op(name), self_ms_per_op(name)));
  out.push_back(format("trace: dropped events %llu; fullest ring %zu of %zu events",
                       static_cast<unsigned long long>(dropped), max_fill,
                       jmh::obs::trace_ring_capacity()));
  return out;
}

}  // namespace perfbench
