#include "micro.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>
#include <stdexcept>

#include "api/solver.hpp"
#include "common.hpp"
#include "la/kernels.hpp"
#include "solve/jacobi_node.hpp"
#include "obs/trace.hpp"
#include "trace_stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// Median seconds per call of @p call, timed in batches of at least
/// 1 ms (one benchmark span per batch, so a traced run records few
/// events) until @p budget_s has passed, with at least three batches.
template <class F>
double time_per_call(const char* span, jmh::obs::Category cat, double budget_s, F&& call) {
  int per_batch = 0;  // calls that fill 1 ms (this loop also warms up)
  const auto c0 = Clock::now();
  do {
    call();
    ++per_batch;
  } while (seconds_since(c0) < 1e-3);
  std::vector<double> per_call;
  const auto t0 = Clock::now();
  while (per_call.size() < 3 || seconds_since(t0) < budget_s) {
    const auto b0 = Clock::now();
    {
      const jmh::obs::SpanScope scope(span, cat);
      for (int k = 0; k < per_batch; ++k) call();
    }
    per_call.push_back(seconds_since(b0) / per_batch);
  }
  return median(per_call);
}

std::vector<double> filled(std::size_t count, std::uint64_t stream) {
  jmh::Xoshiro256 rng = input_rng(0x6d6963726fULL, stream);
  std::vector<double> v(count);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

volatile double g_sink = 0.0;  // keeps timed results observable

}  // namespace

double gram3_gbps(std::size_t n, std::size_t cols, double budget_s) {
  const std::vector<double> panel = filled(n * cols, 1);
  const double pairs = static_cast<double>(cols * (cols - 1) / 2);
  const double t = time_per_call("bench.la.gram3", jmh::obs::Category::kSweep, budget_s, [&] {
    double acc = 0.0;
    for (std::size_t i = 0; i < cols; ++i)
      for (std::size_t j = i + 1; j < cols; ++j)
        acc += jmh::la::kernels::gram3(panel.data() + i * n, panel.data() + j * n, n).xy;
    g_sink = acc;
  });
  return pairs * 16.0 * static_cast<double>(n) / t * 1e-9;
}

double fused_rotate_gbps(std::size_t n, std::size_t cols, double budget_s) {
  std::vector<double> b = filled(n * cols, 2);
  std::vector<double> v = filled(n * cols, 3);
  const double pairs = static_cast<double>(cols * (cols - 1) / 2);
  // A small fixed angle: rotations preserve norms, so repeated batches
  // neither overflow nor underflow.
  const double c = std::cos(1e-3);
  const double s = std::sin(1e-3);
  const double t = time_per_call("bench.la.fused_rotate", jmh::obs::Category::kSweep, budget_s, [&] {
    for (std::size_t i = 0; i < cols; ++i)
      for (std::size_t j = i + 1; j < cols; ++j)
        jmh::la::kernels::fused_rotate(b.data() + i * n, b.data() + j * n, v.data() + i * n,
                                       v.data() + j * n, n, c, s);
  });
  g_sink = b[0] + v[0];
  return pairs * 64.0 * static_cast<double>(n) / t * 1e-9;
}

double block_roundtrip_us(std::size_t rows, std::size_t cols, double budget_s) {
  jmh::solve::ColumnBlock src;
  src.id = 1;
  src.rows = rows;
  src.vrows = rows;
  for (std::size_t c = 0; c < cols; ++c) src.cols.push_back(c);
  src.b = filled(rows * cols, 4);
  src.v = filled(rows * cols, 5);
  jmh::solve::ColumnBlock dst;
  jmh::net::Payload wire;
  const double t = time_per_call("bench.exchange.roundtrip", jmh::obs::Category::kComm, budget_s, [&] {
    src.serialize_into(wire);
    dst.assign_from(wire);
  });
  g_sink = dst.b[0];
  return t * 1e6;
}

double plan_compile_ms(const std::vector<jmh::api::SolverSpec>& specs, int reps) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r)
    for (const jmh::api::SolverSpec& spec : specs) {
      const auto t0 = Clock::now();
      {
        const jmh::obs::SpanScope span("bench.plan", jmh::obs::Category::kPlan);
        const jmh::api::SolvePlan plan = jmh::api::Solver::plan(spec);
        g_sink = static_cast<double>(plan.pipelining_q());
      }
      times.push_back(seconds_since(t0) * 1e3);
    }
  return median(times);
}

void run_layer_micro(std::size_t n, std::size_t panel_cols, std::size_t block_cols,
                     const std::vector<jmh::api::SolverSpec>& specs, double budget_s,
                     LayerMetrics& layers, TraceLedger& ledger) {
  const double each = budget_s / 4;
  const auto armed = [&](auto&& timing) {
    {
      const jmh::obs::ArmScope arm(true);
      timing();
    }
    ledger.drain_window(0);
  };
  armed([&] { layers.gram3_gbps = gram3_gbps(n, panel_cols, each); });
  armed([&] { layers.fused_rotate_gbps = fused_rotate_gbps(n, panel_cols, each); });
  armed([&] { layers.block_roundtrip_us = block_roundtrip_us(n, block_cols, each); });
  armed([&] { layers.plan_compile_ms = plan_compile_ms(specs, 10); });
  ledger.ops = 1;
}

double kernel_bytes(std::size_t core_rows, std::size_t core_cols,
                    const jmh::api::SolveReport& report) {
  const double r = static_cast<double>(core_rows);
  const double c = static_cast<double>(core_cols);
  return (report.sweeps + 1) * c * (c - 1) / 2 * 16 * r +
         static_cast<double>(report.rotations) * 32 * (r + c);
}

Triad run_triad() {
  Triad t;
  for (int index = 0; index < 8; ++index) {
    std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index) +
                     "/size");
    std::string text;
    if (!(in >> text)) continue;
    std::size_t bytes = std::stoull(text);
    if (text.back() == 'K') bytes <<= 10;
    if (text.back() == 'M') bytes <<= 20;
    t.llc_bytes = std::max(t.llc_bytes, bytes);
  }
  if (t.llc_bytes == 0) t.llc_bytes = std::size_t{64} << 20;  // unknown: assume 64 MiB
  // Three arrays, together at least 4x the last-level cache.
  const std::size_t n = (4 * t.llc_bytes / 3) / sizeof(double) + 1;
  t.array_bytes = n * sizeof(double);
  std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
  const double scalar = 3.0;
  std::vector<double> gbps;
  for (int rep = 0; rep < 7; ++rep) {
    const auto t0 = Clock::now();
    double* __restrict pa = a.data();
    const double* __restrict pb = b.data();
    const double* __restrict pc = c.data();
    for (std::size_t i = 0; i < n; ++i) pa[i] = pb[i] + scalar * pc[i];
    gbps.push_back(24.0 * static_cast<double>(n) / seconds_since(t0) * 1e-9);
  }
  g_sink = a[n / 2];
  if (a[n / 2] != 7.0) throw std::runtime_error("triad produced a wrong value");
  t.gbps = median(gbps);
  return t;
}

}  // namespace perfbench
