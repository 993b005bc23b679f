// dense_evd and small_evd: one caller in a closed loop over a fixed ring of
// seeded symmetric matrices, solving each with one reused mpi plan
// (task=evd, minalpha ordering, d = 2, pipeline=auto: 4 ranks on 4 cores)
// and, interleaved, with the inline plan of the same spec -- the
// speed-up baseline on the same matrices.
//
// The specs carry shift=1. The inputs are indefinite, and without the
// Gershgorin shift one-sided Jacobi cannot separate eigenvalues lambda and
// -lambda (la/shift.hpp): eigenvector residuals then have a heavy tail that
// the correctness gate rejects (README.md, "Known defect").
#include <algorithm>
#include <exception>
#include <optional>
#include <vector>

#include "api/solver.hpp"
#include "exec/thread_pool.hpp"
#include "gate.hpp"
#include "la/sym_gen.hpp"
#include "micro.hpp"
#include "trace_stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using jmh::api::SolvePlan;
using jmh::api::SolveReport;
using jmh::api::SolverSpec;
using jmh::la::Matrix;

constexpr int kDimension = 2;

std::string spec_text(std::size_t m, const char* backend, bool trace) {
  return format("task=evd,backend=%s,ordering=minalpha,m=%zu,d=%d,pipeline=auto,shift=1%s", backend, m,
                kDimension, trace ? ",trace=1" : "");
}

/// Times one solve (ms) and gates its result outside the timed region.
/// Returns a negative time when the solve threw.
double timed_solve(const SolvePlan& plan, const Matrix& a, Gatekeeper& gate,
                   SolveReport* keep = nullptr, const char* span = nullptr) {
  SolveReport report;
  std::string error;
  bool ok = true;
  const auto t0 = Clock::now();
  try {
    const BenchSpan bench(span != nullptr ? span : "bench.solve", jmh::obs::Category::kSvc,
                          span != nullptr);
    report = plan.solve(a);
  } catch (const std::exception& e) {
    ok = false;
    error = e.what();
  }
  const double ms = seconds_since(t0) * 1e3;
  gate.record(plan.spec(), a, ok ? &report : nullptr, error);
  if (keep != nullptr) *keep = std::move(report);
  return ok ? ms : -1.0;
}

std::vector<double> pool_busy() { return jmh::exec::ThreadPool::global().worker_busy_seconds(); }

/// The fastest of each input's solve times.
std::vector<double> fastest_per_input(const std::vector<std::vector<double>>& by_input) {
  std::vector<double> best;
  for (const std::vector<double>& xs : by_input)
    if (!xs.empty()) best.push_back(*std::min_element(xs.begin(), xs.end()));
  return best;
}

std::size_t min_count(const std::vector<std::vector<double>>& by_input) {
  std::size_t n = by_input.empty() ? 0 : by_input.front().size();
  for (const std::vector<double>& xs : by_input) n = std::min(n, xs.size());
  return n;
}

}  // namespace

std::vector<Matrix> make_ring(std::uint64_t seed, std::size_t m, std::size_t count) {
  std::vector<Matrix> ring;
  for (std::size_t i = 0; i < count; ++i) {
    jmh::Xoshiro256 rng = input_rng(seed, i);
    ring.push_back(jmh::la::random_uniform_symmetric(m, rng));
  }
  return ring;
}

Result run_closed_loop(const RunArgs& args, std::size_t m, LayerMetrics& layers) {
  const bool dense = m >= 128;
  const std::size_t ring_size = dense ? 8 : 32;
  const int warmup = dense ? 1 : 20;
  // Inline solves are 3x slower than mpi ones at m = 256: solving every
  // fourth ring step inline keeps most of the run on the mpi plan, while
  // the inline solves still walk the whole ring.
  const std::size_t inline_every = dense ? 4 : 1;
  const int setup_reps = args.trace ? 1 : (dense ? 3 : 9);
  const SolverSpec mpi_spec = SolverSpec::parse(spec_text(m, "mpi", false));
  const SolverSpec inline_spec = SolverSpec::parse(spec_text(m, "inline", false));
  Result out;
  out.note("workload " + args.workload + ": closed loop, 1 caller; mpi spec \"" +
           mpi_spec.to_string() + "\"");
  out.note(format("inputs: ring of %zu seeded uniform symmetric %zux%zu matrices (seed %llu); "
                  "inline solves of the same matrices interleaved every %zu ring steps",
                  ring_size, m, m, static_cast<unsigned long long>(args.seed), inline_every));

  // Set-up, repeated: plan compilation, input generation and warm-up solves
  // (the first repetition also starts the exec pool). Warm-up results are
  // gated but not counted as operations.
  std::vector<double> setup_s;
  std::vector<Matrix> ring;
  std::optional<SolvePlan> mpi_plan;
  std::optional<SolvePlan> inline_plan;
  Gatekeeper warm_gate;
  for (int rep = 0; rep < setup_reps; ++rep) {
    const auto t0 = Clock::now();
    mpi_plan.emplace(jmh::api::Solver::plan(mpi_spec));
    inline_plan.emplace(jmh::api::Solver::plan(inline_spec));
    ring = make_ring(args.seed, m, ring_size);
    for (int w = 0; w < warmup; ++w) {
      timed_solve(*mpi_plan, ring[static_cast<std::size_t>(w) % ring_size], warm_gate);
      timed_solve(*inline_plan, ring[static_cast<std::size_t>(w) % ring_size], warm_gate);
    }
    setup_s.push_back(seconds_since(t0));
  }
  if (warm_gate.failed > 0) out.note("warm-up: " + warm_gate.first_failure);

  Gatekeeper gate;
  gate.failed += warm_gate.failed;  // a wrong warm-up answer still fails the run

  if (!args.trace) {
    // Every ring matrix is solved many times in a run. The metrics come from
    // each matrix's fastest mpi and inline solve: its cost with no other
    // guest in the way. On a shared host, other guests' bursts of CPU steal
    // last seconds to minutes and stall a 4-rank solve at every exchange
    // (up to 6x at 20% steal, while the inline solve barely moves), so the
    // per-solve p50 and p90 move with the host from run to run; they are
    // kept as diagnostics. The run is cut into time segments only to print
    // each one's figures and steal.
    const std::size_t segments = dense ? 6 : 12;
    std::vector<std::vector<double>> mpi_ms(segments), inline_ms(segments);
    std::vector<std::vector<double>> mpi_by_input(ring_size), inline_by_input(ring_size);
    std::vector<double> steal(segments);
    std::size_t i = 0;
    const StealMeter run_meter;
    for (std::size_t seg = 0; seg < segments; ++seg) {
      const StealMeter meter;
      const auto start = Clock::now();
      for (; seconds_since(start) < args.seconds / static_cast<double>(segments); ++i) {
        const double t_mpi = timed_solve(*mpi_plan, ring[i % ring_size], gate);
        if (t_mpi >= 0) {
          mpi_ms[seg].push_back(t_mpi);
          mpi_by_input[i % ring_size].push_back(t_mpi);
        }
        if (i % inline_every != 0) continue;
        const std::size_t k = (i / inline_every) % ring_size;
        const double t_inline = timed_solve(*inline_plan, ring[k], gate);
        if (t_inline >= 0) {
          inline_ms[seg].push_back(t_inline);
          inline_by_input[k].push_back(t_inline);
        }
      }
      steal[seg] = meter.percent();
    }
    const double run_steal = run_meter.percent();
    const std::vector<double> mpi_best = fastest_per_input(mpi_by_input);
    const std::vector<double> inline_best = fastest_per_input(inline_by_input);
    const double p50 = median(mpi_best);
    std::vector<double> mpi, inl;
    std::string seg_text;
    for (std::size_t k = 0; k < segments; ++k) {
      mpi.insert(mpi.end(), mpi_ms[k].begin(), mpi_ms[k].end());
      inl.insert(inl.end(), inline_ms[k].begin(), inline_ms[k].end());
      seg_text += format("%s%.4f/%.4f ms @ %.2f%%", k == 0 ? "" : ", ", median(mpi_ms[k]),
                         tail_of(mpi_ms[k]).value, steal[k]);
    }
    gate.finish(out);
    out.note(format("setup: median of %d repetitions (plan + inputs + %d warm-up pairs)",
                    setup_reps, warmup));
    out.note(format("segments (%zu x %.1f s) mpi p50/p90 @ CPU steal: ", segments,
                    args.seconds / static_cast<double>(segments)) + seg_text);
    out.note(format("every solve, %.2f%% CPU steal over the run:", run_steal));
    out.note(format("  mpi: %zu solves, p50 %.4f ms, tail ", mpi.size(), median(mpi)) + tail_note(mpi));
    out.note(format("  inline: %zu solves, p50 %.4f ms, tail ", inl.size(), median(inl)) +
             tail_note(inl));
    out.note(format("fastest solve of each of the %zu ring matrices (at least %zu mpi and %zu "
                    "inline solves each):", ring_size, min_count(mpi_by_input),
                    min_count(inline_by_input)));
    out.note(format("  mpi: p50 %.4f ms, tail ", p50) + tail_note(mpi_best));
    out.note(format("  inline: p50 %.4f ms, tail ", median(inline_best)) + tail_note(inline_best));
    out.note("latency_*: p50 and p90 over the ring matrices of each one's fastest mpi solve; "
             "max_rate_jobs_s: the one caller's mpi solve rate at that p50 (1000 / "
             "latency_p50_ms); speedup_vs_inline: the same p50 of the inline solves / that p50");
    out.diagnose("steal_all_pct", run_steal, "%");
    out.diagnose("latency_p50_all_solves_ms", median(mpi), "ms");
    out.diagnose("latency_tail_all_solves_ms", tail_of(mpi).value, "ms");
    out.add("setup_s", median(setup_s), "s");
    out.add("latency_p50_ms", p50, "ms");
    out.add("latency_tail_ms", tail_of(mpi_best).value, "ms");
    out.add("max_rate_jobs_s", 1e3 / p50, "jobs/s");
    out.add("speedup_vs_inline", median(inline_best) / p50, "x");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
  }

  // ---- traced run: layer micro-timings, then traced vs untraced solves ----
  const std::size_t block_cols = m >> (kDimension + 1);
  const double micro_budget = std::min(3.0, 0.15 * args.seconds);
  TraceLedger micro;
  run_layer_micro(m, block_cols * 2, block_cols, {mpi_spec}, micro_budget, layers, micro);
  layers.pipe_q = static_cast<double>(mpi_plan->pipelining_q());

  const SolvePlan traced_plan = jmh::api::Solver::plan(SolverSpec::parse(spec_text(m, "mpi", true)));
  TraceLedger ledger;
  SolveCounts counts;
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  std::vector<double> imbalance;
  const std::vector<double> busy0 = pool_busy();
  const auto start = Clock::now();
  for (std::size_t i = 0; seconds_since(start) < args.seconds - micro_budget; ++i) {
    const Matrix& a = ring[i % ring_size];
    // Alternating which of the pair runs first cancels the cache warmth the
    // first solve of a matrix leaves for the second.
    SolveReport report;
    double t_plain = i % 2 == 0 ? timed_solve(*mpi_plan, a, gate) : 0.0;
    const double t_traced = timed_solve(traced_plan, a, gate, &report, "bench.solve");
    const std::vector<jmh::obs::TraceEvent> events = ledger.drain_window(1);
    if (i % 2 == 1) t_plain = timed_solve(*mpi_plan, a, gate);
    if (t_plain < 0 || t_traced < 0) continue;
    untraced_ms.push_back(t_plain);
    traced_ms.push_back(t_traced);
    imbalance.push_back(endpoint_imbalance(events, "sweep"));
    counts.add(report, m, m);
  }
  const double wall = seconds_since(start);
  gate.finish(out);
  counts.fill(layers);
  const std::string comm_base = layers.fill_from(ledger);
  layers.pool_busy_share = busy_share(busy0, pool_busy(), wall);
  layers.endpoint_imbalance = median(imbalance);
  layers.dropped_events = static_cast<double>(ledger.dropped + micro.dropped);
  layers.trace_overhead_pct = 100.0 * (median(traced_ms) / median(untraced_ms) - 1.0);

  out.note(format("traced: %zu traced mpi solves interleaved with %zu untraced ones on the same "
                  "matrices; trace overhead = traced p50 %.4f ms / untraced p50 %.4f ms - 1",
                  traced_ms.size(), untraced_ms.size(), median(traced_ms), median(untraced_ms)));
  out.note("ratios: " + comm_base +
           format("; pool busy share = busy / (%zu workers x %.2f s)", pool_busy().size(), wall));
  out.note(format("la: kernels timed at column length %zu over a %zu-column panel; block "
                  "round trip at %zu x %zu", m, block_cols * 2, m, block_cols));
  out.note("svc.* and bench.generator_lag_ms: 0, no service or generator on a closed loop");
  for (std::string& line : ledger.table()) out.note(std::move(line));
  out.note("benchmark micro-timing spans (whole phase):");
  for (std::string& line : micro.table()) out.note(std::move(line));
  return out;
}

}  // namespace perfbench
