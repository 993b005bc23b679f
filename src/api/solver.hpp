// The api facade: one front door for every execution substrate.
//
//   SolverSpec spec = SolverSpec::parse("backend=sim,ordering=minalpha,"
//                                       "m=64,d=3,pipeline=auto");
//   SolvePlan plan = Solver::plan(spec);   // expensive setup, done once
//   SolveReport r  = plan.solve(a);        // cheap per matrix
//
// Solver::plan compiles a SolverSpec into an immutable SolvePlan: the
// ordering's exchange sequences (for MinAlpha this is the paper's
// backtracking search), the sweep phase skeleton, the column-block layout,
// and -- for PipeliningPolicy::Auto -- the optimizer-chosen pipelining
// degree (pipe::find_optimal_sweep_q) are all computed here and amortized
// over every subsequent solve. A SolvePlan has no mutable state: concurrent
// plan.solve calls from different threads are safe (each run builds its own
// Transport), which is the hot-path shape a many-scenario service needs.
//
// This is the only way to run a solve: every backend (inline, mpi, sim) and
// every task goes through SolvePlan::solve, and every solve returns one
// SolveReport.
//
// Choosing a backend: below a crossover size the mpi backend's message
// startups and votes cost more than its parallel sweeps save, and
// backend=inline is as fast or faster. On a 4-vCPU x86 host (PERF.md,
// "Measured host machine") mpi with pipeline=auto matched inline at m = 32
// and won from m = 48 on d = 2 (2.1x at 48, 3.3x at 256); on d = 1 inline
// was faster up to m = 96 and mpi won from m = 128. Use inline for
// m <= 32 at d = 2 and m <= 96 at d = 1. The solve/ layer underneath exposes only the pieces a plan
// composes (transports, the sweep engine, block assembly).
#pragma once

#include <vector>

#include "api/report.hpp"
#include "api/spec.hpp"
#include "api/task_adapter.hpp"
#include "common/cancel.hpp"
#include "solve/block_layout.hpp"

namespace jmh::api {

/// Per-call knobs a caller may vary across solves of one plan (everything
/// in the spec is part of the plan's identity; these are not).
struct SolveOverrides {
  /// Caller-supplied cancellation handle. When the spec also names a
  /// deadline_ms, the effective token is this one with the deadline chained
  /// under it -- whichever fires first wins.
  common::CancelToken cancel;
  /// Redraws the spec's fault schedule (solve::FaultPlan::attempt); the
  /// service's retry-with-backoff bumps it so a retry is not doomed to
  /// replay the identical fault.
  std::uint64_t fault_attempt = 0;
};

/// Immutable compiled form of a SolverSpec. Create via Solver::plan.
class SolvePlan {
 public:
  const SolverSpec& spec() const noexcept { return spec_; }
  const ord::JacobiOrdering& ordering() const noexcept { return ordering_; }
  /// Partitions the CORE columns (TaskAdapter::core_geometry(spec).cols =
  /// min(rows, m) -- a wide input is solved as its transpose).
  const solve::BlockLayout& layout() const noexcept { return layout_; }

  /// Resolved exchange-phase packetization: 0 for Off, spec().q for Fixed,
  /// the pipe::find_optimal_sweep_q degree for Auto.
  std::uint64_t pipelining_q() const noexcept { return q_; }

  /// The machine pipeline=auto planned against. For backend=mpi it is
  /// this host's measured mpi-lite machine (solve::host_calibration, ts/tw
  /// in ns); for sim and inline it is spec().machine, which also stands
  /// for plans that are not Auto (they consult no machine). Replaying an
  /// Auto run: pipe::find_optimal_sweep_q under machine() gives
  /// pipelining_q(), and pipeline=<that q> reruns it exactly.
  const pipe::MachineParams& machine() const noexcept { return machine_; }

  /// For Auto: the optimizer's modeled per-sweep exchange communication
  /// time at pipelining_q() under machine() -- host ns for backend=mpi,
  /// the simulated machine's units otherwise; 0 for other policies.
  double planned_sweep_comm_cost() const noexcept { return planned_cost_; }

  /// Runs the solve on spec().backend through the Transport machinery,
  /// wrapped in the task's adapter (api/task_adapter.hpp): prepare builds
  /// the core input, the backend-dispatched sweep core solves it, assemble
  /// turns the core result into the caller-facing report. task=evd|gevd:
  /// @p a must be square of order spec().m. task=svd|pca: @p a must be
  /// spec().input_rows() x spec().m (tall, square or wide). Thread-safe.
  ///
  /// Failures are typed: deadline/cancellation/corruption surface as
  /// SolveError carrying the matching SolveStatus (never a partial report);
  /// shape and spec problems stay std::invalid_argument.
  SolveReport solve(const la::Matrix& a) const;

  /// solve() with per-call overrides (cancellation token, fault-schedule
  /// attempt). solve(a) is exactly solve(a, {}).
  SolveReport solve(const la::Matrix& a, const SolveOverrides& overrides) const;

  /// Solves several matrices with one plan (the amortization the facade
  /// exists for). Runs as tasks on the process-wide exec::ThreadPool with
  /// the caller helping, so batch throughput scales with cores; each report
  /// is bit-identical to a sequential solve() of the same matrix, and
  /// reports are returned in input order. Every matrix is attempted; if any
  /// solve throws, the exception of the lowest-index failure is rethrown
  /// once all have finished.
  std::vector<SolveReport> solve_batch(const std::vector<la::Matrix>& as) const;

 private:
  friend class Solver;
  /// @p plan_t0 is the obs::trace_now_ns() at which Solver::plan started.
  SolvePlan(SolverSpec spec, ord::JacobiOrdering ordering, std::uint64_t plan_t0);

  /// The backend dispatch over the CORE matrix (the task adapter's
  /// pre-transforms -- shift, transpose, centering, whitening -- already
  /// applied by solve()).
  SolveReport solve_prepared(const la::Matrix& a, const solve::SolveOptions& opts) const;

  SolverSpec spec_;
  /// The task's stateless adapter singleton (never null; owned by the
  /// adapter_for registry, so copies of the plan stay cheap).
  const TaskAdapter* adapter_;
  ord::JacobiOrdering ordering_;
  solve::BlockLayout layout_;
  pipe::MachineParams machine_;
  std::uint64_t q_ = 0;
  double planned_cost_ = 0.0;
  /// Wall time of Solver::plan (ordering build, validation, compile),
  /// echoed into every report's timings.plan_ns (the plan is the amortized
  /// cost a caller should see attributed, however many solves it serves).
  std::uint64_t plan_ns_ = 0;
};

class Solver {
 public:
  /// Compiles @p spec into a reusable plan. Validates the spec (d >= 1,
  /// at least one column per block, ordering != Custom).
  static SolvePlan plan(const SolverSpec& spec);

  /// Same, around a prebuilt ordering -- the route for Custom orderings
  /// (and for callers that already paid the ordering construction).
  /// Requires ordering.kind() == spec.ordering and
  /// ordering.dimension() == spec.d.
  static SolvePlan plan(const SolverSpec& spec, ord::JacobiOrdering ordering);

  /// One-shot convenience: plan + solve. Prefer a reused plan on hot paths.
  static SolveReport solve(const SolverSpec& spec, const la::Matrix& a);

 private:
  /// Shared tail of both plan overloads: validation and SolvePlan
  /// construction, timed from @p plan_t0.
  static SolvePlan compile(const SolverSpec& spec, ord::JacobiOrdering ordering,
                           std::uint64_t plan_t0);
};

}  // namespace jmh::api
