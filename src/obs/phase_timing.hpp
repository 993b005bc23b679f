// obs::PhaseTimings: where one solve's wall time went, phase by phase.
//
// The serving stack can report a p99 but not explain it; this struct is the
// explanation. It rides on api::SolveReport (and from there report_to_json /
// summary), so a service's slow job can be decomposed into plan compilation,
// queue wait, sweep compute, communication and assembly without attaching a
// profiler.
#pragma once

#include <atomic>
#include <cstdint>

namespace jmh::obs {

/// Phase-attributed wall-time breakdown of one solve.
///
/// plan_ns is the api::Solver::plan time (ordering construction, validation,
/// pipelining optimizer), measured once per plan and echoed by every solve
/// of that plan -- a cache-hit service job reports the original compile
/// cost, which is exactly the amortization story. queue_ns and retries are
/// filled by svc::SolverService for service jobs (submission to dispatch;
/// solve re-runs after retryable faults) and stay 0 for direct
/// plan.solve calls.
///
/// sweep_ns / comm_ns / assembly_ns are populated only for trace=1 solves:
/// attributing them costs clock reads per sweep and per exchange, which
/// unarmed solves must not pay. They are summed over every SPMD endpoint
/// (an mpi d=3 run adds 8 endpoints' sweep loops), so on a multi-rank
/// backend they are CPU time, not wall time, and can exceed the job
/// latency. comm_ns is contained in sweep_ns: exchanges and convergence
/// allreduces happen inside the sweep loop, so compute-only time is
/// sweep_ns - comm_ns.
struct PhaseTimings {
  std::uint64_t plan_ns = 0;
  std::uint64_t queue_ns = 0;
  std::uint64_t sweep_ns = 0;
  std::uint64_t comm_ns = 0;
  std::uint64_t assembly_ns = 0;
  std::uint64_t retries = 0;
};

/// The engine-side accumulator behind PhaseTimings. A pointer to one of
/// these rides in solve::SolveOptions (null = do not attribute, the
/// default); api::SolvePlan::solve attaches a stack-local sink for trace=1
/// solves and folds it into the report. Atomic, because mpi_lite rank
/// gangs accumulate concurrently from every endpoint.
struct SolveTimingSink {
  std::atomic<std::uint64_t> sweep_ns{0};
  std::atomic<std::uint64_t> comm_ns{0};
  std::atomic<std::uint64_t> assembly_ns{0};
};

}  // namespace jmh::obs
