#include "api/solver.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <utility>

#include "api/task_adapter.hpp"
#include "common/assert.hpp"
#include "exec/thread_pool.hpp"
#include "obs/trace.hpp"
#include "pipe/optimizer.hpp"
#include "solve/fault_injection.hpp"
#include "solve/host_machine.hpp"
#include "solve/inline_transport.hpp"
#include "solve/parallel_jacobi.hpp"
#include "solve/sim_transport.hpp"
#include "solve/sweep_engine.hpp"

namespace jmh::api {

namespace {

/// The plan span (armed by spec.trace) and the plan_ns clock, opened at the
/// top of each Solver::plan overload so both cover the ordering build and
/// validation, not only SolvePlan's own compile steps: without pipeline=auto
/// the ordering build is most of a plan.
struct PlanClock {
  explicit PlanClock(const SolverSpec& spec)
      : arm(spec.trace), span("plan", obs::Category::kPlan, static_cast<std::uint64_t>(spec.m)) {}
  obs::ArmScope arm;
  obs::SpanScope span;
  std::uint64_t t0 = obs::trace_now_ns();
};

}  // namespace

SolvePlan::SolvePlan(SolverSpec spec, ord::JacobiOrdering ordering, std::uint64_t plan_t0)
    : spec_(spec),
      adapter_(&adapter_for(spec.task)),
      ordering_(std::move(ordering)),
      // The blocks partition what the CORE solves: min(rows, m) columns (a
      // wide svd/pca input runs as its transpose).
      layout_(adapter_->core_geometry(spec).cols, spec.d),
      machine_(spec.machine) {
  JMH_REQUIRE(ordering_.dimension() == spec_.d, "ordering dimension must match spec.d");
  JMH_REQUIRE(ordering_.kind() == spec_.ordering, "ordering kind must match spec.ordering");
  // threads= is an execution knob, not part of the numerical scenario:
  // apply it best-effort (an active pool keeps its width) and move on.
  if (spec_.threads > 0) exec::ThreadPool::global().ensure_workers(spec_.threads);
  switch (spec_.pipelining) {
    case PipeliningPolicy::Off:
      q_ = 0;
      break;
    case PipeliningPolicy::Fixed:
      JMH_REQUIRE(spec_.q >= 1, "PipeliningPolicy::Fixed needs q >= 1");
      q_ = spec_.q;
      break;
    case PipeliningPolicy::Auto: {
      // Qmax = columns a block can be split into; uneven layouts bound by
      // the smallest block so no phase degenerates to empty packets.
      std::uint64_t q_max = layout_.block_size(0);
      for (ord::BlockId b = 1; b < layout_.num_blocks(); ++b)
        q_max = std::min<std::uint64_t>(q_max, layout_.block_size(b));
      q_max = std::max<std::uint64_t>(1, q_max);
      // Rows-aware payload: a rectangular transition moves rows + m elements
      // per column, so the optimal q shifts with the aspect ratio. Modeled
      // on the CORE shape (a wide input transposes before the sweeps).
      const CoreGeometry geo = adapter_->core_geometry(spec_);
      pipe::ProblemParams prob;
      prob.d = spec_.d;
      prob.m = static_cast<double>(geo.cols);
      prob.rows = geo.rows == geo.cols ? 0.0 : static_cast<double>(geo.rows);
      // Real threads plan against the measured host; the simulator (and
      // the inline backend, which ignores q) against the spec's machine.
      if (spec_.backend == Backend::MpiLite) machine_ = solve::host_calibration().machine;
      const pipe::OptimalQ best = pipe::find_optimal_sweep_q(ordering_, prob, machine_, q_max);
      q_ = best.q;
      planned_cost_ = best.cost;
      break;
    }
  }
  plan_ns_ = obs::trace_now_ns() - plan_t0;
}

SolveReport SolvePlan::solve_prepared(const la::Matrix& a,
                                      const solve::SolveOptions& opts) const {
  SolveReport report;
  report.task = spec_.task;
  report.backend = spec_.backend;
  report.ordering = spec_.ordering;
  report.topk = spec_.topk;

  // The sweep protocol is task-agnostic (it orthogonalizes columns either
  // way); only the extraction from the final blocks differs, and which of
  // the two extractions a task consumes is the adapter's CoreKind.
  const bool svd = adapter_->core_kind() == CoreKind::Svd;
  const auto assemble = [&](std::vector<solve::ColumnBlock> blocks,
                            const solve::EngineResult& er) {
    const obs::SpanScope span("assemble", obs::Category::kAssembly,
                              static_cast<std::uint64_t>(a.cols()),
                              opts.timing != nullptr ? &opts.timing->assembly_ns : nullptr);
    if (svd) {
      la::SvdResult sr =
          solve::assemble_svd_result(std::move(blocks), a.rows(), a.cols(), er.leading);
      // V rides in the eigenvectors slot (see SolveReport).
      report.singular_values = std::move(sr.singular_values);
      report.u = std::move(sr.u);
      report.eigenvectors = std::move(sr.v);
    } else {
      solve::EigenPairs ep = solve::assemble_result(std::move(blocks), a.rows(), er.leading);
      report.eigenvalues = std::move(ep.eigenvalues);
      report.eigenvectors = std::move(ep.eigenvectors);
    }
    report.sweeps = er.sweeps;
    report.converged = er.converged;
    report.rotations = er.rotations;
  };

  // Single-owner backends wrap their transport in the fault decorator only
  // when a schedule is armed (mpi wraps per rank inside solve::run_mpi);
  // a non-Ok engine status aborts before assembly -- partial blocks never
  // become a report.
  const auto run_engine = [&](solve::Transport& transport) {
    solve::EngineResult er;
    if (opts.faults.enabled()) {
      solve::FaultInjectingTransport faulty(transport, opts.faults);
      er = run_sweep_protocol(faulty, ordering_, opts);
    } else {
      er = run_sweep_protocol(transport, ordering_, opts);
    }
    if (er.status != solve::RunStatus::Ok) throw solve::SolveInterrupted(er.status);
    return er;
  };

  switch (spec_.backend) {
    case Backend::Inline: {
      // Pipelining reschedules messages; with no messages to schedule the
      // inline substrate always executes unpipelined.
      solve::InlineTransport transport(a, spec_.d);
      const solve::EngineResult er = run_engine(transport);
      assemble(transport.collect_blocks(), er);
      break;
    }
    case Backend::MpiLite: {
      report.pipelining_q = q_;
      solve::MpiRun run = solve::run_mpi(a, ordering_, opts, q_);
      report.comm = run.comm;
      assemble(std::move(run.blocks), run.engine);
      break;
    }
    case Backend::Sim: {
      report.pipelining_q = q_;
      solve::SimTransport transport(a, spec_.d,
                                    {.machine = spec_.machine,
                                     .overlap_startup = spec_.overlap_startup,
                                     .pipelined_q = q_});
      const solve::EngineResult er = run_engine(transport);
      assemble(transport.collect_blocks(), er);
      report.has_model = true;
      report.modeled_time = transport.modeled_time();
      report.vote_time = transport.vote_time();
      report.modeled_sweeps = transport.modeled_sweeps();
      report.link_busy = transport.clock().link_busy;
      break;
    }
  }
  return report;
}

SolveReport SolvePlan::solve(const la::Matrix& a) const { return solve(a, {}); }

SolveReport SolvePlan::solve(const la::Matrix& a, const SolveOverrides& overrides) const {
  adapter_->check_input(spec_, a);

  solve::SolveOptions opts = spec_.solve_options();
  opts.cancel = overrides.cancel;
  // The deadline is relative to THIS call, chained under any caller token:
  // whichever fires first decides the status.
  if (spec_.deadline_ms > 0)
    opts.cancel = opts.cancel.with_timeout(std::chrono::milliseconds(spec_.deadline_ms));
  opts.faults.attempt = overrides.fault_attempt;

  // trace=1 arms the process recorder for this call and attaches the phase
  // sink; trace=0 leaves opts.timing null so the hot path pays no clock
  // reads (the bit-identical contract of the spec grammar).
  const obs::ArmScope arm(spec_.trace);
  obs::SolveTimingSink sink;
  if (spec_.trace) opts.timing = &sink;
  const auto finalize = [&](SolveReport& report) {
    report.timings.plan_ns = plan_ns_;
    report.timings.sweep_ns = sink.sweep_ns.load(std::memory_order_relaxed);
    report.timings.comm_ns = sink.comm_ns.load(std::memory_order_relaxed);
    report.timings.assembly_ns = sink.assembly_ns.load(std::memory_order_relaxed);
  };

  // Map the transport layer's typed failures onto the api taxonomy here, at
  // the one place every backend funnels through; anything still escaping as
  // an untyped exception past this point is a bug (svc wraps it Internal).
  try {
    // The adapter sandwich: prepare -> core -> assemble. An identity
    // prepare returns an empty matrix and the core consumes the caller's
    // input by reference -- no copy, and evd/tall-svd solves run the exact
    // pre-adapter path.
    const PreparedProblem prep = adapter_->prepare(spec_, a);
    const la::Matrix& core_a = prep.a.rows() == 0 ? a : prep.a;
    SolveReport report = solve_prepared(core_a, opts);
    adapter_->assemble(spec_, prep, report);
    finalize(report);
    return report;
  } catch (const solve::TransportCorrupt& e) {
    throw SolveError(SolveStatus::TransportCorrupt, e.what());
  } catch (const solve::SolveInterrupted& e) {
    throw SolveError(e.status() == solve::RunStatus::DeadlineExceeded
                         ? SolveStatus::DeadlineExceeded
                         : SolveStatus::Cancelled,
                     e.what());
  }
}

std::vector<SolveReport> SolvePlan::solve_batch(const std::vector<la::Matrix>& as) const {
  std::vector<SolveReport> reports(as.size());
  // Every matrix is attempted and each keeps its own error, so the one
  // rethrown below is the LOWEST-INDEX failure whatever the pool width or
  // the finishing order.
  std::vector<std::exception_ptr> errors(as.size());
  std::atomic<std::size_t> next{0};
  const auto run = [&] {
    for (std::size_t i = next.fetch_add(1); i < as.size(); i = next.fetch_add(1)) {
      try {
        reports[i] = solve(as[i]);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  // Runners on the shared pool drain one index; the caller runs too, so
  // every matrix is attempted even if no worker frees up, and the helping
  // wait keeps a batch issued from inside a pool task deadlock-free.
  exec::ThreadPool& pool = exec::ThreadPool::global();
  exec::ThreadPool::TaskGroup group = pool.group();
  for (std::size_t t = 1; t < std::min(pool.workers(), as.size()); ++t) group.add(run);
  run();
  group.wait();
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
  return reports;
}

SolvePlan Solver::plan(const SolverSpec& spec) {
  const PlanClock clock(spec);
  JMH_REQUIRE(spec.ordering != ord::OrderingKind::Custom,
              "custom orderings carry their own sequences; use plan(spec, ordering)");
  return compile(spec, ord::JacobiOrdering(spec.ordering, spec.d), clock.t0);
}

SolvePlan Solver::plan(const SolverSpec& spec, ord::JacobiOrdering ordering) {
  const PlanClock clock(spec);
  return compile(spec, std::move(ordering), clock.t0);
}

SolvePlan Solver::compile(const SolverSpec& spec, ord::JacobiOrdering ordering,
                          std::uint64_t plan_t0) {
  JMH_REQUIRE(spec.d >= 1, "hypercube dimension must be >= 1");
  // Task-specific legality (shapes, bseed, per-task knob bans) lives with
  // the adapter; the gates below are task-agnostic and phrased against the
  // CORE geometry (wide inputs solve their transpose, so the short side is
  // what the blocks partition and topk truncates).
  const TaskAdapter& adapter = adapter_for(spec.task);
  adapter.validate(spec);
  const CoreGeometry geo = adapter.core_geometry(spec);
  JMH_REQUIRE(geo.cols >= (std::size_t{2} << spec.d),
              "need at least one column per block (min(rows, m) >= 2^(d+1))");
  JMH_REQUIRE(spec.topk >= 0, "topk must be non-negative");
  if (spec.topk > 0) {
    JMH_REQUIRE(static_cast<std::size_t>(spec.topk) <= geo.cols,
                "topk exceeds the core column count (min(rows, m))");
    JMH_REQUIRE(spec.stop_rule == solve::StopRule::NoRotations,
                "topk needs stop=norot (per-column activity has no off(A) analogue)");
    JMH_REQUIRE(!spec.gershgorin_shift,
                "topk needs shift=0 (the shift reorders the spectrum the ranking tracks)");
  }
  return SolvePlan(spec, std::move(ordering), plan_t0);
}

SolveReport Solver::solve(const SolverSpec& spec, const la::Matrix& a) {
  return plan(spec).solve(a);
}

}  // namespace jmh::api
