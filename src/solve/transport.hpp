// Transport: the communication substrate of the distributed Jacobi sweep
// protocol.
//
// The sweep state machine (intra-block pairings, exchange phases, division
// transitions, link rotation, convergence vote) is identical across every
// execution substrate; only *how* blocks move and votes are summed differs.
// run_sweep_protocol (sweep_engine.hpp) drives the protocol once against
// this interface; the concrete transports are:
//
//   * InlineTransport  -- all 2^d nodes owned by one object, executed
//     sequentially in the calling thread (deterministic);
//   * MpiLiteTransport -- an SPMD endpoint: one node per mpi_lite rank,
//     blocks travel as real messages over the hypercube overlay, with an
//     optional packetized pipelined exchange-phase path;
//   * SimTransport     -- InlineTransport numerics plus modeled time: every
//     message is charged on the sim/ event network under
//     pipe::MachineParams, cross-checkable against pipe/cost_model.
//
// The engine is written as the SPMD program of one endpoint: single-owner
// transports (inline, sim) run it once over all nodes; mpi_lite runs one
// engine instance per rank, each seeing its own node through the same
// interface. All global quantities flow through allreduce_sum, so every
// endpoint observes identical control flow.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/cancel.hpp"
#include "common/function_ref.hpp"
#include "la/onesided_jacobi.hpp"
#include "obs/phase_timing.hpp"
#include "ord/ordering.hpp"
#include "solve/jacobi_node.hpp"

namespace jmh::solve {

/// How a protocol run ended. Anything but Ok means the blocks were left
/// mid-sweep and no result may be assembled from them.
enum class RunStatus : std::uint8_t {
  Ok = 0,
  Cancelled,         ///< SolveOptions::cancel fired with CancelReason::Cancelled
  DeadlineExceeded,  ///< ... with CancelReason::DeadlineExceeded
};

/// Thrown by the backend drivers (parallel_jacobi, api/solver) when a run
/// stops before convergence for a non-numeric reason; the api layer maps it
/// onto the api::SolveStatus taxonomy.
class SolveInterrupted : public std::runtime_error {
 public:
  explicit SolveInterrupted(RunStatus status)
      : std::runtime_error(status == RunStatus::DeadlineExceeded
                               ? "solve interrupted: deadline exceeded"
                               : "solve interrupted: cancelled"),
        status_(status) {}
  RunStatus status() const noexcept { return status_; }

 private:
  RunStatus status_;
};

/// Seeded, replayable fault schedule for FaultInjectingTransport
/// (solve/fault_injection.hpp). A plain value so it can ride in SolveOptions
/// and api::SolverSpec; seed == 0 disables injection entirely (the decorator
/// is never constructed, keeping unfaulted solves bit-identical).
///
/// Every decision is a pure hash of (seed, attempt, fault kind, event
/// index), so all endpoints of an mpi_lite solve draw identical schedules
/// without communicating, and a replay with the same seed reproduces the
/// run exactly. `attempt` shifts the whole schedule, which is what makes
/// service-level retry meaningful: attempt 1 redraws every fault.
struct FaultPlan {
  std::uint64_t seed = 0;       ///< 0 = injection off
  double corrupt_rate = 0.0;    ///< P(bit-flip the payload of a transition)
  double delay_rate = 0.0;      ///< P(stall a transition by delay_us)
  std::uint64_t delay_us = 0;   ///< stall length for delayed transitions
  double vote_fail_rate = 0.0;  ///< P(an allreduce vote fails outright)
  std::uint64_t attempt = 0;    ///< retry attempt; redraws the schedule
  bool enabled() const noexcept { return seed != 0; }
  bool operator==(const FaultPlan&) const = default;
};

/// Convergence test applied after each sweep.
enum class StopRule {
  /// Stop when a full sweep applies no rotation (strictest; the final
  /// all-skip sweep is not counted).
  NoRotations,
  /// Stop when the off-diagonal norm observed during the sweep satisfies
  /// sqrt(2 * sum bij^2) <= off_tol * ||A||_F (the classical off(A)
  /// criterion; cheaper by 1-2 sweeps and the convention 1990s papers
  /// report, see EXPERIMENTS.md Table 2 notes). The triggering sweep is
  /// counted.
  OffDiagonal,
  /// Like OffDiagonal but against the ABSOLUTE bound
  /// sqrt(2 * sum bij^2) <= off_tol (no ||A||_F scaling). The rule for
  /// rank-deficient and centered inputs: null-space columns keep rotating
  /// under the relative rotation threshold (their mutual dot products do
  /// not shrink relative to their own vanishing norms) until the norms
  /// underflow to exact zero, so NoRotations needs roughly double the
  /// sweeps and times out under realistic budgets -- but their
  /// contribution to off2 is absolutely tiny, so this rule converges
  /// early. The triggering sweep is counted.
  OffDiagonalAbsolute,
};

struct SolveOptions {
  double threshold = la::kDefaultThreshold;
  int max_sweeps = 60;
  StopRule stop_rule = StopRule::NoRotations;
  double off_tol = 1e-8;  ///< used by StopRule::OffDiagonal[Absolute]

  /// Truncated mode: > 0 stops the protocol once the leading @p topk
  /// columns -- ranked by ||b_k||^2, i.e. sigma_k^2 for SVD and lambda_k^2
  /// for the eigenproblem -- went one full sweep without being touched by
  /// any rotation. The sweep engine extends its convergence vote with
  /// per-column norms and rotation-activity flags (both exact under
  /// allreduce: each norm is computed entirely on its owning endpoint, the
  /// flags are small integer sums), so every backend sees identical
  /// control flow and selects identical leading columns
  /// (EngineResult::leading). 0 = full solve. Requires
  /// StopRule::NoRotations and an unshifted input (api::SolverSpec rejects
  /// topk with shift=1: a shifted spectrum reorders |lambda|).
  int topk = 0;

  /// Cooperative cancellation handle, polled at sweep boundaries. The
  /// default token is inert and costs nothing; when armed, the engine folds
  /// a cancel flag into its convergence vote so every endpoint of an SPMD
  /// run agrees -- at the same sweep -- on whether and why to stop
  /// (EngineResult::status). On mpi_lite all ranks must share ONE token
  /// (SolveOptions is copied into each rank with the shared state inside).
  common::CancelToken cancel;

  /// Deterministic fault injection; inert unless faults.enabled(). Backends
  /// honor it by wrapping their transport in a FaultInjectingTransport.
  FaultPlan faults;

  /// Phase-timing accumulator, or null (the default: no attribution, no
  /// clock reads on the sweep path). api::SolvePlan::solve attaches a
  /// stack-local sink for trace=1 solves; the engine and transports add
  /// their sweep/comm/assembly durations into it from every endpoint.
  /// Observation only -- never consulted for control flow.
  obs::SolveTimingSink* timing = nullptr;
};

/// Global index of the transition at (sweep, step). Message transports
/// derive per-step tags from it so packets from different steps/sweeps can
/// never be confused even when neighboring endpoints run several stages
/// apart; block-move transports ignore it.
inline std::uint64_t global_step(int sweep, std::size_t steps_per_sweep, std::size_t step) {
  return static_cast<std::uint64_t>(sweep) * steps_per_sweep + step;
}

/// Everything a transport needs to execute one phase of one sweep.
struct PhaseContext {
  const ord::PhaseInfo& phase;
  /// Full transition list of this sweep, sigma rotation already applied.
  const std::vector<ord::Transition>& transitions;
  int sweep = 0;
  std::size_t steps_per_sweep = 0;
  double threshold = la::kDefaultThreshold;
  /// Per-column rotation-activity flags, indexed by GLOBAL column id, or
  /// null when the solve does not track activity (topk == 0). A transport's
  /// pairing calls mark both columns of every applied rotation; columns in
  /// transit (pipelined packets) are marked on whichever endpoint rotated
  /// them -- the flags are summed in the convergence vote, so attribution
  /// only has to be exact, not local.
  std::uint8_t* activity = nullptr;
  /// SolveOptions::timing, passed through so transports can attribute
  /// exchange time to comm_ns (null = untimed).
  obs::SolveTimingSink* timing = nullptr;
};

class Transport {
 public:
  virtual ~Transport() = default;

  virtual int dimension() const = 0;

  /// Total column count of the problem (identical on every endpoint). The
  /// engine sizes the extended topk convergence vote from it.
  virtual std::size_t num_columns() const = 0;

  /// Applies @p fn to every JacobiNode this endpoint owns (all 2^d for the
  /// single-owner transports, exactly one for an mpi_lite rank). Takes a
  /// FunctionRef, not std::function: the engine calls this inside the
  /// steady-state sweep loop, and a capture list past std::function's
  /// small-buffer limit would silently put a heap allocation there
  /// (common/function_ref.hpp).
  virtual void visit_nodes(common::FunctionRef<void(JacobiNode&)> fn) = 0;

  /// Applies one ordering transition across t.link to every owned node:
  /// mobile <-> mobile exchange, or the asymmetric division move (the low
  /// side sends its mobile and receives the peer's fixed; the high side
  /// sends its fixed, keeps its mobile as the new fixed, and receives the
  /// peer's mobile). @p step is the transition's global_step index.
  virtual void apply_transition(const ord::Transition& t, std::uint64_t step) = 0;

  /// Element-wise global sum of @p values over all endpoints, returned
  /// everywhere (the convergence vote). Identity for single-owner
  /// transports.
  virtual std::vector<double> allreduce_sum(std::vector<double> values) = 0;

  /// Small-fixed-array overload: sums @p values in place across all
  /// endpoints. The per-sweep convergence vote (two scalars) goes through
  /// this so the steady-state sweep loop allocates no vote vectors;
  /// single-owner transports override it to a pure identity. The default
  /// round-trips through the vector overload.
  virtual void allreduce_sum(std::span<double> values);

  /// Executes one phase: default = per step, inter-block pairings on every
  /// owned node followed by the step's transition. Transports override to
  /// pipeline exchange phases (MpiLiteTransport) or charge modeled time
  /// (SimTransport); overrides must visit exactly the same column pairs.
  virtual SweepStats run_phase(const PhaseContext& ctx);

  /// All 2^{d+1} final blocks, available at every endpoint. Consumes the
  /// resident blocks; call once, after the protocol finishes.
  virtual std::vector<ColumnBlock> collect_blocks() = 0;

  /// Whether this transport's steady-state sweep path (every sweep after
  /// the first, once the scratch arenas are warm) performs no endpoint-side
  /// heap allocations. When true, the sweep engine audits each steady-state
  /// sweep with an AllocGuard in JMH_DASSERT builds -- the machine check of
  /// the PERF.md allocation-free claim. SimTransport opts out: charging
  /// modeled time allocates event bookkeeping by design (the model, not the
  /// endpoint).
  virtual bool steady_state_alloc_free() const noexcept { return true; }
};

}  // namespace jmh::solve
