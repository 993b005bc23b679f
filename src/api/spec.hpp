// SolverSpec: the declarative scenario description behind the api facade.
//
// One value object names everything a solve needs -- problem geometry
// (m, d), the Jacobi ordering, the execution backend, the pipelining
// policy, the machine model, and the convergence knobs -- so a scenario is
// data, not wiring code. Solver::plan (api/solver.hpp) compiles a spec once
// into a reusable SolvePlan; to_string/parse give every spec a canonical
// textual name (comma-separated key=value) that round-trips exactly, so the
// CLI, benches and CI can pass scenarios as strings.
//
// Key=value grammar (all keys optional; unlisted keys keep their defaults):
//   task=evd|svd|pca|gevd      workload: symmetric eigendecomposition of an
//                              m x m input, thin SVD of a rows x m input,
//                              PCA of a rows x m data matrix (center
//                              columns + svd + explained-variance ratios),
//                              or the generalized symmetric eigenproblem
//                              A x = lambda B x via Cholesky pre-whitening
//                              (B named by bseed=) (default evd)
//   backend=inline|mpi|sim     execution substrate (default inline)
//   ordering=br|pbr|d4|minalpha   exchange-sequence family (default d4)
//   m=<n>                      matrix order; for task=svd the COLUMN count
//                              (the blocks partition columns) (default 32)
//   rows=<n>                   input row count; 0 = square (rows = m). Only
//                              task=svd|pca accept a non-square value; tall
//                              (rows > m) runs directly, wide (rows < m) is
//                              solved as the transpose with U/V swapped in
//                              assembly (default 0)
//   d=<n>                      hypercube dimension (default 2)
//   pipeline=off|auto|<q>      exchange-phase packetization (default off);
//                              auto = pipe::find_optimal_sweep_q
//   ts=<f> tw=<f> ports=all|<n>   the simulated machine: Sim charging and
//                              the Auto choice on sim (and inline); Auto on
//                              backend=mpi plans against the measured host
//                              (solve::host_calibration, SolvePlan::machine)
//   overlap=0|1                sim overlapped-startup hardware (default 0)
//   threshold=<f>              rotation threshold
//   max_sweeps=<n>             sweep cap (default 60)
//   stop=norot|offdiag|offdiag_abs   StopRule (default norot); offdiag_abs
//                              is the ABSOLUTE off-diagonal bound
//                              (sqrt(2*off2) <= off_tol, no ||A||_F
//                              scaling) -- the rule rank-deficient and
//                              centered inputs need, where stop=norot
//                              keeps rotating null-space column pairs
//                              until their norms underflow (~2x the
//                              sweeps, a timeout under real budgets)
//   off_tol=<f>                off-diagonal tolerance (stop=offdiag[_abs])
//   shift=0|1                  Gershgorin shift (default 0, task=evd only)
//   bseed=<n>                  task=gevd's B-side input: the SPD matrix
//                              la::random_spd(m, rng(bseed)), generated
//                              deterministically so every backend and the
//                              sequential reference whiten identically.
//                              Required (>= 1) for task=gevd, rejected
//                              elsewhere; 0 = unset (default 0)
//   topk=<k>                   truncated solve: stop once the leading k
//                              columns (by ||b_k||^2) are rotation-free and
//                              extract only those k eigenpairs / singular
//                              triplets; 0 = full solve (default 0). Needs
//                              stop=norot and shift=0; topk=m is bit-for-bit
//                              the full solve
//   threads=<n>                resize the process-wide exec::ThreadPool to n
//                              workers at plan time (best-effort: an active
//                              pool keeps its width); 0 = leave as is
//                              (default 0)
//   deadline_ms=<n>            per-solve wall-clock budget, measured from
//                              solve() entry; the engine stops at the next
//                              sweep boundary past it and the solve fails
//                              with DEADLINE_EXCEEDED. 0 = none (default 0)
//   trace=0|1                  arm the obs:: trace recorder for solves of
//                              this plan (spans recorded per sweep /
//                              exchange, PhaseTimings on the report).
//                              trace=0 solves stay bit-identical and pay
//                              one relaxed load per span site (default 0)
//   faults=off|<seed>:<corrupt>:<delay>:<delay_us>:<vote>
//                              deterministic fault injection
//                              (solve::FaultPlan): a nonzero schedule seed,
//                              the corrupt/delay/vote-failure rates in
//                              [0,1], and the per-delay stall in
//                              microseconds. Colon-separated because comma
//                              is the spec token separator (default off)
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "ord/ordering.hpp"
#include "pipe/machine.hpp"
#include "solve/transport.hpp"

namespace jmh::api {

/// Version of the spec grammar / canonical string, echoed as the FIRST
/// field of report_to_json so downstream consumers can dispatch before
/// reading anything else. Bump when the grammar changes meaning:
///   1 -- through the fault-tolerant serving PR (deadline_ms, faults)
///   2 -- adds the trace= key (obs:: span recording + PhaseTimings)
///   3 -- adds task=pca|gevd, stop=offdiag_abs, the bseed= key, and wide
///        (rows < m) task=svd|pca inputs
inline constexpr int kSpecVersion = 3;

/// Execution substrate of a solve (see the Transport table in
/// ARCHITECTURE.md; each backend maps onto one Transport implementation).
enum class Backend {
  Inline,   ///< all nodes in the calling thread (InlineTransport)
  MpiLite,  ///< one thread per node, real messages (MpiLiteTransport)
  Sim,      ///< inline numerics + modeled per-link time (SimTransport)
};

std::string to_string(Backend backend);
bool parse_backend(std::string_view text, Backend& out);

/// The workload a spec names. All run the same sweep machinery (one-sided
/// Jacobi orthogonalizes columns either way); they differ in the pre/post
/// transforms a TaskAdapter (api/task_adapter.hpp) wraps around the core:
/// the input shape accepted, the matrix handed to the sweeps, and how the
/// core result is assembled into the report.
enum class Task {
  Evd,   ///< symmetric eigendecomposition of a square m x m input
  Svd,   ///< thin SVD of a (possibly rectangular) rows x m input
  Pca,   ///< PCA of a rows x m data matrix: center columns, SVD, ratios
  Gevd,  ///< generalized A x = lambda B x, B SPD from bseed=, via Cholesky
};

std::string to_string(Task task);
bool parse_task(std::string_view text, Task& out);

/// Exchange-phase packetization policy.
enum class PipeliningPolicy {
  Off,    ///< full-block transitions
  Fixed,  ///< q packets per block, q from SolverSpec::q
  Auto,   ///< q chosen by pipe::find_optimal_sweep_q at plan time
};

struct SolverSpec {
  Task task = Task::Evd;
  std::size_t m = 32;   ///< matrix order (task=svd: column count)
  /// Input rows; 0 = square (== m), and rows == m is normalized to 0 by
  /// parse/to_string so each scenario has one canonical name. Non-square
  /// (tall rows > m or wide rows < m) needs task=svd|pca.
  std::size_t rows = 0;
  int d = 2;                                              ///< hypercube dimension
  ord::OrderingKind ordering = ord::OrderingKind::Degree4;
  Backend backend = Backend::Inline;
  PipeliningPolicy pipelining = PipeliningPolicy::Off;
  std::uint64_t q = 1;          ///< packets per block (Fixed policy only)
  /// The simulated machine: Sim charging and the sim/inline Auto choice
  /// (mpi Auto uses the measured host -- SolvePlan::machine).
  pipe::MachineParams machine;
  bool overlap_startup = false; ///< sim::SimConfig::overlap_startup
  double threshold = la::kDefaultThreshold;
  int max_sweeps = 60;
  solve::StopRule stop_rule = solve::StopRule::NoRotations;
  double off_tol = 1e-8;
  bool gershgorin_shift = false;
  /// task=gevd's deterministic B-side: the SPD matrix is
  /// la::random_spd(m, Xoshiro256(bseed)), so every backend, the CLI
  /// --check path, and the sequential reference reconstruct the identical
  /// B from the spec string alone. Required (>= 1) for task=gevd and
  /// rejected for every other task; 0 = unset.
  std::uint64_t bseed = 0;
  /// Truncated-solve order: 0 = full solve; k > 0 stops the sweep loop once
  /// the leading k columns are rotation-free and extracts only those pairs
  /// (solve::SolveOptions::topk has the precise semantics).
  int topk = 0;
  /// Requested exec::ThreadPool width, applied best-effort at plan time
  /// (ThreadPool::ensure_workers); 0 = leave the pool as is. Not part of the
  /// numerical scenario -- results are identical for every value.
  std::size_t threads = 0;
  /// Per-solve wall-clock budget in milliseconds, measured from solve()
  /// entry; 0 = no deadline. SolvePlan::solve derives a deadline token from
  /// it (composed under any caller-supplied SolveOverrides::cancel).
  std::uint64_t deadline_ms = 0;
  /// Arm the obs:: trace recorder for this plan's solves: spans per sweep /
  /// exchange / assembly plus PhaseTimings sweep/comm attribution on the
  /// report. Purely observational -- results are bit-identical either way;
  /// untraced solves pay one relaxed load per span site.
  bool trace = false;
  /// Deterministic fault injection (seed 0 = off). `faults.attempt` is NOT
  /// part of the spec grammar -- it is the service's per-retry redraw knob
  /// (SolveOverrides::fault_attempt) and stays 0 in any parsed spec.
  solve::FaultPlan faults;

  /// The convergence-knob slice as the executors consume it.
  solve::SolveOptions solve_options() const;

  /// The row count an input matrix must have (rows, or m when rows == 0).
  std::size_t input_rows() const noexcept { return rows == 0 ? m : rows; }

  /// Canonical textual name: every key in a fixed order, doubles printed
  /// round-trip exactly. parse(to_string(s)) == s for every parseable spec;
  /// the one exception is ordering = Custom, which renders as
  /// "ordering=custom" for display but cannot be parsed back (custom
  /// sequences only exist programmatically).
  std::string to_string() const;

  /// Parses a key=value spec (see grammar above), starting from defaults.
  /// Throws std::invalid_argument on unknown keys, malformed tokens, or
  /// invalid values (including ordering=custom: custom orderings carry
  /// their own sequences and must be supplied programmatically to
  /// Solver::plan).
  static SolverSpec parse(const std::string& text);

  bool operator==(const SolverSpec&) const = default;
};

}  // namespace jmh::api
