// The shared sweep engine: drives the full ordering protocol once,
// parameterized by a Transport. Every backend (inline, mpi_lite plain and
// pipelined, simulated) picks a transport and calls run_sweep_protocol; no
// backend re-implements the transition loop or the convergence logic.
#pragma once

#include "solve/transport.hpp"

namespace jmh::solve {

/// Outcome of one protocol run, identical on every SPMD endpoint.
struct EngineResult {
  int sweeps = 0;       ///< sweeps that performed >= 1 rotation
  bool converged = false;
  std::size_t rotations = 0;  ///< global rotation count
  /// How the run ended. Anything but Ok means opts.cancel fired and the
  /// run stopped at a sweep boundary: blocks are mid-protocol, converged
  /// is false, and no result may be assembled. Decided through the
  /// allreduced vote, so every SPMD endpoint reports the same status.
  RunStatus status = RunStatus::Ok;
  /// Truncated mode only (opts.topk > 0): the global ids of the leading
  /// topk columns, ranked by final ||b_k||^2 (descending, ties by index).
  /// Carried from the engine's own convergence vote -- every endpoint
  /// selects from the SAME allreduced norms, so assembly never re-derives
  /// the selection with potentially different floating-point. Empty for
  /// full solves.
  std::vector<std::size_t> leading;
};

/// Runs the sweep protocol to convergence (or opts.max_sweeps). Each sweep:
/// intra-block pairings on every node, then the ordering's phases (exchange
/// phases, division transitions, last transition) with sigma link rotation,
/// then the global convergence vote. Input transforms such as the
/// Gershgorin shift belong to the caller (api's task adapters), not here.
EngineResult run_sweep_protocol(Transport& transport, const ord::JacobiOrdering& ordering,
                                const SolveOptions& opts);

}  // namespace jmh::solve
