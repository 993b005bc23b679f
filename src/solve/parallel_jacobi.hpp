// Distributed one-sided Jacobi eigensolver driven by a JacobiOrdering: the
// core pieces api::SolvePlan composes into a solve.
//
// Every backend runs the one sweep engine (solve/sweep_engine.hpp) and
// differs only in the Transport it plugs into it:
//   * InlineTransport -- the 2^d nodes simulated sequentially in one thread
//     (deterministic; used for the Table 2 convergence experiments);
//   * MpiLiteTransport -- each node an mpi_lite rank exchanging blocks with
//     real messages over the hypercube overlay (run_mpi below), optionally
//     with packetized, pipelined exchange phases;
//   * SimTransport -- inline numerics with modeled per-link time under
//     pipe::MachineParams.
// The engine's EngineResult carries the counters (sweeps, convergence,
// rotations); the final blocks go through assemble_result or
// assemble_svd_result, which extract the solution and nothing else.
//
// Each sweep: intra-block pairings, then the 2^{d+1}-1 step/transition
// pairs of the ordering (inter-block pairings + mobile exchange or division
// transfer). Convergence: a sweep in which no node applies any rotation.
#pragma once

#include <cstdint>
#include <vector>

#include "la/svd.hpp"
#include "net/universe.hpp"
#include "ord/ordering.hpp"
#include "solve/jacobi_node.hpp"
#include "solve/sweep_engine.hpp"

namespace jmh::solve {

/// The symmetric eigensolution extracted from a run's final blocks.
struct EigenPairs {
  std::vector<double> eigenvalues;  ///< ascending
  la::Matrix eigenvectors;          ///< column k pairs with eigenvalues[k]
};

/// Extracts eigenpairs from final node blocks. Blocks must jointly cover
/// all m columns. A non-empty @p leading (EngineResult::leading of a topk
/// run) restricts the output to those columns: eigenvalues/eigenvectors
/// carry only the selected pairs, still sorted by eigenvalue ascending.
/// With leading covering every column the result is bit-identical to the
/// unrestricted assembly -- the selection is sorted ascending first, so the
/// extraction sort starts from the same permutation the full path uses.
EigenPairs assemble_result(std::vector<ColumnBlock> blocks, std::size_t m,
                           const std::vector<std::size_t>& leading = {});

/// SVD counterpart of assemble_result: reassembles the final (B, V) pair of
/// a task=svd run -- B is rows x cols, V is cols x cols -- and extracts
/// (sigma, U, V) through la::svd_from_bv, so every backend collecting the
/// same blocks produces bit-identical results. Blocks must jointly cover
/// all @p cols columns. Only the factorization is filled; the counters of
/// la::SvdResult stay zero (they come from the EngineResult).
/// @p leading as in assemble_result: a non-empty selection yields the
/// truncated factorization (sigma, U, V restricted to those columns,
/// sigma-descending with the same index tie-break la::svd_from_bv uses);
/// a selection covering every column routes through la::svd_from_bv
/// itself and is bit-identical to the unrestricted assembly.
la::SvdResult assemble_svd_result(std::vector<ColumnBlock> blocks, std::size_t rows,
                                  std::size_t cols,
                                  const std::vector<std::size_t>& leading = {});

/// What one mpi_lite run leaves for assembly.
struct MpiRun {
  std::vector<ColumnBlock> blocks;  ///< rank 0's full final block set
  EngineResult engine;              ///< identical on every rank
  net::CommStats comm;              ///< traffic of the run
};

/// Spins up a 2^d-rank mpi_lite universe and runs the sweep engine over one
/// MpiLiteTransport endpoint per rank (each wrapped in the fault decorator
/// when opts.faults is enabled). @p q as in MpiLiteTransport: 0 = full-block
/// exchanges, q >= 1 = packetized pipelined exchange phases. Throws
/// SolveInterrupted when the run stops before finishing (no blocks are
/// collected then).
MpiRun run_mpi(const la::Matrix& a, const ord::JacobiOrdering& ordering,
               const SolveOptions& opts, std::uint64_t q);

}  // namespace jmh::solve
