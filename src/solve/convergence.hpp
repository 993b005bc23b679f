// Convergence-rate experiment driver (paper section 3.4, Table 2).
//
// For each (m, P) combination and each ordering, solves `repetitions`
// random symmetric matrices (entries uniform on [-1, 1], the paper's
// workload) and reports the mean number of sweeps to convergence.
#pragma once

#include <vector>

#include "ord/ordering.hpp"
#include "solve/transport.hpp"

namespace jmh::solve {

struct ConvergenceCell {
  std::size_t m = 0;
  int p = 0;  ///< node count (2^d)
  double mean_sweeps = 0.0;
  double stddev_sweeps = 0.0;
  int repetitions = 0;
};

struct ConvergenceConfig {
  int repetitions = 30;     ///< paper: 30 matrices per cell
  double threshold = 1e-12;
  int max_sweeps = 60;
  std::uint64_t seed = 20260612;  ///< matrices depend only on (seed, m, rep)
  /// Default to the classical off-diagonal-norm stopping test, the
  /// convention contemporary with the paper (EXPERIMENTS.md Table 2 notes);
  /// StopRule::NoRotations yields ~1.5 extra sweeps across the grid.
  StopRule stop_rule = StopRule::OffDiagonal;
  double off_tol = 1e-6;
};

/// Mean sweeps for one (m, P, ordering) cell. P must be a power of two with
/// m >= 4P (two blocks of >= 2 columns per node... at least one column per
/// block is required; the paper grid satisfies m >= 2P).
ConvergenceCell convergence_cell(std::size_t m, int p, ord::OrderingKind kind,
                                 const ConvergenceConfig& config = {});

/// The full Table 2 grid: m in {8, 16, 32, 64}, P in {2, 4, ..., m/2}
/// (DESIGN.md note 8). Rows are returned per ordering in the order BR,
/// permuted-BR, degree-4 for each (m, P).
struct ConvergenceRow {
  std::size_t m = 0;
  int p = 0;
  double br = 0.0;
  double permuted_br = 0.0;
  double degree4 = 0.0;
};
std::vector<ConvergenceRow> table2_grid(const ConvergenceConfig& config = {});

}  // namespace jmh::solve
