// The correctness gate: every operation's result is checked outside the
// timed region, against the caller's own input, with code that shares
// nothing with the library's kernels.
//
// A result passes when its status is OK, converged == true (an "OK" report
// with converged == false is the wrong-but-OK case and fails), and its
// scaled residual and orthogonality defect are within the limits below.
// Units are n * eps * ||.||_F, with n the larger matrix dimension:
//   evd   max_k ||A v_k - lambda_k v_k|| / (n eps ||A||_F),  ||V^T V - I||_max / (n eps)
//   svd   max_k ||A v_k - sigma_k u_k|| / (n eps ||A||_F),
//         max(||V^T V - I||_max, ||U^T U - I||_max) / (n eps)
//   pca   as svd, on the column-centred input
//   gevd  max_k ||A x_k - lambda_k B x_k|| / (n eps (||A||_F + |lambda_k| ||B||_F) ||x_k||),
//         B-orthonormality ||X^T B X - I||_max / (n eps)
#pragma once

#include <string>

#include "api/report.hpp"
#include "common.hpp"
#include "api/spec.hpp"
#include "la/matrix.hpp"

namespace perfbench {

/// Limits in units of n * eps (see above). Converged results of the
/// benchmark's workloads read at most about 200 (a Gershgorin-shifted evd
/// residual; the B / sigma side of an svd or pca, U when tall and V when
/// wide, inherits the 1e-12 rotation threshold, about 70); a solve stopped
/// two sweeps early reads about 1e12 to 1e13 (the self-test checks this).
inline constexpr double kResidualLimit = 1000.0;
inline constexpr double kOrthogonalityLimit = 1000.0;

struct Verdict {
  bool ok = false;
  double residual = 0.0;       ///< in units of n eps ||.||
  double orthogonality = 0.0;  ///< in units of n eps
  std::string why;             ///< empty when ok
};

/// Checks one report of @p spec solved on input @p a. The readings are
/// filled for every status-OK report, converged or not.
Verdict check_report(const jmh::api::SolverSpec& spec, const jmh::la::Matrix& a,
                     const jmh::api::SolveReport& report);

/// Tallies attempted / failed operations and the worst gate readings.
struct Gatekeeper {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double worst_residual = 0.0;
  double worst_orthogonality = 0.0;
  std::string first_failure;

  /// One operation: @p report is null when the call threw @p error.
  void record(const jmh::api::SolverSpec& spec, const jmh::la::Matrix& a,
              const jmh::api::SolveReport* report, const std::string& error);
  /// Copies the counts into @p out and notes them with failed_share.
  void finish(Result& out) const;
};

}  // namespace perfbench
