#include "gate.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "api/task_adapter.hpp"
#include "common.hpp"

namespace perfbench {

namespace {

using jmh::la::Matrix;
constexpr double kEps = std::numeric_limits<double>::epsilon();

double frob(const Matrix& a) {
  double s = 0.0;
  for (const double x : a.data()) s += x * x;
  return std::sqrt(s);
}

/// y = A x (column-major axpy form: contiguous in A).
std::vector<double> apply(const Matrix& a, const double* x) {
  std::vector<double> y(a.rows(), 0.0);
  for (std::size_t j = 0; j < a.cols(); ++j) {
    const double xj = x[j];
    const auto col = a.col(j);
    for (std::size_t i = 0; i < a.rows(); ++i) y[i] += col[i] * xj;
  }
  return y;
}

double norm(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x * x;
  return std::sqrt(s);
}

/// max_{i,j} |(X^T M X - I)_{ij}|, with M = identity when @p m is null.
double orthonormality_defect(const Matrix& x, const Matrix* m) {
  std::vector<std::vector<double>> mx;
  if (m != nullptr)
    for (std::size_t k = 0; k < x.cols(); ++k) mx.push_back(apply(*m, x.col(k).data()));
  double worst = 0.0;
  for (std::size_t i = 0; i < x.cols(); ++i) {
    const auto xi = x.col(i);
    for (std::size_t j = i; j < x.cols(); ++j) {
      const double* rhs = m != nullptr ? mx[j].data() : x.col(j).data();
      double s = 0.0;
      for (std::size_t r = 0; r < x.rows(); ++r) s += xi[r] * rhs[r];
      worst = std::max(worst, std::abs(s - (i == j ? 1.0 : 0.0)));
    }
  }
  return worst;
}

}  // namespace

Verdict check_report(const jmh::api::SolverSpec& spec, const Matrix& a,
                     const jmh::api::SolveReport& report) {
  using jmh::api::Task;
  Verdict v;
  if (report.status != jmh::api::SolveStatus::Ok) {
    v.why = "status " + jmh::api::to_string(report.status);
    return v;
  }
  const double n = static_cast<double>(std::max(a.rows(), a.cols()));
  double residual = 0.0;
  double orth = 0.0;
  switch (spec.task) {
    case Task::Evd: {
      const Matrix& x = report.eigenvectors;
      if (x.cols() != report.eigenvalues.size() || x.rows() != a.cols()) {
        v.why = "eigenvector shape mismatch";
        return v;
      }
      const double scale = n * kEps * frob(a);
      for (std::size_t k = 0; k < x.cols(); ++k) {
        std::vector<double> r = apply(a, x.col(k).data());
        for (std::size_t i = 0; i < r.size(); ++i) r[i] -= report.eigenvalues[k] * x(i, k);
        residual = std::max(residual, norm(r) / scale);
      }
      orth = orthonormality_defect(x, nullptr) / (n * kEps);
      break;
    }
    case Task::Svd:
    case Task::Pca: {
      Matrix c = a;
      if (spec.task == Task::Pca) {
        for (std::size_t j = 0; j < c.cols(); ++j) {
          auto col = c.col(j);
          double mean = 0.0;
          for (const double e : col) mean += e;
          mean /= static_cast<double>(col.size());
          for (double& e : col) e -= mean;
        }
      }
      const Matrix& vv = report.eigenvectors;
      const Matrix& u = report.u;
      const std::size_t k = report.singular_values.size();
      if (vv.cols() != k || u.cols() != k || vv.rows() != c.cols() || u.rows() != c.rows()) {
        v.why = "singular vector shape mismatch";
        return v;
      }
      const double scale = n * kEps * frob(a);
      for (std::size_t j = 0; j < k; ++j) {
        std::vector<double> r = apply(c, vv.col(j).data());
        for (std::size_t i = 0; i < r.size(); ++i) r[i] -= report.singular_values[j] * u(i, j);
        residual = std::max(residual, norm(r) / scale);
      }
      // One-sided Jacobi builds one side as a product of rotations and the
      // other as B / sigma with B = A times the first. So A v = sigma u holds
      // to rounding and the rotated side stays orthonormal whether or not
      // the solve converged: only the B / sigma side's orthogonality
      // measures convergence. That side is U for a tall core and V for a
      // wide one (solved as its transpose), so both are checked.
      orth = std::max(orthonormality_defect(vv, nullptr), orthonormality_defect(u, nullptr)) /
             (n * kEps);
      break;
    }
    case Task::Gevd: {
      const Matrix b = jmh::api::gevd_b_matrix(spec);
      const Matrix& x = report.eigenvectors;
      if (x.cols() != report.eigenvalues.size() || x.rows() != a.cols()) {
        v.why = "eigenvector shape mismatch";
        return v;
      }
      const double na = frob(a);
      const double nb = frob(b);
      for (std::size_t k = 0; k < x.cols(); ++k) {
        const double lambda = report.eigenvalues[k];
        std::vector<double> r = apply(a, x.col(k).data());
        const std::vector<double> bx = apply(b, x.col(k).data());
        for (std::size_t i = 0; i < r.size(); ++i) r[i] -= lambda * bx[i];
        const double xn = std::sqrt(std::inner_product(x.col(k).begin(), x.col(k).end(),
                                                       x.col(k).begin(), 0.0));
        residual = std::max(residual,
                            norm(r) / (n * kEps * (na + std::abs(lambda) * nb) * xn));
      }
      orth = orthonormality_defect(x, &b) / (n * kEps);
      break;
    }
  }
  v.residual = residual;
  v.orthogonality = orth;
  if (!report.converged) {
    v.why = "status OK but converged == false";
  } else if (!(residual <= kResidualLimit)) {
    v.why = format("scaled residual %.3g > %.3g", residual, kResidualLimit);
  } else if (!(orth <= kOrthogonalityLimit)) {
    v.why = format("scaled orthogonality defect %.3g > %.3g", orth, kOrthogonalityLimit);
  } else {
    v.ok = true;
  }
  return v;
}

void Gatekeeper::record(const jmh::api::SolverSpec& spec, const Matrix& a,
                        const jmh::api::SolveReport* report, const std::string& error) {
  ++attempted;
  Verdict v;
  if (report != nullptr) v = check_report(spec, a, *report);
  else v.why = error;
  worst_residual = std::max(worst_residual, v.residual);
  worst_orthogonality = std::max(worst_orthogonality, v.orthogonality);
  if (!v.ok) {
    ++failed;
    if (first_failure.empty()) first_failure = v.why;
  }
}

void Gatekeeper::finish(Result& out) const {
  out.attempted = attempted;
  out.failed = failed;
  out.note(format("gate: %llu operations, %llu failed (failed_share %.6f); worst scaled "
                  "residual %.3g, orthogonality %.3g (limits %.3g, %.3g n*eps)",
                  static_cast<unsigned long long>(attempted),
                  static_cast<unsigned long long>(failed),
                  attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted),
                  worst_residual, worst_orthogonality, kResidualLimit, kOrthogonalityLimit));
  if (!first_failure.empty()) out.note("gate: first failure: " + first_failure);
}

}  // namespace perfbench
