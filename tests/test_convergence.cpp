#include "solve/convergence.hpp"

#include <gtest/gtest.h>

#include "api/solver.hpp"
#include "common/rng.hpp"
#include "la/sym_gen.hpp"

namespace jmh::solve {
namespace {

ConvergenceConfig quick_config() {
  ConvergenceConfig c;
  c.repetitions = 5;  // keep unit tests fast; the bench runs the full 30
  return c;
}

TEST(Convergence, CellConverges) {
  const auto cell = convergence_cell(16, 4, ord::OrderingKind::BR, quick_config());
  EXPECT_EQ(cell.m, 16u);
  EXPECT_EQ(cell.p, 4);
  EXPECT_GT(cell.mean_sweeps, 2.0);
  EXPECT_LT(cell.mean_sweeps, 12.0);
}

// The cell runs the sweep engine directly on the inline substrate; the
// facade with the same knobs must report the same sweeps on the same
// seeded matrices.
TEST(Convergence, CellMatchesFacadeSolves) {
  ConvergenceConfig cfg;
  cfg.repetitions = 3;
  const ConvergenceCell cell = convergence_cell(16, 4, ord::OrderingKind::BR, cfg);

  const api::SolvePlan plan = api::Solver::plan(api::SolverSpec::parse(
      "ordering=br,m=16,d=2,stop=offdiag,threshold=1e-12,off_tol=1e-6,max_sweeps=60"));
  double total = 0.0;
  for (int rep = 0; rep < cfg.repetitions; ++rep) {
    // The cell's matrix stream: a function of (seed, m, rep) only.
    Xoshiro256 rng(cfg.seed ^ (std::uint64_t{16} << 32) ^ static_cast<std::uint64_t>(rep));
    const api::SolveReport r = plan.solve(la::random_uniform_symmetric(16, rng));
    ASSERT_TRUE(r.converged) << "rep " << rep;
    total += static_cast<double>(r.sweeps);
  }
  EXPECT_EQ(cell.repetitions, cfg.repetitions);
  EXPECT_DOUBLE_EQ(cell.mean_sweeps, total / cfg.repetitions);
}

TEST(Convergence, DeterministicAcrossCalls) {
  const auto a = convergence_cell(16, 2, ord::OrderingKind::Degree4, quick_config());
  const auto b = convergence_cell(16, 2, ord::OrderingKind::Degree4, quick_config());
  EXPECT_DOUBLE_EQ(a.mean_sweeps, b.mean_sweeps);
}

TEST(Convergence, OrderingsHaveSimilarRates) {
  // The paper's 3.4 conclusion: convergence is practically the same for BR,
  // permuted-BR and degree-4. Allow one sweep of slack on a small sample.
  const auto cfg = quick_config();
  const double br = convergence_cell(16, 4, ord::OrderingKind::BR, cfg).mean_sweeps;
  const double pbr = convergence_cell(16, 4, ord::OrderingKind::PermutedBR, cfg).mean_sweeps;
  const double d4 = convergence_cell(16, 4, ord::OrderingKind::Degree4, cfg).mean_sweeps;
  EXPECT_NEAR(pbr, br, 1.0);
  EXPECT_NEAR(d4, br, 1.0);
}

TEST(Convergence, SweepsGrowWithMatrixSize) {
  const auto cfg = quick_config();
  const double small = convergence_cell(8, 2, ord::OrderingKind::BR, cfg).mean_sweeps;
  const double large = convergence_cell(64, 2, ord::OrderingKind::BR, cfg).mean_sweeps;
  EXPECT_GE(large + 0.5, small);
}

TEST(Convergence, RejectsBadP) {
  EXPECT_THROW(convergence_cell(16, 3, ord::OrderingKind::BR, quick_config()),
               std::invalid_argument);
  EXPECT_THROW(convergence_cell(16, 1, ord::OrderingKind::BR, quick_config()),
               std::invalid_argument);
}

TEST(Convergence, Table2GridShape) {
  ConvergenceConfig cfg;
  cfg.repetitions = 1;  // shape test only
  const auto rows = table2_grid(cfg);
  // m=8: P in {2,4}; m=16: {2,4,8}; m=32: {2..16}; m=64: {2..32} -> 14 rows.
  ASSERT_EQ(rows.size(), 14u);
  EXPECT_EQ(rows.front().m, 8u);
  EXPECT_EQ(rows.front().p, 2);
  EXPECT_EQ(rows.back().m, 64u);
  EXPECT_EQ(rows.back().p, 32);
  for (const auto& r : rows) {
    EXPECT_GT(r.br, 0.0);
    EXPECT_GT(r.permuted_br, 0.0);
    EXPECT_GT(r.degree4, 0.0);
  }
}

}  // namespace
}  // namespace jmh::solve
