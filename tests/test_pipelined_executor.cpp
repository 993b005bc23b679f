// The pipelined exchange-phase path of MpiLiteTransport (column-block
// packetization, and mpi solves at pipeline=<q>|auto through api::SolvePlan).
#include "solve/mpi_transport.hpp"

#include <gtest/gtest.h>

#include "api/solver.hpp"
#include "la/eigen_check.hpp"
#include "la/sym_gen.hpp"

namespace jmh::solve {
namespace {

using api::SolveReport;

la::Matrix test_matrix(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  return la::random_uniform_symmetric(n, rng);
}

/// Spec of an m = a.cols() solve on a d-cube (inline, unpipelined).
api::SolverSpec spec_for(const la::Matrix& a, ord::OrderingKind kind, int d) {
  api::SolverSpec spec;
  spec.ordering = kind;
  spec.m = a.cols();
  spec.d = d;
  return spec;
}

/// The same spec on backend=mpi with pipeline=<q> (q == 0: pipeline=auto).
api::SolverSpec pipelined(api::SolverSpec spec, std::uint64_t q) {
  spec.backend = api::Backend::MpiLite;
  spec.pipelining = q == 0 ? api::PipeliningPolicy::Auto : api::PipeliningPolicy::Fixed;
  if (q > 0) spec.q = q;
  return spec;
}

TEST(ColumnBlockSplit, EvenSplit) {
  const la::Matrix a = test_matrix(16, 1);
  const BlockLayout layout(16, 1);  // blocks of 4
  const ColumnBlock blk = extract_block(a, layout, 2);
  const auto packets = blk.split(2);
  ASSERT_EQ(packets.size(), 2u);
  EXPECT_EQ(packets[0].num_cols(), 2u);
  EXPECT_EQ(packets[1].num_cols(), 2u);
  EXPECT_EQ(packets[0].id, blk.id);
  EXPECT_EQ(packets[0].cols[0], blk.cols[0]);
  EXPECT_EQ(packets[1].cols[1], blk.cols[3]);
}

TEST(ColumnBlockSplit, MoreTrailingPacketsThanColumns) {
  const la::Matrix a = test_matrix(16, 1);
  const BlockLayout layout(16, 2);  // blocks of 2
  const ColumnBlock blk = extract_block(a, layout, 1);
  const auto packets = blk.split(5);
  ASSERT_EQ(packets.size(), 5u);
  std::size_t total = 0;
  for (const auto& p : packets) total += p.num_cols();
  EXPECT_EQ(total, 2u);
}

TEST(ColumnBlockSplit, MergeInvertsSplit) {
  const la::Matrix a = test_matrix(16, 3);
  const BlockLayout layout(16, 1);
  const ColumnBlock blk = extract_block(a, layout, 3);
  for (std::size_t q : {1u, 2u, 3u, 4u, 7u}) {
    const ColumnBlock back = ColumnBlock::merge(blk.split(q));
    EXPECT_EQ(back.cols, blk.cols) << q;
    EXPECT_EQ(back.b, blk.b) << q;
    EXPECT_EQ(back.v, blk.v) << q;
  }
}

TEST(ColumnBlockSplit, MergeRejectsMixedBlocks) {
  const la::Matrix a = test_matrix(16, 3);
  const BlockLayout layout(16, 1);
  const ColumnBlock b0 = extract_block(a, layout, 0);
  const ColumnBlock b1 = extract_block(a, layout, 1);
  EXPECT_THROW(ColumnBlock::merge({b0, b1}), std::invalid_argument);
  EXPECT_THROW(ColumnBlock::merge({}), std::invalid_argument);
}

struct PipelinedCase {
  ord::OrderingKind kind;
  int d;
  std::size_t m;
  std::uint64_t q;
};

class PipelinedSolverTest : public ::testing::TestWithParam<PipelinedCase> {};

TEST_P(PipelinedSolverTest, MatchesUnpipelinedSolve) {
  const auto [kind, d, m, q] = GetParam();
  const la::Matrix a = test_matrix(m, 100 + m + q);
  const api::SolverSpec spec = spec_for(a, kind, d);
  const SolveReport pip = api::Solver::plan(pipelined(spec, q)).solve(a);
  const SolveReport ref = api::Solver::plan(spec).solve(a);

  ASSERT_TRUE(pip.converged);
  // Rotation order differs between executors (packet-major vs row-major),
  // so agreement is up to floating-point reordering, not bitwise.
  EXPECT_LT(la::spectrum_distance(pip.eigenvalues, ref.eigenvalues), 1e-8);
  EXPECT_LT(la::eigenpair_residual(a, pip.eigenvalues, pip.eigenvectors), 1e-9);
  EXPECT_LT(la::orthogonality_defect(pip.eigenvectors), 1e-10);
  EXPECT_NEAR(pip.sweeps, ref.sweeps, 1);
}

std::vector<PipelinedCase> pipelined_cases() {
  return {
      {ord::OrderingKind::BR, 1, 8, 1},        {ord::OrderingKind::BR, 2, 16, 2},
      {ord::OrderingKind::PermutedBR, 2, 16, 2}, {ord::OrderingKind::Degree4, 2, 16, 2},
      {ord::OrderingKind::Degree4, 2, 32, 4},  {ord::OrderingKind::PermutedBR, 3, 32, 2},
      {ord::OrderingKind::MinAlpha, 2, 16, 2},
  };
}

INSTANTIATE_TEST_SUITE_P(Grid, PipelinedSolverTest, ::testing::ValuesIn(pipelined_cases()),
                         [](const ::testing::TestParamInfo<PipelinedCase>& pinfo) {
                           std::string name = ord::to_string(pinfo.param.kind) + "_d" +
                                              std::to_string(pinfo.param.d) + "_m" +
                                              std::to_string(pinfo.param.m) + "_q" +
                                              std::to_string(pinfo.param.q);
                           for (char& c : name)
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           return name;
                         });

TEST(PipelinedSolver, AutoQ) {
  const la::Matrix a = test_matrix(32, 7);
  const SolveReport r =
      api::Solver::plan(pipelined(spec_for(a, ord::OrderingKind::Degree4, 2), 0)).solve(a);
  ASSERT_TRUE(r.converged);
  EXPECT_LT(la::eigenpair_residual(a, r.eigenvalues, r.eigenvectors), 1e-9);
}

TEST(PipelinedSolver, QLargerThanBlock) {
  // Degenerate empty packets must not break anything.
  const la::Matrix a = test_matrix(16, 9);
  // q = 7 while blocks have 2 columns.
  const SolveReport r =
      api::Solver::plan(pipelined(spec_for(a, ord::OrderingKind::BR, 2), 7)).solve(a);
  ASSERT_TRUE(r.converged);
  EXPECT_LT(la::eigenpair_residual(a, r.eigenvalues, r.eigenvectors), 1e-9);
}

TEST(PipelinedSolver, MoreMessagesSmallerEach) {
  // Pipelining with q packets multiplies message count without changing
  // (column) volume.
  const la::Matrix a = test_matrix(32, 11);
  const api::SolverSpec spec = spec_for(a, ord::OrderingKind::Degree4, 2);
  const SolveReport r1 = api::Solver::plan(pipelined(spec, 1)).solve(a);
  const SolveReport r4 = api::Solver::plan(pipelined(spec, 4)).solve(a);
  ASSERT_TRUE(r1.converged && r4.converged);
  EXPECT_GT(r4.comm.messages, 2 * r1.comm.messages);
  // Column payload volume is identical; only per-packet headers differ.
  const double vol1 = static_cast<double>(r1.comm.elements);
  const double vol4 = static_cast<double>(r4.comm.elements);
  EXPECT_NEAR(vol4 / vol1, 1.0, 0.15);
}

TEST(PipelinedSolver, WithGershgorinShift) {
  Xoshiro256 rng(91);
  const std::vector<double> spectrum = {-5.0, -2.0, 2.0, 3.0, 5.0, 6.0, 8.0, 11.0};
  const la::Matrix a = la::symmetric_with_spectrum(spectrum, rng);
  api::SolverSpec spec = pipelined(spec_for(a, ord::OrderingKind::PermutedBR, 1), 2);
  spec.gershgorin_shift = true;
  const SolveReport r = api::Solver::plan(spec).solve(a);
  ASSERT_TRUE(r.converged);
  EXPECT_LT(la::spectrum_distance(r.eigenvalues, spectrum), 1e-8);
}

}  // namespace
}  // namespace jmh::solve
