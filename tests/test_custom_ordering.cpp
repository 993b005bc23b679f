// Custom (user-supplied) sequence families plugged into the full-sweep
// skeleton: any set of valid e-sequences yields a correct Jacobi ordering.
#include <gtest/gtest.h>

#include "api/solver.hpp"
#include "common/rng.hpp"
#include "la/eigen_check.hpp"
#include "la/onesided_jacobi.hpp"
#include "la/sym_gen.hpp"
#include "ord/br.hpp"
#include "ord/min_alpha.hpp"
#include "ord/schedule.hpp"

namespace jmh::ord {
namespace {

std::vector<LinkSequence> searched_family(int d) {
  std::vector<LinkSequence> seqs;
  for (int e = 1; e <= d; ++e) {
    const auto found = search_min_alpha(e);
    seqs.push_back(found.value_or(br_sequence(e)));
  }
  return seqs;
}

TEST(CustomOrdering, AcceptsSearchedSequences) {
  const JacobiOrdering ordering(searched_family(4));
  EXPECT_EQ(ordering.kind(), OrderingKind::Custom);
  EXPECT_EQ(ordering.dimension(), 4);
  EXPECT_EQ(to_string(ordering.kind()), "custom");
}

TEST(CustomOrdering, AllPairsOncePerSweep) {
  const JacobiOrdering ordering(searched_family(5));
  const auto v = verify_sweeps(ordering, 2);
  EXPECT_TRUE(v.ok) << v.error;
}

TEST(CustomOrdering, ReversedBrIsAlsoValid) {
  // Reversing a Hamiltonian path gives a Hamiltonian path; the reversed-BR
  // family is a perfectly good (if pointless) ordering.
  std::vector<LinkSequence> seqs;
  for (int e = 1; e <= 4; ++e) {
    auto links = br_sequence(e).links();
    std::reverse(links.begin(), links.end());
    seqs.emplace_back(std::move(links), e);
  }
  const JacobiOrdering ordering(std::move(seqs));
  const auto v = verify_sweeps(ordering, 2);
  EXPECT_TRUE(v.ok) << v.error;
}

TEST(CustomOrdering, SolvesEigenproblem) {
  Xoshiro256 rng(71);
  const la::Matrix a = la::random_uniform_symmetric(16, rng);
  api::SolverSpec spec;
  spec.ordering = OrderingKind::Custom;
  spec.m = 16;
  spec.d = 2;
  const api::SolveReport r =
      api::Solver::plan(spec, JacobiOrdering(searched_family(2))).solve(a);
  ASSERT_TRUE(r.converged);
  const auto ref = la::onesided_jacobi_cyclic(a);
  EXPECT_LT(la::spectrum_distance(r.eigenvalues, ref.eigenvalues), 1e-8);
}

TEST(CustomOrdering, RejectsInvalidSequence) {
  // 0,0,0 is not a Hamiltonian path of the 2-cube.
  std::vector<LinkSequence> seqs;
  seqs.push_back(br_sequence(1));
  seqs.emplace_back(std::vector<Link>{0, 0, 0}, 2);
  EXPECT_THROW(JacobiOrdering(std::move(seqs)), std::invalid_argument);
}

TEST(CustomOrdering, RejectsMisorderedPhases) {
  std::vector<LinkSequence> seqs;
  seqs.push_back(br_sequence(2));  // should be D_1 at position 0
  EXPECT_THROW(JacobiOrdering(std::move(seqs)), std::invalid_argument);
}

TEST(CustomOrdering, RejectsEmptyFamily) {
  EXPECT_THROW(JacobiOrdering(std::vector<LinkSequence>{}), std::invalid_argument);
}

TEST(CustomOrdering, KindConstructorRejectsCustom) {
  EXPECT_THROW(JacobiOrdering(OrderingKind::Custom, 3), std::invalid_argument);
  EXPECT_THROW(make_exchange_sequence(OrderingKind::Custom, 3), std::invalid_argument);
}

}  // namespace
}  // namespace jmh::ord
