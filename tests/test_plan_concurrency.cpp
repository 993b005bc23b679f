// One shared immutable SolvePlan used from many threads at once, on every
// backend: results must be bit-identical to a single-threaded run -- the
// thread-shareability contract the svc worker pool is built on. Also covers
// SolvePlan::solve_batch, which runs a batch on the shared exec::ThreadPool.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "api/solver.hpp"
#include "la/sym_gen.hpp"

namespace jmh::api {
namespace {

constexpr std::size_t kM = 16;
constexpr int kThreads = 4;
constexpr std::uint64_t kSeeds[] = {3, 14, 159};

la::Matrix test_matrix(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  return la::random_uniform_symmetric(kM, rng);
}

void expect_bit_identical(const SolveReport& got, const SolveReport& want,
                          const std::string& context) {
  EXPECT_EQ(got.eigenvalues, want.eigenvalues) << context;
  EXPECT_EQ(la::Matrix::max_abs_diff(got.eigenvectors, want.eigenvectors), 0.0) << context;
  EXPECT_EQ(got.sweeps, want.sweeps) << context;
  EXPECT_EQ(got.rotations, want.rotations) << context;
  EXPECT_EQ(got.comm.messages, want.comm.messages) << context;
  EXPECT_EQ(got.comm.elements, want.comm.elements) << context;
  EXPECT_EQ(got.comm.barriers, want.comm.barriers) << context;
  EXPECT_EQ(got.modeled_time, want.modeled_time) << context;
  EXPECT_EQ(got.vote_time, want.vote_time) << context;
  EXPECT_EQ(got.modeled_sweeps, want.modeled_sweeps) << context;
  EXPECT_EQ(got.link_busy, want.link_busy) << context;
}

// kThreads threads all solving every matrix through ONE plan, compared to
// the single-threaded reference reports.
void run_concurrency_case(const std::string& spec_text) {
  const SolvePlan plan = Solver::plan(SolverSpec::parse(spec_text));

  std::vector<la::Matrix> matrices;
  std::vector<SolveReport> reference;
  for (std::uint64_t seed : kSeeds) {
    matrices.push_back(test_matrix(seed));
    reference.push_back(plan.solve(matrices.back()));
    ASSERT_TRUE(reference.back().converged) << spec_text;
  }

  std::vector<std::vector<SolveReport>> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&plan, &matrices, &results, t] {
      for (const la::Matrix& a : matrices) results[t].push_back(plan.solve(a));
    });
  for (auto& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t)
    for (std::size_t i = 0; i < matrices.size(); ++i)
      expect_bit_identical(results[t][i], reference[i],
                           spec_text + " thread " + std::to_string(t) + " matrix " +
                               std::to_string(i));
}

TEST(PlanConcurrency, InlineBackend) {
  run_concurrency_case("backend=inline,ordering=d4,m=16,d=2");
}

TEST(PlanConcurrency, MpiLiteBackend) {
  // Each concurrent solve spawns its own 2^d-rank Universe; nothing is
  // shared between runs except the immutable plan.
  run_concurrency_case("backend=mpi,ordering=d4,m=16,d=2");
}

TEST(PlanConcurrency, MpiLiteBackendPipelined) {
  run_concurrency_case("backend=mpi,ordering=pbr,m=16,d=2,pipeline=2");
}

TEST(PlanConcurrency, SimBackend) {
  // Every concurrent run charges its own sim::Network; modeled times must
  // agree exactly, not just numerics.
  run_concurrency_case("backend=sim,ordering=pbr,m=16,d=2,pipeline=auto");
}

// solve_batch runs on the shared pool: the parallel result must be
// indistinguishable from a sequential loop, on a single-owner backend and
// on mpi (whose rank gangs then start from inside pool tasks).
TEST(PlanConcurrency, ParallelSolveBatchMatchesSequential) {
  for (const std::string spec_text :
       {"ordering=d4,m=16,d=2", "backend=mpi,ordering=d4,m=16,d=2"}) {
    const SolvePlan plan = Solver::plan(SolverSpec::parse(spec_text));
    std::vector<la::Matrix> batch;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) batch.push_back(test_matrix(seed));

    std::vector<SolveReport> sequential;
    for (const la::Matrix& a : batch) sequential.push_back(plan.solve(a));

    const std::vector<SolveReport> parallel = plan.solve_batch(batch);
    ASSERT_EQ(parallel.size(), sequential.size());
    for (std::size_t i = 0; i < batch.size(); ++i)
      expect_bit_identical(parallel[i], sequential[i],
                           spec_text + " batch index " + std::to_string(i));
  }
}

TEST(PlanConcurrency, ParallelSolveBatchPropagatesErrors) {
  const SolvePlan plan = Solver::plan(SolverSpec::parse("ordering=d4,m=16,d=2"));
  std::vector<la::Matrix> batch;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) batch.push_back(test_matrix(seed));
  batch.push_back(la::Matrix(12, 12));  // wrong order: plan.solve throws
  EXPECT_THROW(plan.solve_batch(batch), std::invalid_argument);
  EXPECT_TRUE(plan.solve_batch({}).empty());
}

// Two failing inputs: the error rethrown is always the LOWEST-INDEX one,
// however the pool interleaves the solves and whichever fails first in
// wall-clock.
TEST(PlanConcurrency, SolveBatchRethrowsLowestIndexError) {
  const SolvePlan plan = Solver::plan(SolverSpec::parse("ordering=d4,m=16,d=2"));
  std::vector<la::Matrix> batch;
  batch.push_back(test_matrix(1));
  batch.push_back(la::Matrix(12, 16));  // index 1: not square
  batch.push_back(test_matrix(2));
  batch.push_back(la::Matrix(12, 12));  // index 3: square, wrong order
  batch.push_back(test_matrix(3));
  for (int round = 0; round < 20; ++round) {
    try {
      plan.solve_batch(batch);
      ADD_FAILURE() << "round " << round << ": solve_batch did not throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("needs a square matrix"), std::string::npos)
          << "round " << round << ": " << e.what();
    }
  }
}

}  // namespace
}  // namespace jmh::api
