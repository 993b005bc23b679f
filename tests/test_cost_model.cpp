#include "pipe/cost_model.hpp"

#include <gtest/gtest.h>

#include "pipe/optimizer.hpp"

namespace jmh::pipe {
namespace {

MachineParams paper_machine() {
  MachineParams m;
  m.ts = 1000.0;
  m.tw = 100.0;
  return m;
}

TEST(ProblemParams, Geometry) {
  ProblemParams p;
  p.d = 3;
  p.m = 64.0;
  EXPECT_DOUBLE_EQ(p.columns_per_block(), 4.0);           // 64 / 16
  EXPECT_DOUBLE_EQ(p.step_message_elems(), 2.0 * 64 * 4);  // block of A + block of U
  EXPECT_EQ(p.q_max(), 4u);
}

TEST(ProblemParams, TallGeometryChargesRowsPlusM) {
  // A tall task=svd transition moves a block of B (rows x cpb) plus the
  // matching block of V (m x cpb): (rows + m) * cpb elements per step, not
  // the square model's 2 * m * cpb.
  ProblemParams p;
  p.d = 3;
  p.m = 64.0;
  p.rows = 1024.0;
  EXPECT_DOUBLE_EQ(p.input_rows(), 1024.0);
  EXPECT_DOUBLE_EQ(p.step_message_elems(), (1024.0 + 64.0) * 4.0);
  // rows == 0 keeps the historical square payload bit-for-bit.
  p.rows = 0.0;
  EXPECT_DOUBLE_EQ(p.input_rows(), 64.0);
  EXPECT_DOUBLE_EQ(p.step_message_elems(), 2.0 * 64.0 * 4.0);
}

TEST(ProblemParams, TooSmallMatrixRejected) {
  ProblemParams p;
  p.d = 5;
  p.m = 32.0;  // 64 blocks > 32 columns
  EXPECT_THROW(p.q_max(), std::invalid_argument);
}

TEST(CostModel, UnpipelinedPhase) {
  const auto m = paper_machine();
  EXPECT_DOUBLE_EQ(phase_cost_unpipelined(7, 10.0, m), 7 * (1000.0 + 1000.0));
}

TEST(CostModel, PipelinedQ1EqualsUnpipelined) {
  const auto m = paper_machine();
  const auto seq = ord::make_exchange_sequence(ord::OrderingKind::BR, 4);
  EXPECT_DOUBLE_EQ(phase_cost_pipelined(seq, 1, 10.0, m),
                   phase_cost_unpipelined(seq.size(), 10.0, m));
}

TEST(CostModel, DeepClosedFormMatchesExplicitSchedule) {
  // The deep-mode closed form must agree with summing the materialized
  // schedule's stages.
  const auto m = paper_machine();
  const auto seq = ord::make_exchange_sequence(ord::OrderingKind::PermutedBR, 4);  // K=15
  for (std::uint64_t q : {16u, 20u, 40u, 100u}) {
    const PipelineSchedule sched(seq, q);
    const double packet = 10.0 / static_cast<double>(q);
    double explicit_total = 0.0;
    for (const auto& st : sched.stages())
      explicit_total += comm_op_cost(m, st.distinct, st.max_mult, st.window_len, packet);
    EXPECT_NEAR(phase_cost_pipelined(seq, q, 10.0, m), explicit_total, 1e-6) << "q=" << q;
  }
}

TEST(CostModel, IdealNeverExceedsRealSequences) {
  const auto m = paper_machine();
  const double s = 1e4;
  for (int e : {3, 5, 7}) {
    for (std::uint64_t q : {1u, 2u, 4u, 8u, 40u, 200u}) {
      const double ideal = phase_cost_ideal(e, q, s, m);
      for (auto kind : {ord::OrderingKind::BR, ord::OrderingKind::PermutedBR,
                        ord::OrderingKind::Degree4, ord::OrderingKind::MinAlpha}) {
        const auto seq = ord::make_exchange_sequence(kind, e);
        EXPECT_LE(ideal, phase_cost_pipelined(seq, q, s, m) + 1e-9)
            << "e=" << e << " q=" << q << " kind=" << ord::to_string(kind);
      }
    }
  }
}

TEST(CostModel, SweepUnpipelined) {
  const auto m = paper_machine();
  ProblemParams p;
  p.d = 3;
  p.m = 64.0;
  const double per_transition = 1000.0 + p.step_message_elems() * 100.0;
  EXPECT_DOUBLE_EQ(sweep_cost_unpipelined(p, m), 15.0 * per_transition);
}

TEST(CostModel, PipelinedNeverWorseThanUnpipelined) {
  const auto m = paper_machine();
  for (int d : {3, 5, 7}) {
    ProblemParams p;
    p.d = d;
    p.m = 4096.0;
    const double base = sweep_cost_unpipelined(p, m);
    for (auto kind : {ord::OrderingKind::BR, ord::OrderingKind::PermutedBR,
                      ord::OrderingKind::Degree4}) {
      EXPECT_LE(sweep_cost_pipelined(kind, p, m).total, base + 1e-6) << d;
    }
  }
}

TEST(CostModel, LowerBoundBelowEveryOrdering) {
  const auto m = paper_machine();
  ProblemParams p;
  p.d = 6;
  p.m = 1 << 16;
  const double lb = sweep_cost_lower_bound(p, m).total;
  for (auto kind : {ord::OrderingKind::BR, ord::OrderingKind::PermutedBR,
                    ord::OrderingKind::Degree4, ord::OrderingKind::MinAlpha}) {
    EXPECT_LE(lb, sweep_cost_pipelined(kind, p, m).total + 1e-6);
  }
}

TEST(CostModel, PipelinedBrGainsCapAtTwo) {
  // Section 2.4: BR's pipelined communication cost cannot drop below ~half
  // of the unpipelined cost (bandwidth-dominated regime).
  MachineParams m = paper_machine();
  m.ts = 1.0;  // make startups negligible -> pure bandwidth regime
  ProblemParams p;
  p.d = 8;
  p.m = 1 << 20;
  const double base = sweep_cost_unpipelined(p, m);
  const double pip = sweep_cost_pipelined(ord::OrderingKind::BR, p, m).total;
  EXPECT_GT(pip / base, 0.45);
  EXPECT_LT(pip / base, 0.75);
}

TEST(CostModel, PermutedBrApproachesLowerBoundWhenDeep) {
  // Figure 2(c) regime: huge matrix, deep pipelining everywhere.
  const auto m = paper_machine();
  ProblemParams p;
  p.d = 10;
  p.m = std::ldexp(1.0, 26);
  const auto pbr = sweep_cost_pipelined(ord::OrderingKind::PermutedBR, p, m);
  const auto lb = sweep_cost_lower_bound(p, m);
  EXPECT_TRUE(pbr.deep.front());  // largest phase runs deep
  EXPECT_LT(pbr.total / lb.total, 1.6);
}

TEST(CostModel, Degree4QuarterOfBr) {
  // The headline claim: degree-4 halves pipelined-BR (i.e. ~1/4 of plain BR).
  const auto m = paper_machine();
  ProblemParams p;
  p.d = 10;
  p.m = std::ldexp(1.0, 18);
  const double base = sweep_cost_unpipelined(p, m);
  const double d4 = sweep_cost_pipelined(ord::OrderingKind::Degree4, p, m).total;
  const double br = sweep_cost_pipelined(ord::OrderingKind::BR, p, m).total;
  EXPECT_NEAR(d4 / base, 0.25, 0.05);
  EXPECT_NEAR(br / base, 0.50, 0.05);
}

TEST(Optimizer, MatchesExhaustiveSearchOnSmallPhase) {
  const auto m = paper_machine();
  const auto seq = ord::make_exchange_sequence(ord::OrderingKind::Degree4, 4);  // K=15
  const double s = 500.0;
  const std::uint64_t q_max = 60;
  double best_cost = phase_cost_pipelined(seq, 1, s, m);
  std::uint64_t best_q = 1;
  for (std::uint64_t q = 2; q <= q_max; ++q) {
    const double c = phase_cost_pipelined(seq, q, s, m);
    if (c < best_cost) {
      best_cost = c;
      best_q = q;
    }
  }
  const OptimalQ opt = find_optimal_q(seq, s, m, q_max);
  EXPECT_NEAR(opt.cost, best_cost, best_cost * 0.02) << "opt.q=" << opt.q << " vs " << best_q;
}

TEST(Optimizer, RespectsQMax) {
  const auto m = paper_machine();
  const auto seq = ord::make_exchange_sequence(ord::OrderingKind::PermutedBR, 5);
  const OptimalQ opt = find_optimal_q(seq, 1e6, m, 4);
  EXPECT_LE(opt.q, 4u);
}

// Regression for the square-payload bug: find_optimal_sweep_q used to
// charge 2 * m * cpb elements per transition regardless of the input shape,
// so a tall task=svd problem -- whose transitions carry (rows + m) * cpb
// elements -- was optimized for the wrong payload. On this instance the
// correct model picks a deeper q than the square model does, so the test
// fails if the payload reverts to 2m.
TEST(Optimizer, SweepQIsRowsAware) {
  MachineParams mach;
  mach.ts = 1000.0;
  mach.tw = 1.0;
  const ord::JacobiOrdering ordering(ord::OrderingKind::Degree4, 2);
  const std::uint64_t q_max = 8;  // 64 / 2^3 columns per block

  ProblemParams tall;
  tall.d = 2;
  tall.m = 64.0;
  tall.rows = 512.0;
  const OptimalQ best = find_optimal_sweep_q(ordering, tall, mach, q_max);

  // Brute-force argmin of the summed exchange-phase cost at the TALL
  // payload over every feasible q (exhaustive: q_max = 8).
  const double step_elems = tall.step_message_elems();
  std::uint64_t expected_q = 0;
  double expected_cost = 0.0;
  for (std::uint64_t q = 1; q <= q_max; ++q) {
    double total = 0.0;
    for (int e = 2; e >= 1; --e)
      total += phase_cost_pipelined(ordering.exchange_sequence(e), q, step_elems, mach);
    if (expected_q == 0 || total < expected_cost) {
      expected_q = q;
      expected_cost = total;
    }
  }
  EXPECT_EQ(best.q, expected_q);
  EXPECT_DOUBLE_EQ(best.cost, expected_cost);

  // The square model picks a different q here, so charging 2m would be a
  // test-visible regression, not a silent cost shift.
  ProblemParams square = tall;
  square.rows = 0.0;
  const OptimalQ square_best = find_optimal_sweep_q(ordering, square, mach, q_max);
  EXPECT_NE(square_best.q, best.q);
}

// The small mpi problem (m = 32, d = 2: four columns per block) is
// startup-bound on any machine whose message startup costs 80 or more
// element transfers -- every mpi-lite host measured so far (PERF.md) --
// so the sweep optimizer must not split its blocks there; on the paper's
// figure-2 machine (ts/tw = 10) it pipelines at q = 2.
TEST(Optimizer, SmallProblemStopsPipeliningOnStartupBoundMachines) {
  ProblemParams prob;
  prob.d = 2;
  prob.m = 32.0;
  const std::uint64_t q_max = 4;
  for (const ord::OrderingKind kind :
       {ord::OrderingKind::BR, ord::OrderingKind::PermutedBR, ord::OrderingKind::Degree4,
        ord::OrderingKind::MinAlpha}) {
    const ord::JacobiOrdering ordering(kind, 2);
    EXPECT_EQ(find_optimal_sweep_q(ordering, prob, paper_machine(), q_max).q, 2u);
    for (const double tw : {0.25, 1.0, 3.0, 100.0})
      for (double ratio = 80.0; ratio <= 1e6; ratio *= 1.25) {
        const MachineParams mach{ratio * tw, tw, MachineParams::kAllPort};
        EXPECT_EQ(find_optimal_sweep_q(ordering, prob, mach, q_max).q, 1u)
            << ord::to_string(kind) << " ts/tw = " << ratio << " tw = " << tw;
      }
  }
}

TEST(Optimizer, IdealOptimumAtMostReal) {
  const auto m = paper_machine();
  const auto seq = ord::make_exchange_sequence(ord::OrderingKind::PermutedBR, 6);
  const double s = 1e5;
  const auto real = find_optimal_q(seq, s, m, 1 << 20);
  const auto ideal = find_optimal_q_ideal(6, s, m, 1 << 20);
  EXPECT_LE(ideal.cost, real.cost + 1e-6);
}

}  // namespace
}  // namespace jmh::pipe
