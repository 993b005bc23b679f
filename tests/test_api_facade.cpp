// The api facade: SolverSpec round-tripping, plan compilation (including
// the optimizer-backed Auto pipelining policy), plan reuse across matrices
// and backends against one-shot plans, batching, and thread shareability
// of one immutable plan.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <thread>

#include "api/solver.hpp"
#include "la/eigen_check.hpp"
#include "la/sym_gen.hpp"
#include "pipe/cost_model.hpp"
#include "pipe/optimizer.hpp"
#include "solve/host_machine.hpp"

namespace jmh::api {
namespace {

la::Matrix test_matrix(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  return la::random_uniform_symmetric(n, rng);
}

TEST(SolverSpec, DefaultRoundTrips) {
  const SolverSpec spec;
  EXPECT_EQ(SolverSpec::parse(spec.to_string()), spec);
}

TEST(SolverSpec, EveryFieldRoundTrips) {
  SolverSpec spec;
  spec.m = 48;
  spec.d = 3;
  spec.ordering = ord::OrderingKind::MinAlpha;
  spec.backend = Backend::Sim;
  spec.pipelining = PipeliningPolicy::Fixed;
  spec.q = 7;
  spec.machine.ts = 123.5;
  spec.machine.tw = 0.25;
  spec.machine.ports = 2;
  spec.overlap_startup = true;
  spec.threshold = 3.5e-13;
  spec.max_sweeps = 17;
  spec.stop_rule = solve::StopRule::OffDiagonal;
  spec.off_tol = 1e-7;
  spec.gershgorin_shift = true;
  EXPECT_EQ(SolverSpec::parse(spec.to_string()), spec);

  // q is serialized inside the pipeline key, so it only round-trips for the
  // Fixed policy; Off/Auto specs carry the default q.
  spec.q = SolverSpec{}.q;
  spec.pipelining = PipeliningPolicy::Auto;
  EXPECT_EQ(SolverSpec::parse(spec.to_string()), spec);
  spec.pipelining = PipeliningPolicy::Off;
  EXPECT_EQ(SolverSpec::parse(spec.to_string()), spec);
}

TEST(SolverSpec, PartialStringsKeepDefaults) {
  const SolverSpec defaults;
  const SolverSpec spec = SolverSpec::parse("backend=sim, ordering=min_alpha ,d=4");
  EXPECT_EQ(spec.backend, Backend::Sim);
  EXPECT_EQ(spec.ordering, ord::OrderingKind::MinAlpha);
  EXPECT_EQ(spec.d, 4);
  EXPECT_EQ(spec.m, defaults.m);
  EXPECT_EQ(spec.pipelining, defaults.pipelining);
  EXPECT_EQ(spec.machine, defaults.machine);

  EXPECT_EQ(SolverSpec::parse(""), defaults);
  EXPECT_EQ(SolverSpec::parse("  "), defaults);
}

TEST(SolverSpec, OrderingAliasesAndCase) {
  EXPECT_EQ(SolverSpec::parse("ordering=minalpha").ordering, ord::OrderingKind::MinAlpha);
  EXPECT_EQ(SolverSpec::parse("ordering=MIN-ALPHA").ordering, ord::OrderingKind::MinAlpha);
  EXPECT_EQ(SolverSpec::parse("ordering=degree4").ordering, ord::OrderingKind::Degree4);
  EXPECT_EQ(SolverSpec::parse("ordering=permuted-br").ordering, ord::OrderingKind::PermutedBR);
  EXPECT_EQ(SolverSpec::parse("pipeline=12").q, 12u);
  EXPECT_EQ(SolverSpec::parse("pipeline=12").pipelining, PipeliningPolicy::Fixed);
}

TEST(SolverSpec, RejectsDuplicateKeys) {
  // A spec is a scenario name: last-write-wins on duplicates would let two
  // different-looking strings mean the same thing, so they are rejected,
  // and the error names the offending key.
  EXPECT_THROW(SolverSpec::parse("m=16,m=32"), std::invalid_argument);
  EXPECT_THROW(SolverSpec::parse("backend=inline,d=2,backend=sim"), std::invalid_argument);
  EXPECT_THROW(SolverSpec::parse("pipeline=off,pipeline=auto"), std::invalid_argument);
  try {
    SolverSpec::parse("m=16,d=2,m=32");
    FAIL() << "duplicate key must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate key 'm'"), std::string::npos)
        << "actual message: " << e.what();
  }
  // The canonical form never repeats a key, so round-tripping still works.
  SolverSpec spec;
  spec.backend = Backend::Sim;
  spec.pipelining = PipeliningPolicy::Auto;
  EXPECT_EQ(SolverSpec::parse(spec.to_string()), spec);
}

TEST(SolverSpec, RejectsMalformedInput) {
  EXPECT_THROW(SolverSpec::parse("bogus=1"), std::invalid_argument);
  EXPECT_THROW(SolverSpec::parse("backend"), std::invalid_argument);
  EXPECT_THROW(SolverSpec::parse("backend="), std::invalid_argument);
  EXPECT_THROW(SolverSpec::parse("=inline"), std::invalid_argument);
  EXPECT_THROW(SolverSpec::parse("backend=quantum"), std::invalid_argument);
  EXPECT_THROW(SolverSpec::parse("ordering=custom"), std::invalid_argument);
  EXPECT_THROW(SolverSpec::parse("d=three"), std::invalid_argument);
  EXPECT_THROW(SolverSpec::parse("d=0"), std::invalid_argument);
  EXPECT_THROW(SolverSpec::parse("m=-4"), std::invalid_argument);
  EXPECT_THROW(SolverSpec::parse("pipeline=0"), std::invalid_argument);
  EXPECT_THROW(SolverSpec::parse("pipeline=fast"), std::invalid_argument);
  EXPECT_THROW(SolverSpec::parse("ts=cheap"), std::invalid_argument);
  EXPECT_THROW(SolverSpec::parse("ts=-1000"), std::invalid_argument);
  EXPECT_THROW(SolverSpec::parse("tw=-100"), std::invalid_argument);
  EXPECT_THROW(SolverSpec::parse("threshold=0"), std::invalid_argument);
  EXPECT_THROW(SolverSpec::parse("threshold=-1e-12"), std::invalid_argument);
  EXPECT_THROW(SolverSpec::parse("off_tol=-1e-8"), std::invalid_argument);
  EXPECT_THROW(SolverSpec::parse("ports=0"), std::invalid_argument);
  EXPECT_THROW(SolverSpec::parse("stop=never"), std::invalid_argument);
  EXPECT_THROW(SolverSpec::parse("shift=maybe"), std::invalid_argument);
  EXPECT_THROW(SolverSpec::parse("max_sweeps=0"), std::invalid_argument);
  EXPECT_THROW(SolverSpec::parse("topk=-1"), std::invalid_argument);
  EXPECT_THROW(SolverSpec::parse("topk=33"), std::invalid_argument);  // > default m=32
  EXPECT_THROW(SolverSpec::parse("topk=2,stop=offdiag"), std::invalid_argument);
  EXPECT_THROW(SolverSpec::parse("topk=2,shift=1"), std::invalid_argument);
  EXPECT_THROW(SolverSpec::parse("threads=+2"), std::invalid_argument);
  EXPECT_THROW(SolverSpec::parse("threads=many"), std::invalid_argument);
}

TEST(SolverSpec, TopkAndThreadsRoundTrip) {
  SolverSpec spec;
  spec.m = 64;
  spec.d = 2;
  spec.topk = 5;
  spec.threads = 3;
  EXPECT_EQ(SolverSpec::parse(spec.to_string()), spec);
  EXPECT_EQ(SolverSpec::parse("m=64,topk=5").topk, 5);
  EXPECT_EQ(SolverSpec::parse("threads=4").threads, 4u);
  EXPECT_EQ(SolverSpec::parse("").topk, 0);
  EXPECT_EQ(SolverSpec::parse("").threads, 0u);
  // topk == m is legal (and bit-identical to the full solve downstream);
  // the cross-key check runs on final values, so key order must not matter.
  EXPECT_NO_THROW(SolverSpec::parse("topk=32"));
  EXPECT_NO_THROW(SolverSpec::parse("topk=48,m=64"));
}

TEST(SolverSpec, TaskAndRowsRoundTripAndValidate) {
  SolverSpec spec;
  spec.task = Task::Svd;
  spec.m = 16;
  spec.rows = 24;
  EXPECT_EQ(SolverSpec::parse(spec.to_string()), spec);
  EXPECT_EQ(SolverSpec::parse("task=svd").task, Task::Svd);
  EXPECT_EQ(SolverSpec::parse("task=EVD").task, Task::Evd);
  EXPECT_EQ(SolverSpec::parse("").task, Task::Evd);
  // rows == m names the same square scenario as rows=0: parse normalizes,
  // so the two spellings compare EQUAL and share one canonical string (and
  // therefore one plan-cache entry).
  EXPECT_EQ(SolverSpec::parse("rows=32").rows, 0u);  // == default m: normalized
  EXPECT_EQ(SolverSpec::parse("task=svd,m=8,rows=8"), SolverSpec::parse("task=svd,m=8"));
  EXPECT_EQ(SolverSpec::parse("task=svd,m=8,rows=8").to_string(),
            SolverSpec::parse("task=svd,m=8").to_string());
  EXPECT_EQ(SolverSpec::parse("task=svd,m=8,rows=8").input_rows(), 8u);
  EXPECT_EQ(SolverSpec::parse("task=svd,m=8").input_rows(), 8u);  // rows=0 -> m

  EXPECT_THROW(SolverSpec::parse("task=qr"), std::invalid_argument);
  // rows != m is an svd/pca-only shape...
  EXPECT_THROW(SolverSpec::parse("m=16,rows=24"), std::invalid_argument);
  // ...but may be wide: rows < m is solved as the transpose with U/V
  // swapped back in assembly, so the spec level accepts it.
  EXPECT_NO_THROW(SolverSpec::parse("task=svd,m=16,rows=8"));
  SolverSpec wide;
  wide.task = Task::Svd;
  wide.m = 16;
  wide.rows = 8;
  EXPECT_EQ(SolverSpec::parse(wide.to_string()), wide);
  // A diagonal shift has no SVD meaning.
  EXPECT_THROW(SolverSpec::parse("task=svd,shift=1"), std::invalid_argument);
  // Cross-key checks run on final values: key order must not matter.
  EXPECT_NO_THROW(SolverSpec::parse("rows=24,m=16,task=svd"));
}

TEST(SolverSpec, PcaGevdAndStopRulesParseAndValidate) {
  EXPECT_EQ(SolverSpec::parse("task=pca").task, Task::Pca);
  EXPECT_EQ(SolverSpec::parse("task=gevd,bseed=7").task, Task::Gevd);
  EXPECT_EQ(SolverSpec::parse("task=gevd,bseed=7").bseed, 7u);
  EXPECT_EQ(SolverSpec::parse("stop=offdiag_abs").stop_rule,
            solve::StopRule::OffDiagonalAbsolute);

  // Exact round trips through the canonical string, new keys included.
  SolverSpec pca;
  pca.task = Task::Pca;
  pca.m = 16;
  pca.rows = 40;
  pca.stop_rule = solve::StopRule::OffDiagonalAbsolute;
  EXPECT_EQ(SolverSpec::parse(pca.to_string()), pca);
  SolverSpec gevd;
  gevd.task = Task::Gevd;
  gevd.m = 16;
  gevd.bseed = 99;
  EXPECT_EQ(SolverSpec::parse(gevd.to_string()), gevd);

  // Named-key combos: gevd cannot run without its B-side seed, and bseed
  // has no meaning anywhere else.
  EXPECT_THROW(SolverSpec::parse("task=gevd"), std::invalid_argument);
  EXPECT_THROW(SolverSpec::parse("bseed=3"), std::invalid_argument);
  EXPECT_THROW(SolverSpec::parse("task=pca,bseed=3"), std::invalid_argument);
  EXPECT_THROW(SolverSpec::parse("task=svd,bseed=3"), std::invalid_argument);
  // gevd is a square eigenproblem; pca inherits the svd shape rules.
  EXPECT_THROW(SolverSpec::parse("task=gevd,bseed=3,rows=24,m=16"), std::invalid_argument);
  EXPECT_NO_THROW(SolverSpec::parse("task=pca,m=16,rows=8"));
  // shift and topk stay evd/svd-only knobs.
  EXPECT_THROW(SolverSpec::parse("task=pca,shift=1"), std::invalid_argument);
  EXPECT_THROW(SolverSpec::parse("task=gevd,bseed=3,shift=1"), std::invalid_argument);
  EXPECT_THROW(SolverSpec::parse("task=pca,topk=2"), std::invalid_argument);
  EXPECT_THROW(SolverSpec::parse("task=gevd,bseed=3,topk=2"), std::invalid_argument);
  // A wide solve truncates against the CORE column count (the short side).
  EXPECT_THROW(SolverSpec::parse("task=svd,m=16,rows=8,topk=9"), std::invalid_argument);
  EXPECT_NO_THROW(SolverSpec::parse("task=svd,m=16,rows=8,topk=8"));
}

// Regression: NaN/Inf pass naive sign checks (every comparison against NaN
// is false), so "threshold=nan" used to parse and poison the convergence
// math, "ts=inf" the cost model. Every double key must reject non-finite
// values and name the key.
TEST(SolverSpec, RejectsNonFiniteDoubles) {
  for (const char* text : {"threshold=nan", "off_tol=nan", "ts=inf", "tw=nan", "ts=infinity",
                           "tw=+inf", "threshold=-nan", "off_tol=1e999"}) {
    EXPECT_THROW(SolverSpec::parse(text), std::invalid_argument) << text;
  }
  try {
    SolverSpec::parse("m=16,threshold=nan");
    FAIL() << "threshold=nan must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'threshold'"), std::string::npos)
        << "actual message: " << e.what();
  }
}

// Regression: parse_uint results were narrowed to int for d, max_sweeps and
// ports, so d=4294967297 (2^32 + 1) silently became d=1. Out-of-range
// values must fail loudly, naming the key.
TEST(SolverSpec, RejectsIntegerOverflowInsteadOfTruncating) {
  EXPECT_THROW(SolverSpec::parse("d=4294967297"), std::invalid_argument);
  EXPECT_THROW(SolverSpec::parse("d=2147483648"), std::invalid_argument);  // INT_MAX + 1
  EXPECT_THROW(SolverSpec::parse("max_sweeps=4294967297"), std::invalid_argument);
  EXPECT_THROW(SolverSpec::parse("ports=99999999999"), std::invalid_argument);
  EXPECT_THROW(SolverSpec::parse("m=18446744073709551616"), std::invalid_argument);  // 2^64
  try {
    SolverSpec::parse("d=4294967297");
    FAIL() << "overflowing d must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'d'"), std::string::npos)
        << "actual message: " << e.what();
  }
  // In-range values keep working up to the type boundary.
  EXPECT_EQ(SolverSpec::parse("max_sweeps=2147483647").max_sweeps, 2147483647);
}

// Regression: strtoull accepts a leading '+', so "m=+5" and "m=5" named the
// same scenario -- two spellings of one spec break parse(to_string(s)) as
// the canonical fixed point (and the plan cache's key uniqueness).
TEST(SolverSpec, RejectsNonDigitLeadingCharactersInIntegers) {
  for (const char* text : {"m=+5", "d=+3", "rows=+24", "max_sweeps=+10", "ports=+2",
                           "pipeline=+4", "m= 5x", "m=0x10"}) {
    EXPECT_THROW(SolverSpec::parse(text), std::invalid_argument) << text;
  }
  try {
    SolverSpec::parse("m=+5");
    FAIL() << "m=+5 must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'m'"), std::string::npos)
        << "actual message: " << e.what();
  }
}

// Seeded property test: any valid spec the generator can produce must
// round-trip EXACTLY through its canonical string, and the canonical string
// must be a fixed point of parse . to_string.
TEST(SolverSpec, FuzzedValidSpecsRoundTripExactly) {
  Xoshiro256 rng(20260727);
  const ord::OrderingKind kinds[] = {ord::OrderingKind::BR, ord::OrderingKind::PermutedBR,
                                     ord::OrderingKind::Degree4, ord::OrderingKind::MinAlpha};
  for (int iter = 0; iter < 500; ++iter) {
    SolverSpec spec;
    const Task tasks[] = {Task::Evd, Task::Svd, Task::Pca, Task::Gevd};
    spec.task = tasks[rng.below(4)];
    spec.backend = static_cast<Backend>(rng.below(3));
    spec.ordering = kinds[rng.below(4)];
    spec.d = static_cast<int>(1 + rng.below(5));
    spec.m = (std::size_t{2} << spec.d) + rng.below(100);
    // svd/pca may be rectangular either way; rows == m is the
    // normalized-to-0 form, so tall is strictly taller and wide strictly
    // wider than square.
    if ((spec.task == Task::Svd || spec.task == Task::Pca) && rng.below(2))
      spec.rows = rng.below(2) ? spec.m + 1 + rng.below(64) : 1 + rng.below(spec.m - 1);
    if (spec.task == Task::Gevd) spec.bseed = 1 + rng.below(1u << 20);
    switch (rng.below(3)) {
      case 0: spec.pipelining = PipeliningPolicy::Off; break;
      case 1: spec.pipelining = PipeliningPolicy::Auto; break;
      default:
        spec.pipelining = PipeliningPolicy::Fixed;
        spec.q = 1 + rng.below(8);
    }
    spec.machine.ts = rng.uniform(0.0, 1e4);
    spec.machine.tw = rng.uniform(0.0, 10.0);
    spec.machine.ports = rng.below(2) ? pipe::MachineParams::kAllPort
                                      : static_cast<int>(1 + rng.below(4));
    spec.overlap_startup = rng.below(2) != 0;
    spec.threshold = std::pow(10.0, -static_cast<double>(1 + rng.below(15)));
    spec.max_sweeps = static_cast<int>(1 + rng.below(200));
    const solve::StopRule rules[] = {solve::StopRule::NoRotations,
                                     solve::StopRule::OffDiagonal,
                                     solve::StopRule::OffDiagonalAbsolute};
    spec.stop_rule = rules[rng.below(3)];
    spec.off_tol = rng.uniform(1e-12, 1e-2);
    spec.gershgorin_shift = spec.task == Task::Evd && rng.below(2) != 0;
    if ((spec.task == Task::Evd || spec.task == Task::Svd) &&
        spec.stop_rule == solve::StopRule::NoRotations && !spec.gershgorin_shift &&
        rng.below(2)) {
      // Truncation is capped by the CORE column count: the short side for a
      // wide input, m otherwise.
      const std::size_t core_cols =
          spec.rows != 0 && spec.rows < spec.m ? spec.rows : spec.m;
      spec.topk = static_cast<int>(1 + rng.below(core_cols));
    }
    if (rng.below(2)) spec.threads = 1 + rng.below(8);
    if (rng.below(2)) spec.deadline_ms = 1 + rng.below(60000);
    spec.trace = rng.below(2) != 0;
    if (rng.below(3) == 0) {
      spec.faults.seed = 1 + rng.below(1u << 30);
      spec.faults.corrupt_rate = rng.uniform(0.0, 1.0);
      spec.faults.delay_rate = rng.uniform(0.0, 1.0);
      spec.faults.delay_us = rng.below(1000);
      spec.faults.vote_fail_rate = rng.uniform(0.0, 1.0);
    }

    const std::string text = spec.to_string();
    SolverSpec back;
    ASSERT_NO_THROW(back = SolverSpec::parse(text)) << "iter " << iter << ": " << text;
    EXPECT_EQ(back, spec) << "iter " << iter << ": " << text;
    EXPECT_EQ(back.to_string(), text) << "iter " << iter;
  }
}

// Adversarial malformed strings: every rejection must name the offending
// key so service logs point at the bad token, not just "parse error".
TEST(SolverSpec, MalformedStringsNameTheOffendingKey) {
  const struct {
    const char* text;
    const char* named;
  } cases[] = {
      {"threshold=nan", "'threshold'"}, {"off_tol=nan", "'off_tol'"},
      {"ts=inf", "'ts'"},               {"tw=nan", "'tw'"},
      {"m=+5", "'m'"},                  {"rows=+7", "'rows'"},
      {"d=4294967297", "'d'"},          {"max_sweeps=4294967297", "'max_sweeps'"},
      {"ports=4294967297", "'ports'"},  {"pipeline=+2", "'pipeline'"},
      {"task=lu", "task"},              {"m=16,m=16", "'m'"},
      {"deadline_ms=-5", "'deadline_ms'"},
      {"stop=absolute", "stop"},        {"bseed=+5", "'bseed'"},
      {"task=gevd,m=16", "bseed"},      {"bseed=5", "bseed"},
      {"faults=1:2:0:0:0", "'faults'"},       // corrupt rate out of [0,1]
      {"faults=0:0:0:0:0", "'faults'"},       // seed 0 is reserved for off
      {"faults=1:0:0:0", "'faults'"},         // too few fields
      {"faults=1:0:0:0:0:0", "'faults'"},     // too many fields
  };
  for (const auto& c : cases) {
    try {
      SolverSpec::parse(c.text);
      FAIL() << c.text << " must throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.named), std::string::npos)
          << c.text << " -> " << e.what();
    }
  }
}

TEST(SolverPlan, RejectsInfeasibleSpecs) {
  SolverSpec spec;
  spec.m = 4;  // 2-cube needs >= 8 columns
  spec.d = 2;
  EXPECT_THROW(Solver::plan(spec), std::invalid_argument);
  spec.ordering = ord::OrderingKind::Custom;
  EXPECT_THROW(Solver::plan(spec), std::invalid_argument);
}

TEST(SolverPlan, SolveRejectsWrongOrder) {
  const SolvePlan plan = Solver::plan(SolverSpec::parse("m=16,d=2"));
  EXPECT_THROW(plan.solve(test_matrix(12, 1)), std::invalid_argument);
}

// One plan, several distinct matrices, every backend: results must be
// bit-for-bit identical to a fresh one-shot plan per matrix -- REUSING a
// plan changes nothing about the numerics, the traffic or the model.
TEST(SolverPlan, ReusedPlanMatchesOneShotPlanBitForBit) {
  const std::size_t m = 16;
  SolverSpec base = SolverSpec::parse("ordering=d4,m=16,d=2");
  SolverSpec mpi = base;
  mpi.backend = Backend::MpiLite;
  SolverSpec sim = base;
  sim.backend = Backend::Sim;

  const SolvePlan inline_plan = Solver::plan(base);
  const SolvePlan mpi_plan = Solver::plan(mpi);
  const SolvePlan sim_plan = Solver::plan(sim);

  for (std::uint64_t seed : {11u, 22u, 33u}) {
    const la::Matrix a = test_matrix(m, seed);
    const SolveReport ref_inline = Solver::plan(base).solve(a);
    const SolveReport ref_mpi = Solver::plan(mpi).solve(a);
    const SolveReport ref_sim = Solver::plan(sim).solve(a);

    const SolveReport r_inline = inline_plan.solve(a);
    const SolveReport r_mpi = mpi_plan.solve(a);
    const SolveReport r_sim = sim_plan.solve(a);

    ASSERT_TRUE(r_inline.converged);
    EXPECT_EQ(r_inline.eigenvalues, ref_inline.eigenvalues) << "seed " << seed;
    EXPECT_EQ(la::Matrix::max_abs_diff(r_inline.eigenvectors, ref_inline.eigenvectors), 0.0);
    EXPECT_EQ(r_inline.sweeps, ref_inline.sweeps);
    EXPECT_EQ(r_inline.rotations, ref_inline.rotations);

    EXPECT_EQ(r_mpi.eigenvalues, ref_mpi.eigenvalues) << "seed " << seed;
    EXPECT_EQ(la::Matrix::max_abs_diff(r_mpi.eigenvectors, ref_mpi.eigenvectors), 0.0);
    EXPECT_EQ(r_mpi.comm.messages, ref_mpi.comm.messages);
    EXPECT_EQ(r_mpi.comm.elements, ref_mpi.comm.elements);

    EXPECT_EQ(r_sim.eigenvalues, ref_sim.eigenvalues) << "seed " << seed;
    EXPECT_EQ(la::Matrix::max_abs_diff(r_sim.eigenvectors, ref_sim.eigenvectors), 0.0);
    ASSERT_TRUE(r_sim.has_model);
    EXPECT_EQ(r_sim.modeled_time, ref_sim.modeled_time);
    EXPECT_EQ(r_sim.vote_time, ref_sim.vote_time);
    EXPECT_EQ(r_sim.modeled_sweeps, ref_sim.modeled_sweeps);
    EXPECT_EQ(r_sim.link_busy, ref_sim.link_busy);
  }
}

// The acceptance-criterion cross-backend check: one spec, three backends,
// identical eigenvalues on the same input.
TEST(SolverPlan, BackendsAgreeOnTheSameInput) {
  const la::Matrix a = test_matrix(16, 4242);
  SolverSpec spec = SolverSpec::parse("ordering=pbr,m=16,d=2");

  spec.backend = Backend::Inline;
  const SolveReport r_inline = Solver::solve(spec, a);
  spec.backend = Backend::MpiLite;
  const SolveReport r_mpi = Solver::solve(spec, a);
  spec.backend = Backend::Sim;
  const SolveReport r_sim = Solver::solve(spec, a);

  ASSERT_TRUE(r_inline.converged && r_mpi.converged && r_sim.converged);
  EXPECT_EQ(r_mpi.eigenvalues, r_inline.eigenvalues);
  EXPECT_EQ(r_sim.eigenvalues, r_inline.eigenvalues);
  EXPECT_GT(r_sim.modeled_time, 0.0);
  EXPECT_GT(r_mpi.comm.messages, 0u);
}

// Auto pipelining picks the pipe::find_optimal_sweep_q degree under the
// plan's machine (the measured host on mpi), and that degree is the true
// argmin of the summed exchange-phase cost (brute-forced over the full
// 1..q_max range, which the small case makes exhaustive).
TEST(SolverPlan, AutoPicksOptimizerQ) {
  SolverSpec spec = SolverSpec::parse("backend=mpi,ordering=d4,m=64,d=2,pipeline=auto");
  const SolvePlan plan = Solver::plan(spec);
  const pipe::MachineParams& machine = plan.machine();
  EXPECT_EQ(machine, solve::host_calibration().machine);

  const std::uint64_t q_max = 64 / 8;  // columns per block
  pipe::ProblemParams prob;
  prob.d = 2;
  prob.m = 64.0;
  const pipe::OptimalQ best = pipe::find_optimal_sweep_q(plan.ordering(), prob, machine, q_max);
  EXPECT_EQ(plan.pipelining_q(), best.q);
  EXPECT_GT(plan.pipelining_q(), 0u);
  EXPECT_DOUBLE_EQ(plan.planned_sweep_comm_cost(), best.cost);

  // Brute-force argmin over every feasible q.
  const double step_elems = 2.0 * 64.0 * 8.0;
  double best_cost = 0.0;
  std::uint64_t best_q = 0;
  for (std::uint64_t q = 1; q <= q_max; ++q) {
    double total = 0.0;
    for (int e = plan.ordering().dimension(); e >= 1; --e)
      total += pipe::phase_cost_pipelined(plan.ordering().exchange_sequence(e), q, step_elems,
                                          machine);
    if (best_q == 0 || total < best_cost) {
      best_q = q;
      best_cost = total;
    }
  }
  EXPECT_EQ(plan.pipelining_q(), best_q);
  EXPECT_DOUBLE_EQ(plan.planned_sweep_comm_cost(), best_cost);
}

// The simulator keeps planning against the spec's machine: sim Auto is the
// paper's model experiment, not this host.
TEST(SolverPlan, SimAutoPlansWithSpecMachine) {
  const SolverSpec spec =
      SolverSpec::parse("backend=sim,ordering=d4,m=64,d=2,pipeline=auto,ts=500,tw=2");
  const SolvePlan plan = Solver::plan(spec);
  EXPECT_EQ(plan.machine(), spec.machine);
  pipe::ProblemParams prob;
  prob.d = 2;
  prob.m = 64.0;
  const pipe::OptimalQ best = pipe::find_optimal_sweep_q(plan.ordering(), prob, spec.machine, 8);
  EXPECT_EQ(plan.pipelining_q(), best.q);
  EXPECT_DOUBLE_EQ(plan.planned_sweep_comm_cost(), best.cost);
}

// An mpi plan at pipeline=auto runs at the optimizer's degree under
// plan.machine(): its message counters must match an explicit
// pipeline=<q> run at that q -- the replay the accessor exists for.
TEST(SolverPlan, PipelinedAutoRunsAtOptimizerQ) {
  const la::Matrix a = test_matrix(64, 5);
  const SolverSpec auto_spec = SolverSpec::parse("backend=mpi,ordering=d4,m=64,d=2,pipeline=auto");
  const SolvePlan auto_plan = Solver::plan(auto_spec);
  const SolveReport auto_r = auto_plan.solve(a);

  pipe::ProblemParams prob64;
  prob64.d = 2;
  prob64.m = 64.0;
  const pipe::OptimalQ best = pipe::find_optimal_sweep_q(
      ord::JacobiOrdering(ord::OrderingKind::Degree4, 2), prob64, auto_plan.machine(), 8);
  const SolveReport fixed_r =
      Solver::plan(SolverSpec::parse("backend=mpi,ordering=d4,m=64,d=2,pipeline=" +
                                     std::to_string(best.q)))
          .solve(a);

  ASSERT_TRUE(auto_r.converged && fixed_r.converged);
  EXPECT_EQ(auto_r.pipelining_q, best.q);
  EXPECT_EQ(fixed_r.pipelining_q, best.q);
  EXPECT_EQ(auto_r.sweeps, fixed_r.sweeps);
  EXPECT_EQ(auto_r.comm.messages, fixed_r.comm.messages);
  EXPECT_EQ(auto_r.comm.elements, fixed_r.comm.elements);
}

// An Auto sim plan charges the pipelined schedule at the optimizer's q and
// keeps inline-identical numerics.
TEST(SolverPlan, AutoSimPipeliningKeepsNumerics) {
  const la::Matrix a = test_matrix(32, 8);
  const SolveReport plain =
      Solver::solve(SolverSpec::parse("backend=sim,ordering=pbr,m=32,d=2"), a);
  const SolveReport piped =
      Solver::solve(SolverSpec::parse("backend=sim,ordering=pbr,m=32,d=2,pipeline=auto"), a);
  ASSERT_TRUE(plain.converged && piped.converged);
  EXPECT_EQ(piped.eigenvalues, plain.eigenvalues);
  EXPECT_GT(piped.pipelining_q, 0u);
  EXPECT_GT(piped.modeled_time, 0.0);
  // Pipelining at the optimal degree cannot cost more than unpipelined.
  EXPECT_LE(piped.modeled_time - piped.vote_time, plain.modeled_time - plain.vote_time);
}

TEST(SolverPlan, SolveBatchMatchesIndividualSolves) {
  const SolvePlan plan = Solver::plan(SolverSpec::parse("ordering=d4,m=16,d=2"));
  std::vector<la::Matrix> batch;
  for (std::uint64_t seed : {1u, 2u, 3u}) batch.push_back(test_matrix(16, seed));

  const std::vector<SolveReport> reports = plan.solve_batch(batch);
  ASSERT_EQ(reports.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const SolveReport single = plan.solve(batch[i]);
    EXPECT_EQ(reports[i].eigenvalues, single.eigenvalues);
    EXPECT_EQ(reports[i].sweeps, single.sweeps);
  }
}

// One immutable plan, solved from several threads concurrently.
TEST(SolverPlan, ThreadShareable) {
  const SolvePlan plan = Solver::plan(SolverSpec::parse("ordering=pbr,m=16,d=2"));
  const la::Matrix a = test_matrix(16, 7);
  const SolveReport ref = plan.solve(a);

  std::vector<SolveReport> reports(4);
  std::vector<std::thread> threads;
  for (auto& slot : reports)
    threads.emplace_back([&plan, &a, &slot] { slot = plan.solve(a); });
  for (auto& t : threads) t.join();

  for (const SolveReport& r : reports) {
    EXPECT_EQ(r.eigenvalues, ref.eigenvalues);
    EXPECT_EQ(r.sweeps, ref.sweeps);
  }
}

TEST(SolveReport, SummaryMentionsScenarioAndModel) {
  const la::Matrix a = test_matrix(16, 3);
  const SolveReport r =
      Solver::solve(SolverSpec::parse("backend=sim,ordering=d4,m=16,d=2,pipeline=2"), a);
  const std::string text = r.summary();
  EXPECT_NE(text.find("backend=sim"), std::string::npos);
  EXPECT_NE(text.find("converged"), std::string::npos);
  EXPECT_NE(text.find("model"), std::string::npos);
  EXPECT_NE(text.find("pipeline=2"), std::string::npos);
}

// The one-line JSON rendering is a STABLE machine interface (the CLI's
// --json mode and the service driver's per-job output): this test pins the
// exact field set and order, so any change to it is a deliberate,
// test-visible API change.
TEST(SolveReport, JsonFieldSetIsPinned) {
  const la::Matrix a = test_matrix(16, 12);
  const SolveReport r =
      Solver::solve(SolverSpec::parse("backend=sim,ordering=d4,m=16,d=2,pipeline=2"), a);
  const std::string json = report_to_json(r);

  // Extract the keys in order of appearance.
  std::vector<std::string> keys;
  for (std::size_t pos = 0; (pos = json.find('"', pos)) != std::string::npos;) {
    const std::size_t end = json.find('"', pos + 1);
    ASSERT_NE(end, std::string::npos);
    if (end + 1 < json.size() && json[end + 1] == ':')
      keys.push_back(json.substr(pos + 1, end - pos - 1));
    pos = end + 1;
  }
  const std::vector<std::string> expected = {
      "task",          "backend",        "ordering",      "m",
      "rows",          "pipeline_q",     "topk",          "converged",
      "sweeps",        "rotations",      "spectrum_min",  "spectrum_max",
      "explained_leading",
      "comm_messages", "comm_elements",  "comm_barriers", "has_model",
      "modeled_time",  "vote_time",      "modeled_sweeps", "mean_link_utilization",
      "plan_ns",       "queue_ns",       "sweep_ns",      "comm_ns",
      "assembly_ns",   "retries",        "status"};
  {
    // spec_version leads every report (consumers dispatch on it before
    // reading anything else) and must echo the current grammar version.
    ASSERT_FALSE(keys.empty());
    EXPECT_EQ(keys.front(), "spec_version");
    EXPECT_EQ(json.rfind("{\"spec_version\":" + std::to_string(kSpecVersion) + ",", 0), 0u)
        << json.substr(0, 40);
    keys.erase(keys.begin());
  }
  EXPECT_EQ(keys, expected);

  // One line, no whitespace, and the scenario echo is right.
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_EQ(json.find(' '), std::string::npos);
  EXPECT_NE(json.find("\"backend\":\"sim\""), std::string::npos);
  EXPECT_NE(json.find("\"pipeline_q\":2"), std::string::npos);
  EXPECT_NE(json.find("\"converged\":true"), std::string::npos);
  EXPECT_NE(json.find("\"m\":16"), std::string::npos);
  EXPECT_NE(json.find("\"has_model\":true"), std::string::npos);
  EXPECT_NE(json.find("\"status\":\"OK\""), std::string::npos);

  // Every backend emits the same field set (zeros outside its sections).
  const SolveReport inline_r = Solver::solve(SolverSpec::parse("m=16,d=2"), a);
  const std::string inline_json = report_to_json(inline_r);
  EXPECT_NE(inline_json.find("\"task\":\"evd\""), std::string::npos);
  EXPECT_NE(inline_json.find("\"has_model\":false"), std::string::npos);
  EXPECT_NE(inline_json.find("\"comm_messages\":0"), std::string::npos);

  // ... and so does a task=svd report, with the input shape echoed and the
  // extreme singular values in the spectrum slots.
  Xoshiro256 rng(12);
  const la::Matrix rect = la::random_uniform(24, 16, rng);
  const SolveReport svd_r =
      Solver::solve(SolverSpec::parse("task=svd,m=16,rows=24,d=2"), rect);
  const std::string svd_json = report_to_json(svd_r);
  std::vector<std::string> svd_keys;
  for (std::size_t pos = 0; (pos = svd_json.find('"', pos)) != std::string::npos;) {
    const std::size_t end = svd_json.find('"', pos + 1);
    ASSERT_NE(end, std::string::npos);
    if (end + 1 < svd_json.size() && svd_json[end + 1] == ':')
      svd_keys.push_back(svd_json.substr(pos + 1, end - pos - 1));
    pos = end + 1;
  }
  ASSERT_FALSE(svd_keys.empty());
  EXPECT_EQ(svd_keys.front(), "spec_version");
  svd_keys.erase(svd_keys.begin());
  EXPECT_EQ(svd_keys, expected);
  EXPECT_NE(svd_json.find("\"task\":\"svd\""), std::string::npos);
  EXPECT_NE(svd_json.find("\"m\":16"), std::string::npos);
  EXPECT_NE(svd_json.find("\"rows\":24"), std::string::npos);
  // Non-pca tasks render explained_leading as an exact 0.
  EXPECT_NE(svd_json.find("\"explained_leading\":0,"), std::string::npos);

  // A task=pca report keeps the same field set, echoes the data-matrix
  // shape, and fills explained_leading with the top component's share.
  const SolveReport pca_r = Solver::solve(
      SolverSpec::parse("task=pca,m=16,rows=24,d=2,stop=offdiag_abs"), rect);
  const std::string pca_json = report_to_json(pca_r);
  EXPECT_NE(pca_json.find("\"task\":\"pca\""), std::string::npos);
  EXPECT_NE(pca_json.find("\"m\":16"), std::string::npos);
  EXPECT_NE(pca_json.find("\"rows\":24"), std::string::npos);
  ASSERT_FALSE(pca_r.explained_variance.empty());
  EXPECT_GT(pca_r.explained_variance.front(), 0.0);
  EXPECT_EQ(pca_json.find("\"explained_leading\":0,"), std::string::npos);

  // A wide task=svd report derives its geometry from the assembled vector
  // matrices: m from V's rows, rows from U's -- the swap must land right.
  Xoshiro256 wide_rng(13);
  const la::Matrix wide_a = la::random_uniform(8, 16, wide_rng);
  const SolveReport wide_r =
      Solver::solve(SolverSpec::parse("task=svd,m=16,rows=8,d=1"), wide_a);
  const std::string wide_json = report_to_json(wide_r);
  EXPECT_NE(wide_json.find("\"m\":16"), std::string::npos);
  EXPECT_NE(wide_json.find("\"rows\":8"), std::string::npos);

  // A task=gevd report renders like an eigenproblem (spectrum from the
  // generalized eigenvalues, square geometry).
  const la::Matrix sym = test_matrix(16, 77);
  const SolveReport gevd_r =
      Solver::solve(SolverSpec::parse("task=gevd,bseed=5,m=16,d=2"), sym);
  const std::string gevd_json = report_to_json(gevd_r);
  EXPECT_NE(gevd_json.find("\"task\":\"gevd\""), std::string::npos);
  EXPECT_NE(gevd_json.find("\"m\":16"), std::string::npos);
  EXPECT_NE(gevd_json.find("\"rows\":16"), std::string::npos);
}

TEST(SolverPlan, CustomOrderingThroughTheFacade) {
  // A custom ordering (BR sequences supplied explicitly) runs through
  // plan(spec, ordering) and matches the built-in BR result.
  const int d = 2;
  std::vector<ord::LinkSequence> seqs;
  for (int e = 1; e <= d; ++e) seqs.push_back(ord::make_exchange_sequence(ord::OrderingKind::BR, e));
  ord::JacobiOrdering custom(std::move(seqs));

  SolverSpec spec = SolverSpec::parse("m=16,d=2");
  spec.ordering = ord::OrderingKind::Custom;
  const la::Matrix a = test_matrix(16, 21);
  const SolveReport r = Solver::plan(spec, custom).solve(a);

  const SolveReport ref = Solver::solve(SolverSpec::parse("ordering=br,m=16,d=2"), a);
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(r.eigenvalues, ref.eigenvalues);
}

}  // namespace
}  // namespace jmh::api
