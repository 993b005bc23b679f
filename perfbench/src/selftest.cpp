// The benchmark's self-tests: `perfbench selftest` (or run.py --selftest).
//
//   inputs      the same seed gives identical inputs and arrival schedules,
//               a different seed changes them, and the mix's per-class job
//               counts do not depend on the seed;
//   due time    open-loop latency counts from the due time: a stall
//               injected into the generator shows up in the latencies of
//               the jobs due during it;
//   backlog     a rate far above capacity is marked failing, a low one
//               passes, and max_rate interpolates between them;
//   gate        a status-OK report with converged == false fails, and a
//               solve capped two sweeps in also fails on its residual or
//               orthogonality readings alone, for evd, tall and wide svd and
//               pca; so do the eigenvectors of an indefinite matrix solved
//               without the Gershgorin shift, while the shifted solves pass.
#include <cstdio>
#include <map>
#include <thread>

#include "api/solver.hpp"
#include "la/sym_gen.hpp"
#include "gate.hpp"
#include "service_mix.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

std::uint64_t ring_print(std::uint64_t seed) {
  std::uint64_t h = 14695981039346656037ull;
  for (const jmh::la::Matrix& a : make_ring(seed, 32, 4)) h = fingerprint(a, h);
  return h;
}

std::uint64_t mix_print(std::uint64_t seed) {
  std::uint64_t h = 14695981039346656037ull;
  for (const auto& pool : MixInputs::make(seed).pools)
    for (const jmh::la::Matrix& a : pool) h = fingerprint(a, h);
  return h;
}

bool same_schedule(const std::vector<Arrival>& x, const std::vector<Arrival>& y) {
  if (x.size() != y.size()) return false;
  for (std::size_t i = 0; i < x.size(); ++i)
    if (x[i].due_s != y[i].due_s || x[i].cls != y[i].cls || x[i].input != y[i].input) return false;
  return true;
}

std::map<int, int> class_counts(const std::vector<Arrival>& s) {
  std::map<int, int> counts;
  for (const Arrival& a : s) ++counts[a.cls];
  return counts;
}

void test_inputs() {
  expect(ring_print(7) == ring_print(7), "closed-loop ring: same seed, identical matrices");
  expect(ring_print(7) != ring_print(8), "closed-loop ring: other seed, other matrices");
  expect(mix_print(7) == mix_print(7), "service_mix pools: same seed, identical matrices");
  expect(mix_print(7) != mix_print(8), "service_mix pools: other seed, other matrices");
  const auto a = make_schedule(7, 3, 500, 2.0);
  expect(same_schedule(a, make_schedule(7, 3, 500, 2.0)),
         "schedule: same seed, identical arrivals (times, classes, inputs)");
  expect(!same_schedule(a, make_schedule(8, 3, 500, 2.0)), "schedule: other seed, other arrivals");
  expect(class_counts(a) == class_counts(make_schedule(8, 3, 500, 2.0)),
         "schedule: per-class job counts are the same for every seed");
  expect(a.size() == 1000 && a.back().due_s < 2.0, "schedule: 500 jobs/s x 2 s = 1000 arrivals in the rung");
}

void test_due_time_and_backlog() {
  jmh::svc::SolverService service(service_config());
  const MixInputs inputs = MixInputs::make(1);
  std::uint64_t cold = 0;
  Gatekeeper gate;

  // Stall the generator for 60 ms before job 30 of a 200 jobs/s rung.
  const std::vector<Arrival> schedule = make_schedule(1, 0, 200, 0.5);
  constexpr std::size_t kStalled = 30;
  const RungOutcome stalled =
      run_rung(service, schedule, inputs, 200, kLimitMs, false, cold, gate, nullptr,
               [&](std::size_t i) {
                 if (i == kStalled) std::this_thread::sleep_for(std::chrono::milliseconds(60));
               });
  // Jobs due during the stall were submitted late (lag > 1 ms). Timed from
  // submission, their latency would be a few ms; timed from the due time,
  // it includes the lag.
  int behind = 0;
  int delayed = 0;
  for (std::size_t i = kStalled; i < stalled.submitted; ++i) {
    if (stalled.lag_ms[i] > 1.0) {
      ++behind;
      if (stalled.latency_ms[i] >= stalled.lag_ms[i]) ++delayed;
    }
  }
  expect(behind >= 5 && delayed == behind,
         format("due time: %d jobs queued behind a 60 ms generator stall, %d of them carry the "
                "stall in their latency", behind, delayed));
  // The stall began after job kStalled - 1 was sent, so it outlasts job
  // kStalled's due time by at least 60 ms minus the gap between the two.
  const double floor_ms = 60.0 - 1e3 * (schedule[kStalled].due_s - schedule[kStalled - 1].due_s);
  expect(stalled.lag_ms[kStalled] >= floor_ms,
         format("due time: the stalled job's lag %.2f ms >= %.2f ms", stalled.lag_ms[kStalled],
                floor_ms));

  const RungOutcome low = run_rung(service, make_schedule(1, 1, 100, 0.5), inputs, 100, kLimitMs,
                                   false, cold, gate, nullptr);
  const RungOutcome flood = run_rung(service, make_schedule(1, 2, 8000, 0.5), inputs, 8000,
                                     kLimitMs, false, cold, gate, nullptr);
  expect(low.pass, format("backlog: 100 jobs/s passes (tail %.2f ms)", low.tail.value));
  expect(!flood.pass && (flood.backlog_growing || flood.early_stop),
         format("backlog: 8000 jobs/s fails with a growing backlog (tail %.1f ms, %zu of %zu sent)",
                flood.tail.value, flood.submitted, flood.scheduled));
  const double rate = max_rate({low, flood});
  expect(rate > 100 && rate < 8000 && rate == flood.served_rate,
         format("max_rate: the saturated rung's served rate, %.1f jobs/s", rate));
  expect(max_rate({low}) == 100, "max_rate: the top rung when none failed");
  expect(gate.failed == 0, format("gate: %llu service jobs, 0 failed",
                                  static_cast<unsigned long long>(gate.attempted)));
}

void test_gate() {
  using jmh::api::Solver;
  using jmh::api::SolverSpec;
  // A solve capped at 2 sweeps returns status OK with converged == false,
  // and the gate rejects it. Its numbers must fail too, without the flag's
  // help. For svd and pca the residual cannot (U = A V / sigma), so it is
  // the orthogonality of the B / sigma side that fails.
  for (const char* text : {"task=evd,m=32,d=2,shift=1", "task=svd,m=48,rows=64,d=2",
                           "task=svd,m=64,rows=40,d=2", "task=pca,m=24,rows=64,d=2,stop=offdiag_abs"}) {
    const SolverSpec full = SolverSpec::parse(text);
    const SolverSpec cut = SolverSpec::parse(std::string(text) + ",max_sweeps=2");
    jmh::Xoshiro256 rng = input_rng(5, 0);
    const jmh::la::Matrix a = full.task == jmh::api::Task::Evd
                                  ? jmh::la::random_uniform_symmetric(full.m, rng)
                                  : jmh::la::random_uniform(full.input_rows(), full.m, rng);
    const Verdict done = check_report(full, a, Solver::solve(full, a));
    const jmh::api::SolveReport capped_report = Solver::solve(cut, a);
    const Verdict early = check_report(cut, a, capped_report);
    const bool numbers_fail = early.residual > kResidualLimit || early.orthogonality > kOrthogonalityLimit;
    expect(done.ok && capped_report.status == jmh::api::SolveStatus::Ok &&
               !capped_report.converged && !early.ok && numbers_fail,
           format("gate: %s converged reads residual %.3g, orthogonality %.3g; capped at 2 sweeps "
                  "(status OK, converged == false) %.3g, %.3g n*eps", text, done.residual,
                  done.orthogonality, early.residual, early.orthogonality));
  }

  const std::vector<jmh::la::Matrix> ring = make_ring(3, 32, 40);

  const SolverSpec plain = SolverSpec::parse("task=evd,ordering=minalpha,m=32,d=2");
  const SolverSpec shifted = SolverSpec::parse("task=evd,ordering=minalpha,m=32,d=2,shift=1");
  int unshifted_wrong = 0;
  int shifted_wrong = 0;
  double worst = 0.0;
  for (const jmh::la::Matrix& a : ring) {
    const Verdict u = check_report(plain, a, Solver::solve(plain, a));
    unshifted_wrong += u.ok ? 0 : 1;
    worst = std::max(worst, u.residual);
    shifted_wrong += check_report(shifted, a, Solver::solve(shifted, a)).ok ? 0 : 1;
  }
  expect(unshifted_wrong > 0 && shifted_wrong == 0,
         format("gate: indefinite inputs without shift: %d of %zu converged solves have wrong "
                "eigenvectors (worst residual %.3g n*eps); with shift=1: %d",
                unshifted_wrong, ring.size(), worst, shifted_wrong));
}

}  // namespace

int run_selftest() {
  test_inputs();
  test_due_time_and_backlog();
  test_gate();
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "selftest passed" : "selftest FAILED",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
