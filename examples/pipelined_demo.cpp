// Pipelined execution demo: one spec per pipelining degree, all named
// textually through the api facade. Shows that (a) the answer agrees across
// degrees, (b) message counts grow with Q while column volume stays fixed
// -- the communication structure the paper's cost model prices, executing
// for real on mpi_lite threads -- and (c) what the auto policy
// (pipe::find_optimal_sweep_q under the measured host machine) picks,
// next to the wall time of every degree and of the inline solver, so the
// chosen q can be checked against the fastest one and mpi against inline.
//
//   $ ./pipelined_demo [m] [d]     (defaults: 32 2)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "api/solver.hpp"
#include "la/eigen_check.hpp"
#include "la/sym_gen.hpp"

int main(int argc, char** argv) {
  using namespace jmh;
  using Clock = std::chrono::steady_clock;

  const std::size_t m = argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 32;
  const int d = argc > 2 ? std::atoi(argv[2]) : 2;
  if (d < 1 || d > 5 || m < (std::size_t{4} << d)) {
    std::fprintf(stderr, "need 1 <= d <= 5 and m >= 2^(d+2)\n");
    return 2;
  }

  Xoshiro256 rng(7);
  const la::Matrix a = la::random_uniform_symmetric(m, rng);
  const std::string base = "ordering=d4,m=" + std::to_string(m) + ",d=" + std::to_string(d);

  // Q = 1 .. min(8, columns per block), then auto; the inline solver last.
  std::vector<std::string> rows;
  for (std::size_t q = 1; q <= std::min<std::size_t>(8, m >> (d + 1)); ++q)
    rows.push_back("backend=mpi,pipeline=" + std::to_string(q));
  rows.push_back("backend=mpi,pipeline=auto");
  rows.push_back("backend=inline");
  std::vector<api::SolvePlan> plans;
  for (const std::string& row : rows)
    plans.push_back(api::Solver::plan(api::SolverSpec::parse(base + "," + row)));

  // Rounds interleave the rows so host drift hits every row alike; each
  // row keeps its fastest solve of a reused plan.
  constexpr int kRounds = 7;
  std::vector<double> best_ms(plans.size(), std::numeric_limits<double>::infinity());
  std::vector<api::SolveReport> reports(plans.size());
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t i = 0; i < plans.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      reports[i] = plans[i].solve(a);
      best_ms[i] = std::min(
          best_ms[i], std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
      if (!reports[i].converged) {
        std::printf("%s did not converge\n", rows[i].c_str());
        return 1;
      }
    }
  }

  std::printf("m = %zu, %d-cube (%d threads), degree-4 ordering, best of %d solves\n\n", m, d,
              1 << d, kRounds);
  std::printf("        Q | sweeps  messages  elements   best ms   residual   spectrum-vs-Q1\n");
  const std::size_t inline_row = plans.size() - 1;
  std::size_t fastest = 0;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const api::SolveReport& r = reports[i];
    const api::PipeliningPolicy policy = plans[i].spec().pipelining;
    if (i < inline_row && policy != api::PipeliningPolicy::Auto && best_ms[i] < best_ms[fastest])
      fastest = i;
    const std::string label = i == inline_row ? "inline"
                              : policy == api::PipeliningPolicy::Auto
                                  ? "auto(" + std::to_string(plans[i].pipelining_q()) + ")"
                                  : std::to_string(plans[i].pipelining_q());
    std::printf(" %8s | %6d  %8llu  %8llu  %8.3f   %.2e   %.2e\n", label.c_str(), r.sweeps,
                static_cast<unsigned long long>(r.comm.messages),
                static_cast<unsigned long long>(r.comm.elements), best_ms[i],
                la::eigenpair_residual(a, r.eigenvalues, r.eigenvectors),
                la::spectrum_distance(r.eigenvalues, reports[0].eigenvalues));
  }

  const pipe::MachineParams& host = plans[inline_row - 1].machine();
  std::printf(
      "\nauto planned against the measured host: ts = %.0f ns, tw = %.3f ns per element\n"
      "(SolvePlan::machine); fastest fixed degree: Q = %llu; inline / auto time: %.2fx.\n"
      "Packetizing multiplies message count (more startups) but keeps column\n"
      "volume constant; on a multi-port machine the packets of one block ride\n"
      "different links concurrently, which is what Figure 2 prices out.\n",
      host.ts, host.tw, static_cast<unsigned long long>(plans[fastest].pipelining_q()),
      best_ms[inline_row] / best_ms[inline_row - 1]);
  return 0;
}
