// service_mix: the open-loop load generator for svc::SolverService, shared by the
// workload and the self-tests.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common.hpp"
#include "gate.hpp"
#include "la/matrix.hpp"
#include "svc/service.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Service dispatchers. mpi jobs run d = 1 (2 ranks: the dispatcher plus
/// one pool worker), so two dispatchers keep at most 4 solver threads busy.
inline constexpr std::size_t kDispatchers = 2;
/// The limit a ladder rate's tail latency (p90, from due time) must meet.
/// Below saturation the p90 stays within a few ms on a 4-core host, so the
/// limit separates a saturated service from scheduling noise.
inline constexpr double kLimitMs = 100.0;
/// The arrival-rate ladder (jobs/s), ascending, and its nominal rate.
inline constexpr double kLadder[] = {500,  1000, 1200, 1300, 1400, 1500, 1600, 1700, 1800,
                                     1900, 2000, 2100, 2200, 2300, 2400, 2500, 2600, 2700, 2800};
inline constexpr double kNominalRate = 500;

/// The service every service_mix run starts: kDispatchers dispatchers, a
/// queue the open loop never fills, a 64-plan cache, coalescing up to 4.
jmh::svc::ServiceConfig service_config();

/// One hot job class of the mix: a spec string, the number of lines of the
/// recorded mix (examples/workloads/service_mix.txt) it stands for, and the
/// input family its matrices come from.
struct JobClass {
  const char* name;
  const char* spec;
  int lines;
  enum Input { kSymmetric, kGeneral, kSpd } input;
  int pair;  ///< task pair for speedup_vs_inline (inline and mpi twins), -1 none
  bool mpi;
};

/// The mix's hot classes: the inline and mpi lines of the recorded mix,
/// grouped by task, backend, ordering and shape kind.
const std::vector<JobClass>& hot_classes();
/// Share of jobs with a distinct spec each: they miss the plan cache. The
/// recorded mix has no cold jobs, so this share is an assumption.
inline constexpr double kColdShare = 0.03;
/// A hot class's share of the jobs: its recorded lines over all the hot
/// classes' lines, times 1 - kColdShare.
double hot_share(const JobClass& c);

/// One scheduled arrival: due time from the rung's start, job class
/// (hot_classes() index, or -1 for a cold job) and input index.
struct Arrival {
  double due_s = 0.0;
  int cls = 0;
  std::size_t input = 0;
};

/// A rung's arrivals: a fixed count per class (largest remainder), shuffled,
/// at Poisson times conditioned on the count over @p duration_s. The same
/// (seed, stream) gives the same schedule.
std::vector<Arrival> make_schedule(std::uint64_t seed, std::uint64_t stream, double rate,
                                   double duration_s);

/// Seeded input pools, one per hot class plus one for cold jobs.
struct MixInputs {
  std::vector<std::vector<jmh::la::Matrix>> pools;  ///< [class][input]; last = cold
  static constexpr std::size_t kPerClass = 8;
  static MixInputs make(std::uint64_t seed);
};

/// The spec string of an arrival. Cold jobs get a spec no other job of the
/// process uses (a max_sweeps value from @p cold_counter), so each one pays
/// plan compilation.
std::string arrival_spec(const Arrival& a, bool trace, std::uint64_t& cold_counter);
/// The input matrix of an arrival.
const jmh::la::Matrix& arrival_input(const MixInputs& in, const Arrival& a);

/// What one rung of the open loop measured.
struct RungOutcome {
  double rate = 0.0;
  std::size_t submitted = 0;
  std::size_t scheduled = 0;
  double served_rate = 0.0;        ///< jobs completed per second while the schedule ran
  std::vector<double> latency_ms;  ///< completion - due, per job; +inf when failed
  std::vector<double> lag_ms;      ///< submission - due, per job
  std::vector<double> queue_ms;    ///< report.timings.queue_ns, per served job
  std::vector<int> cls;            ///< class per job
  std::vector<std::size_t> input;  ///< input index per job
  bool early_stop = false;       ///< backlog passed the hard cap; rest not sent
  /// The mean backlog over the last third of the submissions exceeds the
  /// first third's by more than max(8, the arrivals of a quarter limit).
  bool backlog_growing = false;
  Tail tail;
  bool pass = false;
};

/// Drives one rung: sleeps to each arrival's due time, submits, and times
/// every job from its due time to completion (a collector thread polls the
/// futures). @p before_submit, when set, runs before job i is submitted
/// (the self-tests inject stalls there). Every result is gated after the
/// rung. The rung passes when no job failed, the tail latency is within
/// @p limit_ms and the backlog did not grow. @p counts, when set, collects
/// the served jobs' counts.
RungOutcome run_rung(jmh::svc::SolverService& service, const std::vector<Arrival>& schedule,
                     const MixInputs& inputs, double rate, double limit_ms, bool trace,
                     std::uint64_t& cold_counter, Gatekeeper& gate, SolveCounts* counts,
                     const std::function<void(std::size_t)>& before_submit = {});

/// The highest rate the service sustains within the limit (rungs in
/// ascending rate order): the mean served rate of the failing rungs above
/// the highest passing one (up to two), capped at the first one's arrival
/// rate. A saturated service serves at its capacity, so the figure moves
/// continuously with it instead of stepping from rung to rung. The top
/// rate when it passed.
double max_rate(const std::vector<RungOutcome>& rungs);

/// The rungs' jobs as one rung (passing only if every part passed).
RungOutcome pooled(const std::vector<RungOutcome>& parts);

}  // namespace perfbench
