// SolverService: the serving layer -- a worker pool over a bounded JobQueue
// with a shared PlanCache, turning the facade's one-at-a-time SolvePlan
// into a concurrent throughput system.
//
//   svc::SolverService service({.workers = 4});
//   auto f = service.submit("backend=inline,ordering=d4,m=32,d=2", a);
//   api::SolveReport r = f.get();         // bit-identical to plan.solve(a)
//   service.metrics();                    // jobs, cache hits, latency p99
//
// Design:
//  - submit() parses nothing and blocks only on queue backpressure; the
//    worker resolves the spec through the PlanCache (canonicalized key), so
//    repeated scenarios skip ordering search and plan compilation.
//  - Workers pull with JobQueue::pop_group, so a front run of same-spec
//    jobs is coalesced: one cache resolution, one sequential batch over the
//    run (the pool itself is the parallelism -- per-matrix numerics are
//    exactly plan.solve, so service results are bit-identical to direct
//    calls).
//  - The dispatchers are dedicated threads (they block indefinitely in
//    JobQueue::pop_group, so parking them on the shared pool would starve
//    it), but all COMPUTE they trigger -- the mpi-lite rank gangs inside
//    plan.solve -- draws from the one process-wide exec::ThreadPool, so
//    concurrent jobs interleave on a fixed worker set instead of
//    multiplying threads.
//  - Errors (malformed specs, infeasible plans, solve failures) surface
//    through the job's future; the service itself keeps running.
//  - shutdown() closes admission, drains every admitted job, and joins the
//    dispatchers; the destructor calls it. drain() waits for quiescence
//    without stopping the service.
//
// svc sits ABOVE api in the layer graph (svc -> api) and reaches the
// solvers only through api::SolvePlan; nothing below calls up into it.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.hpp"
#include "common/stats.hpp"
#include "obs/registry.hpp"
#include "svc/job_queue.hpp"
#include "svc/plan_cache.hpp"

namespace jmh::svc {

/// Deterministic service-level chaos (seed == 0 disables). Chaos is pure
/// service-plane interference -- stalled dispatchers and deadline storms --
/// decided per job by a seeded stateless hash, so a chaos run replays
/// exactly. Transport-plane faults (corruption, vote failures) live in the
/// spec's faults= key instead.
struct ChaosConfig {
  std::uint64_t seed = 0;
  double stall_rate = 0.05;        ///< P(dispatcher sleeps before a solve)
  std::uint64_t stall_ms = 20;     ///< stall length
  double storm_rate = 0.05;        ///< P(job gets a surprise tight deadline)
  std::uint64_t storm_deadline_ms = 1;  ///< the storm's imposed deadline
};

struct ServiceConfig {
  std::size_t workers = 0;         ///< worker threads; 0 = hardware pick
  std::size_t queue_capacity = 256;
  std::size_t cache_capacity = 64; ///< resident compiled plans (LRU)
  /// Max same-spec jobs one worker coalesces into a single plan resolution
  /// + batch execution (1 = no coalescing).
  std::size_t max_coalesce = 1;
  /// Best-effort resize of the process-wide exec::ThreadPool at service
  /// construction (0 = leave it alone). Applies only when the pool is fully
  /// idle -- the first configurator wins, mid-traffic requests are ignored
  /// (exec::ThreadPool::ensure_workers semantics).
  std::size_t pool_threads = 0;
  /// Retries for RETRYABLE failures (transport corruption) before the job's
  /// future fails. Each retry re-runs the full solve with the fault
  /// schedule's attempt counter bumped, after an exponential backoff.
  std::size_t max_retries = 2;
  std::uint64_t retry_backoff_ms = 1;  ///< first backoff; doubles per retry
  ChaosConfig chaos{};
};

/// A point-in-time counters snapshot. Latency covers queue wait + solve,
/// in seconds; count/mean/max are exact over every job finished so far,
/// quantiles are computed over a bounded window of recent completions
/// (the last SolverService::kLatencyWindow jobs), so a long-running
/// service neither grows without bound nor stalls on snapshot.
///
/// Snapshot consistency: the counters are lock-free atomics, so a snapshot
/// taken mid-traffic is not a single instant -- but the WRITE order (failed
/// before its taxonomy bucket; submitted before any completion) and the
/// READ order (taxonomy, then failed, then done, then submitted) are fixed
/// so that every snapshot satisfies
///   jobs_deadline + jobs_cancelled + jobs_corrupt + jobs_invalid <= jobs_failed
///   jobs_done + jobs_failed <= jobs_submitted
/// (jobs_shed also counts try_submit rejections, which never enter the
/// failed set, so it stays outside the first inequality). Machine-checked
/// under TSan by tests/test_svc_metrics_snapshot.cpp.
struct Metrics {
  std::uint64_t jobs_submitted = 0;
  std::uint64_t jobs_done = 0;     ///< fulfilled with a report
  std::uint64_t jobs_failed = 0;   ///< fulfilled with an exception
  std::uint64_t batches = 0;       ///< coalesced groups of >= 2 jobs executed
  /// Failure taxonomy (each failed job increments exactly one of these;
  /// jobs_shed additionally counts try_submit rejections, which never enter
  /// the failed set).
  std::uint64_t jobs_deadline = 0;   ///< DEADLINE_EXCEEDED (queue or solve)
  std::uint64_t jobs_cancelled = 0;  ///< CANCELLED (shutdown_now mid-flight)
  std::uint64_t jobs_corrupt = 0;    ///< TRANSPORT_CORRUPT after retries
  std::uint64_t jobs_invalid = 0;    ///< INVALID_INPUT / malformed specs
  std::uint64_t jobs_shed = 0;       ///< queue-full sheds + post-shutdown submits
  std::uint64_t retries = 0;         ///< solve re-runs after retryable faults
  std::uint64_t chaos_stalls = 0;    ///< injected dispatcher stalls
  std::uint64_t chaos_storms = 0;    ///< injected surprise deadlines
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::size_t queue_depth = 0;
  std::size_t queue_high_water = 0;
  std::size_t queue_capacity = 0;
  std::size_t workers = 0;
  std::uint64_t latency_count = 0;
  double latency_mean_s = 0.0;
  double latency_p50_s = 0.0;
  double latency_p90_s = 0.0;
  double latency_p99_s = 0.0;
  double latency_max_s = 0.0;

  /// Seconds each service dispatcher has spent executing job groups
  /// (index = dispatcher). Oversubscription vs interleaving shows up here:
  /// with the shared exec pool, dispatcher busy time is mostly waiting on
  /// pool-executed solves, and the pool columns below carry the real load.
  std::vector<double> worker_busy_s;
  /// Process-wide exec::ThreadPool observability.
  std::size_t pool_workers = 0;
  std::size_t pool_queue_high_water = 0;
  std::vector<double> pool_busy_s;  ///< per-pool-worker busy seconds

  /// Human-readable multi-line rendering (the driver's report section).
  std::string summary() const;
};

/// Per-submission options (the spec string carries the scenario; these are
/// per-call serving knobs).
struct SubmitOptions {
  /// End-to-end deadline in ms from submission, covering queue wait AND the
  /// solve (0 = none). Expired-in-queue jobs are shed without solving; a
  /// deadline that fires mid-solve cancels it at the next sweep boundary.
  /// Either way the future throws api::SolveError{DeadlineExceeded}.
  std::uint64_t deadline_ms = 0;
};

class SolverService {
 public:
  explicit SolverService(ServiceConfig config = {});

  /// shutdown(): drains admitted jobs, then joins the pool.
  ~SolverService();

  SolverService(const SolverService&) = delete;
  SolverService& operator=(const SolverService&) = delete;

  /// Enqueues one solve, blocking while the queue is full (backpressure).
  /// After shutdown the returned future holds api::SolveError{Shed} (a
  /// std::runtime_error). A non-finite @p a fails immediately with
  /// api::SolveError{InvalidInput} -- it never enters the queue.
  /// Spec validation happens on the worker: a malformed @p spec_text
  /// surfaces as std::invalid_argument through the future.
  std::future<api::SolveReport> submit(std::string spec_text, la::Matrix a,
                                       SubmitOptions opts = {});

  /// Non-blocking submit: std::nullopt when the queue is full or the
  /// service is shut down (load shedding). Non-finite inputs still return
  /// a future (already failed with InvalidInput): the input was examined,
  /// not shed.
  std::optional<std::future<api::SolveReport>> try_submit(std::string spec_text, la::Matrix a,
                                                          SubmitOptions opts = {});

  /// Blocks until every job submitted so far has been fulfilled. The
  /// service keeps accepting new work (call shutdown() to stop it).
  void drain();

  /// Closes admission, drains the queue, joins workers. Idempotent.
  /// Every ADMITTED job is still solved (graceful).
  void shutdown();

  /// Emergency stop: closes admission, cancels the service-wide token, and
  /// fails every still-queued job with api::SolveError{Cancelled} WITHOUT
  /// solving it. In-flight solves with an ARMED token (a deadline or a
  /// chaos storm) abort at their next sweep boundary with CANCELLED;
  /// deadline-less in-flight solves finish their current run (an inert
  /// token costs nothing and keeps plain jobs bit-identical to direct
  /// solves, so there is nothing to fire for them). Idempotent with
  /// shutdown(); whichever runs first decides the queued jobs' fate.
  void shutdown_now();

  Metrics metrics() const;
  const PlanCache& cache() const noexcept { return cache_; }

  /// Latency quantiles cover the most recent completions up to this many.
  static constexpr std::size_t kLatencyWindow = 16384;

 private:
  void worker_loop(std::size_t index);
  void record_done(double latency_s);
  void record_failed(api::SolveStatus status);
  /// Builds the failed future + counters for one job (promise first, counts
  /// second, so drain() returning implies every future is ready).
  void fail_job(Job& job, api::SolveStatus status, const std::string& what);
  void solve_group(std::vector<Job>& group, const api::SolvePlan& plan,
                   std::uint64_t first_chaos_index);

  ServiceConfig config_;
  PlanCache cache_;
  JobQueue queue_;
  std::vector<std::thread> workers_;
  /// Per-dispatcher busy nanoseconds (unique_ptr: atomics are immovable).
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> worker_busy_ns_;
  /// Root of every per-job cancel token; shutdown_now() fires it.
  common::CancelToken run_token_ = common::CancelToken::source();
  std::atomic<bool> killed_{false};       ///< shutdown_now: fail, don't solve
  std::atomic<std::uint64_t> chaos_index_{0};  ///< per-job chaos draw counter

  /// Guards the latency structures, stopped_, and the idle_cv_ handshake
  /// (counter writers take-and-release it empty before notifying, so
  /// drain()'s predicate check and its sleep cannot race an increment).
  mutable std::mutex state_mu_;
  std::condition_variable idle_cv_;  ///< signaled when done + failed catches up
  // Lifecycle counters: lock-free (default seq_cst) so metrics() never
  // contends with dispatch. Consistency is by ORDER, not by lock -- writers
  // bump failed_ BEFORE the taxonomy bucket and submitted_ before any
  // completion; metrics() reads taxonomy -> failed_ -> done_ -> submitted_
  // (see the Metrics doc for the invariants this yields).
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> done_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> deadline_{0};
  std::atomic<std::uint64_t> cancelled_{0};
  std::atomic<std::uint64_t> corrupt_{0};
  std::atomic<std::uint64_t> invalid_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> chaos_stalls_{0};
  std::atomic<std::uint64_t> chaos_storms_{0};
  RunningStats latency_stats_;          ///< exact count/mean/max, O(1) memory
  std::vector<double> latency_window_;  ///< ring of recent latencies (quantiles)
  std::size_t latency_next_ = 0;        ///< ring write position once full
  bool stopped_ = false;

  /// Process-wide obs::Registry mirrors, aggregated over every service
  /// instance in the process (the per-instance truth stays in the atomics
  /// above). References are safe: registry entries are never destroyed.
  obs::Counter& obs_submitted_;
  obs::Counter& obs_done_;
  obs::Counter& obs_failed_;
  obs::Counter& obs_deadline_;
  obs::Counter& obs_cancelled_;
  obs::Counter& obs_corrupt_;
  obs::Counter& obs_invalid_;
  obs::Counter& obs_shed_;
  obs::Counter& obs_retries_;
  obs::Counter& obs_chaos_stalls_;
  obs::Counter& obs_chaos_storms_;
  obs::Histogram& obs_latency_ns_;
};

}  // namespace jmh::svc
