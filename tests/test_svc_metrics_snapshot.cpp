// svc::Metrics snapshot consistency: the counters are lock-free atomics,
// and the documented write order (failed before its taxonomy bucket,
// submitted before any completion) plus read order (taxonomy, then failed,
// then done, then submitted) guarantee that EVERY snapshot -- however racy
// the traffic -- satisfies
//   jobs_deadline + jobs_cancelled + jobs_corrupt + jobs_invalid <= jobs_failed
//   jobs_done + jobs_failed <= jobs_submitted
// This suite hammers those invariants from a concurrent reader while
// workers churn through a success / invalid-spec / tight-deadline job mix.
// Run under TSan (the CI sanitizer job includes it) to machine-check the
// atomics discipline, not just the arithmetic.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "la/sym_gen.hpp"
#include "svc/service.hpp"

namespace jmh::svc {
namespace {

la::Matrix test_matrix(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  return la::random_uniform_symmetric(n, rng);
}

void expect_invariants(const Metrics& m, const char* when) {
  EXPECT_LE(m.jobs_deadline + m.jobs_cancelled + m.jobs_corrupt + m.jobs_invalid,
            m.jobs_failed)
      << when << ": taxonomy buckets exceeded the failed total";
  EXPECT_LE(m.jobs_done + m.jobs_failed, m.jobs_submitted)
      << when << ": completions exceeded submissions";
}

TEST(MetricsSnapshot, InvariantsHoldUnderConcurrentReads) {
  SolverService service({.workers = 2, .queue_capacity = 16});

  // The reader: snapshot as fast as possible for the whole traffic burst.
  // Under TSan this is the machine check that metrics() tears nothing.
  // `started` is raised after the reader's first snapshot, and the traffic
  // waits for it: on a loaded host the short burst could otherwise drain
  // before the reader thread is ever scheduled.
  std::atomic<bool> stop{false};
  std::atomic<bool> started{false};
  std::atomic<std::uint64_t> snapshots{0};
  std::thread reader([&] {
    do {
      expect_invariants(service.metrics(), "mid-traffic");
      snapshots.fetch_add(1, std::memory_order_relaxed);
      started.store(true, std::memory_order_release);
    } while (!stop.load(std::memory_order_relaxed));
  });
  while (!started.load(std::memory_order_acquire)) std::this_thread::yield();

  // Mixed traffic: successes, malformed specs (-> jobs_invalid under
  // jobs_failed), and 1 ms deadlines on real solves (some expire in queue
  // or mid-solve -> jobs_deadline, some still succeed -- both legal).
  const std::string good = "backend=inline,ordering=d4,m=16,d=2";
  const std::string bad = "backend=inline,ordering=d4,m=16,d=2,zzz=1";
  std::vector<std::future<api::SolveReport>> futures;
  futures.reserve(90);
  for (int round = 0; round < 30; ++round) {
    futures.push_back(service.submit(good, test_matrix(16, 100 + round)));
    futures.push_back(service.submit(bad, test_matrix(16, 200 + round)));
    futures.push_back(
        service.submit(good, test_matrix(16, 300 + round), {.deadline_ms = 1}));
  }
  service.drain();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_GT(snapshots.load(), 0u);

  for (auto& f : futures) {
    try {
      (void)f.get();
    } catch (const std::exception&) {
      // Failure class already audited through the metrics taxonomy.
    }
  }

  // Quiescent totals: exact accounting once the traffic has drained.
  const Metrics m = service.metrics();
  expect_invariants(m, "quiescent");
  EXPECT_EQ(m.jobs_submitted, 90u);
  EXPECT_EQ(m.jobs_done + m.jobs_failed, 90u);
  EXPECT_GE(m.jobs_invalid, 30u) << "every malformed spec must land in jobs_invalid";
  EXPECT_EQ(m.jobs_deadline + m.jobs_cancelled + m.jobs_corrupt + m.jobs_invalid,
            m.jobs_failed)
      << "quiescent: every failed job carries exactly one taxonomy bucket";
}

// shutdown_now cancels in-flight work: cancellations must flow through the
// same ordered taxonomy (cancelled <= failed) under a racing reader.
TEST(MetricsSnapshot, InvariantsHoldAcrossAbruptShutdown) {
  auto service = std::make_unique<SolverService>(
      ServiceConfig{.workers = 2, .queue_capacity = 32});
  const std::string spec = "backend=inline,ordering=d4,m=32,d=2";
  std::vector<std::future<api::SolveReport>> futures;
  futures.reserve(24);
  for (int i = 0; i < 24; ++i)
    futures.push_back(service->submit(spec, test_matrix(32, 1000 + i)));

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed))
      expect_invariants(service->metrics(), "during shutdown_now");
  });
  service->shutdown_now();
  const Metrics m = service->metrics();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  service.reset();

  expect_invariants(m, "after shutdown_now");
  for (auto& f : futures) {
    try {
      (void)f.get();
    } catch (const std::exception&) {
    }
  }
}

}  // namespace
}  // namespace jmh::svc
