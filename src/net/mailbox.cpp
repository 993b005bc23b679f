#include "net/mailbox.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

namespace jmh::net {

namespace {

// Spin budget of a receive miss before it parks, bounded in time rather
// than in pause instructions (a pause lasts ~10 cycles on some cores and
// ~140 on others; aarch64's yield hint is close to a no-op). The receive
// polls the arrival counter with cpu_relax() and reads the clock once per
// kPollsPerClockRead polls; from kYieldAfter on it also gives up its core
// with std::this_thread::yield() between polls. A longer or yield-free spin
// holds a core that a descheduled partner needs. On a 4-vCPU host a 1 ms
// yield-free spin kept the median of small mpi solves but raised their p90
// 1.7-3.8x, and a 50 us budget raised it too, where 20 us lowered it
// (PERF.md).
constexpr auto kSpinBudget = std::chrono::microseconds(20);
constexpr auto kYieldAfter = kSpinBudget / 2;
constexpr int kPollsPerClockRead = 32;

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

/// Spins until @p arrivals moves past @p seen or the budget runs out.
void spin_for_arrival(const std::atomic<std::uint64_t>& arrivals, std::uint64_t seen) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  const Clock::time_point yield_from = start + kYieldAfter;
  const Clock::time_point deadline = start + kSpinBudget;
  for (;;) {
    for (int i = 0; i < kPollsPerClockRead; ++i) {
      if (arrivals.load(std::memory_order_relaxed) != seen) return;
      cpu_relax();
    }
    const Clock::time_point now = Clock::now();
    if (now >= deadline) return;
    if (now >= yield_from) std::this_thread::yield();
  }
}

}  // namespace

void Mailbox::deliver(Message msg) {
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(msg));
    arrivals_.fetch_add(1, std::memory_order_relaxed);
    wake = parked_ > 0;
  }
  // Several receivers may park on one mailbox (each on its own (source,
  // tag)), so a wake goes to all of them.
  if (wake) cv_.notify_all();
}

Message Mailbox::receive(int source, int tag) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    const auto it = std::find_if(queue_.begin(), queue_.end(), [&](const Message& m) {
      return m.source == source && m.tag == tag;
    });
    if (it != queue_.end()) {
      Message out = std::move(*it);
      queue_.erase(it);
      return out;
    }
    const auto poison = std::find_if(queue_.begin(), queue_.end(), [](const Message& m) {
      return m.source == kPoisonSource;
    });
    if (poison != queue_.end()) return *poison;  // copy: left queued for other receivers

    // Miss: every later deliver bumps arrivals_ under mu_, so comparing it
    // against `seen` detects any arrival since this scan. The spin only
    // watches the counter; the queue is read again under mu_.
    const std::uint64_t seen = arrivals_.load(std::memory_order_relaxed);
    lock.unlock();
    spin_for_arrival(arrivals_, seen);
    lock.lock();
    if (arrivals_.load(std::memory_order_relaxed) != seen) continue;
    ++parked_;
    ++parks_;
    cv_.wait(lock, [&] { return arrivals_.load(std::memory_order_relaxed) != seen; });
    --parked_;
  }
}

void Mailbox::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  queue_.clear();
}

bool Mailbox::probe(int source, int tag) const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::any_of(queue_.begin(), queue_.end(), [&](const Message& m) {
    return m.source == source && m.tag == tag;
  });
}

std::size_t Mailbox::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

std::uint64_t Mailbox::parks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return parks_;
}

}  // namespace jmh::net
