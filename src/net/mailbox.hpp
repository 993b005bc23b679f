// Per-rank mailbox: the message-matching core of mpi_lite.
//
// Semantics mirror the MPI subset the solver needs: messages between a
// (source, destination) pair with equal tags are non-overtaking; recv
// returns the oldest message matching (source, tag), waiting for one if
// none is queued. Payloads are vectors of double -- everything the Jacobi
// solver communicates is column data or scalar reductions.
//
// The wait is a bounded spin-then-park rendezvous. Ranks of a gang answer
// each other within microseconds, so a futex sleep plus a cross-core
// wake-up per message would cost more than the exchange itself. A receive
// that misses first spins on the mailbox's arrival counter for a short,
// fixed time budget (20 us, a compile-time constant in mailbox.cpp),
// yielding the core through the second half of it so a descheduled
// partner can run on an oversubscribed host; only then does it park on the
// condition variable. deliver() notifies only when a receiver is actually
// parked, so the hot path makes no futex syscall.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

namespace jmh::net {

using Payload = std::vector<double>;

struct Message {
  int source = -1;
  int tag = 0;
  std::uint64_t seq = 0;  ///< per-(source,tag) sequence number, for tests
  Payload data;
};

/// Sentinel source used to poison a mailbox (wakes every receiver).
inline constexpr int kPoisonSource = -2;

class Mailbox {
 public:
  /// Enqueues a message; wakes receivers only if one is parked. A message
  /// with source == kPoisonSource matches *any* receive and is never
  /// consumed, so all present and future receivers observe it.
  void deliver(Message msg);

  /// Returns the oldest queued message with the given source and tag,
  /// spinning and then parking until one arrives. FIFO per (source, tag).
  Message receive(int source, int tag);

  /// Removes all queued messages (used when a Universe is reused).
  void clear();

  /// Non-blocking probe: true if a matching message is queued.
  bool probe(int source, int tag) const;

  /// Messages currently queued (any source/tag).
  std::size_t pending() const;

  /// Times a receive exhausted its spin budget and parked, since
  /// construction.
  std::uint64_t parks() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Message> queue_;
  int parked_ = 0;  ///< receivers waiting on cv_
  std::uint64_t parks_ = 0;
  /// Bumped by every deliver (under mu_); spinning receivers watch it
  /// without the lock.
  std::atomic<std::uint64_t> arrivals_{0};
};

}  // namespace jmh::net
