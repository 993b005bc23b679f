#include "net/mailbox.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

namespace jmh::net {
namespace {

TEST(Mailbox, DeliverThenReceive) {
  Mailbox mb;
  mb.deliver({1, 7, 0, {1.0, 2.0}});
  const Message m = mb.receive(1, 7);
  EXPECT_EQ(m.source, 1);
  EXPECT_EQ(m.tag, 7);
  EXPECT_EQ(m.data, (Payload{1.0, 2.0}));
  EXPECT_EQ(mb.pending(), 0u);
}

TEST(Mailbox, MatchingBySourceAndTag) {
  Mailbox mb;
  mb.deliver({1, 5, 0, {1.0}});
  mb.deliver({2, 5, 0, {2.0}});
  mb.deliver({1, 6, 0, {3.0}});
  EXPECT_EQ(mb.receive(1, 6).data[0], 3.0);
  EXPECT_EQ(mb.receive(2, 5).data[0], 2.0);
  EXPECT_EQ(mb.receive(1, 5).data[0], 1.0);
}

TEST(Mailbox, FifoPerSourceTag) {
  Mailbox mb;
  mb.deliver({0, 1, 0, {10.0}});
  mb.deliver({0, 1, 1, {20.0}});
  EXPECT_EQ(mb.receive(0, 1).data[0], 10.0);
  EXPECT_EQ(mb.receive(0, 1).data[0], 20.0);
}

TEST(Mailbox, Probe) {
  Mailbox mb;
  EXPECT_FALSE(mb.probe(0, 0));
  mb.deliver({0, 0, 0, {}});
  EXPECT_TRUE(mb.probe(0, 0));
  EXPECT_FALSE(mb.probe(0, 1));
  EXPECT_FALSE(mb.probe(1, 0));
}

// Blocks until @p mb has recorded @p n parks (a receiver is then waiting on
// the condition variable: parks are counted under the mailbox lock).
void wait_for_parks(const Mailbox& mb, std::uint64_t n) {
  while (mb.parks() < n) std::this_thread::sleep_for(std::chrono::microseconds(100));
}

TEST(Mailbox, DeliveryInsideSpinWindowDoesNotPark) {
  // The sender delivers as soon as it sees the receiver enter receive(),
  // microseconds inside the spin budget. A descheduled sender can still
  // miss the window now and then, so the bound is a majority, not all; a
  // receive that parks on every miss would record one park per round.
  constexpr int kRounds = 200;
  Mailbox mb;
  std::atomic<int> entering{-1};
  std::thread sender([&] {
    for (int i = 0; i < kRounds; ++i) {
      while (entering.load(std::memory_order_acquire) != i) std::this_thread::yield();
      mb.deliver({1, 2, 0, {static_cast<double>(i)}});
    }
  });
  for (int i = 0; i < kRounds; ++i) {
    entering.store(i, std::memory_order_release);
    EXPECT_EQ(mb.receive(1, 2).data[0], static_cast<double>(i));
  }
  sender.join();
  EXPECT_LT(mb.parks(), static_cast<std::uint64_t>(kRounds / 2));
}

TEST(Mailbox, BlockingReceiveWakesOnDelivery) {
  Mailbox mb;
  std::thread sender([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    wait_for_parks(mb, 1);  // 20 ms is far past the spin budget
    mb.deliver({3, 9, 0, {42.0}});
  });
  const Message m = mb.receive(3, 9);
  sender.join();
  EXPECT_EQ(m.data[0], 42.0);
  EXPECT_EQ(mb.parks(), 1u);
}

TEST(Mailbox, PoisonWakesSpinningAndParkedReceivers) {
  // What Universe::poison does to each mailbox: one poison delivery must
  // release a receiver already parked and one still spinning.
  Mailbox mb;
  int parked_source = 0;
  int spinning_source = 0;
  std::thread parked([&] { parked_source = mb.receive(1, 1).source; });
  wait_for_parks(mb, 1);
  std::atomic<bool> entering{false};
  std::thread spinning([&] {
    entering.store(true, std::memory_order_release);
    spinning_source = mb.receive(2, 2).source;
  });
  while (!entering.load(std::memory_order_acquire)) std::this_thread::yield();
  mb.deliver({kPoisonSource, 0, 0, {}});
  parked.join();
  spinning.join();
  EXPECT_EQ(parked_source, kPoisonSource);
  EXPECT_EQ(spinning_source, kPoisonSource);
}

TEST(Mailbox, PingPongKeepsFifoPerSourceAndTag) {
  // Two threads bounce 100k messages over two tags. Each round sends two
  // messages per tag and receives them tag 2 first, so matching must skip
  // queued messages of the other tag and still hand out each (source, tag)
  // stream in send order.
  constexpr int kRounds = 12'500;  // x 8 messages per round
  Mailbox to_b;
  Mailbox to_a;
  const auto send_round = [](Mailbox& mb, int source, int round) {
    for (int k = 0; k < 2; ++k)
      for (int tag = 1; tag <= 2; ++tag)
        mb.deliver({source, tag, 0, {static_cast<double>(2 * round + k)}});
  };
  const auto check_round = [](Mailbox& mb, int source, int round) {
    int bad = 0;
    for (int tag = 2; tag >= 1; --tag)
      for (int k = 0; k < 2; ++k)
        if (mb.receive(source, tag).data[0] != static_cast<double>(2 * round + k)) ++bad;
    return bad;
  };
  int bad_at_b = 0;
  std::thread b([&] {
    for (int r = 0; r < kRounds; ++r) {
      bad_at_b += check_round(to_b, 0, r);
      send_round(to_a, 1, r);
    }
  });
  int bad_at_a = 0;
  for (int r = 0; r < kRounds; ++r) {
    send_round(to_b, 0, r);
    bad_at_a += check_round(to_a, 1, r);
  }
  b.join();
  EXPECT_EQ(bad_at_a, 0);
  EXPECT_EQ(bad_at_b, 0);
  EXPECT_EQ(to_a.pending(), 0u);
  EXPECT_EQ(to_b.pending(), 0u);
}

TEST(Mailbox, PoisonMatchesAnyReceive) {
  Mailbox mb;
  mb.deliver({kPoisonSource, 0, 0, {}});
  const Message m = mb.receive(5, 123);
  EXPECT_EQ(m.source, kPoisonSource);
  // Poison stays queued for further receivers.
  EXPECT_EQ(mb.receive(6, 7).source, kPoisonSource);
}

TEST(Mailbox, ClearEmpties) {
  Mailbox mb;
  mb.deliver({0, 0, 0, {}});
  mb.deliver({1, 0, 0, {}});
  mb.clear();
  EXPECT_EQ(mb.pending(), 0u);
}

TEST(Mailbox, ConcurrentDeliveries) {
  Mailbox mb;
  constexpr int kPerThread = 200;
  std::thread a([&] {
    for (int i = 0; i < kPerThread; ++i) mb.deliver({0, 1, 0, {static_cast<double>(i)}});
  });
  std::thread b([&] {
    for (int i = 0; i < kPerThread; ++i) mb.deliver({1, 1, 0, {static_cast<double>(i)}});
  });
  a.join();
  b.join();
  // FIFO per source must be preserved under concurrency.
  for (int i = 0; i < kPerThread; ++i) {
    EXPECT_EQ(mb.receive(0, 1).data[0], static_cast<double>(i));
    EXPECT_EQ(mb.receive(1, 1).data[0], static_cast<double>(i));
  }
}

}  // namespace
}  // namespace jmh::net
