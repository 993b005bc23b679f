#include "net/universe.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>

#include "api/solver.hpp"
#include "la/eigen_check.hpp"
#include "la/sym_gen.hpp"

namespace jmh::net {
namespace {

TEST(Universe, RunsEveryRankOnce) {
  Universe u(8);
  std::atomic<int> count{0};
  std::atomic<int> rank_mask{0};
  u.run([&](Comm& c) {
    ++count;
    rank_mask |= 1 << c.rank();
    EXPECT_EQ(c.size(), 8);
  });
  EXPECT_EQ(count.load(), 8);
  EXPECT_EQ(rank_mask.load(), 0xff);
}

TEST(Universe, PointToPoint) {
  Universe u(2);
  u.run([](Comm& c) {
    if (c.rank() == 0) {
      c.send(1, 3, Payload{1.5, 2.5});
      const Payload back = c.recv(1, 4);
      EXPECT_EQ(back, (Payload{4.0}));
    } else {
      const Payload got = c.recv(0, 3);
      EXPECT_EQ(got, (Payload{1.5, 2.5}));
      c.send_scalar(0, 4, 4.0);
    }
  });
}

TEST(Universe, SendrecvSwapsPayloads) {
  Universe u(2);
  u.run([](Comm& c) {
    const double mine = static_cast<double>(c.rank());
    const Payload got = c.sendrecv(1 - c.rank(), 0, std::span<const double>(&mine, 1));
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], static_cast<double>(1 - c.rank()));
  });
}

TEST(Universe, BarrierSynchronizes) {
  Universe u(4);
  std::atomic<int> before{0};
  std::atomic<bool> violated{false};
  u.run([&](Comm& c) {
    ++before;
    c.barrier();
    if (before.load() != 4) violated = true;
  });
  EXPECT_FALSE(violated.load());
}

TEST(Universe, RepeatedBarriers) {
  Universe u(3);
  u.run([](Comm& c) {
    for (int i = 0; i < 50; ++i) c.barrier();
  });
}

TEST(Universe, ExceptionPropagatesWithoutDeadlock) {
  // Other ranks block on a message that will never come; the poison
  // mechanism must wake them. With no delay the failure reaches them while
  // they spin; after 20 ms their spin budgets have run out and they have
  // parked.
  for (const int delay_ms : {0, 20}) {
    Universe u(4);
    EXPECT_THROW(u.run([&](Comm& c) {
      if (c.rank() == 2) {
        std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
        throw std::runtime_error("rank 2 failed");
      }
      c.recv(3, 999);
    }),
                 std::runtime_error)
        << "delay_ms=" << delay_ms;
  }
}

TEST(Universe, ExceptionInBarrierPropagates) {
  Universe u(3);
  EXPECT_THROW(u.run([](Comm& c) {
    if (c.rank() == 0) throw std::logic_error("boom");
    c.barrier();
  }),
               std::logic_error);
}

TEST(Universe, ReusableAfterFailure) {
  Universe u(2);
  EXPECT_THROW(u.run([](Comm&) { throw std::runtime_error("first"); }), std::runtime_error);
  std::atomic<int> ok{0};
  u.run([&](Comm& c) {
    c.barrier();
    ++ok;
  });
  EXPECT_EQ(ok.load(), 2);
}

TEST(Universe, ScalarHelpers) {
  Universe u(2);
  u.run([](Comm& c) {
    if (c.rank() == 0) {
      c.send_scalar(1, 0, 3.25);
    } else {
      EXPECT_EQ(c.recv_scalar(0, 0), 3.25);
    }
  });
}

TEST(Universe, ManyMessagesStressOrdering) {
  Universe u(2);
  u.run([](Comm& c) {
    constexpr int kN = 500;
    if (c.rank() == 0) {
      for (int i = 0; i < kN; ++i) c.send_scalar(1, 7, static_cast<double>(i));
    } else {
      for (int i = 0; i < kN; ++i) EXPECT_EQ(c.recv_scalar(0, 7), static_cast<double>(i));
    }
  });
}

// 16 ranks on a host with fewer cores: ranks are descheduled while their
// partners wait on them, so a receive whose spin held its core without
// yielding would starve the partner it waits for. Each rank runs ahead of
// its ring successor as far as scheduling lets it, and each round's two
// tags are received in reverse send order, so per-(source, tag) FIFO is
// exercised across a queue of other messages.
TEST(Universe, OversubscribedRingKeepsFifo) {
  constexpr int kRanks = 16;
  constexpr int kRounds = 2000;
  Universe u(kRanks);
  std::atomic<int> bad{0};
  u.run([&](Comm& c) {
    const int next = (c.rank() + 1) % kRanks;
    const int prev = (c.rank() + kRanks - 1) % kRanks;
    for (int r = 0; r < kRounds; ++r) {
      c.send_scalar(next, 0, static_cast<double>(r));
      c.send_scalar(next, 1, static_cast<double>(-r));
      if (c.recv_scalar(prev, 1) != static_cast<double>(-r)) ++bad;
      if (c.recv_scalar(prev, 0) != static_cast<double>(r)) ++bad;
    }
  });
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(u.stats().messages, std::uint64_t{2} * kRanks * kRounds);
}

// A d=3 mpi solve runs 8 ranks, twice the cores of a 4-core host,
// and must still match inline exactly as in the transport parity suite.
TEST(Universe, OversubscribedMpiSolveMatchesInline) {
  Xoshiro256 rng(31);
  const la::Matrix a = la::random_uniform_symmetric(32, rng);
  api::SolverSpec spec = api::SolverSpec::parse("ordering=minalpha,m=32,d=3");
  const api::SolveReport inline_r = api::Solver::plan(spec).solve(a);
  spec.backend = api::Backend::MpiLite;
  const api::SolveReport mpi_r = api::Solver::plan(spec).solve(a);
  ASSERT_TRUE(inline_r.converged);
  ASSERT_TRUE(mpi_r.converged);
  EXPECT_EQ(mpi_r.sweeps, inline_r.sweeps);
  EXPECT_LT(la::spectrum_distance(mpi_r.eigenvalues, inline_r.eigenvalues), 1e-12);
  EXPECT_LT(la::Matrix::max_abs_diff(mpi_r.eigenvectors, inline_r.eigenvectors), 1e-12);
}

TEST(Universe, RejectsBadRankCount) {
  EXPECT_THROW(Universe(0), std::invalid_argument);
}

}  // namespace
}  // namespace jmh::net
