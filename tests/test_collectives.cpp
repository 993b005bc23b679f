#include "net/collectives.hpp"

#include <gtest/gtest.h>

namespace jmh::net {
namespace {

TEST(Collectives, AllreduceSumPow2) {
  Universe u(8);
  u.run([](Comm& c) {
    const double total = allreduce_sum(c, static_cast<double>(c.rank()));
    EXPECT_DOUBLE_EQ(total, 28.0);  // 0+..+7
  });
}

TEST(Collectives, AllreduceSumNonPow2) {
  Universe u(5);
  u.run([](Comm& c) {
    const double total = allreduce_sum(c, 1.0);
    EXPECT_DOUBLE_EQ(total, 5.0);
  });
}

TEST(Collectives, AllreduceMax) {
  Universe u(4);
  u.run([](Comm& c) {
    const double mx = allreduce_max(c, static_cast<double>(c.rank() * c.rank()));
    EXPECT_DOUBLE_EQ(mx, 9.0);
  });
}

TEST(Collectives, AllreduceAnd) {
  Universe u(4);
  u.run([](Comm& c) {
    EXPECT_TRUE(allreduce_and(c, true));
    EXPECT_FALSE(allreduce_and(c, c.rank() != 2));
    EXPECT_FALSE(allreduce_and(c, false));
  });
}

TEST(Collectives, GathervConcatenatesInRankOrderOnRankZero) {
  Universe u(4);
  u.run([](Comm& c) {
    // Rank r contributes r+1 copies of r.
    std::vector<double> mine(static_cast<std::size_t>(c.rank() + 1),
                             static_cast<double>(c.rank()));
    const auto all = gatherv(c, mine);
    if (c.rank() != 0) {
      EXPECT_TRUE(all.empty());
      return;
    }
    ASSERT_EQ(all.size(), 10u);  // 1+2+3+4
    std::size_t pos = 0;
    for (int r = 0; r < 4; ++r)
      for (int i = 0; i <= r; ++i) EXPECT_EQ(all[pos++], static_cast<double>(r));
  });
  // One message per non-root rank: nothing is sent back.
  EXPECT_EQ(u.stats().messages, 3u);
}

TEST(Collectives, GathervEmptyContributions) {
  Universe u(3);
  u.run([](Comm& c) {
    std::vector<double> mine;
    if (c.rank() == 1) mine = {5.0};
    const auto all = gatherv(c, mine);
    if (c.rank() != 0) return;
    ASSERT_EQ(all.size(), 1u);
    EXPECT_EQ(all[0], 5.0);
  });
}

TEST(Collectives, Broadcast) {
  Universe u(4);
  u.run([](Comm& c) {
    std::vector<double> data;
    if (c.rank() == 2) data = {1.0, 2.0, 3.0};
    const auto got = broadcast(c, 2, data);
    EXPECT_EQ(got, (std::vector<double>{1.0, 2.0, 3.0}));
  });
}

TEST(Collectives, BroadcastRejectsBadRoot) {
  Universe u(2);
  EXPECT_THROW(u.run([](Comm& c) { broadcast(c, 5, std::vector<double>{}); }),
               std::invalid_argument);
}

TEST(Collectives, RepeatedAllreducesStayConsistent) {
  Universe u(8);
  u.run([](Comm& c) {
    for (int round = 0; round < 20; ++round) {
      const double total = allreduce_sum(c, static_cast<double>(round));
      EXPECT_DOUBLE_EQ(total, 8.0 * round);
    }
  });
}

}  // namespace
}  // namespace jmh::net
