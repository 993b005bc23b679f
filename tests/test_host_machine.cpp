// The measured mpi-lite machine (solve/host_machine.hpp): a valid
// pipe::MachineParams, measured once per process within its time budget.
#include "solve/host_machine.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "exec/thread_pool.hpp"

namespace jmh::solve {
namespace {

TEST(HostCalibration, MeasuresAValidMachineOnceWithinBudget) {
  // The exec pool's thread start-up belongs to the process (the first mpi
  // solve pays it either way), not to the calibration: start it first.
  exec::ThreadPool::global();
  const HostCalibration& first = host_calibration();
  EXPECT_TRUE(std::isfinite(first.machine.ts));
  EXPECT_TRUE(std::isfinite(first.machine.tw));
  EXPECT_GT(first.machine.ts, 0.0);
  EXPECT_GT(first.machine.tw, 0.0);
  EXPECT_TRUE(first.machine.all_port());
  EXPECT_GT(first.cost_ns, 0u);
  EXPECT_LE(first.cost_ns, kHostCalibrationBudgetNs);

  // Cached: the second call returns the same measurement, not a new one.
  const HostCalibration& second = host_calibration();
  EXPECT_EQ(&second, &first);
  EXPECT_EQ(second.machine, first.machine);
  EXPECT_EQ(second.cost_ns, first.cost_ns);
}

}  // namespace
}  // namespace jmh::solve
