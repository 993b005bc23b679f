#include "solve/host_machine.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <numeric>
#include <vector>

#include "common/stats.hpp"
#include "net/universe.hpp"
#include "solve/jacobi_node.hpp"

namespace jmh::solve {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kRoundTripsPerBatch = 4;
constexpr int kWarmupBatches = 1;  // per size
constexpr int kMaxBatches = 24;    // per size, warm-up included

std::uint64_t ns_since(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
}

/// A block of @p ncols columns of @p rows-element B and V columns.
ColumnBlock probe_block(std::size_t ncols, std::size_t rows) {
  ColumnBlock blk;
  blk.rows = rows;
  blk.vrows = rows;
  blk.cols.resize(ncols);
  std::iota(blk.cols.begin(), blk.cols.end(), std::size_t{0});
  blk.b.assign(ncols * rows, 1.0);
  blk.v.assign(ncols * rows, 0.5);
  return blk;
}

HostCalibration measure() {
  const Clock::time_point t0 = Clock::now();
  // A one-column block (startup-dominated) and an 8 x 64 one (1024
  // elements, transfer-dominated: a few µs one way).
  const std::array<ColumnBlock, 2> probes = {probe_block(1, 8), probe_block(8, 64)};
  std::array<std::vector<double>, 2> one_way_ns;
  net::Universe universe(2);
  universe.run([&](net::Comm& comm) {
    constexpr int kTag = 0;
    net::Payload wire;
    ColumnBlock rx;
    if (comm.rank() == 1) {
      // Echo every block back until rank 0 sends the empty stop message.
      for (net::Payload got = comm.recv(0, kTag); !got.empty(); got = comm.recv(0, kTag)) {
        rx.assign_from(got);
        rx.serialize_into(wire);
        comm.send(0, kTag, std::span<const double>(wire));
      }
      return;
    }
    // Sizes alternate batch by batch so a drift in clock speed or load
    // hits both alike. Sampling stops at half the budget, once every size
    // has a timed batch.
    for (int batch = 0; batch < 2 * kMaxBatches; ++batch) {
      if (batch >= 2 * (kWarmupBatches + 1) && ns_since(t0) > kHostCalibrationBudgetNs / 2)
        break;
      const ColumnBlock& probe = probes[static_cast<std::size_t>(batch % 2)];
      const Clock::time_point b0 = Clock::now();
      for (int r = 0; r < kRoundTripsPerBatch; ++r) {
        probe.serialize_into(wire);
        comm.send(1, kTag, std::span<const double>(wire));
        rx.assign_from(comm.recv(1, kTag));
      }
      if (batch >= 2 * kWarmupBatches)
        one_way_ns[static_cast<std::size_t>(batch % 2)].push_back(
            static_cast<double>(ns_since(b0)) / (2.0 * kRoundTripsPerBatch));
    }
    comm.send(1, kTag, net::Payload{});
  });

  // The model's element count of a transition: the B and V data.
  const auto elems = [](const ColumnBlock& blk) {
    return static_cast<double>(blk.b.size() + blk.v.size());
  };
  const double t_small = quantile_of(one_way_ns[0], 0.5);
  const double t_big = quantile_of(one_way_ns[1], 0.5);
  // Floors keep the machine valid (finite, > 0) when noise inverts the
  // two medians; the optimizer then sees a startup-bound machine.
  const double tw = std::max((t_big - t_small) / (elems(probes[1]) - elems(probes[0])), 1e-3);
  const double ts = std::max(t_small - tw * elems(probes[0]), 1.0);
  return {pipe::MachineParams{ts, tw, pipe::MachineParams::kAllPort}, ns_since(t0)};
}

}  // namespace

const HostCalibration& host_calibration() {
  static const HostCalibration calibration = measure();
  return calibration;
}

}  // namespace jmh::solve
