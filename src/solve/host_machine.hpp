// The mpi-lite machine of this host, measured: the Ts/Tw of the paper's
// cost model (pipe/machine.hpp) as real MpiLiteTransport exchanges see
// them, so pipeline=auto on backend=mpi plans against the machine it runs
// on instead of the simulated one.
//
// A 2-rank net::Universe gang ping-pongs serialized ColumnBlocks at two
// sizes. Each one-way trip is exactly a transition's work: serialize (copy
// plus wire checksum), the mailbox's wire copy, the receive, and the parse
// (checksum verification plus copy). The per-element parts land in Tw, the
// fixed part (mailbox hand-off, cross-core wake) in Ts.
#pragma once

#include <cstdint>

#include "pipe/machine.hpp"

namespace jmh::solve {

/// Wall-time cap of one calibration: the ping-pong stops taking samples
/// once half of it is spent, so the whole measurement, gang start included,
/// stays below it on a host that is not stalled.
inline constexpr std::uint64_t kHostCalibrationBudgetNs = 5'000'000;

struct HostCalibration {
  /// ts and tw in ns (tw per matrix element moved); all-port, as the
  /// mailbox has no per-link serialization. Both are finite and > 0.
  pipe::MachineParams machine;
  std::uint64_t cost_ns = 0;  ///< wall time the measurement took
};

/// The host's mpi-lite machine, measured on the first call and cached for
/// the life of the process (a function-local static, so concurrent first
/// callers block until the one measurement finishes). Each size's one-way
/// time is the median over batches of round trips, after a warm-up batch;
/// tw is the slope between the two sizes and ts the small size's
/// intercept.
const HostCalibration& host_calibration();

}  // namespace jmh::solve
