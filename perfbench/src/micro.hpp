// Layer micro-timings the traced run reports beside the trace: the la
// kernels at a workload's column length, the block exchange round trip at
// its block size, plan compilation, and the host's STREAM-triad roofline.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "api/report.hpp"
#include "api/spec.hpp"

namespace perfbench {

/// Median GB/s of la::kernels::gram3 over every column pair of an
/// n x cols panel (16 n bytes read per call), timed for about @p budget_s.
double gram3_gbps(std::size_t n, std::size_t cols, double budget_s);

/// Median GB/s of la::kernels::fused_rotate over the same pairs of a (B, V)
/// panel pair (4 columns read and written: 64 n bytes per call).
double fused_rotate_gbps(std::size_t n, std::size_t cols, double budget_s);

/// Median microseconds of one ColumnBlock::serialize_into + assign_from
/// round trip (pack, FNV checksum, verify, unpack) of a block of @p cols
/// columns with @p rows B rows and @p rows V rows.
double block_roundtrip_us(std::size_t rows, std::size_t cols, double budget_s);

/// Median milliseconds of a whole api::Solver::plan call (ordering build
/// included) over @p reps compilations of each spec in @p specs.
double plan_compile_ms(const std::vector<jmh::api::SolverSpec>& specs, int reps);

struct LayerMetrics;
struct TraceLedger;

/// The traced run's micro-timing phase, with the recorder armed and
/// @p ledger drained after each timing: gram3 and fused_rotate at column
/// length @p n over a @p panel_cols panel, the block round trip at
/// @p n x @p block_cols, and plan compilation of @p specs. Fills the
/// matching @p layers fields; @p budget_s is the whole phase's time.
void run_layer_micro(std::size_t n, std::size_t panel_cols, std::size_t block_cols,
                     const std::vector<jmh::api::SolverSpec>& specs, double budget_s,
                     LayerMetrics& layers, TraceLedger& ledger);

/// Bytes the la kernels move in one solve, computed from its counts: gram3
/// reads two B columns (@p core_rows each) per pair visit -- every pair of
/// the @p core_cols columns, every sweep including the final rotation-free
/// one -- and fused_rotate reads and writes two B and two V columns
/// (@p core_cols each) per rotation.
double kernel_bytes(std::size_t core_rows, std::size_t core_cols,
                    const jmh::api::SolveReport& report);

/// Single-thread STREAM triad a = b + s c over arrays whose total size is
/// at least 4x the last-level cache.
struct Triad {
  double gbps = 0.0;          ///< median over repetitions, 24 bytes per element
  std::size_t llc_bytes = 0;  ///< largest cache level found in sysfs
  std::size_t array_bytes = 0;  ///< per array (three arrays)
};
Triad run_triad();

}  // namespace perfbench
