// The three workloads and the layer-metric record they share.
//
//   dense_evd    closed loop, one caller, m = 256 mpi plan vs inline
//   small_evd    the same loop at m = 32
//   service_mix  open loop into svc::SolverService over a rate ladder
//
// README.md in this directory gives each workload's reason, the rate
// ladder, the latency limit and the metric-to-layer map.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/report.hpp"
#include "common.hpp"
#include "la/matrix.hpp"

namespace perfbench {

struct TraceLedger;

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Every per-layer metric of the traced run, in BENCHMARK.json order. A
/// workload whose path does not include a layer leaves its fields at 0
/// (and says so in a note): no svc on the closed loops, no generator.
struct LayerMetrics {
  double triad_gbps = 0;  // host roofline, measured after the workload
  double gram3_gbps = 0, fused_rotate_gbps = 0, kernel_mb_per_solve = 0;
  double sweeps = 0, rotations = 0, sweep_self_ms = 0, endpoint_imbalance = 0;
  double comm_share_pct = 0;
  double transition_ms = 0, recv_wait_ms = 0, allreduce_ms = 0, block_roundtrip_us = 0;
  double messages = 0, elements = 0;
  double gang_admit_us = 0, steals = 0, pool_busy_share = 0;
  double plan_compile_ms = 0, pipe_q = 0;
  double assemble_ms = 0;
  double queue_wait_p50_ms = 0, queue_wait_tail_ms = 0, cache_hit_ratio = 0;
  double coalesced_share = 0, queue_high_water = 0, dispatcher_busy_share = 0;
  double trace_overhead_pct = 0, dropped_events = 0;
  double generator_lag_ms = 0;

  void emit(Result& out) const;
  /// The span-derived fields, per traced operation of @p ledger; returns
  /// the comm share's base line ("... / sweep ... CPU ms per op").
  std::string fill_from(const TraceLedger& ledger);
};

/// Per-solve counts from reports, summed over the traced run's solves.
struct SolveCounts {
  double solves = 0, sweeps = 0, rotations = 0, messages = 0, elements = 0, kernel_bytes = 0;
  /// Adds one report of a solve whose core is @p core_rows x @p core_cols.
  void add(const jmh::api::SolveReport& report, std::size_t core_rows, std::size_t core_cols);
  /// Per-solve means into @p layers.
  void fill(LayerMetrics& layers) const;
};

/// busy / (threads x wall) from two per-thread busy-seconds snapshots.
double busy_share(const std::vector<double>& before, const std::vector<double>& after,
                  double wall_s);

/// The closed loops' input ring: @p count seeded uniform symmetric m x m
/// matrices.
std::vector<jmh::la::Matrix> make_ring(std::uint64_t seed, std::size_t m, std::size_t count);

/// Each workload returns its end-to-end metrics (trace = 0) or fills
/// @p layers (trace = 1); main() adds the roofline and prints.
Result run_closed_loop(const RunArgs& args, std::size_t m, LayerMetrics& layers);
Result run_service_mix(const RunArgs& args, LayerMetrics& layers);

/// The benchmark's self-tests (determinism of inputs and schedules, due-time
/// latency under an injected stall, backlog detection). Returns 0 on pass.
int run_selftest();

}  // namespace perfbench
