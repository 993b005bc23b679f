// The per-layer record shared by the workloads: its emission in
// BENCHMARK.json order and the pieces every traced run fills alike.
#include <algorithm>

#include "micro.hpp"
#include "trace_stats.hpp"
#include "workloads.hpp"

namespace perfbench {

void LayerMetrics::emit(Result& out) const {
  out.add("host.triad_gbps", triad_gbps, "GB/s");
  out.add("la.gram3_gbps", gram3_gbps, "GB/s");
  out.add("la.fused_rotate_gbps", fused_rotate_gbps, "GB/s");
  out.add("la.kernel_bytes_per_solve", kernel_mb_per_solve, "MB");
  out.add("solve.sweeps", sweeps, "count");
  out.add("solve.rotations", rotations, "count");
  out.add("solve.sweep_self_ms", sweep_self_ms, "ms");
  out.add("solve.endpoint_imbalance", endpoint_imbalance, "ratio");
  out.add("solve.comm_share_pct", comm_share_pct, "%");
  out.add("exchange.transition_ms", transition_ms, "ms");
  out.add("exchange.recv_wait_ms", recv_wait_ms, "ms");
  out.add("vote.allreduce_ms", allreduce_ms, "ms");
  out.add("exchange.block_roundtrip_us", block_roundtrip_us, "us");
  out.add("exchange.messages", messages, "count");
  out.add("exchange.elements", elements, "count");
  out.add("exec.gang_admit_us", gang_admit_us, "us");
  out.add("exec.steals", steals, "count");
  out.add("exec.pool_busy_share", pool_busy_share, "ratio");
  out.add("plan.compile_ms", plan_compile_ms, "ms");
  out.add("pipe.q", pipe_q, "count");
  out.add("api.assemble_ms", assemble_ms, "ms");
  out.add("svc.queue_wait_p50_ms", queue_wait_p50_ms, "ms");
  out.add("svc.queue_wait_tail_ms", queue_wait_tail_ms, "ms");
  out.add("svc.cache_hit_ratio", cache_hit_ratio, "ratio");
  out.add("svc.coalesced_share", coalesced_share, "ratio");
  out.add("svc.queue_high_water", queue_high_water, "count");
  out.add("svc.dispatcher_busy_share", dispatcher_busy_share, "ratio");
  out.add("obs.trace_overhead_pct", trace_overhead_pct, "%");
  out.add("obs.dropped_events", dropped_events, "count");
  out.add("bench.generator_lag_ms", generator_lag_ms, "ms");
}

std::string LayerMetrics::fill_from(const TraceLedger& ledger) {
  sweep_self_ms = ledger.self_ms_per_op("sweep");
  transition_ms = ledger.total_ms_per_op("transition");
  recv_wait_ms = ledger.total_ms_per_op("exchange.recv");
  allreduce_ms = ledger.total_ms_per_op("allreduce.init") + ledger.total_ms_per_op("allreduce.vote");
  gang_admit_us = ledger.total_ms_per_op("exec.gang_admit") * 1e3;
  steals = ledger.count_per_op("exec.steal");
  assemble_ms = ledger.self_ms_per_op("assemble");
  // allreduce.init runs before the first sweep, outside the sweep spans.
  const double sweep_ms = ledger.total_ms_per_op("sweep");
  const double comm_ms = transition_ms + recv_wait_ms + ledger.total_ms_per_op("allreduce.vote");
  comm_share_pct = sweep_ms > 0 ? 100.0 * comm_ms / sweep_ms : 0.0;
  return format("comm share = (transition + exchange.recv + allreduce.vote) %.4f / sweep %.4f "
                "CPU ms per op", comm_ms, sweep_ms);
}

void SolveCounts::add(const jmh::api::SolveReport& report, std::size_t core_rows,
                      std::size_t core_cols) {
  solves += 1;
  sweeps += report.sweeps;
  rotations += static_cast<double>(report.rotations);
  messages += static_cast<double>(report.comm.messages);
  elements += static_cast<double>(report.comm.elements);
  kernel_bytes += perfbench::kernel_bytes(core_rows, core_cols, report);
}

void SolveCounts::fill(LayerMetrics& layers) const {
  const double n = std::max(1.0, solves);
  layers.kernel_mb_per_solve = kernel_bytes / n * 1e-6;
  layers.sweeps = sweeps / n;
  layers.rotations = rotations / n;
  layers.messages = messages / n;
  layers.elements = elements / n;
}

double busy_share(const std::vector<double>& before, const std::vector<double>& after,
                  double wall_s) {
  double busy = 0.0;
  for (std::size_t i = 0; i < after.size() && i < before.size(); ++i) busy += after[i] - before[i];
  return after.empty() || wall_s <= 0 ? 0.0 : busy / (static_cast<double>(after.size()) * wall_s);
}

}  // namespace perfbench
