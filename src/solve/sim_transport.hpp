// SimTransport: InlineTransport numerics plus a modeled clock. Every block
// move of the sweep protocol is also executed as a stage on the sim/ event
// network, so a solve reports the per-link communication time the paper's
// machine model (pipe::MachineParams) predicts for it -- the simulated
// CC-cube scenario of the paper's Figure 2 methodology, directly
// cross-checkable against the analytical pipe/cost_model closed forms.
//
// Charged per sweep:
//   * one stage per transition (exchange, division, last transition), each
//     node sending the block it actually ships (2 * rows * ncols elements:
//     the B and V columns; serialization headers are not part of the
//     machine model) -- or, with pipelined_q >= 1, the pipelined stage
//     schedule of each exchange phase at degree q;
//   * the recursive-doubling convergence vote (d stages of a small packed
//     message), which the analytical model omits -- kept separately
//     inspectable via vote_time.
// Numerics are identical to InlineTransport in both modes: pipelining
// changes the modeled schedule, not which column pairs meet.
#pragma once

#include <cstdint>

#include "pipe/machine.hpp"
#include "sim/network.hpp"
#include "solve/inline_transport.hpp"

namespace jmh::solve {

/// The modeled machine a SimTransport charges; the numerics take their
/// options from the SolveOptions passed to the sweep engine.
struct SimSolveOptions {
  pipe::MachineParams machine;     ///< ts/tw/ports charged per message
  bool overlap_startup = false;    ///< see sim::SimConfig
  /// 0 = charge exchange phases as full-block transitions; q >= 1 = charge
  /// them as pipelined schedules with q packets per block.
  std::uint64_t pipelined_q = 0;
};

class SimTransport : public InlineTransport {
 public:
  SimTransport(const la::Matrix& a, int d, const SimSolveOptions& opts);

  void apply_transition(const ord::Transition& t, std::uint64_t step) override;
  SweepStats run_phase(const PhaseContext& ctx) override;
  std::vector<double> allreduce_sum(std::vector<double> values) override;
  void allreduce_sum(std::span<double> values) override;

  double modeled_time() const noexcept { return clock_.makespan; }
  double vote_time() const noexcept { return vote_time_; }
  int modeled_sweeps() const noexcept { return modeled_sweeps_; }
  const sim::SimResult& clock() const noexcept { return clock_; }

  /// Charging modeled time allocates event-queue and trace bookkeeping
  /// every sweep -- that is the simulator's ledger, not endpoint work, so
  /// the engine's steady-state allocation audit does not apply here.
  bool steady_state_alloc_free() const noexcept override { return false; }

 private:
  void charge_vote(std::size_t num_values);

  sim::Network network_;
  std::uint64_t pipelined_q_;
  sim::SimResult clock_;
  double vote_time_ = 0.0;
  int modeled_sweeps_ = 0;
  bool charge_transitions_ = true;  // suppressed while a phase charges itself
};

}  // namespace jmh::solve
