#include "solve/sim_transport.hpp"

#include "sim/programs.hpp"

namespace jmh::solve {

namespace {

sim::SimConfig make_config(const SimSolveOptions& opts) {
  sim::SimConfig config;
  config.machine = opts.machine;
  config.overlap_startup = opts.overlap_startup;
  return config;
}

/// Elements of the B and V columns a block ships (headers excluded: the
/// machine model charges matrix data, matching pipe::ProblemParams). For
/// square inputs rows == vrows and this is exactly the historical
/// 2 * rows * ncols.
double block_elems(const ColumnBlock& blk) {
  return static_cast<double>(blk.rows + blk.vrows) * static_cast<double>(blk.num_cols());
}

}  // namespace

SimTransport::SimTransport(const la::Matrix& a, int d, const SimSolveOptions& opts)
    : InlineTransport(a, d), network_(d, make_config(opts)), pipelined_q_(opts.pipelined_q) {}

void SimTransport::apply_transition(const ord::Transition& t, std::uint64_t step) {
  if (charge_transitions_) {
    const cube::Node bit = cube::Node{1} << t.link;
    std::vector<sim::NodeStage> stage(nodes_.size());
    for (cube::Node n = 0; n < nodes_.size(); ++n) {
      const bool sends_fixed = t.division && (n & bit) != 0;
      const ColumnBlock& out = sends_fixed ? nodes_[n].fixed() : nodes_[n].mobile();
      stage[n] = {{t.link, block_elems(out)}};
    }
    network_.accumulate_stage(stage, clock_);
  }
  InlineTransport::apply_transition(t, step);
}

SweepStats SimTransport::run_phase(const PhaseContext& ctx) {
  if (ctx.phase.first_step == 0) ++modeled_sweeps_;
  if (pipelined_q_ == 0 || ctx.phase.type != ord::PhaseInfo::Type::Exchange)
    return Transport::run_phase(ctx);

  // Charge the phase as its pipelined stage schedule (uniform model block
  // size, as in pipe/cost_model), then run the numerics uncharged --
  // pipelining reschedules the messages, it does not change which column
  // pairs meet.
  std::vector<ord::Link> links;
  links.reserve(ctx.phase.num_steps);
  for (std::size_t t = 0; t < ctx.phase.num_steps; ++t)
    links.push_back(ctx.transitions[ctx.phase.first_step + t].link);
  // Uniform model block size: (B rows + V rows) elements per column. For
  // square inputs rows == m, giving exactly the historical 2 * m * cols.
  const double m = static_cast<double>(layout_.m());
  const double col_elems = static_cast<double>(nodes_.front().fixed().rows) + m;
  const double step_elems = col_elems * (m / static_cast<double>(layout_.num_blocks()));
  const sim::Program program =
      sim::build_pipelined_links_program(links, pipelined_q_, step_elems, dimension());
  for (const auto& stage : program) network_.accumulate_stage(stage, clock_);

  charge_transitions_ = false;
  SweepStats stats = Transport::run_phase(ctx);
  charge_transitions_ = true;
  return stats;
}

void SimTransport::charge_vote(std::size_t num_values) {
  // Single owner: the values already are the global sums; charge the
  // recursive-doubling vote the distributed run would pay.
  const double before = clock_.makespan;
  const double elems = static_cast<double>(num_values);
  for (int bit = 0; bit < dimension(); ++bit) {
    const std::vector<sim::NodeStage> stage(nodes_.size(),
                                            sim::NodeStage{{cube::Link{bit}, elems}});
    network_.accumulate_stage(stage, clock_);
  }
  vote_time_ += clock_.makespan - before;
}

std::vector<double> SimTransport::allreduce_sum(std::vector<double> values) {
  charge_vote(values.size());
  return values;
}

void SimTransport::allreduce_sum(std::span<double> values) { charge_vote(values.size()); }

}  // namespace jmh::solve
