// InlineTransport: all 2^d nodes owned by one object and executed
// sequentially in the calling thread. Deterministic (no threads, no message
// nondeterminism); the substrate of backend=inline and the numerics base
// of SimTransport.
#pragma once

#include "la/matrix.hpp"
#include "solve/block_layout.hpp"
#include "solve/transport.hpp"

namespace jmh::solve {

class InlineTransport : public Transport {
 public:
  /// Distributes the a.cols() columns of @p a (square for EVD, rectangular
  /// for SVD) over the 2^{d+1} blocks of a d-cube.
  InlineTransport(const la::Matrix& a, int d);

  int dimension() const override { return layout_.d(); }
  std::size_t num_columns() const override { return layout_.m(); }

  void visit_nodes(common::FunctionRef<void(JacobiNode&)> fn) override;

  /// Moves blocks between the owned nodes directly (no serialization).
  void apply_transition(const ord::Transition& t, std::uint64_t step) override;

  /// Single owner: the local values already are the global sums.
  std::vector<double> allreduce_sum(std::vector<double> values) override { return values; }
  void allreduce_sum(std::span<double> /*values*/) override {}

  std::vector<ColumnBlock> collect_blocks() override;

 protected:
  BlockLayout layout_;
  std::vector<JacobiNode> nodes_;
};

}  // namespace jmh::solve
