// MpiLiteTransport: one SPMD endpoint per mpi_lite rank. Blocks travel as
// real messages over the hypercube overlay; the convergence vote is a
// recursive-doubling allreduce. With q >= 1 the exchange phases run the
// packetized pipelined path: the mobile block is split into q column
// packets, and a node pairs an arriving packet against its fixed block and
// immediately forwards it along the phase's next link, so consecutive
// packets of one block are spread across consecutive nodes of the
// Hamiltonian path and travel on different links concurrently -- the
// multi-port overlap the paper's orderings exist to enable, emerging here
// from genuinely asynchronous sends on the mpi_lite threads.
//
// Pipelined correctness is order-independent: every (fixed column, mobile
// column) pair still meets exactly once, each packet's rotations are
// sequenced by its message causality, and each fixed column's rotations are
// sequenced by its node's thread. Results agree with the unpipelined
// executors up to floating-point reordering (verified in tests). Division
// steps and the sweep-opening intra-block pairings are not pipelined,
// exactly as in the paper (pipelining "can be applied to every exchange
// phase, which are the most time-consuming part").
#pragma once

#include <cstdint>

#include "la/matrix.hpp"
#include "net/hypercube_comm.hpp"
#include "solve/block_layout.hpp"
#include "solve/jacobi_node.hpp"
#include "solve/transport.hpp"

namespace jmh::solve {

class MpiLiteTransport : public Transport {
 public:
  /// Endpoint for @p comm's rank. @p q == 0 selects plain full-block
  /// exchanges; q >= 1 packetizes exchange phases into q packets per block.
  MpiLiteTransport(net::Comm& comm, const la::Matrix& a, std::uint64_t q = 0);

  int dimension() const override { return hc_.dimension(); }
  std::size_t num_columns() const override { return layout_.m(); }

  void visit_nodes(common::FunctionRef<void(JacobiNode&)> fn) override { fn(node_); }

  void apply_transition(const ord::Transition& t, std::uint64_t step) override;

  std::vector<double> allreduce_sum(std::vector<double> values) override;
  void allreduce_sum(std::span<double> values) override;

  /// Pipelined exchange phases when q >= 1; the base implementation
  /// otherwise. In JMH_DASSERT builds every phase after the first sweep is
  /// audited to allocate nothing on this endpoint (the scratch arenas must
  /// absorb all serialization, packetization and merging; the mailbox's
  /// wire copy is exempt -- common/alloc_guard.hpp).
  SweepStats run_phase(const PhaseContext& ctx) override;

  /// Allgathers every endpoint's blocks; all ranks return the full set.
  std::vector<ColumnBlock> collect_blocks() override;

 private:
  SweepStats run_phase_pipelined(const PhaseContext& ctx);

  net::HypercubeComm hc_;
  BlockLayout layout_;
  JacobiNode node_;
  std::uint64_t q_;

  // Scratch arenas of the steady-state sweep loop. Serialization,
  // packetization, and merge all reuse these buffers across steps and
  // sweeps, so after the first exchange of a solve the transport itself
  // performs no allocations (the mailbox still copies message payloads --
  // that is the wire, not the endpoint).
  net::Payload send_scratch_;
  ColumnBlock packet_scratch_;
  std::vector<ColumnBlock> split_scratch_;
  std::vector<ColumnBlock> incoming_scratch_;
  ColumnBlock merge_scratch_;
};

}  // namespace jmh::solve
