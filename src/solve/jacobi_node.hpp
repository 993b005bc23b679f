// Per-node state and computation of the distributed one-sided Jacobi
// solver, shared by the inline (sequential simulation) and mpi_lite
// (threaded) executors.
//
// A node holds two column blocks of the working pair (B = A*V, V). Each
// block carries its global column indices so rotations can be attributed
// and results reassembled after any number of block moves.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "la/matrix.hpp"
#include "net/mailbox.hpp"
#include "solve/block_layout.hpp"

namespace jmh::solve {

/// A serialized block failed its wire checksum: the payload was damaged in
/// transit (or deliberately, by FaultInjectingTransport). Distinct from the
/// std::invalid_argument of a structurally impossible payload -- corruption
/// is an environment fault, to be retried or surfaced as TRANSPORT_CORRUPT,
/// not a caller bug.
class TransportCorrupt : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// FNV-1a-64 over the 64-bit patterns of @p header then @p body, folded to
/// 48 bits so the result is exactly representable as an integer-valued
/// double (a raw 64-bit hash stored via bit_cast could form a signaling
/// NaN inside a payload). Any single bit flip in either span changes it.
std::uint64_t wire_checksum(std::span<const double> header,
                            std::span<const double> body) noexcept;

/// A column block of (B, V): `cols` global column ids; `b` and `v` hold the
/// column data contiguously, column-major -- `rows` elements per B column,
/// `vrows` per V column. For the symmetric eigenproblem the two are equal;
/// for a rectangular m x n SVD input the B columns have m rows (they track
/// A * V) while the V columns always have n (the accumulated rotations act
/// on the column space).
struct ColumnBlock {
  ord::BlockId id = 0;
  std::size_t rows = 0;   ///< rows per B column
  std::size_t vrows = 0;  ///< rows per V column (== rows for square inputs)
  std::vector<std::size_t> cols;
  std::vector<double> b;
  std::vector<double> v;

  std::size_t num_cols() const noexcept { return cols.size(); }
  std::span<double> col_b(std::size_t i) { return {b.data() + i * rows, rows}; }
  std::span<double> col_v(std::size_t i) { return {v.data() + i * vrows, vrows}; }

  /// Flattens to an mpi_lite payload:
  /// [id, ncols, rows, vrows, checksum, cols..., b..., v...], where
  /// checksum = wire_checksum over the first four header words and the
  /// whole body. assign_from / deserialize verify it and throw
  /// TransportCorrupt on mismatch, so a damaged exchange can never
  /// silently converge to a wrong spectrum.
  net::Payload serialize() const;

  /// Flattens into @p out, reusing its capacity (cleared first). The
  /// allocation-free path of the steady-state exchange loop: after the
  /// first sweep the buffer never reallocates.
  void serialize_into(net::Payload& out) const;

  /// Parses a serialized block into this block, reusing the existing
  /// cols/b/v storage when capacities suffice.
  void assign_from(std::span<const double> payload);

  static ColumnBlock deserialize(std::span<const double> payload);
  static ColumnBlock deserialize(const net::Payload& payload);

  /// Parses a concatenation of serialized blocks (e.g. a gatherv of
  /// per-rank payloads) back into blocks, in order. Each block is parsed
  /// in place from its span of the stream; no per-block payload copies.
  static std::vector<ColumnBlock> deserialize_stream(const net::Payload& payload);

  /// Splits into @p q column packets (contiguous groups, sizes differing by
  /// at most one; trailing packets may be empty when q > num_cols). Packets
  /// keep the block id. Used by the pipelined executor.
  std::vector<ColumnBlock> split(std::size_t q) const;

  /// split() into caller-owned scratch: @p packets is resized to @p q and
  /// each packet's storage reused. The pipelined exchange path calls this
  /// once per phase with the same scratch, so steady-state sweeps allocate
  /// nothing.
  void split_into(std::size_t q, std::vector<ColumnBlock>& packets) const;

  /// Reassembles packets produced by split (in order).
  static ColumnBlock merge(const std::vector<ColumnBlock>& packets);

  /// merge() into caller-owned scratch, reusing @p out's storage.
  static void merge_into(const std::vector<ColumnBlock>& packets, ColumnBlock& out);
};

/// Extracts block @p id of (B=A, V=I) from the input matrix. The layout
/// partitions the a.cols() columns; @p a may be rectangular (B columns get
/// a.rows() rows, V columns a.cols()).
ColumnBlock extract_block(const la::Matrix& a, const BlockLayout& layout, ord::BlockId id);

/// Per-node accumulation over (part of) a sweep: rotation count plus the
/// sum of squared pre-rotation off-diagonal dot products. Because a sweep
/// visits every unordered column pair exactly once, summing off2 across all
/// nodes over one sweep yields Sum_{i<j} (v_i^T A v_j)^2 -- half the
/// squared off-diagonal Frobenius norm of V^T A V -- measured as the sweep
/// passes over each pair.
struct SweepStats {
  std::size_t rotations = 0;
  double off2 = 0.0;

  SweepStats& operator+=(const SweepStats& o) {
    rotations += o.rotations;
    off2 += o.off2;
    return *this;
  }
};

class JacobiNode {
 public:
  JacobiNode(const la::Matrix& a, const BlockLayout& layout, cube::Node node);

  ColumnBlock& fixed() noexcept { return fixed_; }
  ColumnBlock& mobile() noexcept { return mobile_; }
  const ColumnBlock& fixed() const noexcept { return fixed_; }
  const ColumnBlock& mobile() const noexcept { return mobile_; }

  /// Step (1) of the sweep: pair every column of each resident block with
  /// the other columns of the same block. A non-null @p activity (indexed
  /// by global column id) gets both columns of every applied rotation
  /// marked -- the topk convergence vote; null keeps the hot loop
  /// untouched.
  SweepStats intra_block_pairings(double threshold, std::uint8_t* activity = nullptr);

  /// Step (2): pair every column of the fixed block with every column of
  /// the mobile block. @p activity as in intra_block_pairings.
  SweepStats inter_block_pairings(double threshold, std::uint8_t* activity = nullptr);

  /// Pairs every fixed column with every column of @p packet (a slice of
  /// some mobile block passing through this node); both sides are updated.
  /// The packetized unit of work of the pipelined executor. @p activity as
  /// in intra_block_pairings.
  SweepStats pair_fixed_with(ColumnBlock& packet, double threshold,
                             std::uint8_t* activity = nullptr);

  /// Sum of ||b_k||^2 over this node's resident columns. Summed across all
  /// nodes this is ||A||_F^2 (invariant under the method's rotations);
  /// used to normalize off-diagonal convergence tests.
  double frobenius_squared() const;

  /// Division bookkeeping: the received block becomes the new mobile and
  /// the kept block the new fixed (see ord::BlockTracker::apply).
  void install_mobile(ColumnBlock block) { mobile_ = std::move(block); }
  void promote_mobile_to_fixed() { std::swap(fixed_, mobile_); }

 private:
  ColumnBlock fixed_;
  ColumnBlock mobile_;
};

}  // namespace jmh::solve
