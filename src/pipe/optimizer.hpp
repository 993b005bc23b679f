// Optimal pipelining-degree selection (paper ref. [9] section; summarized in
// paper section 2.4: "it is shown how to determine the pipelining degree
// that minimizes the execution time").
//
// We minimize the phase communication cost over Q in [1, q_max]:
//   * shallow candidates: a coarse-but-dense grid (all small Q, powers of
//     two, multiples of e, and K itself), each evaluated exactly via the
//     stage schedule;
//   * deep mode: cost(Q) = A + B*Q + C/Q exactly (prologue/epilogue fixed,
//     kernel linear in Q with 1/Q packet size), so the optimum is
//     Q* = sqrt(C/B), evaluated at the neighboring integers and clamped to
//     [K, q_max].
#pragma once

#include <cstdint>

#include "ord/ordering.hpp"
#include "ord/sequence.hpp"
#include "pipe/cost_model.hpp"
#include "pipe/machine.hpp"

namespace jmh::pipe {

struct OptimalQ {
  std::uint64_t q = 1;
  double cost = 0.0;
  bool deep = false;
};

/// Best pipelining degree for one exchange phase with sequence @p seq,
/// step message of @p step_elems elements, at most @p q_max packets.
OptimalQ find_optimal_q(const ord::LinkSequence& seq, double step_elems,
                        const MachineParams& machine, std::uint64_t q_max);

/// Same, for the idealized lower-bound sequence of phase e (see
/// phase_cost_ideal).
OptimalQ find_optimal_q_ideal(int e, double step_elems, const MachineParams& machine,
                              std::uint64_t q_max);

/// Single sweep-wide pipelining degree for an executor that packetizes every
/// exchange phase at the same q (the api facade's pipeline=auto policy on
/// backend=mpi|sim): the q in [1, q_max] minimizing the summed pipelined cost of all
/// exchange phases e = d..1 of @p ordering for the problem geometry in
/// @p prob (prob.d must match the ordering; prob.rows makes the payload
/// model rows-aware -- a tall task=svd transition carries
/// (rows + m) * cpb elements, not 2 * m * cpb). Candidates are each
/// phase's own find_optimal_q optimum plus a dense small-q / power-of-two
/// grid, every one evaluated exactly, so the returned q is the argmin of
/// the summed phase costs over that candidate set (exhaustive for
/// q_max <= 32). Cost is link-relabeling invariant, so the inter-sweep sigma
/// rotation does not change the choice. `cost` is the per-sweep exchange
/// communication time at the chosen q; `deep` means q exceeds the largest
/// phase's 2^d - 1 transitions.
OptimalQ find_optimal_sweep_q(const ord::JacobiOrdering& ordering, const ProblemParams& prob,
                              const MachineParams& machine, std::uint64_t q_max);

}  // namespace jmh::pipe
