#include "net/collectives.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/bitops.hpp"

namespace jmh::net {

namespace {

constexpr int kTagReduce = 1 << 20;
constexpr int kTagGather = 1 << 21;
constexpr int kTagBcast = 1 << 22;

// Recursive-doubling combine: every rank ends with f applied over all
// contributions. Requires power-of-two size; callers fall back otherwise.
template <typename F>
double butterfly_reduce(Comm& comm, double value, F&& f) {
  const int p = comm.size();
  for (int bit = 1; bit < p; bit <<= 1) {
    const int peer = comm.rank() ^ bit;
    const Payload got = comm.sendrecv(peer, kTagReduce + bit, std::span<const double>(&value, 1));
    JMH_CHECK(got.size() == 1, "reduce payload must be scalar");
    value = f(value, got[0]);
  }
  return value;
}

template <typename F>
double reduce_via_root(Comm& comm, double value, F&& f) {
  if (comm.rank() == 0) {
    for (int r = 1; r < comm.size(); ++r) value = f(value, comm.recv_scalar(r, kTagReduce));
    for (int r = 1; r < comm.size(); ++r) comm.send_scalar(r, kTagReduce + 1, value);
    return value;
  }
  comm.send_scalar(0, kTagReduce, value);
  return comm.recv_scalar(0, kTagReduce + 1);
}

template <typename F>
double allreduce(Comm& comm, double value, F&& f) {
  if (is_pow2(static_cast<std::uint64_t>(comm.size())))
    return butterfly_reduce(comm, value, f);
  return reduce_via_root(comm, value, f);
}

}  // namespace

double allreduce_sum(Comm& comm, double value) {
  return allreduce(comm, value, [](double a, double b) { return a + b; });
}

std::vector<double> allreduce_sum(Comm& comm, std::vector<double> values) {
  allreduce_sum_inplace(comm, values);
  return values;
}

void allreduce_sum_inplace(Comm& comm, std::span<double> values) {
  if (is_pow2(static_cast<std::uint64_t>(comm.size()))) {
    for (int bit = 1; bit < comm.size(); bit <<= 1) {
      const int peer = comm.rank() ^ bit;
      const Payload got = comm.sendrecv(peer, kTagReduce + bit, values);
      JMH_CHECK(got.size() == values.size(), "allreduce length mismatch across ranks");
      for (std::size_t i = 0; i < values.size(); ++i) values[i] += got[i];
    }
    return;
  }
  if (comm.rank() == 0) {
    for (int r = 1; r < comm.size(); ++r) {
      const Payload got = comm.recv(r, kTagReduce);
      JMH_CHECK(got.size() == values.size(), "allreduce length mismatch across ranks");
      for (std::size_t i = 0; i < values.size(); ++i) values[i] += got[i];
    }
    for (int r = 1; r < comm.size(); ++r) comm.send(r, kTagReduce + 1, values);
    return;
  }
  comm.send(0, kTagReduce, values);
  const Payload got = comm.recv(0, kTagReduce + 1);
  JMH_CHECK(got.size() == values.size(), "allreduce length mismatch across ranks");
  std::copy(got.begin(), got.end(), values.begin());
}

double allreduce_max(Comm& comm, double value) {
  return allreduce(comm, value, [](double a, double b) { return std::max(a, b); });
}

bool allreduce_and(Comm& comm, bool value) {
  return allreduce(comm, value ? 1.0 : 0.0, [](double a, double b) {
           return std::min(a, b);
         }) > 0.5;
}

std::vector<double> gatherv(Comm& comm, std::span<const double> local) {
  // Direct sends to rank 0: only used for final result collection, never
  // on the measured sweep path.
  if (comm.rank() != 0) {
    comm.send(0, kTagGather, local);
    return {};
  }
  std::vector<double> all(local.begin(), local.end());
  for (int r = 1; r < comm.size(); ++r) {
    const Payload part = comm.recv(r, kTagGather);
    all.insert(all.end(), part.begin(), part.end());
  }
  return all;
}

std::vector<double> broadcast(Comm& comm, int root, std::span<const double> data) {
  JMH_REQUIRE(root >= 0 && root < comm.size(), "broadcast root out of range");
  if (comm.rank() == root) {
    for (int r = 0; r < comm.size(); ++r)
      if (r != root) comm.send(r, kTagBcast, data);
    return {data.begin(), data.end()};
  }
  return comm.recv(root, kTagBcast);
}

}  // namespace jmh::net
