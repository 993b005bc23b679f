// Shared helpers of the perfbench executable: clocks, order statistics, the
// result record, and the seeded input generators every workload uses.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "la/matrix.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// printf into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Median of @p xs (0 for an empty set).
double median(std::vector<double> xs);

/// The @p p quantile (0..1) of @p xs, nearest rank (0 for an empty set).
double quantile(std::vector<double> xs, double p);

/// The benchmark's tail statistic: the p90 of a set of timings, with its
/// sample count and how many samples lie beyond it. The higher percentiles
/// on a shared 4-vCPU host are dominated by hypervisor stalls and spread
/// 30% from run to run, so they are printed (extreme_tail_of) but not gated.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;  ///< samples above the reported one
};
Tail tail_of(const std::vector<double>& xs);

/// The highest order statistic with at least 10 samples beyond it,
/// sorted[n - 11] (the maximum below 11 samples).
Tail extreme_tail_of(std::vector<double> xs);

/// "p90 12.3 ms (400 samples, 40 beyond); highest with 10 beyond: p97.5 15.1 ms"
std::string tail_note(const std::vector<double>& xs);

/// One run's outcome: the metrics by name and unit, the operation counts,
/// and human-readable condition lines printed ahead of the record.
struct Result {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  /// Figures kept in the record beside the metrics, without a bound.
  std::vector<Metric> diagnostics;
  std::vector<std::string> notes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(std::string name, double value, std::string unit);
  void diagnose(std::string name, double value, std::string unit);
  void note(std::string line);
  /// Prints the notes, then one "RESULT {json}" line with the metrics and
  /// the diagnostics.
  void print() const;
};


/// CPU steal over an interval: the share of all CPUs' time the hypervisor
/// gave to other guests (/proc/stat; 0 where it cannot be read). On a
/// shared host it is the main source of run-to-run noise: multi-rank solves
/// slow by 40% when it reaches 10%.
class StealMeter {
 public:
  StealMeter();
  /// Steal share since construction, in percent.
  double percent() const;

 private:
  unsigned long long steal_ = 0, total_ = 0;
};

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// Seeded generator of a stream's inputs: stream @p stream of workload seed
/// @p seed. Every input of a run is drawn from one of these before timing
/// starts, so the same seed gives the same inputs.
jmh::Xoshiro256 input_rng(std::uint64_t seed, std::uint64_t stream);

/// FNV-1a over the bit patterns of a matrix, for the self-tests'
/// determinism checks.
std::uint64_t fingerprint(const jmh::la::Matrix& a, std::uint64_t h = 14695981039346656037ull);

}  // namespace perfbench
