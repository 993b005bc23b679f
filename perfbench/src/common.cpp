#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>

namespace perfbench {

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double quantile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(xs.size())));
  return xs[std::min(xs.size() - 1, rank == 0 ? 0 : rank - 1)];
}

Tail tail_of(const std::vector<double>& xs) {
  Tail t;
  t.samples = xs.size();
  t.percentile = 90.0;
  t.value = quantile(xs, 0.9);
  for (const double x : xs) t.beyond += x > t.value ? 1 : 0;
  return t;
}

Tail extreme_tail_of(std::vector<double> xs) {
  Tail t;
  t.samples = xs.size();
  if (xs.empty()) return t;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  const std::size_t at = n < 11 ? n - 1 : n - 11;
  t.value = xs[at];
  t.percentile = 100.0 * static_cast<double>(at + 1) / static_cast<double>(n);
  t.beyond = n - 1 - at;
  return t;
}

std::string tail_note(const std::vector<double>& xs) {
  const Tail t = tail_of(xs);
  const Tail x = extreme_tail_of(xs);
  return format("p90 %.4f ms (%zu samples, %zu beyond); highest with 10 beyond: p%.2f %.4f ms",
                t.value, t.samples, t.beyond, x.percentile, x.value);
}

std::string format(const char* fmt, ...) {
  char buf[1024];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  return buf;
}

void Result::add(std::string name, double value, std::string unit) {
  metrics.push_back({std::move(name), value, std::move(unit)});
}

void Result::note(std::string line) { notes.push_back(std::move(line)); }

void Result::diagnose(std::string name, double value, std::string unit) {
  diagnostics.push_back({std::move(name), value, std::move(unit)});
}

namespace {

/// {"name":{"value":v,"unit":"u"},...}. A non-finite value would be invalid
/// JSON; it becomes null and run.py treats the run as broken.
std::string metrics_json(const std::vector<Result::Metric>& metrics) {
  std::string json = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = metrics[i].value;
    json += format("%s\"%s\":{\"value\":", i == 0 ? "" : ",", metrics[i].name.c_str());
    json += std::isfinite(v) ? format("%.17g", v) : std::string("null");
    json += format(",\"unit\":\"%s\"}", metrics[i].unit.c_str());
  }
  return json + "}";
}

}  // namespace

void Result::print() const {
  for (const std::string& line : notes) std::printf("%s\n", line.c_str());
  for (const Metric& m : diagnostics)
    std::printf("diagnostic %-30s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const Metric& m : metrics)
    std::printf("%-30s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("RESULT {\"attempted\":%llu,\"failed\":%llu,\"metrics\":%s,\"diagnostics\":%s}\n",
              static_cast<unsigned long long>(attempted), static_cast<unsigned long long>(failed),
              metrics_json(metrics).c_str(), metrics_json(diagnostics).c_str());
  std::fflush(stdout);
}

namespace {

void read_cpu_ticks(unsigned long long& steal, unsigned long long& total) {
  steal = total = 0;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2], &v[3],
                  &v[4], &v[5], &v[6], &v[7]) == 8) {
    steal = v[7];
    for (const unsigned long long x : v) total += x;
  }
  std::fclose(f);
}

}  // namespace

StealMeter::StealMeter() { read_cpu_ticks(steal_, total_); }

double StealMeter::percent() const {
  unsigned long long steal = 0, total = 0;
  read_cpu_ticks(steal, total);
  return total > total_ ? 100.0 * static_cast<double>(steal - steal_) /
                              static_cast<double>(total - total_)
                        : 0.0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

jmh::Xoshiro256 input_rng(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ull + stream;
  return jmh::Xoshiro256(jmh::splitmix64_next(state) ^ stream);
}

std::uint64_t fingerprint(const jmh::la::Matrix& a, std::uint64_t h) {
  for (const double x : a.data()) {
    std::uint64_t bits;
    std::memcpy(&bits, &x, sizeof bits);
    h = (h ^ bits) * 1099511628211ull;
  }
  return h;
}

}  // namespace perfbench
