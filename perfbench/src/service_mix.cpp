// service_mix: one generator thread submits to svc::SolverService on a
// seeded open-loop schedule, at a fixed ladder of arrival rates. The hot
// specs and their shares come from the recorded mix
// (examples/workloads/service_mix.txt): evd, svd, pca and gevd on inline and
// mpi, tall and wide shapes. A cold tail of distinct specs misses the plan
// cache and pays minalpha planning.
#include "service_mix.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <thread>

#include "api/solver.hpp"
#include "api/task_adapter.hpp"
#include "exec/thread_pool.hpp"
#include "la/sym_gen.hpp"
#include "micro.hpp"
#include "trace_stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using jmh::api::SolveReport;
using jmh::api::SolverSpec;
using jmh::la::Matrix;

std::string cold_spec(std::uint64_t k, bool trace) {
  return format("task=evd,backend=inline,ordering=minalpha,m=48,d=3,shift=1,max_sweeps=%llu%s",
                static_cast<unsigned long long>(1000 + k), trace ? ",trace=1" : "");
}

}  // namespace

jmh::svc::ServiceConfig service_config() {
  jmh::svc::ServiceConfig cfg;
  cfg.workers = kDispatchers;
  cfg.queue_capacity = std::size_t{1} << 16;  // the open loop never blocks on admission
  cfg.cache_capacity = 64;
  cfg.max_coalesce = 4;
  return cfg;
}

const std::vector<JobClass>& hot_classes() {
  using I = JobClass::Input;
  // The recorded mix's inline and mpi lines (19 of its 23; the sim lines
  // are left out) give the class set and the shares. Its sizes are kept
  // where an inline line has them; mpi twins take their inline twin's shape,
  // so the speed-up compares the same inputs, and run d = 1 with
  // pipeline=auto (kDispatchers). evd carries shift=1 for the reason given
  // in closed_loop.cpp; gevd draws SPD inputs, since it has no shift and
  // its whitened matrix must be definite for the same reason; both gevd
  // twins use bseed=7.
  static const std::vector<JobClass> classes = {
      {"evd.inline", "task=evd,backend=inline,ordering=d4,m=32,d=2,shift=1", 4, I::kSymmetric, 0, false},
      {"evd.minalpha.inline", "task=evd,backend=inline,ordering=minalpha,m=32,d=2,pipeline=auto,shift=1", 3, I::kSymmetric, -1, false},
      {"evd.mpi", "task=evd,backend=mpi,ordering=d4,m=32,d=1,pipeline=auto,shift=1", 2, I::kSymmetric, 0, true},
      {"svd.tall.inline", "task=svd,backend=inline,ordering=d4,m=48,rows=64,d=2", 2, I::kGeneral, 1, false},
      {"svd.tall.mpi", "task=svd,backend=mpi,ordering=d4,m=48,rows=64,d=1,pipeline=auto", 1, I::kGeneral, 1, true},
      {"svd.wide.inline", "task=svd,backend=inline,ordering=d4,m=64,rows=40,d=2", 1, I::kGeneral, 2, false},
      {"svd.wide.mpi", "task=svd,backend=mpi,ordering=d4,m=64,rows=40,d=1,pipeline=auto", 1, I::kGeneral, 2, true},
      {"pca.inline", "task=pca,backend=inline,ordering=d4,m=24,rows=64,d=2,stop=offdiag_abs", 2, I::kGeneral, -1, false},
      {"gevd.inline", "task=gevd,backend=inline,ordering=d4,m=48,d=2,bseed=7", 2, I::kSpd, 3, false},
      {"gevd.mpi", "task=gevd,backend=mpi,ordering=d4,m=48,d=1,pipeline=auto,bseed=7", 1, I::kSpd, 3, true},
  };
  return classes;
}

double hot_share(const JobClass& c) {
  int total = 0;
  for (const JobClass& k : hot_classes()) total += k.lines;
  return (1.0 - kColdShare) * c.lines / total;
}

std::vector<Arrival> make_schedule(std::uint64_t seed, std::uint64_t stream, double rate,
                                   double duration_s) {
  const auto& classes = hot_classes();
  const std::size_t n = static_cast<std::size_t>(std::llround(rate * duration_s));
  // Fixed counts per class (largest remainder), so every seed runs the
  // same mix and only order, times and inputs vary.
  std::vector<double> weights;
  for (const JobClass& c : classes) weights.push_back(hot_share(c));
  weights.push_back(kColdShare);
  std::vector<std::size_t> counts(weights.size());
  std::vector<std::pair<double, std::size_t>> remainders;
  std::size_t assigned = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double exact = weights[i] * static_cast<double>(n);
    counts[i] = static_cast<std::size_t>(exact);
    assigned += counts[i];
    remainders.push_back({exact - static_cast<double>(counts[i]), i});
  }
  std::sort(remainders.begin(), remainders.end(), std::greater<>());
  for (std::size_t k = 0; assigned < n; ++k, ++assigned) ++counts[remainders[k].second];

  jmh::Xoshiro256 rng = input_rng(seed, 0x5c4ed000 + stream);
  std::vector<Arrival> out;
  for (std::size_t i = 0; i < counts.size(); ++i)
    for (std::size_t k = 0; k < counts[i]; ++k) {
      Arrival a;
      a.cls = i < classes.size() ? static_cast<int>(i) : -1;
      out.push_back(a);
    }
  for (std::size_t i = out.size(); i > 1; --i) std::swap(out[i - 1], out[rng.below(i)]);
  // Poisson arrivals conditioned on n of them in the rung: normalized
  // partial sums of n + 1 exponential gaps.
  std::vector<double> sums;
  double total = 0.0;
  for (std::size_t i = 0; i <= n; ++i) {
    total += -std::log(1.0 - rng.uniform01());
    sums.push_back(total);
  }
  for (std::size_t i = 0; i < n; ++i) {
    out[i].due_s = duration_s * sums[i] / total;
    out[i].input = static_cast<std::size_t>(rng.below(MixInputs::kPerClass));
  }
  return out;
}

MixInputs MixInputs::make(std::uint64_t seed) {
  const auto& classes = hot_classes();
  MixInputs in;
  for (std::size_t c = 0; c <= classes.size(); ++c) {
    std::vector<Matrix> pool;
    const bool cold = c == classes.size();
    const SolverSpec spec = SolverSpec::parse(cold ? cold_spec(0, false) : classes[c].spec);
    // Inline and mpi twins of a task draw the same matrices, so their
    // latency ratio compares backends on the same inputs.
    const std::uint64_t stream =
        cold ? 99 : (classes[c].pair >= 0 ? static_cast<std::uint64_t>(classes[c].pair) : 10 + c);
    for (std::size_t k = 0; k < kPerClass; ++k) {
      jmh::Xoshiro256 rng = input_rng(seed, 1000 * (stream + 1) + k);
      const JobClass::Input kind = cold ? JobClass::kSymmetric : classes[c].input;
      if (kind == JobClass::kSymmetric) pool.push_back(jmh::la::random_uniform_symmetric(spec.m, rng));
      else if (kind == JobClass::kSpd) pool.push_back(jmh::la::random_spd(spec.m, rng));
      else pool.push_back(jmh::la::random_uniform(spec.input_rows(), spec.m, rng));
    }
    in.pools.push_back(std::move(pool));
  }
  return in;
}

std::string arrival_spec(const Arrival& a, bool trace, std::uint64_t& cold_counter) {
  if (a.cls < 0) return cold_spec(cold_counter++, trace);
  std::string spec = hot_classes()[static_cast<std::size_t>(a.cls)].spec;
  return trace ? spec + ",trace=1" : spec;
}

const Matrix& arrival_input(const MixInputs& in, const Arrival& a) {
  const std::size_t pool = a.cls < 0 ? in.pools.size() - 1 : static_cast<std::size_t>(a.cls);
  return in.pools[pool][a.input];
}

RungOutcome run_rung(jmh::svc::SolverService& service, const std::vector<Arrival>& schedule,
                     const MixInputs& inputs, double rate, double limit_ms, bool trace,
                     std::uint64_t& cold_counter, Gatekeeper& gate, SolveCounts* counts,
                     const std::function<void(std::size_t)>& before_submit) {
  struct Slot {
    std::future<SolveReport> result;
    Clock::time_point due;
    Clock::time_point done;
    std::string spec;
  };
  const std::size_t n = schedule.size();
  std::vector<Slot> slots(n);
  std::atomic<std::size_t> published{0};
  std::atomic<std::size_t> completed{0};
  std::atomic<bool> generator_done{false};

  // The collector stamps completions: it waits briefly on the oldest
  // outstanding job, then sweeps the rest, so a job that finishes out of
  // order is stamped within one poll interval.
  std::thread collector([&] {
    constexpr auto kPoll = std::chrono::microseconds(100);
    std::vector<std::size_t> outstanding;
    std::size_t seen = 0;
    for (;;) {
      const bool done = generator_done.load(std::memory_order_acquire);
      const std::size_t pub = published.load(std::memory_order_acquire);
      for (; seen < pub; ++seen) outstanding.push_back(seen);
      if (outstanding.empty()) {
        if (done) break;
        std::this_thread::sleep_for(kPoll / 2);
        continue;
      }
      slots[outstanding.front()].result.wait_for(kPoll);
      const auto now = Clock::now();
      std::size_t keep = 0;
      for (const std::size_t i : outstanding) {
        if (slots[i].result.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
          slots[i].done = now;
          completed.fetch_add(1, std::memory_order_release);
        } else {
          outstanding[keep++] = i;
        }
      }
      outstanding.resize(keep);
    }
  });

  RungOutcome out;
  out.rate = rate;
  out.scheduled = n;
  // Past this backlog the rung has failed beyond doubt: the newest job
  // would wait four latency limits. The rest of the schedule is not sent.
  const double hard_cap = std::max(50.0, 4.0 * rate * limit_ms * 1e-3);
  std::vector<double> backlog;
  const auto t0 = Clock::now() + std::chrono::milliseconds(2);
  for (std::size_t i = 0; i < n; ++i) {
    if (before_submit) before_submit(i);
    Slot& slot = slots[i];
    slot.due = t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(schedule[i].due_s));
    std::this_thread::sleep_until(slot.due);
    out.lag_ms.push_back(std::chrono::duration<double, std::milli>(Clock::now() - slot.due).count());
    slot.spec = arrival_spec(schedule[i], trace, cold_counter);
    {
      const BenchSpan span("bench.submit", jmh::obs::Category::kSvc, trace);
      slot.result = service.submit(slot.spec, arrival_input(inputs, schedule[i]));
    }
    published.store(i + 1, std::memory_order_release);
    const double pending =
        static_cast<double>(i + 1 - completed.load(std::memory_order_acquire));
    backlog.push_back(pending);
    if (pending > hard_cap) {
      out.early_stop = true;
      break;
    }
  }
  out.submitted = published.load();
  // Jobs served while the schedule ran: under overload, the service rate.
  out.served_rate = static_cast<double>(completed.load(std::memory_order_acquire)) /
                    std::max(1e-3, seconds_since(t0));
  generator_done.store(true, std::memory_order_release);
  collector.join();

  // Backlog trend: the mean backlog over the last third of the submissions
  // against the first third's.
  const std::size_t third = backlog.size() / 3;
  if (third > 0) {
    double first = 0.0, last = 0.0;
    for (std::size_t i = 0; i < third; ++i) {
      first += backlog[i];
      last += backlog[backlog.size() - 1 - i];
    }
    out.backlog_growing = (last - first) / static_cast<double>(third) >
                          std::max(8.0, 0.25 * rate * limit_ms * 1e-3);
  }

  // Gate every result (outside the timed region: the rung is over).
  const std::uint64_t failed_before = gate.failed;
  for (std::size_t i = 0; i < out.submitted; ++i) {
    Slot& slot = slots[i];
    const Arrival& a = schedule[i];
    const SolverSpec spec = SolverSpec::parse(slot.spec);
    const Matrix& input = arrival_input(inputs, a);
    double latency = std::numeric_limits<double>::infinity();
    try {
      const SolveReport report = slot.result.get();
      const std::uint64_t before = gate.failed;
      gate.record(spec, input, &report, "");
      if (gate.failed == before)
        latency = std::chrono::duration<double, std::milli>(slot.done - slot.due).count();
      out.queue_ms.push_back(static_cast<double>(report.timings.queue_ns) * 1e-6);
      if (counts != nullptr) {
        const auto geo = jmh::api::adapter_for(spec.task).core_geometry(spec);
        counts->add(report, geo.rows, geo.cols);
      }
    } catch (const std::exception& e) {
      gate.record(spec, input, nullptr, e.what());
    }
    out.latency_ms.push_back(latency);
    out.cls.push_back(a.cls);
    out.input.push_back(a.input);
  }
  out.tail = tail_of(out.latency_ms);
  out.pass = gate.failed == failed_before && !out.early_stop && !out.backlog_growing &&
             out.tail.value <= limit_ms;
  return out;
}

double max_rate(const std::vector<RungOutcome>& rungs) {
  std::size_t hi = rungs.size();  // highest passing rung
  for (std::size_t i = rungs.size(); i-- > 0;)
    if (rungs[i].pass) {
      hi = i;
      break;
    }
  if (hi + 1 == rungs.size()) return rungs.back().rate;
  // The failing rungs above it (up to two ran): what the service served
  // while pushed past its limit, capped at the first one's arrival rate.
  const std::size_t first = hi == rungs.size() ? 0 : hi + 1;
  double served = 0.0;
  std::size_t n = 0;
  for (std::size_t i = first; i < rungs.size() && n < 2; ++i, ++n) served += rungs[i].served_rate;
  return std::min(served / static_cast<double>(n), rungs[first].rate);
}

RungOutcome pooled(const std::vector<RungOutcome>& parts) {
  RungOutcome out;
  out.rate = parts.front().rate;
  out.pass = true;
  for (const RungOutcome& p : parts) {
    out.submitted += p.submitted;
    out.scheduled += p.scheduled;
    out.latency_ms.insert(out.latency_ms.end(), p.latency_ms.begin(), p.latency_ms.end());
    out.lag_ms.insert(out.lag_ms.end(), p.lag_ms.begin(), p.lag_ms.end());
    out.queue_ms.insert(out.queue_ms.end(), p.queue_ms.begin(), p.queue_ms.end());
    out.cls.insert(out.cls.end(), p.cls.begin(), p.cls.end());
    out.input.insert(out.input.end(), p.input.begin(), p.input.end());
    out.early_stop |= p.early_stop;
    out.backlog_growing |= p.backlog_growing;
    out.pass &= p.pass;
  }
  out.tail = tail_of(out.latency_ms);
  for (const RungOutcome& p : parts) out.served_rate += p.served_rate / static_cast<double>(parts.size());
  return out;
}

namespace {

/// The share of class slot @p slot: a hot class, or the cold jobs last.
double slot_share(std::size_t slot) {
  return slot < hot_classes().size() ? hot_share(hot_classes()[slot]) : kColdShare;
}

/// Each input's fastest latency over @p rung's served jobs, by class slot
/// (the hot classes, then the cold jobs): [slot][input].
std::vector<std::vector<double>> fastest_by_input(const RungOutcome& rung) {
  const std::size_t slots = hot_classes().size() + 1;
  constexpr double kNone = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> best(slots, std::vector<double>(MixInputs::kPerClass, kNone));
  for (std::size_t i = 0; i < rung.cls.size(); ++i) {
    const std::size_t slot = rung.cls[i] < 0 ? slots - 1 : static_cast<std::size_t>(rung.cls[i]);
    double& b = best[slot][rung.input[i]];
    b = std::min(b, rung.latency_ms[i]);
  }
  for (std::vector<double>& b : best) b.erase(std::remove(b.begin(), b.end(), kNone), b.end());
  return best;
}

/// The mix p50: each class's median over its inputs, averaged with the
/// class shares. The latencies of the whole mix fall in clusters (inline
/// evd and pca near 0.8 ms, the rest at 1-2.5 ms), and the median of them
/// all lands in the sparse stretch between: it moved 35% between segments
/// at no CPU steal while each class's median moved 10%.
double mix_p50(const std::vector<std::vector<double>>& best) {
  double sum = 0.0;
  for (std::size_t slot = 0; slot < best.size(); ++slot) sum += slot_share(slot) * median(best[slot]);
  return sum;
}

/// The p90 of the mix: each input weighs its class's share over the
/// class's input count.
double mix_p90(const std::vector<std::vector<double>>& best) {
  std::vector<std::pair<double, double>> weighted;
  double total = 0.0;
  for (std::size_t slot = 0; slot < best.size(); ++slot)
    for (const double x : best[slot]) {
      weighted.push_back({x, slot_share(slot) / static_cast<double>(best[slot].size())});
      total += weighted.back().second;
    }
  std::sort(weighted.begin(), weighted.end());
  double sum = 0.0;
  for (const auto& [x, w] : weighted)
    if ((sum += w) >= 0.9 * total) return x;
  return weighted.empty() ? 0.0 : weighted.back().first;
}

/// Inline p50 over mpi p50 per task pair, geometric mean over the pairs.
double mix_speedup(const std::vector<std::vector<double>>& best, std::vector<std::string>& notes) {
  const auto& classes = hot_classes();
  double log_sum = 0.0;
  int pairs = 0;
  for (int p = 0;; ++p) {
    int inline_cls = -1, mpi_cls = -1;
    for (std::size_t c = 0; c < classes.size(); ++c)
      if (classes[c].pair == p) (classes[c].mpi ? mpi_cls : inline_cls) = static_cast<int>(c);
    if (inline_cls < 0 || mpi_cls < 0) break;
    const double ratio = median(best[static_cast<std::size_t>(inline_cls)]) /
                         median(best[static_cast<std::size_t>(mpi_cls)]);
    notes.push_back(format("  speedup pair %s / %s: %.4f", classes[static_cast<std::size_t>(inline_cls)].name,
                           classes[static_cast<std::size_t>(mpi_cls)].name, ratio));
    log_sum += std::log(ratio);
    ++pairs;
  }
  return pairs == 0 ? 0.0 : std::exp(log_sum / pairs);
}

}  // namespace

Result run_service_mix(const RunArgs& args, LayerMetrics& layers) {
  const auto& classes = hot_classes();
  Result out;
  out.note(format("workload service_mix: open loop, 1 generator thread, %zu dispatchers, "
                  "max_coalesce 4, plan cache 64; %zu hot specs + %.0f%% cold specs (seed %llu)",
                  kDispatchers, classes.size(), kColdShare * 100,
                  static_cast<unsigned long long>(args.seed)));
  for (const JobClass& c : classes)
    out.note(format("  %-19s %5.1f%%  \"%s\"", c.name, hot_share(c) * 100, c.spec));
  out.note(format("  %-19s %5.1f%%  \"%s\" (max_sweeps distinct per job)", "cold", kColdShare * 100,
                  cold_spec(0, false).c_str()));

  // Set-up, repeated: service start, input pools, and one warm-up job per
  // hot spec (filling the plan cache).
  const int setup_reps = args.trace ? 1 : 9;
  std::vector<double> setup_s;
  std::unique_ptr<jmh::svc::SolverService> service;
  MixInputs inputs;
  Gatekeeper warm_gate;
  std::uint64_t cold_counter = 0;
  for (int rep = 0; rep < setup_reps; ++rep) {
    const auto t0 = Clock::now();
    service.reset();
    service = std::make_unique<jmh::svc::SolverService>(service_config());
    inputs = MixInputs::make(args.seed);
    std::vector<Arrival> warm;
    for (std::size_t c = 0; c < classes.size(); ++c) warm.push_back({0.0, static_cast<int>(c), 0});
    for (const bool traced : {false, true}) {
      if (traced && !args.trace) continue;
      for (const Arrival& a : warm) {
        const std::string spec = arrival_spec(a, traced, cold_counter);
        SolveReport report;
        try {
          report = service->submit(spec, arrival_input(inputs, a)).get();
          warm_gate.record(SolverSpec::parse(spec), arrival_input(inputs, a), &report, "");
        } catch (const std::exception& e) {
          warm_gate.record(SolverSpec::parse(spec), arrival_input(inputs, a), nullptr, e.what());
        }
      }
    }
    setup_s.push_back(seconds_since(t0));
  }
  Gatekeeper gate;
  gate.failed += warm_gate.failed;  // a wrong warm-up answer still fails the run
  if (warm_gate.failed > 0) out.note("warm-up: " + warm_gate.first_failure);

  if (!args.trace) {
    // Every rung sends the same number of jobs (0.85 s of arrivals at the
    // top rate at 30 s), so the results held until a rung's gate peak at the
    // same size on every run. The nominal rate runs in kNominalSegments
    // smaller segments interleaved with the lower rungs. The ladder climbs
    // from the bottom and stops after two failing rungs in a row.
    //
    // The latency metrics come from each input's fastest job at the nominal
    // rate, for the reason closed_loop.cpp gives: other guests' bursts of
    // CPU steal on a shared host last minutes and stall the 2-rank mpi jobs,
    // and the latencies of every job move with them from run to run.
    constexpr std::size_t kNominalSegments = 10;
    const double rung_jobs = 80.0 * args.seconds;
    const double segment_jobs = 16.5 * args.seconds;
    std::vector<RungOutcome> segments;
    std::vector<double> steal;
    std::vector<RungOutcome> rungs;
    std::size_t stream = 0;
    const auto run_at = [&](double rate, double jobs) {
      return run_rung(*service, make_schedule(args.seed, stream++, rate, jobs / rate), inputs,
                      rate, kLimitMs, false, cold_counter, gate, nullptr);
    };
    const auto run_segment = [&] {
      const StealMeter meter;
      segments.push_back(run_at(kNominalRate, segment_jobs));
      steal.push_back(meter.percent());
    };
    const StealMeter run_meter;
    int failing_in_row = 0;
    for (const double rate : kLadder) {
      if (segments.size() < kNominalSegments) run_segment();
      if (rate == kNominalRate) continue;  // the pooled segments stand in for this rung
      rungs.push_back(run_at(rate, rung_jobs));
      failing_in_row = rungs.back().pass ? 0 : failing_in_row + 1;
      if (failing_in_row == 2) break;
    }
    while (segments.size() < kNominalSegments) run_segment();
    const double run_steal = run_meter.percent();
    const RungOutcome nominal = pooled(segments);
    rungs.insert(std::find_if(rungs.begin(), rungs.end(),
                              [](const RungOutcome& r) { return r.rate > kNominalRate; }),
                 nominal);
    const std::vector<std::vector<double>> best = fastest_by_input(nominal);
    std::vector<std::string> pair_notes;
    const double speedup = mix_speedup(best, pair_notes);

    gate.finish(out);
    out.note(format("ladder (latency from due time; limit %.0f ms on the p90; %.0f jobs per rung, "
                    "nominal %zu segments of %.0f):", kLimitMs, rung_jobs, kNominalSegments,
                    segment_jobs));
    for (const RungOutcome& r : rungs)
      out.note(format("  %6.0f jobs/s: %5zu of %5zu sent, served %7.1f/s, p50 %8.3f ms, p90 %9.3f ms%s%s -> %s",
                      r.rate, r.submitted, r.scheduled, r.served_rate, median(r.latency_ms), r.tail.value,
                      r.backlog_growing ? ", backlog growing" : "",
                      r.early_stop ? ", stopped early" : "", r.pass ? "pass" : "FAIL"));
    std::string segs;
    for (std::size_t i = 0; i < segments.size(); ++i)
      segs += format("%s%.4f/%.4f ms @ %.2f%%", i == 0 ? "" : ", ", median(segments[i].latency_ms),
                     segments[i].tail.value, steal[i]);
    out.note("nominal segments p50/p90 @ CPU steal: " + segs);
    out.note(format("nominal, every job, %.2f%% CPU steal over the run: p50 %.4f ms, tail ", run_steal,
                    median(nominal.latency_ms)) + tail_note(nominal.latency_ms));
    std::string classes_text;
    for (std::size_t slot = 0; slot < best.size(); ++slot)
      classes_text += format("%s %s %.4f", slot == 0 ? "" : ",",
                             slot < classes.size() ? classes[slot].name : "cold", median(best[slot]));
    out.note(format("nominal, fastest job of each of the %zu inputs per class, median by class (ms):",
                    MixInputs::kPerClass) + classes_text);
    out.note("generator lag at nominal: " + format("p50 %.4f ms, tail ", median(nominal.lag_ms)) +
             tail_note(nominal.lag_ms));
    out.note("latency_p50_ms: those medians averaged with the class shares; latency_tail_ms: the "
             "p90 of the fastest latencies, each input weighing its class's share / 8");
    out.note("speedup_vs_inline: geometric mean over the task pairs of those inline / mpi medians, "
             "same inputs:");
    for (std::string& line : pair_notes) out.note(std::move(line));
    out.note(format("setup: median of %d repetitions (service start + inputs + %zu warm-up jobs)",
                    setup_reps, classes.size()));
    out.diagnose("steal_all_pct", run_steal, "%");
    out.diagnose("latency_p50_all_jobs_ms", median(nominal.latency_ms), "ms");
    out.diagnose("latency_tail_all_jobs_ms", nominal.tail.value, "ms");
    out.add("setup_s", median(setup_s), "s");
    out.add("latency_p50_ms", mix_p50(best), "ms");
    out.add("latency_tail_ms", mix_p90(best), "ms");
    out.add("max_rate_jobs_s", max_rate(rungs), "jobs/s");
    out.add("speedup_vs_inline", speedup, "x");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
  }

  // ---- traced run: micro-timings, then untraced / traced window pairs ----
  std::uint64_t setup_dropped = 0;
  drain_trace(setup_dropped);  // the traced warm-up jobs' events
  // The mix's typical core: 48 columns of 48-64 rows; d = 1 mpi blocks of
  // 12 columns.
  const double micro_budget = std::min(3.0, 0.15 * args.seconds);
  std::vector<SolverSpec> specs;
  for (const JobClass& c : classes) specs.push_back(SolverSpec::parse(c.spec));
  specs.push_back(SolverSpec::parse(cold_spec(0, false)));
  TraceLedger micro;
  run_layer_micro(48, 24, 12, specs, micro_budget, layers, micro);
  double q_sum = 0.0;
  int q_count = 0;
  for (const JobClass& c : classes)
    if (c.mpi) {
      q_sum += static_cast<double>(jmh::api::Solver::plan(SolverSpec::parse(c.spec)).pipelining_q());
      ++q_count;
    }
  layers.pipe_q = q_sum / q_count;

  TraceLedger ledger;
  SolveCounts counts;
  std::vector<double> plain_ms, traced_ms, queue_ms, lag_ms;
  std::size_t window = 48;
  const std::size_t capacity = jmh::obs::trace_ring_capacity();
  const jmh::svc::Metrics m0 = service->metrics();
  const auto start = Clock::now();
  for (std::size_t w = 0; seconds_since(start) < args.seconds - micro_budget; ++w) {
    const std::vector<Arrival> schedule =
        make_schedule(args.seed, 1000 + w, kNominalRate, static_cast<double>(window) / kNominalRate);
    const RungOutcome plain = run_rung(*service, schedule, inputs, kNominalRate, kLimitMs, false,
                                       cold_counter, gate, nullptr);
    const RungOutcome traced = run_rung(*service, schedule, inputs, kNominalRate, kLimitMs, true,
                                        cold_counter, gate, &counts);
    // Windows size themselves so no ring comes near wrapping.
    const std::size_t fill = max_ring_fill(ledger.drain_window(traced.submitted));
    if (fill > capacity / 2) window = std::max<std::size_t>(8, window / 2);
    else if (fill < capacity / 8) window = std::min<std::size_t>(512, window * 2);
    for (const RungOutcome* r : {&plain, &traced}) {
      queue_ms.insert(queue_ms.end(), r->queue_ms.begin(), r->queue_ms.end());
      lag_ms.insert(lag_ms.end(), r->lag_ms.begin(), r->lag_ms.end());
    }
    plain_ms.insert(plain_ms.end(), plain.latency_ms.begin(), plain.latency_ms.end());
    traced_ms.insert(traced_ms.end(), traced.latency_ms.begin(), traced.latency_ms.end());
  }
  const double wall = seconds_since(start);
  const jmh::svc::Metrics m1 = service->metrics();
  gate.finish(out);

  counts.fill(layers);
  const std::string comm_base = layers.fill_from(ledger);
  layers.pool_busy_share = busy_share(m0.pool_busy_s, m1.pool_busy_s, wall);
  layers.dispatcher_busy_share = busy_share(m0.worker_busy_s, m1.worker_busy_s, wall);
  const double hits = static_cast<double>(m1.cache_hits - m0.cache_hits);
  const double lookups = hits + static_cast<double>(m1.cache_misses - m0.cache_misses);
  layers.cache_hit_ratio = lookups > 0 ? hits / lookups : 0.0;
  layers.coalesced_share = ledger.ops > 0 ? ledger.arg_sum("svc.coalesce") / static_cast<double>(ledger.ops) : 0.0;
  layers.queue_high_water = static_cast<double>(m1.queue_high_water);
  layers.queue_wait_p50_ms = median(queue_ms);
  layers.queue_wait_tail_ms = tail_of(queue_ms).value;
  layers.generator_lag_ms = tail_of(lag_ms).value;
  layers.dropped_events = static_cast<double>(ledger.dropped + micro.dropped + setup_dropped);
  layers.trace_overhead_pct = 100.0 * (median(traced_ms) / median(plain_ms) - 1.0);

  out.note(format("traced: windows of up to %zu jobs at %.0f jobs/s, each run untraced then "
                  "traced on the same schedule; %zu untraced and %zu traced jobs",
                  window, kNominalRate, plain_ms.size(), traced_ms.size()));
  out.note(format("ratios: trace overhead = traced p50 %.4f ms / untraced p50 %.4f ms - 1; "
                  "cache hits %.0f / lookups %.0f; coalesced jobs %.0f / traced jobs %llu",
                  median(traced_ms), median(plain_ms), hits, lookups, ledger.arg_sum("svc.coalesce"),
                  static_cast<unsigned long long>(ledger.ops)));
  out.note("ratios: " + comm_base +
           format("; busy shares over %.2f s x %zu dispatchers / %zu pool workers", wall,
                  m1.worker_busy_s.size(), m1.pool_busy_s.size()));
  out.note("svc.queue_wait: " + tail_note(queue_ms));
  out.note("generator lag: " + tail_note(lag_ms));
  out.note("solve.endpoint_imbalance: 0, not resolved per job under concurrent service "
           "traffic (the closed loops report it)");
  out.note("la: kernels timed at column length 48 over a 24-column panel; block round trip "
           "at 48 x 12; plan.compile_ms over every hot spec and a cold one");
  for (std::string& line : ledger.table()) out.note(std::move(line));
  out.note("benchmark micro-timing spans (whole phase):");
  for (std::string& line : micro.table()) out.note(std::move(line));
  return out;
}

}  // namespace perfbench
