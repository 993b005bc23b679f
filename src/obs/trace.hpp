// obs tracing: always-compiled-in, runtime-armed span recording.
//
// Design:
//  * Per-thread fixed-capacity ring buffers of COMPLETE span events (name,
//    category, start, duration, one u64 argument). Recording is
//    allocation-free on the hot path -- ring storage is preallocated under
//    common::AllocExempt the first time a thread records, so a span inside
//    an AllocGuard-audited sweep or dispatch never trips the audit. Rings
//    are parked in a process-wide registry and outlive their threads, so
//    draining after a pool worker exits is safe.
//  * Runtime arming: trace_armed() is one relaxed atomic load. Unarmed, a
//    SpanScope is that load plus a branch -- no clock read, no store --
//    cheap enough to leave inside every sweep (BM_TraceSpan gates the
//    disarmed cost in BENCH_obs.json). ArmScope arms are counted, so
//    concurrent traced solves nest instead of fighting.
//  * Ring wrap drops the OLDEST events and counts the drops
//    (trace_dropped_events); recording never blocks on a full ring.
//  * write_chrome_trace drains every ring into Chrome trace_event JSON
//    ("complete" events, ph:"X") loadable in chrome://tracing or Perfetto.
//    Complete events rather than begin/end pairs, so a wrapped ring can
//    never produce unbalanced nesting -- a drop loses a whole span.
//  * cmake -DJMH_TRACE=OFF defines JMH_TRACE_ENABLED=0: arming is
//    constexpr-false, recording compiles to nothing, and the JSON writer
//    emits a valid empty trace. The SpanScope accumulator path feeding
//    obs::PhaseTimings (see obs/phase_timing.hpp) works in either mode.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#ifndef JMH_TRACE_ENABLED
#define JMH_TRACE_ENABLED 1
#endif

namespace jmh::obs {

/// Span category, doubling as the Chrome "cat" field (category_name).
enum class Category : std::uint8_t {
  kPlan,      ///< Solver::plan (ordering build, checks, pipelining optimizer)
  kSweep,     ///< one full sweep of the protocol on one endpoint
  kComm,      ///< transport exchanges and convergence allreduces
  kAssembly,  ///< final block collection + eigenpair/sigma extraction
  kExec,      ///< exec::ThreadPool task run / steal / gang admission
  kSvc,       ///< service-side solve / coalesce / retry
  kQueue,     ///< service queue wait (submission -> dispatch)
};

/// Chrome "cat" string of a category ("plan", "sweep", ...).
const char* category_name(Category cat) noexcept;

/// One recorded complete span. The name must be a string literal (or
/// otherwise immortal): the ring stores the pointer, never a copy.
struct TraceEvent {
  std::uint64_t start_ns = 0;  ///< since the process trace epoch
  std::uint64_t dur_ns = 0;
  std::uint64_t arg = 0;       ///< span-specific payload (sweep index, size...)
  const char* name = "";
  Category cat = Category::kExec;
  int tid = 0;  ///< recorder id, 1-based in thread registration order
};

/// Nanoseconds since the process-wide trace epoch (steady clock, anchored
/// at static initialization). Monotonic; compiled in either trace mode, so
/// cold-path timing (plan_ns, queue_ns) does not depend on JMH_TRACE.
std::uint64_t trace_now_ns() noexcept;

/// The same epoch for an externally captured steady_clock time point --
/// for spans whose start predates the recording call, e.g. a queue wait
/// clocked from Job::enqueued_at. Clamps to 0 before the epoch.
std::uint64_t trace_time_ns(std::chrono::steady_clock::time_point tp) noexcept;

#if JMH_TRACE_ENABLED

/// True while at least one ArmScope / arm_tracing() is live. One relaxed
/// load: this is the only cost an unarmed solve pays per span site.
bool trace_armed() noexcept;
void arm_tracing() noexcept;     ///< nests: arms are counted
void disarm_tracing() noexcept;

/// Records one complete event into the calling thread's ring, overwriting
/// the oldest event when full. Allocation-free except for the thread's
/// first-ever record, which creates its ring under common::AllocExempt.
/// Callers gate on trace_armed(); recording unarmed is harmless waste.
void trace_record(const char* name, Category cat, std::uint64_t start_ns,
                  std::uint64_t dur_ns, std::uint64_t arg) noexcept;

/// Every event currently resident, oldest-first per ring, rings in
/// registration order. A test/tooling convenience; write_chrome_trace is
/// the production drain.
std::vector<TraceEvent> snapshot_trace_events();

std::uint64_t trace_recorded_events() noexcept;  ///< total ever recorded
std::uint64_t trace_dropped_events() noexcept;   ///< overwritten by ring wrap
std::size_t trace_ring_capacity() noexcept;      ///< events per thread ring

/// Constructs the ring registry now. Long-lived statics that may record
/// during their own destruction windows (the process-wide exec pool) call
/// this first, so the registry is constructed earlier -- and therefore
/// destroyed later -- than they are.
void init_tracing() noexcept;

/// Test hook: clears every ring and counter and resets the arm count to 0.
/// Not safe concurrently with live recorders.
void reset_tracing() noexcept;

#else  // tracing compiled out: arming is constexpr-false, spans vanish.

inline constexpr bool trace_armed() noexcept { return false; }
inline void arm_tracing() noexcept {}
inline void disarm_tracing() noexcept {}
inline void trace_record(const char*, Category, std::uint64_t, std::uint64_t,
                         std::uint64_t) noexcept {}
inline std::vector<TraceEvent> snapshot_trace_events() { return {}; }
inline std::uint64_t trace_recorded_events() noexcept { return 0; }
inline std::uint64_t trace_dropped_events() noexcept { return 0; }
inline std::size_t trace_ring_capacity() noexcept { return 0; }
inline void init_tracing() noexcept {}
inline void reset_tracing() noexcept {}

#endif  // JMH_TRACE_ENABLED

/// Writes every resident event as Chrome trace_event JSON
/// ({"traceEvents":[...]}, complete events). Valid -- if empty -- even with
/// tracing disarmed or compiled out.
void write_chrome_trace(std::ostream& out);
std::string chrome_trace_json();

/// RAII arm: arms process-wide tracing for its scope when @p arm is true
/// (api::SolvePlan::solve passes spec().trace). Nested scopes stack.
class ArmScope {
 public:
  explicit ArmScope(bool arm) noexcept : armed_(arm) {
    if (armed_) arm_tracing();
  }
  ~ArmScope() {
    if (armed_) disarm_tracing();
  }
  ArmScope(const ArmScope&) = delete;
  ArmScope& operator=(const ArmScope&) = delete;

 private:
  bool armed_;
};

/// RAII span: measures its scope and, at destruction, (a) adds the duration
/// to @p acc when non-null (the obs::PhaseTimings feed) and (b) records a
/// trace event when tracing is armed. With a null @p acc and tracing
/// unarmed the span is fully inert: no clock reads, just the relaxed
/// trace_armed() load.
class SpanScope {
 public:
  explicit SpanScope(const char* name, Category cat, std::uint64_t arg = 0,
                     std::atomic<std::uint64_t>* acc = nullptr) noexcept
      : name_(name),
        acc_(acc),
        arg_(arg),
        cat_(cat),
        active_(acc != nullptr || trace_armed()) {
    if (active_) start_ = trace_now_ns();
  }
  ~SpanScope() {
    if (!active_) return;
    const std::uint64_t dur = trace_now_ns() - start_;
    if (acc_ != nullptr) acc_->fetch_add(dur, std::memory_order_relaxed);
    if (trace_armed()) trace_record(name_, cat_, start_, dur, arg_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  const char* name_;
  std::atomic<std::uint64_t>* acc_;
  std::uint64_t arg_;
  std::uint64_t start_ = 0;
  Category cat_;
  bool active_;
};

}  // namespace jmh::obs
