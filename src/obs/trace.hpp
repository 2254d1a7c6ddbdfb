// Span-based tracing with Chrome trace-event export (loadable in Perfetto or
// chrome://tracing).
//
// Two timebases share one file, kept apart by Chrome "process" ids:
//   * pid kPidPipeline — wall-clock lanes (microseconds since process start),
//     one lane per OS thread: the synthesis pipeline, the thread-pool
//     workers, the verif fixpoint;
//   * pid kPidSim — simulated-cycle lanes, one per RTOS task: the simulator's
//     event log replayed onto the *same* clock as the VCD export (one trace
//     tick == one VCD timescale unit == one simulated cycle).
//
// Overhead contract: when the recorder is disabled (the default), a `Span` is
// one relaxed atomic load and a branch — no clock read, no allocation, no
// string copy. Argument values are only materialised behind `Span::armed()`.
// Spans shorter than `min_span_us` are dropped at destruction (coarse
// duration sampling for hot call sites). Compiling with POLIS_OBS_DISABLED
// turns the OBS_SPAN macros into nothing at all.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

namespace polis::obs {

/// Monotonic microseconds since the first call in this process (the trace
/// epoch shared by every wall-clock lane).
std::int64_t now_us();

constexpr int kPidPipeline = 1;
constexpr int kPidSim = 2;

/// Stable small id of the calling OS thread (1 = first thread seen).
std::uint32_t this_thread_id();

struct TraceArg {
  std::string key;
  /// Pre-rendered JSON: quoted+escaped for strings, bare for numbers.
  std::string value;
};

struct TraceEvent {
  std::string name;
  const char* cat = "";
  char ph = 'X';  // 'X' complete, 'i' instant, 'M' metadata, 'C' counter
  std::int64_t ts = 0;
  std::int64_t dur = 0;  // 'X' only
  int pid = kPidPipeline;
  std::uint32_t tid = 0;
  std::vector<TraceArg> args;
};

class TraceRecorder {
 public:
  /// The process-wide recorder the OBS_SPAN macros target.
  static TraceRecorder& global();

  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Spans shorter than this are dropped at destruction (0 keeps all).
  void set_min_span_us(std::int64_t us) {
    min_span_us_.store(us, std::memory_order_relaxed);
  }
  std::int64_t min_span_us() const {
    return min_span_us_.load(std::memory_order_relaxed);
  }

  /// Appends to the calling thread's buffer; a no-op while disabled.
  void record(TraceEvent event);

  /// Names the calling thread's wall-clock lane (sticky; emitted as Chrome
  /// 'thread_name' metadata at export time, independent of enablement).
  void name_this_thread(const std::string& name);
  /// Names a simulated lane (pid kPidSim).
  void name_sim_lane(std::uint32_t tid, const std::string& name);

  /// Drops all buffered events (lane names survive).
  void clear();

  /// All buffered events plus naming metadata, sorted by (pid, ts).
  std::vector<TraceEvent> collect() const;

  /// { "traceEvents": [...], "displayTimeUnit": "ms" }
  void write_chrome_json(std::ostream& os) const;

  /// Total duration (milliseconds) of buffered 'X' spans, by name — the
  /// per-phase wall-time breakdown exported into metrics snapshots and
  /// BENCH_*.json reports. Nested spans each contribute their full duration.
  std::map<std::string, double> span_totals_ms(int pid = kPidPipeline) const;

 private:
  struct Buffer {
    std::mutex mu;
    std::vector<TraceEvent> events;
  };
  Buffer& local_buffer();

  std::atomic<bool> enabled_{false};
  std::atomic<std::int64_t> min_span_us_{0};
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<Buffer>> buffers_;
  std::map<std::pair<int, std::uint32_t>, std::string> lane_names_;
  const std::uint64_t uid_ = next_uid_.fetch_add(1);
  static std::atomic<std::uint64_t> next_uid_;
};

/// RAII span on the calling thread's wall-clock lane. Construction arms the
/// span only if the recorder is enabled; `arg` calls on an unarmed span are
/// free. Destruction records a complete ('X') event unless the duration is
/// under the recorder's span floor.
class Span {
 public:
  explicit Span(const char* name, const char* cat = "pipeline")
      : Span(TraceRecorder::global(), name, cat) {}
  Span(std::string name, const char* cat = "pipeline")
      : Span(TraceRecorder::global(), std::move(name), cat) {}
  Span(TraceRecorder& recorder, const char* name,
       const char* cat = "pipeline");
  Span(TraceRecorder& recorder, std::string name,
       const char* cat = "pipeline");
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// True when the recorder was enabled at construction: guard any argument
  /// computation that is not free behind this.
  bool armed() const { return recorder_ != nullptr; }

  void arg(const char* key, std::int64_t value);
  void arg(const char* key, std::uint64_t value);
  template <typename T,
            typename = std::enable_if_t<std::is_integral_v<T> &&
                                        !std::is_same_v<T, std::int64_t> &&
                                        !std::is_same_v<T, std::uint64_t> &&
                                        !std::is_same_v<T, bool>>>
  void arg(const char* key, T value) {
    if constexpr (std::is_signed_v<T>)
      arg(key, static_cast<std::int64_t>(value));
    else
      arg(key, static_cast<std::uint64_t>(value));
  }
  void arg(const char* key, double value);
  void arg(const char* key, bool value);
  void arg(const char* key, const std::string& value);
  void arg(const char* key, const char* value);

 private:
  TraceRecorder* recorder_ = nullptr;  // null = unarmed
  std::int64_t start_ = 0;
  TraceEvent event_;
};

/// Does nothing; what OBS_SPAN declares when POLIS_OBS_DISABLED is set.
struct NullSpan {
  template <typename... Args>
  explicit NullSpan(Args&&...) {}
  static constexpr bool armed() { return false; }
  template <typename K, typename V>
  void arg(K&&, V&&) {}
};

/// Records an instant event on the calling thread's wall-clock lane.
void trace_instant(std::string name, const char* cat = "pipeline");

}  // namespace polis::obs

// OBS_SPAN(var, "name"[, "category"]) declares a named RAII span `var` in the
// current scope; call `var.arg(...)` (guarded by `var.armed()` when the value
// is not free to compute) to attach arguments.
#ifdef POLIS_OBS_DISABLED
#define OBS_SPAN(var, ...) ::polis::obs::NullSpan var
#else
#define OBS_SPAN(var, ...) ::polis::obs::Span var { __VA_ARGS__ }
#endif
