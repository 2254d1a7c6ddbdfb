// Metrics registry: named counters, gauges and log-linear-bucket histograms
// with a lock-free fast path. Updates go to a per-thread shard (preallocated
// arrays of relaxed atomics — no lock, no allocation, no hash lookup once an
// Id is held); `snapshot` merges the shards under the registry mutex.
//
// Stats mirror: the one path from a subsystem's stats struct (KernelStats,
// SiftTelemetry, ReachStats, the governor, rtos::SimStats) into the global
// registry, so one `--metrics` snapshot covers the whole flow. A struct
// declares its metrics once, as a table of (name, kind, reader), and `drain`
// applies one rule to every row: a counter adds its growth since the state's
// last drain (registry counters are cumulative, so flushing twice adds
// nothing), a gauge sets its value, and a histogram observes its value on the
// state's first drain and then only when it changed. Long-lived structs keep
// a `MirrorState` and drain into it as often as they like; per-run structs
// `publish` against a fresh one.
//
// Concurrency model: registration (name → Id) takes a mutex; mirrors
// register their names once per process from a function-local static, so
// synthesis worker threads may flush concurrently. `add`/`set`/`observe`
// (and so a drain) are safe from any thread concurrently with `snapshot`.
// Counts are monotonic and read with relaxed ordering — a snapshot taken
// mid-update is a valid (slightly stale) prefix, never torn.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace polis::obs {

// A gauge keeps its last write; a max-gauge is merged by maximum.
enum class MetricKind { kCounter, kGauge, kMaxGauge, kHistogram };

class MetricsRegistry {
 public:
  using Id = std::uint32_t;
  static constexpr Id kInvalidId = 0xffffffffu;

  /// Histogram buckets are log-linear (HdrHistogram-style): each power-of-two
  /// octave is split into 2^kSubBits linear sub-buckets, so values 0..15 land
  /// in their own exact bucket and every wider bucket spans at most a
  /// 1/(2*2^kSubBits) = ~6% relative error around its midpoint — tight enough
  /// that p50/p90/p99 read off the buckets are honest. Bucket b < 16 holds
  /// exactly the value b; bucket b >= 16 with octave o = b >> kSubBits and
  /// sub-index m = b & 7 holds [(8+m) << (o-1), ((9+m) << (o-1)) - 1]. The
  /// last bucket's upper bound is UINT64_MAX.
  static constexpr int kSubBits = 3;
  // Highest bucket index is ((64 - kSubBits) << kSubBits) | (2^kSubBits - 1).
  static constexpr int kBuckets = (64 - kSubBits + 1) * (1 << kSubBits);  // 496

  // Per-shard capacity; registering more of a kind is a CheckError. Sized so
  // a shard stays ~130 KiB (histogram bucket arrays dominate) — still cheap
  // enough to preallocate per thread.
  static constexpr std::uint32_t kMaxCounters = 256;
  static constexpr std::uint32_t kMaxGauges = 64;
  static constexpr std::uint32_t kMaxHistograms = 32;

  /// The process-wide registry every instrumented subsystem reports to.
  static MetricsRegistry& global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // --- Registration (idempotent by name) ------------------------------------

  Id counter(const std::string& name);
  /// Last-write-wins gauge (writes are sequenced across threads).
  Id gauge(const std::string& name);
  /// Gauge merged by maximum across all writes (e.g. peak node counts).
  Id max_gauge(const std::string& name);
  Id histogram(const std::string& name);
  /// Any of the four above, by kind (the stats mirror's registration path).
  Id register_named(MetricKind kind, const std::string& name);

  // --- Updates (lock-free; Id kind must match the registration) -------------

  void add(Id id, std::uint64_t delta = 1);
  void set(Id id, std::int64_t value);
  void observe(Id id, std::uint64_t value);

  // --- Snapshot / export ----------------------------------------------------

  struct HistogramView {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::array<std::uint64_t, kBuckets> buckets{};
  };
  struct Snapshot {
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, std::int64_t> gauges;
    std::map<std::string, HistogramView> histograms;
  };
  Snapshot snapshot() const;

  /// Zeroes every metric in every shard (names and Ids stay registered).
  void reset();

  /// Machine-readable snapshot:
  ///   { "counters": {..}, "gauges": {..},
  ///     "histograms": { name: {"count","sum","buckets":[[lo,hi,n],..]} },
  ///     "derived": { "bdd.cache_hit_rate": .., "<hist>_avg": .. } }
  /// Histogram bucket triples list only non-empty buckets. Derived
  /// `<hist>_avg` values divide the *exact* merged per-shard sums by the
  /// merged counts — never bucket midpoints, which would skew the mean by up
  /// to the bucket's relative error.
  void write_json(std::ostream& os) const;

  static int bucket_of(std::uint64_t value);
  static std::uint64_t bucket_lo(int bucket);
  /// Inclusive upper bound; the last bucket returns UINT64_MAX.
  static std::uint64_t bucket_hi(int bucket);

 private:
  using Kind = MetricKind;
  static constexpr std::uint32_t kKindShift = 28;
  static Kind kind_of(Id id) { return static_cast<Kind>(id >> kKindShift); }
  static std::uint32_t index_of(Id id) {
    return id & ((1u << kKindShift) - 1);
  }
  static Id make_id(Kind k, std::uint32_t index) {
    return (static_cast<std::uint32_t>(k) << kKindShift) | index;
  }

  struct GaugeCell {
    std::atomic<std::uint64_t> seq{0};  // 0 = never written
    std::atomic<std::int64_t> value{0};
  };
  struct HistogramCells {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
  };
  struct Shard {
    std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
    std::array<GaugeCell, kMaxGauges> gauges{};
    std::array<HistogramCells, kMaxHistograms> histograms{};
  };

  Shard& local_shard();

  mutable std::mutex mu_;
  // Name → Id per kind (gauge and max_gauge share the gauge index space).
  std::map<std::string, Id> names_;
  std::uint32_t num_counters_ = 0;
  std::uint32_t num_gauges_ = 0;
  std::uint32_t num_histograms_ = 0;
  std::vector<std::shared_ptr<Shard>> shards_;
  // Distinguishes registries that reuse a freed address (thread-local shard
  // maps are keyed by this, not by pointer).
  const std::uint64_t uid_ = next_uid_.fetch_add(1);
  std::atomic<std::uint64_t> gauge_seq_{0};
  static std::atomic<std::uint64_t> next_uid_;
};

template <class Stats>
struct MirroredMetric {
  const char* name;
  MetricKind kind;
  std::uint64_t (*read)(const Stats&);  // current (cumulative) value
};

/// Readers: a numeric or bool data member, and a count of publishes.
template <auto Member, class Stats>
std::uint64_t field(const Stats& stats) {
  return static_cast<std::uint64_t>(stats.*Member);
}
template <class Stats>
std::uint64_t one(const Stats&) { return 1; }

/// What one stats instance has published so far; value-initialised = none.
struct MirrorState {
  static constexpr std::size_t kMaxMetrics = 20;
  std::array<std::uint64_t, kMaxMetrics> last{};
  bool drained = false;
};

/// Publishes what changed in `stats` since `state` was last drained. The
/// first call registers `Table`'s names (a function-local static).
template <const auto& Table, class Stats>
void drain(const Stats& stats, MirrorState& state) {
  constexpr std::size_t kRows = std::size(Table);
  static_assert(kRows <= MirrorState::kMaxMetrics);
  static const std::array<MetricsRegistry::Id, kRows> ids = [] {
    std::array<MetricsRegistry::Id, kRows> out{};
    for (std::size_t i = 0; i < kRows; ++i)
      out[i] = MetricsRegistry::global().register_named(Table[i].kind,
                                                        Table[i].name);
    return out;
  }();
  MetricsRegistry& reg = MetricsRegistry::global();
  for (std::size_t i = 0; i < kRows; ++i) {
    const std::uint64_t now = Table[i].read(stats);
    std::uint64_t& last = state.last[i];
    if (Table[i].kind == MetricKind::kCounter) {
      if (now > last) reg.add(ids[i], now - last);
    } else if (Table[i].kind == MetricKind::kHistogram) {
      if (!state.drained || now != last) reg.observe(ids[i], now);
    } else {
      reg.set(ids[i], static_cast<std::int64_t>(now));
    }
    last = now;
  }
  state.drained = true;
}

/// Publishes a struct that describes one finished run, in full.
template <const auto& Table, class Stats>
void publish(const Stats& stats) {
  MirrorState fresh;
  drain<Table>(stats, fresh);
}

}  // namespace polis::obs
