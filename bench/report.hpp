// Machine-readable bench results: every bench harness that tracks the perf
// trajectory writes a BENCH_<NAME>.json next to its stdout tables, so a PR's
// effect on op/s, cache hit rates, peak node counts and wall time can be
// diffed mechanically run-over-run.
//
// Shape:
//   {
//     "bench": "bench_bdd",
//     "entries": [
//       { "name": "ite_heavy", "metrics": { "ops_per_sec": 123456.7, ... } },
//       ...
//     ],
//     "phases": { "bdd.sift": 12.5, ... }   // span wall-time totals, ms
//   }
//
// The optional "phases" section is the obs tracing layer's per-phase wall
// time breakdown: call `Report::capture_phases()` (typically once, at the
// end of main, with the recorder enabled for the whole run) and every named
// span's total duration lands in the report.
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/series.hpp"
#include "obs/trace.hpp"

namespace polis::bench {

class Report {
 public:
  explicit Report(std::string bench_name) : bench_(std::move(bench_name)) {}

  class Entry {
   public:
    explicit Entry(std::string name) : name_(std::move(name)) {}

    Entry& metric(const std::string& key, double value) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.6g", value);
      metrics_.emplace_back(key, std::string(buf));
      return *this;
    }
    template <typename T,
              typename = std::enable_if_t<std::is_integral_v<T>>>
    Entry& metric(const std::string& key, T value) {
      metrics_.emplace_back(key, std::to_string(value));
      return *this;
    }
    Entry& text(const std::string& key, const std::string& value) {
      metrics_.emplace_back(key, "\"" + escaped(value) + "\"");
      return *this;
    }
    bool operator==(const Entry&) const = default;

   private:
    friend class Report;
    std::string name_;
    // Keys paired with already-JSON-rendered values, in insertion order.
    std::vector<std::pair<std::string, std::string>> metrics_;
  };

  /// Starts a new record; keep the reference only until the next `entry`.
  Entry& entry(std::string name) {
    entries_.emplace_back(std::move(name));
    return entries_.back();
  }

  /// Snapshots the recorder's per-span wall-time totals into the report's
  /// "phases" section (milliseconds by span name). No-op totals (recorder
  /// never enabled) leave the section out entirely.
  void capture_phases(
      const obs::TraceRecorder& recorder = obs::TraceRecorder::global()) {
    phases_ = recorder.span_totals_ms();
  }

  /// Folds the registry's histograms through the quantile sketch into one
  /// `series.<hist>` entry each (count/sum/p50/p90/p99) and records how many
  /// epochs each series timebase ticked, so bench_diff sees distributional
  /// shifts (a fatter latency tail) and coverage changes (fewer fixpoint
  /// layers), not just totals.
  void capture_series(
      const obs::MetricsRegistry& registry = obs::MetricsRegistry::global()) {
    const obs::MetricsRegistry::Snapshot snap = registry.snapshot();
    for (const auto& [name, h] : snap.histograms) {
      if (h.count == 0) continue;
      const obs::QuantileSketch sk = obs::QuantileSketch::from_histogram(h);
      entry("series." + name)
          .metric("count", h.count)
          .metric("sum", h.sum)
          .metric("p50", sk.quantile(0.5))
          .metric("p90", sk.quantile(0.9))
          .metric("p99", sk.quantile(0.99));
    }
    const obs::SeriesRecorder& rec = obs::SeriesRecorder::global();
    entry("series.epochs")
        .metric("wall", rec.total_epochs(obs::Timebase::kWall))
        .metric("cycles", rec.total_epochs(obs::Timebase::kSim))
        .metric("layer", rec.total_epochs(obs::Timebase::kLayer));
  }

  /// Writes the report; complains on stderr (but does not throw) when the
  /// file cannot be opened, so benches still run in read-only sandboxes.
  void write(const std::string& path) const {
    std::ofstream os(path);
    if (!os) {
      std::cerr << "report: cannot write " << path << "\n";
      return;
    }
    os << "{\n  \"bench\": \"" << escaped(bench_) << "\",\n  \"entries\": [";
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      os << (i == 0 ? "" : ",") << "\n    { \"name\": \"" << escaped(e.name_)
         << "\", \"metrics\": { ";
      for (size_t m = 0; m < e.metrics_.size(); ++m) {
        os << (m == 0 ? "" : ", ") << "\"" << escaped(e.metrics_[m].first)
           << "\": " << e.metrics_[m].second;
      }
      os << " } }";
    }
    os << "\n  ]";
    if (!phases_.empty()) {
      os << ",\n  \"phases\": { ";
      bool first = true;
      for (const auto& [name, ms] : phases_) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.3f", ms);
        os << (first ? "" : ", ") << "\"" << escaped(name) << "\": " << buf;
        first = false;
      }
      os << " }";
    }
    os << "\n}\n";
    std::cout << "wrote " << path << " (" << entries_.size() << " entries)\n";
  }

 private:
  static std::string escaped(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
    }
    return out;
  }

  std::string bench_;
  std::vector<Entry> entries_;
  std::map<std::string, double> phases_;
};

}  // namespace polis::bench
