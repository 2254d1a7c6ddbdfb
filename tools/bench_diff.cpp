// bench_diff — CI perf-regression gate over two BENCH_*.json reports
// (bench/report.hpp shape). Compares a baseline report against a current one
// and exits nonzero when a *gated* metric regressed past the threshold or a
// bound in the baseline's "gates" fails. It is the only perf gate in CI.
//
// Gating is direction-aware and noise-aware:
//   * higher-is-better:  *per_sec*, *_rate         (regression = drop)
//   * lower-is-better:   *seconds*, *_ms, *wall*   (regression = growth)
//   * everything else (counts, sizes, config echoes) is informational only —
//     a peak_nodes change is worth seeing but machines differ legitimately.
//   * sub-floor timings are never gated: a 0.2 ms microbench swinging 2x is
//     scheduler noise, not a regression. Rate metrics inherit the floor from
//     the entry's wall_seconds when present.
//
// Entries present in the baseline but missing from the current report fail
// the gate too — silently dropped coverage must not read as "no regressions".
//
// The baseline's optional "gates" add bounds a relative diff cannot express:
//   "gates": { "min": { "ite_heavy.ops_per_sec": 2.0e7 }, "exact": ["swaps"] }
// A "min" floor on "<entry>.<metric>" holds whatever the noise floor says; an
// "exact" metric must equal the baseline in every entry that has it (exit 1
// otherwise). Another gate kind, or a gate on a metric the baseline lacks,
// exits 2.
//
// `bench_diff --help` lists the options.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cli.hpp"
#include "obs/json.hpp"

namespace {

using polis::obs::json::Value;

struct Report {
  std::string bench;
  // entry name -> metric name -> value; numeric metrics only.
  std::map<std::string, std::map<std::string, double>> entries;
  std::map<std::string, double> phases;
  // "gates": "entry.metric" -> floor, and the metrics that must match.
  std::map<std::string, double> min;
  std::set<std::string> exact;
};

[[noreturn]] void die(const std::string& msg) {
  std::cerr << "bench_diff: " << msg << "\n";
  std::exit(2);
}

Report load(const std::string& path) {
  std::ifstream is(path);
  if (!is) die("cannot open " + path);
  std::ostringstream buf;
  buf << is.rdbuf();
  Value doc;
  try {
    doc = polis::obs::json::parse(buf.str());
  } catch (const std::exception& e) {
    die(path + ": " + e.what());
  }
  if (!doc.is_object()) die(path + ": top level is not an object");
  Report r;
  if (const Value* b = doc.find("bench"); b && b->is_string()) r.bench = b->str;
  const Value* entries = doc.find("entries");
  if (!entries || !entries->is_array())
    die(path + ": missing \"entries\" array");
  for (const Value& e : entries->array) {
    const Value* name = e.find("name");
    const Value* metrics = e.find("metrics");
    if (!name || !name->is_string() || !metrics || !metrics->is_object())
      die(path + ": entry without name/metrics");
    auto& slot = r.entries[name->str];
    for (const auto& [key, v] : metrics->object)
      if (v.is_number()) slot[key] = v.number;
  }
  if (const Value* phases = doc.find("phases"); phases && phases->is_object())
    for (const auto& [key, v] : phases->object)
      if (v.is_number()) r.phases[key] = v.number;
  const Value* gates = doc.find("gates");
  if (!gates) return r;
  if (!gates->is_object()) die(path + ": \"gates\" is not an object");
  // Gates may name only metrics the report has: a typo must not void one.
  std::set<std::string> labels, names;
  for (const auto& [entry, metrics] : r.entries)
    for (const auto& [metric, v] : metrics) {
      labels.insert(entry + "." + metric);
      names.insert(metric);
    }
  for (const auto& [kind, v] : gates->object) {
    if (kind == "min" && v.is_object()) {
      for (const auto& [label, floor] : v.object) {
        if (!floor.is_number() || labels.count(label) == 0)
          die(path + ": gates.min names no numeric metric: " + label);
        r.min[label] = floor.number;
      }
    } else if (kind == "exact" && v.is_array()) {
      for (const Value& metric : v.array) {
        if (names.count(metric.str) == 0)
          die(path + ": gates.exact names no metric: " + metric.str);
        r.exact.insert(metric.str);
      }
    } else {
      die(path + ": unknown gate \"" + kind + "\" (want min {} or exact [])");
    }
  }
  return r;
}

bool contains(const std::string& s, const char* needle) {
  return s.find(needle) != std::string::npos;
}

enum class Direction { kHigherBetter, kLowerBetter, kNeutral };

Direction direction_of(const std::string& metric) {
  if (contains(metric, "per_sec") || metric.ends_with("_rate"))
    return Direction::kHigherBetter;
  if (contains(metric, "seconds") || metric.ends_with("_ms") ||
      contains(metric, "wall"))
    return Direction::kLowerBetter;
  return Direction::kNeutral;
}

/// Timing value in seconds for the noise-floor check, or -1 if `metric`
/// isn't a timing.
double as_seconds(const std::string& metric, double value) {
  if (contains(metric, "seconds")) return value;
  if (metric.ends_with("_ms")) return value / 1000.0;
  return -1.0;
}

struct Options {
  double threshold = 0.25;
  double noise_floor_seconds = 0.005;
  bool list_all = false;
};

void print_row(const std::string& label, double base, double cur, double rel,
               const char* verdict) {
  std::printf("%-44s %14.6g %14.6g %+8.1f%%  %s\n", label.c_str(), base, cur,
              rel * 100.0, verdict);
}

void print_missing(const std::string& label, const char* verdict) {
  std::printf("%-44s %14s %14s %9s  %s\n", label.c_str(), "-", "-", "-",
              verdict);
}

int run(const Report& base, const Report& cur, const Options& opt) {
  int failures = 0;
  std::printf("%-44s %14s %14s %9s  %s\n", "entry.metric", "baseline",
              "current", "change", "verdict");
  for (const auto& [entry, base_metrics] : base.entries) {
    auto cur_it = cur.entries.find(entry);
    if (cur_it == cur.entries.end()) {
      print_missing(entry, "FAIL (entry missing from current report)");
      ++failures;
      continue;
    }
    for (const auto& [metric, base_val] : base_metrics) {
      const std::string label = entry + "." + metric;
      const bool exact = base.exact.count(metric) > 0;
      const auto floor = base.min.find(label);
      auto mv = cur_it->second.find(metric);
      if (mv == cur_it->second.end()) {
        if (exact || floor != base.min.end()) {
          print_missing(label, "FAIL (gated metric missing)");
          ++failures;
        }
        continue;
      }
      const double cur_val = mv->second;
      // An absolute floor holds whatever the noise floor says.
      if (floor != base.min.end() && cur_val < floor->second) {
        print_row(label, floor->second, cur_val,
                  (cur_val - floor->second) / std::fabs(floor->second),
                  "FAIL (below min gate)");
        ++failures;
      }
      const double rel =
          base_val == 0.0 ? (cur_val == 0.0 ? 0.0 : HUGE_VAL)
                          : (cur_val - base_val) / std::fabs(base_val);
      const Direction dir = direction_of(metric);

      const char* verdict = "ok";
      bool show = opt.list_all;
      if (exact) {
        if (cur_val != base_val) {
          verdict = "FAIL (exact gate)";
          show = true;
          ++failures;
        }
      } else if (dir == Direction::kNeutral) {
        if (rel != 0.0) {
          verdict = "info (not gated)";
          show = true;
        }
      } else {
        // Noise floor: a timing metric is gated only when either side is at
        // least the floor; a rate metric defers to its entry's wall time.
        auto quiet = [&](double base_s, double cur_s) {
          return base_s >= 0.0 && base_s < opt.noise_floor_seconds &&
                 cur_s < opt.noise_floor_seconds;
        };
        auto base_wall = base_metrics.find("wall_seconds");
        auto cur_wall = cur_it->second.find("wall_seconds");
        const bool gated =
            !quiet(as_seconds(metric, base_val), as_seconds(metric, cur_val)) &&
            !(dir == Direction::kHigherBetter &&
              base_wall != base_metrics.end() &&
              cur_wall != cur_it->second.end() &&
              quiet(base_wall->second, cur_wall->second));
        const bool regressed = dir == Direction::kHigherBetter
                                   ? rel < -opt.threshold
                                   : rel > opt.threshold;
        if (!gated) {
          if (regressed) {
            verdict = "skip (below noise floor)";
            show = true;
          }
        } else if (regressed) {
          verdict = "REGRESSION";
          show = true;
          ++failures;
        } else if (std::fabs(rel) > opt.threshold) {
          verdict = "improved";
          show = true;
        }
      }
      if (show) print_row(label, base_val, cur_val, rel, verdict);
    }
  }
  for (const auto& [entry, metrics] : cur.entries)
    if (base.entries.count(entry) == 0)
      print_missing(entry, "new entry (not gated)");
  // Phase wall-times are informational: sub-millisecond span totals swing
  // with machine load, and the gated wall_seconds already cover the benches.
  for (const auto& [phase, base_ms] : base.phases) {
    auto it = cur.phases.find(phase);
    if (it == cur.phases.end()) continue;
    const double rel =
        base_ms == 0.0 ? 0.0 : (it->second - base_ms) / base_ms;
    if (opt.list_all || std::fabs(rel) > opt.threshold)
      print_row("phase." + phase, base_ms, it->second, rel, "info (not gated)");
  }
  std::printf("\n%d gate failure%s (threshold %.0f%%, %zu min gates, %zu exact "
              "metrics)\n", failures, failures == 1 ? "" : "s",
              opt.threshold * 100.0, base.min.size(), base.exact.size());
  return failures > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string base_path, cur_path;
  Options opt;
  namespace cli = polis::cli;
  cli::parse("bench_diff", {
      cli::text("", &base_path, "BASELINE.json", "the baseline report"),
      cli::text("", &cur_path, "CURRENT.json", "the report to gate"),
      cli::real("--threshold", &opt.threshold, 0.0, true, "FRAC",
                "gate at |relative change| > FRAC"),
      cli::real("--noise-floor-seconds", &opt.noise_floor_seconds, 0.0, false,
                "SEC", "never gate timings under SEC"),
      cli::flag("--list-all", &opt.list_all, "print unchanged metrics too"),
  }, argc, argv);
  const Report base = load(base_path);
  const Report cur = load(cur_path);
  if (!base.bench.empty() && !cur.bench.empty() && base.bench != cur.bench)
    std::cerr << "bench_diff: warning: comparing different benches (\""
              << base.bench << "\" vs \"" << cur.bench << "\")\n";
  return run(base, cur, opt);
}
