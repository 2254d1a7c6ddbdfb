#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "obs/trace.hpp"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

polis::frontend::ParsedFile parse_example(const std::string& name) {
  const std::string path = "examples/rsl/" + name + ".rsl";
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return polis::frontend::parse(text.str());
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

int tail_percentile(std::size_t samples) {
  for (int p = 95; p > 50; p -= 5) {
    // Samples strictly above the nearest-rank p-th percentile.
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(samples)));
    if (samples - rank >= 10) return p;
  }
  return 50;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<double> closed_loop(double seconds,
                                const std::function<double()>& pass) {
  std::vector<double> times;
  const double start = now_s();
  double last = 0;
  do {
    const double t0 = now_s();
    times.push_back(pass());
    last = now_s() - t0;
  } while (now_s() + last - start <= seconds);
  std::cerr << "pass times (s):";
  for (double t : times) std::cerr << " " << std::setprecision(4) << t;
  std::cerr << "\n";
  return times;
}

void Report::fail(const std::string& why) {
  ++failed_;
  std::cerr << "check failed: " << why << "\n";
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {value, unit};
}

void report_end_to_end(Report& report, double setup_s,
                       const std::vector<double>& pass_times,
                       long long code_bytes, long long est_max_cycles) {
  report.metric("setup_s", setup_s, "s");
  report.metric("pass_s", median(pass_times), "s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.metric("code_bytes", static_cast<double>(code_bytes), "bytes");
  report.metric("est_max_cycles", static_cast<double>(est_max_cycles),
                "cycles");
}

namespace {

SpanSummary collect_spans() {
  SpanSummary out;
  for (const polis::obs::TraceEvent& e :
       polis::obs::TraceRecorder::global().collect()) {
    if (e.ph != 'X' || e.pid != polis::obs::kPidPipeline) continue;
    out.total_s[e.name] += static_cast<double>(e.dur) * 1e-6;
    out.intervals[e.name].emplace_back(e.ts, e.ts + e.dur);
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return os.str();
}

}  // namespace

void Report::print() const {
  std::ostringstream os;
  os << "{\"correct\": " << (failed_ == 0 && attempted_ > 0 ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    if (!first) os << ", ";
    first = false;
    os << "\"" << name << "\": {\"value\": " << json_number(vu.first)
       << ", \"unit\": \"" << vu.second << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

RecordSpans::RecordSpans() {
  polis::obs::TraceRecorder::global().clear();
  polis::obs::TraceRecorder::global().set_enabled(true);
}

RecordSpans::~RecordSpans() {
  polis::obs::TraceRecorder::global().set_enabled(false);
}

SpanSummary RecordSpans::finish() {
  polis::obs::TraceRecorder::global().set_enabled(false);
  SpanSummary out = collect_spans();
  polis::obs::TraceRecorder::global().clear();
  return out;
}

int traced_loop(double seconds, const std::function<void()>& plain,
                const std::function<void()>& traced, Layers& layers) {
  std::vector<double> plain_wall, traced_wall;
  const double start = now_s();
  do {
    double t0 = now_s();
    plain();
    plain_wall.push_back(now_s() - t0);
    t0 = now_s();
    traced();
    traced_wall.push_back(now_s() - t0);
  } while (now_s() + plain_wall.back() + traced_wall.back() - start <=
           seconds);
  const double base = median(plain_wall);
  layers["obs.trace_overhead_frac"] = (median(traced_wall) - base) / base;
  return static_cast<int>(traced_wall.size());
}

double covered_s(std::vector<std::pair<std::int64_t, std::int64_t>> intervals,
                 std::int64_t lo, std::int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t reach = lo;  // everything before `reach` is accounted for
  for (auto [a, b] : intervals) {
    a = std::max(a, reach);
    b = std::min(b, hi);
    if (b > a) {
      covered += b - a;
      reach = b;
    }
  }
  return static_cast<double>(covered) * 1e-6;
}

const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> kUnits = {
      // Set-up.
      {"estim.calibrate_s", "s"},
      {"frontend.parse_s", "s"},
      // Per-CFSM synthesis, in synthesize()'s order (batch sums per pass).
      {"cfsm.chi_s", "s"},
      {"bdd.sift_s", "s"},
      {"sgraph.build_s", "s"},
      {"vm.compile_s", "s"},
      {"codegen.generate_c_s", "s"},
      {"estim.estimate_s", "s"},
      {"bdd.sift.swaps", "count"},
      {"bdd.sift.size_evals", "count"},
      {"bdd.apply_calls", "count"},
      {"bdd.cache_lookups", "count"},
      {"bdd.cache_hit_rate", "ratio"},
      {"bdd.peak_nodes", "count"},
      {"sgraph.nodes", "count"},
      {"synth.item_ms_p50", "ms"},
      {"synth.item_ms_tail", "ms"},
      // Verification, in verify_network()'s order (sums per pass).
      {"verif.encode_s", "s"},
      {"verif.transition_s", "s"},
      {"verif.reach_s", "s"},
      {"verif.check_s", "s"},
      {"verif.care_s", "s"},
      {"verif.peak_live_nodes", "count"},
      {"verif.gc_runs", "count"},
      {"verif.worker_gc_runs", "count"},
      {"verif.worker_peak_nodes_max", "count"},
      {"par_image.setup_s", "s"},
      {"par_image.shard_busy_s", "s"},
      {"par_image.main_serial_s", "s"},
      {"par_image.coverage_frac", "ratio"},
      {"bdd.gc_s", "s"},
      {"bdd.cache_resize_s", "s"},
      {"bdd.and_exists_calls", "count"},
      {"bdd.copy_across_calls", "count"},
      {"bdd.copy_nodes", "count"},
      // RTOS simulation (sums over the pass's configurations).
      {"rtos.run_s", "s"},
      {"rtos.react_s", "s"},
      {"rtos.self_s", "s"},
      {"rtos.reactions_run", "count"},
      {"rtos.empty_reactions", "count"},
      {"rtos.lost_events", "count"},
      {"rtos.overhead_cycles", "cycles"},
      {"rtos.busy_cycles", "cycles"},
      {"rtos.latency_max_cycles", "cycles"},
      {"rtos.events_per_s", "1/s"},
      {"rtos.reactions_per_s", "1/s"},
      // Whole pass.
      {"unattributed_frac", "ratio"},
      {"obs.trace_overhead_frac", "ratio"},
  };
  return kUnits;
}

}  // namespace perfbench
