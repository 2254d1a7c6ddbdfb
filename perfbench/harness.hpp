// Shared plumbing for the end-to-end benchmark: command-line arguments,
// wall-clock helpers, the closed measuring loop, the result line, and
// summaries of the library's own trace spans.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "frontend/parser.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny inputs for the self-test: every code path, a fraction of the work.
  bool smoke = false;
};

/// The pinned default seed (README.md names the held-out one).
constexpr std::uint64_t kDefaultSeed = 1;

double now_s();

/// Parses examples/rsl/<name>.rsl, read relative to the working directory
/// (the repository root). Throws when the file is missing.
polis::frontend::ParsedFile parse_example(const std::string& name);

/// Runs `fn` and adds its wall time (seconds) to `acc`; returns fn's value.
template <typename F>
auto timed(double& acc, F&& fn) {
  const double t0 = now_s();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    acc += now_s() - t0;
  } else {
    auto out = fn();
    acc += now_s() - t0;
    return out;
  }
}

double median(std::vector<double> v);
/// Nearest-rank quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);
/// The highest percentile (multiple of 5) with at least ten samples beyond
/// it; 50 when there are too few samples for any higher one.
int tail_percentile(std::size_t samples);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Set-up is timed kSetupRepeats times, each from scratch, and the median
/// is reported as setup_s. The last state built is kept.
constexpr int kSetupRepeats = 5;
template <typename State>
State timed_setup(const std::function<State()>& make, double* setup_s) {
  std::vector<double> times;
  State state;
  for (int i = 0; i < kSetupRepeats; ++i) {
    state = State{};  // free the previous state first: one alive at a time
    const double t0 = now_s();
    state = make();
    times.push_back(now_s() - t0);
  }
  *setup_s = median(times);
  return state;
}

/// Closed loop: each pass starts when the previous one returns. Passes
/// continue while the next one is expected (from the last one's length) to
/// end within `seconds` of the start; there is at least one. `pass` returns
/// the time of its timed calls; the vector of those times is returned.
std::vector<double> closed_loop(double seconds,
                                const std::function<double()>& pass);

/// Operation counts and metrics of one run, printed as the last line.
class Report {
 public:
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// Records a failed operation with a reason (printed to stderr).
  void fail(const std::string& why);
  /// Checks `ok`; counts a failure described by `what` when false.
  void check(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }
  void metric(const std::string& name, double value, const std::string& unit);
  /// Prints the result object as one JSON line on stdout.
  void print() const;

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

/// Per-layer times and counts gathered by a traced pass, keyed by metric
/// name. Times are seconds, counts are plain numbers.
using Layers = std::map<std::string, double>;

/// Totals of the library's own spans recorded during one traced pass.
struct SpanSummary {
  /// Sum of span durations by name, seconds.
  std::map<std::string, double> total_s;
  /// Start/end (microseconds, obs::now_us clock) of every span by name.
  std::map<std::string, std::vector<std::pair<std::int64_t, std::int64_t>>>
      intervals;
};
/// Length (seconds) of the union of `intervals`, clipped to [lo, hi].
double covered_s(std::vector<std::pair<std::int64_t, std::int64_t>> intervals,
                 std::int64_t lo, std::int64_t hi);

/// Every per-layer metric name with its unit. A traced run prints all of
/// them; layers a workload does not run read 0.
const std::vector<std::pair<std::string, std::string>>& layer_metric_units();

/// Enables the library's span recorder for one traced pass.
class RecordSpans {
 public:
  RecordSpans();
  ~RecordSpans();
  RecordSpans(const RecordSpans&) = delete;
  RecordSpans& operator=(const RecordSpans&) = delete;
  /// Stops recording and summarizes what was recorded.
  SpanSummary finish();
};

/// A traced run alternates untraced and traced passes within `seconds`, by
/// the same rule as closed_loop (at least one of each). Returns the number of traced passes and
/// sets `layers["obs.trace_overhead_frac"]` from the median wall times.
int traced_loop(double seconds, const std::function<void()>& plain,
                const std::function<void()>& traced, Layers& layers);

/// Adds the end-to-end metrics of an untraced run to `report`.
void report_end_to_end(Report& report, double setup_s,
                       const std::vector<double>& pass_times,
                       long long code_bytes, long long est_max_cycles);

/// Workload entry points. An untraced run adds the end-to-end metrics to
/// `report`; a traced run fills `layers` (per traced pass).
void run_synth_random(const Args& args, Report& report, Layers& layers);
void run_verify(const Args& args, Report& report, Layers& layers,
                bool sharded);
void run_sim_dash(const Args& args, Report& report, Layers& layers);

}  // namespace perfbench
