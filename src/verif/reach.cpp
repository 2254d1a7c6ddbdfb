#include "verif/reach.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <set>

#include "obs/obs.hpp"
#include "obs/series.hpp"
#include "util/check.hpp"
#include "util/governor.hpp"
#include "util/thread_pool.hpp"
#include "verif/par_image.hpp"

namespace polis::verif {

namespace {

using enum obs::MetricKind;
using obs::field;

// Published once per run; the per-iteration loop below publishes nothing
// unless a series is being recorded.
constexpr obs::MirroredMetric<ReachStats> kReachMetrics[] = {
    {"reach.runs", kCounter, obs::one},
    {"reach.iterations", kCounter, field<&ReachStats::iterations>},
    {"reach.gc_runs", kCounter, field<&ReachStats::gc_runs>},
    {"reach.widenings", kCounter, field<&ReachStats::widenings>},
    {"reach.budget_recoveries", kCounter,
     field<&ReachStats::budget_recoveries>},
    {"reach.inexact_runs", kCounter,
     [](const ReachStats& s) -> std::uint64_t { return !s.exact; }},
    {"reach.unconverged_runs", kCounter,
     [](const ReachStats& s) -> std::uint64_t { return !s.converged; }},
    {"reach.peak_live_nodes", kMaxGauge, field<&ReachStats::peak_live_nodes>},
    {"reach.fixpoint_depth", kHistogram, field<&ReachStats::iterations>},
};

// Sharded runs only, so these names appear only after one.
constexpr obs::MirroredMetric<ReachStats> kShardMetrics[] = {
    {"reach.shards", kMaxGauge, field<&ReachStats::shards>},
    {"reach.worker_peak_nodes", kMaxGauge,
     [](const ReachStats& s) -> std::uint64_t {
       std::size_t peak = 0;
       for (const std::size_t p : s.worker_peak_nodes) peak = std::max(peak, p);
       return peak;
     }},
    {"reach.worker_gc_runs", kCounter, field<&ReachStats::worker_gc_runs>},
};

/// Budget exceeded: existentially smooth the present variable contributing
/// the most live nodes out of `reached`. Monotone (only enlarges the set),
/// so the fixpoint still terminates — just on an overapproximation.
bdd::Bdd widen(NetworkEncoding& enc, const bdd::Bdd& reached) {
  bdd::BddManager& mgr = enc.manager();
  const std::vector<size_t> profile = mgr.var_node_profile();
  const std::set<int> support = mgr.support(reached);
  int fattest = -1;
  size_t best = 0;
  for (int v : enc.present_vars()) {
    if (support.count(v) == 0) continue;
    const size_t weight = profile[static_cast<size_t>(v)];
    if (fattest < 0 || weight > best) {
      fattest = v;
      best = weight;
    }
  }
  if (fattest < 0) return reached;  // nothing left to smooth
  return mgr.smooth(reached, {fattest});
}

}  // namespace

ReachResult reachable_states(const TransitionSystem& tr,
                             const ReachOptions& options) {
  POLIS_CHECK(tr.enc != nullptr);
  NetworkEncoding& enc = *tr.enc;
  bdd::BddManager& mgr = enc.manager();

  OBS_SPAN(span, "verif.reach", "verif");

  ResourceGovernor* const gov = ResourceGovernor::current();
  const bool degrade = ResourceGovernor::degrading();

  ReachResult result;
  {
    // The initial set is tiny but its kernel ops still hit the amortized
    // governor poll: in degrade mode a pre-cancelled / past-deadline run
    // must reach the loop head (which stops honestly) instead of throwing
    // from setup.
    std::optional<ResourceGovernor::Suspend> setup_guard;
    if (degrade) setup_guard.emplace();
    result.reached = enc.initial_set();
  }
  bdd::Bdd frontier = result.reached;
  result.layers.push_back(frontier);
  result.stats.peak_live_nodes = mgr.live_node_count();

  // Parallel image engine: sharded per-cluster images on private worker
  // managers, merged deterministically back here (see par_image.hpp). The
  // merged image is the same canonical BDD the serial path computes, so
  // everything downstream — layers, verdicts, counterexamples — is
  // bit-identical at every thread count.
  // Degradation ladder: in degrade mode a governor node/byte/allocation
  // trip mid-image falls back to widening (the set only grows, so an empty bad-intersection still proves
  // safety); a deadline or cancellation ends the run honestly non-converged
  // (the reached set UNDERapproximates — `converged` gates every kProved
  // downstream). In fail mode governor errors propagate.

  const int threads =
      options.num_threads == 0
          ? static_cast<int>(ThreadPool::default_threads())
          : options.num_threads;
  std::unique_ptr<ParallelImage> par;
  if (threads > 1 && tr.clusters.size() > 1) {
    // Worker setup migrates the whole relation into per-worker managers —
    // a real allocation that can trip an already-tight budget or land
    // after a cancellation. In degrade mode, fall back to the serial image
    // path (which has its own recovery ladder below) instead of failing the
    // run; the loop head re-checks deadline/cancel before the first image.
    try {
      par = std::make_unique<ParallelImage>(tr, threads);
    } catch (const RecoverableError&) {
      ResourceGovernor::degrade_or_rethrow(
          "parallel image setup over budget; serial");
    }
  }
  const auto step_image = [&](const bdd::Bdd& from) {
    return par != nullptr ? par->image(from) : image(tr, from);
  };
  const auto stop_unconverged = [&result]() {
    result.stats.exact = false;
    result.stats.converged = false;
    result.layers.clear();
  };

  while (!frontier.is_zero()) {
    if (gov != nullptr) {
      if (!degrade) {
        gov->poll();  // fail mode: throws past deadline / on cancel
      } else if (gov->deadline_expired() || gov->cancel_requested()) {
        gov->note_degradation("verif fixpoint stopped at deadline/cancel");
        stop_unconverged();
        break;
      }
    }
    ++result.stats.iterations;

    // One span per BFS onion layer; node counts are only computed when the
    // recorder is armed (node_count walks the BDD).
    OBS_SPAN(layer_span, "reach.layer", "verif");
    if (layer_span.armed()) {
      layer_span.arg("iteration", result.stats.iterations);
      layer_span.arg("frontier_nodes", mgr.node_count(frontier));
    }

    try {
      const bdd::Bdd img = step_image(frontier);
      frontier = img & !result.reached;
      result.reached = result.reached | frontier;
    } catch (const Cancelled&) {
      ResourceGovernor::degrade_or_rethrow(
          "verif fixpoint cancelled mid-image");
      stop_unconverged();
      break;
    } catch (const BudgetExceeded& e) {
      if (e.kind() == BudgetExceeded::Kind::kDeadline) {
        ResourceGovernor::degrade_or_rethrow(
            "verif fixpoint stopped at deadline");
        stop_unconverged();
        break;
      }
      // Node/byte/allocation pressure: widen under governor suspension
      // (the recovery itself must not re-trip), reclaim memory, restart
      // the frontier from the enlarged set.
      ResourceGovernor::degrade_or_rethrow("verif image over budget; widening");
      ResourceGovernor::Suspend suspend;
      ++result.stats.budget_recoveries;
      const bdd::Bdd widened = widen(enc, result.reached);
      if (widened == result.reached) {
        // Nothing left to smooth: the abstraction cannot get coarser, so
        // stop with an honest non-verdict instead of spinning.
        stop_unconverged();
        break;
      }
      result.reached = widened;
      frontier = result.reached;
      result.layers.clear();
      result.stats.exact = false;
      ++result.stats.widenings;
      mgr.garbage_collect();
      ++result.stats.gc_runs;
      // The trip may have left worker arenas bloated mid-image; collect
      // them all before retrying on the widened set.
      if (par != nullptr)
        result.stats.worker_gc_runs += par->collect_garbage(1);
      continue;
    }
    if (!frontier.is_zero()) result.layers.push_back(frontier);

    result.stats.peak_live_nodes =
        std::max(result.stats.peak_live_nodes, mgr.live_node_count());
    if (options.gc_threshold > 0 &&
        mgr.table_node_count() > options.gc_threshold) {
      // The frontier/reached/layer handles are registered roots: collection
      // compacts the arena and retargets them in place.
      mgr.garbage_collect();
      ++result.stats.gc_runs;
    }
    if (par != nullptr)
      result.stats.worker_gc_runs += par->collect_garbage(options.gc_threshold);
    if (layer_span.armed())
      layer_span.arg("reached_nodes", mgr.node_count(result.reached));

#ifndef POLIS_OBS_DISABLED
    if (obs::SeriesRecorder::global().enabled()) {
      // Per-layer telemetry for the layer-timebase series: current BDD set
      // sizes as gauges (node_count walks the BDD, so only behind the gate)
      // and the kernel counters drained so each layer's deltas carry the
      // apply/cache activity of that image step. Deterministic: driven only
      // by BFS state, never by the clock.
      obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
      static const auto frontier_id = reg.gauge("reach.frontier_nodes");
      static const auto reached_id = reg.gauge("reach.reached_nodes");
      reg.set(frontier_id, static_cast<std::int64_t>(mgr.node_count(frontier)));
      reg.set(reached_id,
              static_cast<std::int64_t>(mgr.node_count(result.reached)));
      mgr.flush_stats_to_obs();
      OBS_TICK_EPOCH(obs::Timebase::kLayer, result.stats.iterations);
    }
#endif
  }

  if (par != nullptr) {
    result.stats.shards = par->shards();
    for (const ParallelImage::WorkerStats& w : par->worker_stats())
      result.stats.worker_peak_nodes.push_back(w.peak_nodes);
  }

  {
    // Final bookkeeping must complete even when the loop stopped on a
    // deadline/cancel trip — the partial result is the whole point of
    // degrading (same rationale as the setup guard above).
    std::optional<ResourceGovernor::Suspend> teardown_guard;
    if (degrade) teardown_guard.emplace();
    result.stats.reached_nodes = mgr.node_count(result.reached);
    result.stats.reached_states =
        mgr.sat_count(result.reached, enc.num_present_vars());
  }
  if (span.armed()) {
    span.arg("iterations", result.stats.iterations);
    span.arg("reached_nodes", result.stats.reached_nodes);
    span.arg("reached_states", result.stats.reached_states);
    span.arg("exact", result.stats.exact);
  }
  obs::publish<kReachMetrics>(result.stats);
  if (result.stats.shards > 0) obs::publish<kShardMetrics>(result.stats);
  return result;
}

}  // namespace polis::verif
