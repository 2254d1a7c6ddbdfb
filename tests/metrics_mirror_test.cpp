// Mirror contract: every stats struct the pipeline keeps (the BDD kernel's
// KernelStats, SiftTelemetry, ReachStats, the governor's getters and the
// RTOS simulator's SimStats) is copied into the process-wide metrics
// registry, and the registry must agree with the struct. For each workload:
// the registry delta across the run equals the struct's fields, and a second
// flush/publish adds nothing (registry counters are cumulative; mirrors
// publish only what changed since their last flush).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "bdd/reorder.hpp"
#include "cfsm/cfsm.hpp"
#include "cfsm/network.hpp"
#include "core/systems.hpp"
#include "obs/metrics.hpp"
#include "obs/series.hpp"
#include "rtos/rtos.hpp"
#include "util/governor.hpp"
#include "verif/verif.hpp"

namespace polis {
namespace {

using Snapshot = obs::MetricsRegistry::Snapshot;

Snapshot snap() { return obs::MetricsRegistry::global().snapshot(); }

std::uint64_t counter(const Snapshot& s, const std::string& name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

std::int64_t gauge(const Snapshot& s, const std::string& name) {
  const auto it = s.gauges.find(name);
  return it == s.gauges.end() ? 0 : it->second;
}

std::uint64_t hist_count(const Snapshot& s, const std::string& name) {
  const auto it = s.histograms.find(name);
  return it == s.histograms.end() ? 0 : it->second.count;
}

std::uint64_t hist_sum(const Snapshot& s, const std::string& name) {
  const auto it = s.histograms.find(name);
  return it == s.histograms.end() ? 0 : it->second.sum;
}

std::uint64_t delta(const Snapshot& before, const Snapshot& after,
                    const std::string& name) {
  return counter(after, name) - counter(before, name);
}

// Every counter, gauge and histogram whose name starts with `prefix` is the
// same in both snapshots.
void expect_unchanged(const Snapshot& a, const Snapshot& b,
                      const std::string& prefix) {
  auto scoped = [&](const std::string& name) {
    return name.compare(0, prefix.size(), prefix) == 0;
  };
  for (const auto& [name, value] : b.counters) {
    if (!scoped(name)) continue;
    EXPECT_EQ(value, counter(a, name)) << name;
  }
  for (const auto& [name, value] : b.gauges) {
    if (!scoped(name)) continue;
    EXPECT_EQ(value, gauge(a, name)) << name;
  }
  for (const auto& [name, h] : b.histograms) {
    if (!scoped(name)) continue;
    EXPECT_EQ(h.count, hist_count(a, name)) << name;
    EXPECT_EQ(h.sum, hist_sum(a, name)) << name;
  }
}

// Pairwise ANDs of XOR chains: hundreds of nodes, cache traffic and applies.
bdd::Bdd busy_function(bdd::BddManager& mgr, int vars) {
  bdd::Bdd acc = mgr.one();
  for (int i = 0; i + 1 < vars; i += 2) {
    bdd::Bdd chain = mgr.zero();
    for (int j = i; j < vars; ++j) chain = chain ^ mgr.var(j);
    acc = acc & (chain | (mgr.var(i) & mgr.var(i + 1)));
  }
  return acc;
}

// Expected "bdd.*" counter deltas for a set of managers' KernelStats.
void expect_kernel_counters(const Snapshot& before, const Snapshot& after,
                            const std::vector<bdd::KernelStats>& all) {
  bdd::KernelStats sum;
  for (const bdd::KernelStats& s : all) {
    sum.ite_calls += s.ite_calls;
    // bdd.apply_calls counts AND and XOR applies together.
    sum.and_apply_calls += s.and_apply_calls + s.xor_apply_calls;
    sum.cache_lookups += s.cache_lookups;
    sum.cache_hits += s.cache_hits;
    sum.cache_inserts += s.cache_inserts;
    sum.cache_evictions += s.cache_evictions;
    sum.cache_resizes += s.cache_resizes;
    sum.unique_lookups += s.unique_lookups;
    sum.unique_hits += s.unique_hits;
    sum.nodes_created += s.nodes_created;
    sum.nodes_recycled += s.nodes_recycled;
    sum.gc_runs += s.gc_runs;
    sum.nodes_reclaimed += s.nodes_reclaimed;
    sum.copy_across_calls += s.copy_across_calls;
    sum.copy_nodes += s.copy_nodes;
    sum.copy_cache_hits += s.copy_cache_hits;
  }
  EXPECT_EQ(delta(before, after, "bdd.ite_calls"), sum.ite_calls);
  EXPECT_EQ(delta(before, after, "bdd.apply_calls"), sum.and_apply_calls);
  EXPECT_EQ(delta(before, after, "bdd.cache_lookups"), sum.cache_lookups);
  EXPECT_EQ(delta(before, after, "bdd.cache_hits"), sum.cache_hits);
  EXPECT_EQ(delta(before, after, "bdd.cache_inserts"), sum.cache_inserts);
  EXPECT_EQ(delta(before, after, "bdd.cache_evictions"), sum.cache_evictions);
  EXPECT_EQ(delta(before, after, "bdd.cache_resizes"), sum.cache_resizes);
  EXPECT_EQ(delta(before, after, "bdd.unique_lookups"), sum.unique_lookups);
  EXPECT_EQ(delta(before, after, "bdd.unique_hits"), sum.unique_hits);
  EXPECT_EQ(delta(before, after, "bdd.nodes_created"), sum.nodes_created);
  EXPECT_EQ(delta(before, after, "bdd.nodes_recycled"), sum.nodes_recycled);
  EXPECT_EQ(delta(before, after, "bdd.gc_runs"), sum.gc_runs);
  EXPECT_EQ(delta(before, after, "bdd.nodes_reclaimed"), sum.nodes_reclaimed);
  EXPECT_EQ(delta(before, after, "bdd.copy_across_calls"),
            sum.copy_across_calls);
  EXPECT_EQ(delta(before, after, "bdd.copy_nodes"), sum.copy_nodes);
  EXPECT_EQ(delta(before, after, "bdd.copy_cache_hits"), sum.copy_cache_hits);
}

TEST(MetricsMirror, KernelStatsMatchRegistryDelta) {
  const Snapshot before = snap();
  std::vector<bdd::KernelStats> stats;
  {
    bdd::BddManager src(14);
    bdd::BddManager dst(14);
    {
      bdd::Bdd f = busy_function(src, 14);
      const bdd::Bdd g = src.ite(src.var(0), f, !f);
      bdd::CopyCache cache;
      const bdd::Bdd copied = dst.copy_across(g, cache);
      EXPECT_FALSE(copied.is_null());
      f = src.zero();
      src.garbage_collect();
    }
    src.flush_stats_to_obs();
    dst.flush_stats_to_obs();
    stats = {src.stats(), dst.stats()};
    const Snapshot flushed = snap();
    expect_kernel_counters(before, flushed, stats);
    EXPECT_GT(stats[0].ite_calls, 0u);
    EXPECT_GT(stats[0].gc_runs, 0u);
    EXPECT_GT(stats[1].copy_nodes, 0u);
    // One lifetime-peak sample per manager, valued at its peak.
    EXPECT_EQ(hist_count(flushed, "bdd.manager_peak_nodes") -
                  hist_count(before, "bdd.manager_peak_nodes"),
              2u);
    EXPECT_EQ(hist_sum(flushed, "bdd.manager_peak_nodes") -
                  hist_sum(before, "bdd.manager_peak_nodes"),
              stats[0].peak_nodes + stats[1].peak_nodes);
    EXPECT_EQ(gauge(flushed, "bdd.peak_nodes"),
              std::max<std::int64_t>(
                  gauge(before, "bdd.peak_nodes"),
                  static_cast<std::int64_t>(
                      std::max(stats[0].peak_nodes, stats[1].peak_nodes))));

    // A second flush adds nothing.
    src.flush_stats_to_obs();
    dst.flush_stats_to_obs();
    expect_unchanged(flushed, snap(), "bdd.");
  }
  // Nor does the destructor's flush once everything was flushed.
  const Snapshot after = snap();
  expect_kernel_counters(before, after, stats);
  EXPECT_EQ(hist_count(after, "bdd.manager_peak_nodes") -
                hist_count(before, "bdd.manager_peak_nodes"),
            2u);
}

TEST(MetricsMirror, SiftTelemetryMatchesRegistryDelta) {
  bdd::BddManager mgr(12);
  // Interleaved pairs (x_i <-> x_{i+6}): sifting has real work to do.
  bdd::Bdd f = mgr.zero();
  for (int i = 0; i < 6; ++i) f = f | (mgr.var(i) & mgr.var(i + 6));
  bdd::SiftTelemetry tel;
  bdd::SiftOptions options;
  options.telemetry = &tel;

  const Snapshot before = snap();
  bdd::sift(mgr, options);
  const Snapshot after = snap();

  ASSERT_GT(tel.swaps, 0u);
  ASSERT_GT(tel.initial_size, tel.final_size);
  EXPECT_EQ(delta(before, after, "sift.runs"), 1u);
  EXPECT_EQ(delta(before, after, "sift.swaps"), tel.swaps);
  EXPECT_EQ(delta(before, after, "sift.size_evaluations"),
            tel.size_evaluations);
  EXPECT_EQ(delta(before, after, "sift.passes_run"),
            static_cast<std::uint64_t>(tel.passes_run));
  EXPECT_EQ(delta(before, after, "sift.nodes_saved"),
            tel.initial_size - tel.final_size);
  EXPECT_EQ(delta(before, after, "sift.stopped_early"),
            tel.stopped_early ? 1u : 0u);
  EXPECT_EQ(hist_count(after, "sift.run_shrink_nodes") -
                hist_count(before, "sift.run_shrink_nodes"),
            1u);
  EXPECT_EQ(hist_sum(after, "sift.run_shrink_nodes") -
                hist_sum(before, "sift.run_shrink_nodes"),
            tel.initial_size - tel.final_size);
  EXPECT_EQ(gauge(after, "sift.peak_arena"),
            std::max<std::int64_t>(gauge(before, "sift.peak_arena"),
                                   static_cast<std::int64_t>(tel.peak_arena)));

  // Later kernel flushes publish nothing under "sift.".
  mgr.flush_stats_to_obs();
  mgr.flush_stats_to_obs();
  expect_unchanged(after, snap(), "sift.");
}

void check_reach_mirror(int threads) {
  SCOPED_TRACE(threads);
  const auto net = systems::meter_network();
  bdd::BddManager mgr;
  verif::NetworkEncoding enc(*net, mgr);
  const verif::TransitionSystem tr = verif::build_transition_system(enc);
  verif::ReachOptions opt;
  opt.num_threads = threads;
  opt.gc_threshold = 64;  // collect every layer: gc_runs must mirror too

  const Snapshot before = snap();
  const verif::ReachResult r = verif::reachable_states(tr, opt);
  const Snapshot after = snap();
  const verif::ReachStats& s = r.stats;

  ASSERT_GT(s.iterations, 0);
  EXPECT_GT(s.gc_runs, 0u);
  EXPECT_EQ(delta(before, after, "reach.runs"), 1u);
  EXPECT_EQ(delta(before, after, "reach.iterations"),
            static_cast<std::uint64_t>(s.iterations));
  EXPECT_EQ(delta(before, after, "reach.gc_runs"), s.gc_runs);
  EXPECT_EQ(delta(before, after, "reach.widenings"),
            static_cast<std::uint64_t>(s.widenings));
  EXPECT_EQ(delta(before, after, "reach.budget_recoveries"),
            static_cast<std::uint64_t>(s.budget_recoveries));
  EXPECT_EQ(delta(before, after, "reach.inexact_runs"), s.exact ? 0u : 1u);
  EXPECT_EQ(delta(before, after, "reach.unconverged_runs"),
            s.converged ? 0u : 1u);
  EXPECT_EQ(hist_count(after, "reach.fixpoint_depth") -
                hist_count(before, "reach.fixpoint_depth"),
            1u);
  EXPECT_EQ(hist_sum(after, "reach.fixpoint_depth") -
                hist_sum(before, "reach.fixpoint_depth"),
            static_cast<std::uint64_t>(s.iterations));
  EXPECT_EQ(gauge(after, "reach.peak_live_nodes"),
            std::max<std::int64_t>(
                gauge(before, "reach.peak_live_nodes"),
                static_cast<std::int64_t>(s.peak_live_nodes)));
  if (threads > 1) {
    ASSERT_GT(s.shards, 0);
    EXPECT_EQ(delta(before, after, "reach.worker_gc_runs"), s.worker_gc_runs);
    EXPECT_GE(gauge(after, "reach.shards"), s.shards);
    const std::size_t worker_peak = *std::max_element(
        s.worker_peak_nodes.begin(), s.worker_peak_nodes.end());
    EXPECT_GE(gauge(after, "reach.worker_peak_nodes"),
              static_cast<std::int64_t>(worker_peak));
  } else {
    EXPECT_EQ(s.shards, 0);
    EXPECT_EQ(delta(before, after, "reach.worker_gc_runs"), 0u);
  }

  // Kernel flushes after the run publish nothing under "reach.".
  mgr.flush_stats_to_obs();
  mgr.flush_stats_to_obs();
  expect_unchanged(after, snap(), "reach.");
}

TEST(MetricsMirror, ReachStatsMatchRegistryDeltaSerial) {
  check_reach_mirror(1);
}

TEST(MetricsMirror, ReachStatsMatchRegistryDeltaSharded) {
  check_reach_mirror(2);
}

TEST(MetricsMirror, GovernorCountersMatchRegistryDelta) {
  GovernorLimits limits;
  limits.max_nodes = std::uint64_t{1} << 30;  // roomy: charges, never trips
  ResourceGovernor gov(limits);
  const Snapshot before = snap();
  {
    ResourceGovernor::Scope scope(&gov);
    bdd::BddManager mgr(18);
    const bdd::Bdd f = busy_function(mgr, 18);
    EXPECT_FALSE(f.is_null());
    ASSERT_GT(gov.charged_nodes(), 0u);
    const std::uint64_t charged = gov.charged_nodes();
    gov.flush_stats_to_obs();
    const Snapshot flushed = snap();
    EXPECT_GT(gov.polls(), 0u);
    EXPECT_EQ(delta(before, flushed, "governor.polls"), gov.polls());
    EXPECT_EQ(delta(before, flushed, "governor.budget_hits"),
              gov.budget_hits());
    EXPECT_EQ(delta(before, flushed, "governor.alloc_faults_injected"),
              gov.alloc_faults_injected());
    EXPECT_GE(gauge(flushed, "governor.peak_charged_nodes"),
              static_cast<std::int64_t>(charged));

    // A second flush adds nothing.
    gov.flush_stats_to_obs();
    expect_unchanged(flushed, snap(), "governor.");
  }
}

std::shared_ptr<cfsm::Cfsm> relay(const std::string& name) {
  return std::make_shared<cfsm::Cfsm>(
      name, std::vector<cfsm::Signal>{{"i", 1}},
      std::vector<cfsm::Signal>{{"o", 1}}, std::vector<cfsm::StateVar>{},
      std::vector<cfsm::Rule>{
          cfsm::Rule{cfsm::presence("i"), {cfsm::Emit{"o", nullptr}}, {}}});
}

TEST(MetricsMirror, SimStatsMatchRegistryDeltaWithEpochDrain) {
  obs::SeriesRecorder& rec = obs::SeriesRecorder::global();
  rec.set_enabled(true);

  cfsm::Network net("pipe");
  net.add_instance("a", relay("r1"), {{"i", "in"}, {"o", "mid"}});
  net.add_instance("b", relay("r2"), {{"i", "mid"}, {"o", "out"}});
  rtos::RtosConfig config;
  config.metrics_epoch_cycles = 500;
  // Tight deadline and input faster than the pipeline drains: the run loses
  // events, misses deadlines and injects faults, so every running total the
  // epoch drain mirrors moves.
  config.deadline_monitors["a"].deadline_cycles = 120;
  config.deadline_monitors["b"].deadline_cycles = 120;
  config.faults.duplicate_probability = 0.3;
  config.faults.duplicate_gap = 3;
  rtos::RtosSimulation sim(net, config);
  sim.set_reference_task("a", 100);
  sim.set_reference_task("b", 100);
  std::vector<rtos::ExternalEvent> events;
  for (long long t = 0; t < 10'000; t += 90) events.push_back({t, "in", 0});

  const Snapshot before = snap();
  const std::uint64_t epochs_before =
      rec.total_epochs(obs::Timebase::kSim);
  const rtos::SimStats s = sim.run(events, 20'000);
  const Snapshot after = snap();
  const std::uint64_t epochs = rec.total_epochs(obs::Timebase::kSim) -
                               epochs_before;
  rec.set_enabled(false);

  long long lost = 0;
  for (const auto& [net_name, n] : s.lost_events) lost += n;
  long long misses = 0;
  for (const auto& [task, n] : s.deadline_misses) misses += n;
  std::uint64_t latency_samples = 0;
  std::uint64_t latency_sum = 0;
  for (const auto& [net_name, samples] : s.input_to_output_latency) {
    latency_samples += samples.size();
    for (const long long l : samples)
      latency_sum += static_cast<std::uint64_t>(l);
  }
  ASSERT_GT(lost, 0);
  ASSERT_GT(misses, 0);
  ASSERT_GT(s.injected.total(), 0);
  ASSERT_GT(latency_samples, 0u);
#ifndef POLIS_OBS_DISABLED
  EXPECT_GE(epochs, 10u);  // the per-epoch drain ran
#else
  (void)epochs;
#endif

  auto u = [](long long v) { return static_cast<std::uint64_t>(v); };
  EXPECT_EQ(delta(before, after, "rtos.runs"), 1u);
  EXPECT_EQ(delta(before, after, "rtos.reactions_run"), u(s.reactions_run));
  EXPECT_EQ(delta(before, after, "rtos.empty_reactions"),
            u(s.empty_reactions));
  EXPECT_EQ(delta(before, after, "rtos.busy_cycles"), u(s.busy_cycles));
  EXPECT_EQ(delta(before, after, "rtos.overhead_cycles"),
            u(s.overhead_cycles));
  EXPECT_EQ(delta(before, after, "rtos.lost_events"), u(lost));
  EXPECT_EQ(delta(before, after, "rtos.deadline_misses"), u(misses));
  EXPECT_EQ(delta(before, after, "rtos.injected_faults"),
            u(s.injected.total()));
  EXPECT_EQ(delta(before, after, "rtos.aborted_runs"), s.aborted ? 1u : 0u);
  EXPECT_EQ(delta(before, after, "rtos.watchdog_fires"),
            s.watchdog_fired ? 1u : 0u);
  EXPECT_EQ(hist_count(after, "rtos.run_cycles") -
                hist_count(before, "rtos.run_cycles"),
            1u);
  EXPECT_EQ(hist_sum(after, "rtos.run_cycles") -
                hist_sum(before, "rtos.run_cycles"),
            u(s.end_time));
  EXPECT_EQ(hist_count(after, "rtos.latency_cycles") -
                hist_count(before, "rtos.latency_cycles"),
            latency_samples);
  EXPECT_EQ(hist_sum(after, "rtos.latency_cycles") -
                hist_sum(before, "rtos.latency_cycles"),
            latency_sum);
}

}  // namespace
}  // namespace polis
