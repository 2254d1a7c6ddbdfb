// verify_serial / verify_sharded: verif::verify_network over pinned example
// networks, in-manager image (1 thread) or sharded image (4 threads).
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "core/synthesis.hpp"
#include "core/systems.hpp"
#include "estim/calibrate.hpp"
#include "frontend/parser.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "verif/care.hpp"
#include "verif/check.hpp"
#include "verif/encode.hpp"
#include "verif/enumerate.hpp"
#include "verif/reach.hpp"
#include "verif/transition.hpp"
#include "verif/verif.hpp"

namespace perfbench {
namespace {

/// Known answers, measured once and pinned: reached states, fixpoint
/// iterations, and the verdicts (every assert proved; how many clusters the
/// built-in lost-event property finds able to overwrite a pending event).
struct KnownAnswer {
  const char* name;
  double states;
  int iterations;
  int assertions;
  int lost_event_offenders;
  /// Small enough to cross-check against explicit enumeration.
  bool enumerable;
};

constexpr KnownAnswer kKnown[] = {
    {"meter", 180, 7, 1, 2, true},
    {"dash_core", 20592, 83, 0, 4, true},
    {"microwave", 45056000, 38, 0, 8, false},
    {"dash_gen2", 424030464, 161, 0, 7, false},
};

struct Target {
  const KnownAnswer* known = nullptr;
  std::shared_ptr<polis::cfsm::Network> network;
};

struct VerifyState {
  polis::estim::CostModel model;
  std::vector<Target> targets;
};

VerifyState make_state(const Args& args, bool sharded, Layers& layers) {
  VerifyState st;
  layers["estim.calibrate_s"] = 0;
  layers["frontend.parse_s"] = 0;
  st.model = timed(layers["estim.calibrate_s"], [] {
    return polis::estim::calibrate(polis::vm::hc11_like());
  });
  std::map<std::string, std::shared_ptr<polis::cfsm::Network>> nets;
  timed(layers["frontend.parse_s"], [&] {
    nets["meter"] = parse_example("meter").networks.at("meter");
    const polis::frontend::ParsedFile dash = parse_example("dashboard");
    nets["dash_core"] = dash.networks.at("dash_core");
    nets["microwave"] = parse_example("microwave").networks.at("microwave");
    nets["dash_gen2"] =
        polis::frontend::parse(polis::systems::generated_dash_source(2))
            .networks.at("dash_gen");
  });
  for (const KnownAnswer& k : kKnown) {
    // The smoke run keeps only the two small networks.
    if (args.smoke && !k.enumerable) continue;
    // The sharded workload skips meter: too small to shard meaningfully.
    if (sharded && std::string(k.name) == "meter") continue;
    st.targets.push_back({&k, nets.at(k.name)});
  }
  // The seed orders the networks within a pass; the work is the same.
  polis::Rng rng(args.seed);
  const std::vector<int> perm = rng.permutation(static_cast<int>(st.targets.size()));
  std::vector<Target> ordered;
  for (int i : perm) ordered.push_back(st.targets[static_cast<std::size_t>(i)]);
  st.targets = std::move(ordered);
  return st;
}

polis::verif::VerifyOptions verify_options(bool sharded) {
  polis::verif::VerifyOptions options;
  options.reach.num_threads = sharded ? 4 : 1;
  return options;
}

/// Checks one verification outcome against the known answer.
void check_known(const Target& t, double states, int iterations, bool exact,
                 const std::vector<polis::verif::CheckResult>& assertions,
                 const polis::verif::LostEventReport& lost, Report& report) {
  const KnownAnswer& k = *t.known;
  const std::string who = std::string(k.name) + ": ";
  report.check(exact, who + "reached set is not exact");
  report.check(states == k.states, who + "reached " + std::to_string(states) +
                                       " states, want " +
                                       std::to_string(k.states));
  report.check(iterations == k.iterations,
               who + "fixpoint took " + std::to_string(iterations) +
                   " iterations, want " + std::to_string(k.iterations));
  int proved = 0;
  for (const polis::verif::CheckResult& r : assertions)
    proved += r.verdict == polis::verif::Verdict::kProved;
  report.check(static_cast<int>(assertions.size()) == k.assertions &&
                   proved == k.assertions,
               who + "assertion verdicts changed");
  report.check(lost.possible == (k.lost_event_offenders > 0) &&
                   static_cast<int>(lost.offenders.size()) ==
                       k.lost_event_offenders,
               who + "lost-event verdict changed");
}

struct PassOutputs {
  double verify_s = 0;
  double peak_live_nodes = 0;
};

/// One pass: verify_network on every target, timed per call. `keep`, when
/// set, receives every result (in target order).
PassOutputs verify_pass(const VerifyState& st, bool sharded, Report& report,
                        std::vector<polis::verif::VerifyResult>* keep =
                            nullptr) {
  const polis::verif::VerifyOptions options = verify_options(sharded);
  PassOutputs out;
  for (const Target& t : st.targets) {
    report.attempt();
    try {
      const double t0 = now_s();
      const polis::verif::VerifyResult v =
          polis::verif::verify_network(*t.network, options);
      out.verify_s += now_s() - t0;
      out.peak_live_nodes += static_cast<double>(v.reach.peak_live_nodes);
      check_known(t, v.reach.reached_states, v.reach.iterations,
                  v.reach.exact && v.reach.converged, v.assertions,
                  v.lost_events, report);
      if (keep != nullptr) keep->push_back(v);
    } catch (const std::exception& e) {
      report.fail(std::string(t.known->name) + ": " + e.what());
    }
  }
  return out;
}

/// Outside any timed region: explicit enumeration agrees with the symbolic
/// count, and the networks are synthesized with the verified care sets
/// (polisc --verify --care), giving the code size and WCET of the result.
void reference_checks(const VerifyState& st,
                      const std::vector<polis::verif::VerifyResult>& results,
                      Report& report, long long& code_bytes,
                      long long& max_cycles) {
  report.check(results.size() == st.targets.size(),
               "warm-up pass did not verify every network");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Target& t = st.targets[i];
    const polis::verif::VerifyResult& v = results[i];
    report.attempt();
    try {
      if (t.known->enumerable) {
        const auto explicit_states =
            polis::verif::enumerate_reachable_states(*t.network);
        report.check(explicit_states.has_value() &&
                         static_cast<double>(explicit_states->size()) ==
                             v.reach.reached_states,
                     std::string(t.known->name) +
                         ": symbolic and explicit reached sets differ");
      }
      polis::SynthesisOptions synth;
      synth.build.use_care_set = true;
      synth.care_filter_by_machine = v.care_filters;
      synth.cost_model = &st.model;
      synth.num_threads = 1;
      const polis::NetworkSynthesis net =
          polis::synthesize_network(*t.network, synth);
      for (const auto& [inst, r] : net.per_instance) {
        code_bytes += r.vm_size_bytes;
        max_cycles += r.estimate.max_cycles;
      }
    } catch (const std::exception& e) {
      report.fail(std::string(t.known->name) + ": " + e.what());
    }
  }
}

std::uint64_t counter(const polis::obs::MetricsRegistry::Snapshot& s,
                      const std::string& name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

/// verify_network()'s stages called one by one, each timed, with the
/// library's spans recorded. Results must equal the known answers.
void traced_verify_pass(const VerifyState& st, bool sharded, Report& report,
                        Layers& layers, double& wall) {
  const polis::verif::VerifyOptions options = verify_options(sharded);
  polis::obs::MetricsRegistry& registry = polis::obs::MetricsRegistry::global();
  const auto before = registry.snapshot();
  double main_serial = 0;
  double and_exists = 0;
  RecordSpans recording;
  std::vector<std::pair<std::int64_t, std::int64_t>> reach_windows;
  for (const Target& t : st.targets) {
    report.attempt();
    try {
      const double t0 = now_s();
      polis::bdd::BddManager mgr;
      polis::verif::NetworkEncoding enc = timed(layers["verif.encode_s"], [&] {
        return polis::verif::NetworkEncoding(*t.network, mgr);
      });
      polis::verif::TransitionSystem tr =
          timed(layers["verif.transition_s"], [&] {
            return polis::verif::build_transition_system(enc,
                                                         options.transition);
          });
      const std::int64_t reach_start = polis::obs::now_us();
      const polis::verif::ReachResult reach =
          timed(layers["verif.reach_s"], [&] {
            return polis::verif::reachable_states(tr, options.reach);
          });
      reach_windows.emplace_back(reach_start, polis::obs::now_us());
      std::vector<polis::verif::CheckResult> assertions;
      polis::verif::LostEventReport lost;
      timed(layers["verif.check_s"], [&] {
        assertions =
            polis::verif::check_assertions(tr, reach, options.enum_limit);
        lost = polis::verif::check_no_lost_events(tr, reach);
      });
      if (reach.stats.exact) {
        timed(layers["verif.care_s"], [&] {
          return polis::verif::care_filters_by_machine(enc, reach.reached,
                                                       options.enum_limit);
        });
      }
      wall += now_s() - t0;
      const polis::verif::ReachStats& rs = reach.stats;
      check_known(t, rs.reached_states, rs.iterations,
                  rs.exact && rs.converged, assertions, lost, report);
      layers["verif.peak_live_nodes"] += static_cast<double>(rs.peak_live_nodes);
      layers["verif.gc_runs"] += static_cast<double>(rs.gc_runs);
      layers["verif.worker_gc_runs"] += static_cast<double>(rs.worker_gc_runs);
      for (std::size_t p : rs.worker_peak_nodes)
        layers["verif.worker_peak_nodes_max"] = std::max(
            layers["verif.worker_peak_nodes_max"], static_cast<double>(p));
      and_exists += static_cast<double>(mgr.stats().and_exists_calls);
      mgr.flush_stats_to_obs();
    } catch (const std::exception& e) {
      report.fail(std::string(t.known->name) + ": " + e.what());
    }
  }
  SpanSummary spans = recording.finish();
  // Main-thread time inside reachable_states with no shard running and no
  // shard set-up: the serial part of the sharded fixpoint.
  std::vector<std::pair<std::int64_t, std::int64_t>> sharded_spans =
      spans.intervals["reach.shard"];
  for (const auto& iv : spans.intervals["reach.shard_setup"])
    sharded_spans.push_back(iv);
  for (const auto& [lo, hi] : reach_windows) {
    main_serial += static_cast<double>(hi - lo) * 1e-6 -
                   covered_s(sharded_spans, lo, hi);
  }
  layers["par_image.setup_s"] += spans.total_s["reach.shard_setup"];
  layers["par_image.shard_busy_s"] += spans.total_s["reach.shard"];
  layers["par_image.main_serial_s"] += sharded ? main_serial : 0;
  layers["bdd.gc_s"] += spans.total_s["bdd.gc"];
  layers["bdd.cache_resize_s"] += spans.total_s["bdd.cache_resize"];
  layers["bdd.and_exists_calls"] += and_exists;
  const auto after = registry.snapshot();
  for (const char* name : {"bdd.copy_across_calls", "bdd.copy_nodes"}) {
    layers[name] +=
        static_cast<double>(counter(after, name) - counter(before, name));
  }
}

}  // namespace

void run_verify(const Args& args, Report& report, Layers& layers,
                bool sharded) {
  double setup_s = 0;
  const VerifyState st = timed_setup<VerifyState>(
      [&] { return make_state(args, sharded, layers); }, &setup_s);

  // Warm-up pass, then the reference checks (both untimed).
  std::vector<polis::verif::VerifyResult> warm;
  verify_pass(st, sharded, report, &warm);
  long long code_bytes = 0, max_cycles = 0;
  reference_checks(st, warm, report, code_bytes, max_cycles);

  if (!args.trace) {
    double peak_live = 0;
    const std::vector<double> passes = closed_loop(args.seconds, [&] {
      const PassOutputs out = verify_pass(st, sharded, report);
      peak_live = out.peak_live_nodes;
      return out.verify_s;
    });
    std::printf("%s: %zu networks/pass, %zu passes, verify_s p50 %.4f s, "
                "peak live nodes (sum over networks) %.0f\n",
                sharded ? "verify_sharded" : "verify_serial",
                st.targets.size(), passes.size(), median(passes), peak_live);
    report_end_to_end(report, setup_s, passes, code_bytes, max_cycles);
    return;
  }

  Layers sums;
  double traced_wall = 0;
  const int n = traced_loop(
      args.seconds, [&] { verify_pass(st, sharded, report); },
      [&] { traced_verify_pass(st, sharded, report, sums, traced_wall); },
      layers);
  for (auto& [name, v] : sums) layers[name] = v / n;
  layers["verif.worker_peak_nodes_max"] = sums["verif.worker_peak_nodes_max"];
  double attributed = 0;
  for (const char* stage : {"verif.encode_s", "verif.transition_s",
                            "verif.reach_s", "verif.check_s", "verif.care_s"})
    attributed += sums[stage];
  layers["unattributed_frac"] = 1 - attributed / traced_wall;
  const double reach = sums["verif.reach_s"];
  layers["par_image.coverage_frac"] =
      sharded && reach > 0
          ? (sums["par_image.shard_busy_s"] + sums["par_image.main_serial_s"] +
             sums["par_image.setup_s"]) /
                reach
          : 0;
}

}  // namespace perfbench
