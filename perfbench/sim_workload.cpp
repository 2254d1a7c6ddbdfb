// sim_dash: the dashboard network under the generated RTOS, every task the
// synthesized VM routine, replaying one seeded environment trace under two
// scheduler/delivery configurations.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/synthesis.hpp"
#include "estim/calibrate.hpp"
#include "harness.hpp"
#include "rtos/rtos.hpp"
#include "rtos/tasks.hpp"
#include "rtos/trace.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

struct SimState {
  std::shared_ptr<polis::cfsm::Network> network;
  polis::NetworkSynthesis synthesis;
  std::vector<polis::rtos::ExternalEvent> trace;
  long long horizon = 0;
};

SimState make_state(const Args& args, Layers& layers) {
  SimState st;
  layers["estim.calibrate_s"] = 0;
  layers["frontend.parse_s"] = 0;
  const polis::estim::CostModel model = timed(layers["estim.calibrate_s"], [] {
    return polis::estim::calibrate(polis::vm::hc11_like());
  });
  st.network = timed(layers["frontend.parse_s"], [] {
    return parse_example("dashboard").networks.at("dash");
  });
  polis::SynthesisOptions options;
  options.cost_model = &model;
  options.num_threads = 1;
  st.synthesis = polis::synthesize_network(*st.network, options);

  // Periodic sensors and timers with 10% jitter, a bursty seat-belt switch,
  // and rare wheel-pulse bursts that overrun the 1-place buffers.
  st.horizon = args.smoke ? 1'000'000 : 100'000'000;
  polis::Rng rng(args.seed);
  const auto nets = st.network->nets();
  std::vector<std::vector<polis::rtos::ExternalEvent>> traces;
  const std::pair<const char*, long long> periodic[] = {
      {"wheel_raw", 600}, {"engine_raw", 900}, {"timer", 3000},
      {"key_on", 15000}};
  for (const auto& [net, period] : periodic) {
    polis::rtos::PeriodicSource source;
    source.net = net;
    source.period = period;
    source.phase = rng.uniform(0, period - 1);
    source.jitter_fraction = 0.1;
    source.value_domain = nets.at(net).domain;
    traces.push_back(polis::rtos::periodic_trace(source, st.horizon, &rng));
  }
  traces.push_back(polis::rtos::burst_trace(
      "belt_on", 200'000, 3, 50, st.horizon, nets.at("belt_on").domain, &rng));
  traces.push_back(polis::rtos::burst_trace(
      "wheel_raw", 1'000'000, 4, 5, st.horizon, nets.at("wheel_raw").domain,
      &rng));
  st.trace = polis::rtos::merge_traces(std::move(traces));
  return st;
}

/// The two configurations one pass replays the trace under.
std::vector<polis::rtos::RtosConfig> configs() {
  polis::rtos::RtosConfig round_robin;  // interrupt delivery
  polis::rtos::RtosConfig priority;
  priority.policy = polis::rtos::RtosConfig::Policy::kStaticPriority;
  priority.preemptive = true;
  priority.delivery = polis::rtos::RtosConfig::HwDelivery::kPolling;
  priority.polling_period = 2000;
  priority.priority = {{"deb", 1}, {"wcnt", 2}, {"ecnt", 2}, {"spd", 3},
                       {"tach", 3}, {"odo", 4}, {"blt", 5}};
  return {round_robin, priority};
}

/// The parts of SimStats a run must reproduce exactly.
struct SimDigest {
  long long end_time = 0, busy = 0, overhead = 0, reactions = 0, empty = 0;
  long long lost = 0, outputs = 0, latency_max = 0;
  std::size_t detail_hash = 0;  // per-net counts and every output emission

  bool operator==(const SimDigest&) const = default;
};

SimDigest digest_of(const polis::rtos::SimStats& s) {
  SimDigest d{s.end_time, s.busy_cycles, s.overhead_cycles, s.reactions_run,
              s.empty_reactions, 0, static_cast<long long>(s.outputs.size()),
              0, 0};
  std::string detail;
  for (const auto& [net, n] : s.lost_events) {
    d.lost += n;
    detail += "L" + net + "=" + std::to_string(n) + ";";
  }
  for (const auto& [net, n] : s.emitted_events)
    detail += "E" + net + "=" + std::to_string(n) + ";";
  for (const polis::rtos::ObservedEmission& e : s.outputs)
    detail += std::to_string(e.time) + e.net + std::to_string(e.value) +
              e.producer + ";";
  for (const auto& [net, samples] : s.input_to_output_latency)
    for (long long v : samples) d.latency_max = std::max(d.latency_max, v);
  if (s.aborted) detail += "aborted:" + s.diagnostic;
  d.detail_hash = std::hash<std::string>{}(detail);
  return d;
}

/// Pinned totals for the default seed (per configuration), full and smoke
/// size: end time, busy and overhead cycles, reactions, empty reactions,
/// lost events, output emissions, worst latency.
struct Pinned {
  bool smoke;
  SimDigest config[2];
};

constexpr Pinned kPinned[] = {
    {false,
     {{100000068, 37246336, 32414905, 610572, 7246, 4567, 71953, 873, 0},
      {100000108, 18828037, 30614020, 285829, 3664, 181039, 66661, 2780, 0}}},
    {true,
     {{1000102, 370844, 322920, 6073, 67, 52, 720, 874, 0},
      {1000108, 189891, 306140, 2855, 38, 1811, 732, 2485, 0}}},
};

bool matches_pin(const SimDigest& got, const SimDigest& pin) {
  SimDigest g = got;
  g.detail_hash = 0;  // std::hash is not portable; pin the totals only
  return g == pin;
}

/// One pass: both configurations replay the trace. `react_s`, when set,
/// receives the time spent inside the task reactions; `run_s` the time in
/// RtosSimulation::run.
std::vector<polis::rtos::SimStats> sim_pass(const SimState& st,
                                            double* react_s, double* run_s) {
  std::vector<polis::rtos::SimStats> out;
  for (const polis::rtos::RtosConfig& config : configs()) {
    polis::rtos::RtosSimulation sim(*st.network, config);
    for (const polis::cfsm::Instance& inst : st.network->instances()) {
      polis::rtos::ReactFn task = polis::rtos::vm_task(
          st.synthesis.per_instance.at(inst.name).compiled,
          polis::vm::hc11_like(), inst.machine);
      if (react_s != nullptr) {
        task = [inner = std::move(task), react_s](
                   const polis::cfsm::Snapshot& snapshot,
                   const std::map<std::string, std::int64_t>& state,
                   long long* cycles) {
          const double t0 = now_s();
          polis::cfsm::Reaction r = inner(snapshot, state, cycles);
          *react_s += now_s() - t0;
          return r;
        };
      }
      sim.set_task(inst.name, std::move(task));
    }
    if (run_s != nullptr)
      out.push_back(timed(*run_s, [&] { return sim.run(st.trace, st.horizon); }));
    else
      out.push_back(sim.run(st.trace, st.horizon));
  }
  return out;
}

void check_pass(const std::vector<polis::rtos::SimStats>& stats,
                const std::vector<SimDigest>& reference, Report& report) {
  for (std::size_t c = 0; c < stats.size(); ++c) {
    report.attempt();
    report.check(c < reference.size() && digest_of(stats[c]) == reference[c],
                 "config " + std::to_string(c) +
                     ": SimStats differ from the first pass");
  }
}

}  // namespace

void run_sim_dash(const Args& args, Report& report, Layers& layers) {
  double setup_s = 0;
  const SimState st = timed_setup<SimState>(
      [&] { return make_state(args, layers); }, &setup_s);

  // Warm-up pass: its SimStats are the reference every later pass repeats,
  // and for the default seed they must equal the pinned totals.
  std::vector<SimDigest> reference;
  long long busy = 0, latency_max = 0, reactions = 0;
  for (const polis::rtos::SimStats& s : sim_pass(st, nullptr, nullptr)) {
    report.attempt();
    const SimDigest d = digest_of(s);
    report.check(!s.aborted, "simulation aborted: " + s.diagnostic);
    reference.push_back(d);
    busy += d.busy;
    reactions += d.reactions;
    latency_max = std::max(latency_max, d.latency_max);
    std::printf("sim_dash config %zu: end %lld busy %lld overhead %lld "
                "reactions %lld empty %lld lost %lld outputs %lld "
                "latency_max %lld\n",
                reference.size() - 1, d.end_time, d.busy, d.overhead,
                d.reactions, d.empty, d.lost, d.outputs, d.latency_max);
  }
  if (args.seed == kDefaultSeed) {
    for (const Pinned& p : kPinned) {
      if (p.smoke != args.smoke) continue;
      for (std::size_t c = 0; c < reference.size(); ++c) {
        report.attempt();
        report.check(matches_pin(reference[c], p.config[c]),
                     "config " + std::to_string(c) +
                         ": SimStats differ from the pinned default-seed run");
      }
    }
  }

  long long code_bytes = 0, max_cycles = 0;
  for (const auto& [inst, r] : st.synthesis.per_instance) {
    code_bytes += r.vm_size_bytes;
    max_cycles += r.estimate.max_cycles;
  }
  const double events = static_cast<double>(st.trace.size() * 2);

  if (!args.trace) {
    const std::vector<double> passes = closed_loop(args.seconds, [&] {
      const double t0 = now_s();
      const auto stats = sim_pass(st, nullptr, nullptr);
      const double dt = now_s() - t0;
      check_pass(stats, reference, report);
      return dt;
    });
    std::printf("sim_dash: %zu external events/config, %zu passes, "
                "%.0f events/s, %.0f reactions/s, busy %lld cycles, "
                "worst latency %lld cycles\n",
                st.trace.size(), passes.size(), events / median(passes),
                static_cast<double>(reactions) / median(passes), busy,
                latency_max);
    report_end_to_end(report, setup_s, passes, code_bytes, max_cycles);
    return;
  }

  Layers sums;
  double traced_wall = 0;
  const int n = traced_loop(
      args.seconds,
      [&] { check_pass(sim_pass(st, nullptr, nullptr), reference, report); },
      [&] {
        const double t0 = now_s();
        const auto stats =
            sim_pass(st, &sums["rtos.react_s"], &sums["rtos.run_s"]);
        traced_wall += now_s() - t0;
        check_pass(stats, reference, report);
      },
      layers);
  for (auto& [name, v] : sums) layers[name] = v / n;
  layers["rtos.self_s"] = layers["rtos.run_s"] - layers["rtos.react_s"];
  long long overhead = 0, empty = 0, lost = 0;
  for (const SimDigest& d : reference) {
    overhead += d.overhead;
    empty += d.empty;
    lost += d.lost;
  }
  layers["rtos.reactions_run"] = static_cast<double>(reactions);
  layers["rtos.empty_reactions"] = static_cast<double>(empty);
  layers["rtos.lost_events"] = static_cast<double>(lost);
  layers["rtos.overhead_cycles"] = static_cast<double>(overhead);
  layers["rtos.busy_cycles"] = static_cast<double>(busy);
  layers["rtos.latency_max_cycles"] = static_cast<double>(latency_max);
  layers["rtos.events_per_s"] = events / layers["rtos.run_s"];
  layers["rtos.reactions_per_s"] =
      static_cast<double>(reactions) / layers["rtos.run_s"];
  layers["unattributed_frac"] = 1 - sums["rtos.run_s"] / traced_wall;
}

}  // namespace perfbench
