// §IV tradeoff study: scheduling policies and hw->sw event-input mechanisms
// of the generated RTOS, on the dashboard network with VM-backed tasks.
// Rows compare round-robin vs static priority (± preemption) and interrupt
// vs polling delivery: worst-case latency of the urgent output (the seat-
// belt alarm path), gauge-path latency, lost events, and CPU overhead —
// "in our approach one can easily experiment with tradeoffs" (§IV-E).
//
// It also measures the simulator's own throughput on a long seeded dash
// trace and writes it to BENCH_RTOS.json (entry `dash_vm_throughput`), which
// CI gates against bench/baselines/BENCH_RTOS.json with tools/bench_diff.
#include <algorithm>
#include <chrono>
#include <iostream>

#include "core/synthesis.hpp"
#include "core/systems.hpp"
#include "estim/calibrate.hpp"
#include "report.hpp"
#include "rtos/rtos.hpp"
#include "rtos/tasks.hpp"
#include "rtos/trace.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "vm/machine.hpp"

namespace {

using namespace polis;

std::vector<rtos::ExternalEvent> workload() {
  // Phase-aligned periodic sources: bursts of simultaneous events create
  // the contention that separates the scheduling policies.
  return rtos::merge_traces({
      rtos::periodic_trace({"wheel_raw", 600, 0, 0.0, 1}, 300'000),
      rtos::periodic_trace({"engine_raw", 900, 0, 0.0, 1}, 300'000),
      rtos::periodic_trace({"timer", 3000, 0, 0.0, 1}, 300'000),
      rtos::periodic_trace({"key_on", 15'000, 40, 0.0, 1}, 300'000),
  });
}

long long worst(const rtos::SimStats& stats, const std::string& net) {
  auto it = stats.input_to_output_latency.find(net);
  if (it == stats.input_to_output_latency.end() || it->second.empty())
    return -1;
  return *std::max_element(it->second.begin(), it->second.end());
}

long long lost_total(const rtos::SimStats& stats) {
  long long n = 0;
  for (const auto& [net, c] : stats.lost_events) n += c;
  return n;
}

// Throughput trace: periodic sensors and timers with 10% seeded jitter, a
// bursty seat-belt switch and wheel-pulse bursts that overrun the 1-place
// buffers, over 2e8 cycles (~640K external events).
constexpr long long kThroughputHorizon = 200'000'000;

std::vector<rtos::ExternalEvent> throughput_trace(const cfsm::Network& net) {
  Rng rng(20240607);
  const auto nets = net.nets();
  std::vector<std::vector<rtos::ExternalEvent>> traces;
  const std::pair<const char*, long long> periodic[] = {
      {"wheel_raw", 600}, {"engine_raw", 900}, {"timer", 3000},
      {"key_on", 15000}};
  for (const auto& [name, period] : periodic) {
    rtos::PeriodicSource source;
    source.net = name;
    source.period = period;
    source.phase = rng.uniform(0, period - 1);
    source.jitter_fraction = 0.1;
    source.value_domain = nets.at(name).domain;
    traces.push_back(
        rtos::periodic_trace(source, kThroughputHorizon, &rng));
  }
  traces.push_back(rtos::burst_trace("belt_on", 200'000, 3, 50,
                                     kThroughputHorizon,
                                     nets.at("belt_on").domain, &rng));
  traces.push_back(rtos::burst_trace("wheel_raw", 1'000'000, 4, 5,
                                     kThroughputHorizon,
                                     nets.at("wheel_raw").domain, &rng));
  return rtos::merge_traces(std::move(traces));
}

}  // namespace

int main() {
  const auto net = systems::dash_network();
  const estim::CostModel model = estim::calibrate(vm::hc11_like());

  // Synthesize once; share the compiled reactions across configurations.
  std::map<std::string, std::shared_ptr<vm::CompiledReaction>> compiled;
  for (const cfsm::Instance& inst : net->instances()) {
    SynthesisOptions options;
    options.cost_model = &model;
    compiled[inst.name] = synthesize(inst.machine, options).compiled;
  }

  struct Config {
    std::string name;
    rtos::RtosConfig rtos;
  };
  std::vector<Config> configs;
  {
    Config c;
    c.name = "round-robin / interrupt";
    configs.push_back(c);
  }
  {
    Config c;
    c.name = "priority (belt high) / interrupt";
    c.rtos.policy = rtos::RtosConfig::Policy::kStaticPriority;
    c.rtos.priority = {{"blt", 1}, {"deb", 5}, {"wcnt", 6}, {"spd", 7},
                       {"odo", 8}, {"ecnt", 6}, {"tach", 7}};
    configs.push_back(c);
  }
  {
    Config c = configs.back();
    c.name = "priority + preemption / interrupt";
    c.rtos.preemptive = true;
    configs.push_back(c);
  }
  {
    Config c;
    c.name = "round-robin / polling@2000";
    c.rtos.delivery = rtos::RtosConfig::HwDelivery::kPolling;
    c.rtos.polling_period = 2000;
    configs.push_back(c);
  }
  {
    Config c;
    c.name = "round-robin / polling@8000";
    c.rtos.delivery = rtos::RtosConfig::HwDelivery::kPolling;
    c.rtos.polling_period = 8000;
    configs.push_back(c);
  }

  std::cout << "RTOS policy / event-delivery tradeoffs on the dashboard "
               "(§IV)\n";
  Table table({"configuration", "alarm worst", "speed_pwm worst",
               "lost events", "overhead cyc", "util%"});

  for (const Config& config : configs) {
    rtos::RtosSimulation sim(*net, config.rtos);
    for (const cfsm::Instance& inst : net->instances())
      sim.set_task(inst.name, rtos::vm_task(compiled.at(inst.name),
                                            vm::hc11_like(), inst.machine));
    const rtos::SimStats stats = sim.run(workload());
    table.add_row({config.name, std::to_string(worst(stats, "alarm")),
                   std::to_string(worst(stats, "speed_pwm")),
                   std::to_string(lost_total(stats)),
                   std::to_string(stats.overhead_cycles),
                   fixed(100 * stats.utilization(), 1)});
  }
  table.print(std::cout);

  std::cout << "\nexpected shape: priority+preemption minimises the urgent "
               "(alarm) latency; polling adds delivery latency growing with "
               "the polling period; interrupts cost per-event overhead.\n";

  // Simulator throughput, round-robin/interrupt, VM-backed tasks; the wall
  // time is the best of 3 runs (each run is identical).
  const std::vector<rtos::ExternalEvent> trace = throughput_trace(*net);
  double best = 0;
  rtos::SimStats stats;
  for (int rep = 0; rep < 3; ++rep) {
    rtos::RtosSimulation sim(*net, rtos::RtosConfig{});
    for (const cfsm::Instance& inst : net->instances())
      sim.set_task(inst.name, rtos::vm_task(compiled.at(inst.name),
                                            vm::hc11_like(), inst.machine));
    const auto t0 = std::chrono::steady_clock::now();
    stats = sim.run(trace, kThroughputHorizon);
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    best = rep == 0 ? wall : std::min(best, wall);
  }
  const double events = static_cast<double>(trace.size());
  const double reactions = static_cast<double>(stats.reactions_run);
  std::cout << "\nsimulator throughput (dash, VM tasks, " << trace.size()
            << " external events): " << fixed(best, 3) << " s, "
            << fixed(events / best / 1e6, 2) << " M events/s, "
            << fixed(reactions / best / 1e6, 2) << " M reactions/s\n";
  bench::Report report("bench_rtos");
  report.entry("dash_vm_throughput")
      .metric("events", static_cast<long long>(trace.size()))
      .metric("reactions", stats.reactions_run)
      .metric("wall_seconds", best)
      .metric("events_per_sec", events / best)
      .metric("reactions_per_sec", reactions / best);
  report.write("BENCH_RTOS.json");
  return 0;
}
