// Characterization of the RTOS simulator on the dashboard network: one
// seeded periodic+burst trace replayed under configurations that together
// exercise every scheduling, delivery, fault and degradation path of
// RtosSimulation::run. Each run is reduced to plain integers (totals, counts
// and an FNV-1a digest of the event log) and compared against pinned values,
// so a refactor of the simulator must reproduce the exact event sequence.
//
// The trace and the digest are portable; the fault-injection draws go
// through polis::Rng (std::mt19937_64 plus standard distributions), whose
// values are those of libstdc++.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "core/synthesis.hpp"
#include "core/systems.hpp"
#include "rtos/rtos.hpp"
#include "rtos/tasks.hpp"
#include "rtos/trace.hpp"
#include "vm/isa.hpp"

namespace polis::rtos {
namespace {

struct Digest {
  long long end_time = 0;
  long long busy = 0;
  long long overhead = 0;
  long long reactions = 0;
  long long empty = 0;
  long long lost = 0;
  long long outputs = 0;
  long long log_size = 0;
  long long deadline_misses = 0;
  bool aborted = false;
  std::uint64_t log_fnv = 0;
  std::string diagnostic;  // first line only; the rest is the log tail

  bool operator==(const Digest&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Digest& d) {
  return os << "{" << d.end_time << ", " << d.busy << ", " << d.overhead
            << ", " << d.reactions << ", " << d.empty << ", " << d.lost << ", "
            << d.outputs << ", " << d.log_size << ", " << d.deadline_misses
            << ", " << (d.aborted ? "true" : "false") << ", " << d.log_fnv
            << "ull, \"" << d.diagnostic << "\"}";
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& bytes) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

Digest digest_of(const SimStats& s) {
  Digest d;
  d.end_time = s.end_time;
  d.busy = s.busy_cycles;
  d.overhead = s.overhead_cycles;
  d.reactions = s.reactions_run;
  d.empty = s.empty_reactions;
  for (const auto& [net, n] : s.lost_events) d.lost += n;
  d.outputs = static_cast<long long>(s.outputs.size());
  d.log_size = static_cast<long long>(s.log.size());
  for (const auto& [task, n] : s.deadline_misses) d.deadline_misses += n;
  d.aborted = s.aborted;
  d.diagnostic = s.diagnostic.substr(0, s.diagnostic.find('\n'));
  d.log_fnv = 14695981039346656037ull;
  for (const LogEvent& e : s.log)
    d.log_fnv = fnv1a(d.log_fnv, std::to_string(e.time) + ' ' +
                                     std::to_string(static_cast<int>(e.kind)) +
                                     ' ' + e.subject + ' ' +
                                     std::to_string(e.value) + '\n');
  return d;
}

// Periodic sensors with a portable seeded jitter (splitmix64), a bursty
// engine sensor that provokes 1-place-buffer overwrites, and sparse
// operator inputs.
std::vector<ExternalEvent> dash_trace() {
  constexpr long long kUntil = 120'000;
  std::uint64_t seed = 12;
  auto next = [&seed]() {
    std::uint64_t z = (seed += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  std::vector<ExternalEvent> wheel =
      periodic_trace(PeriodicSource{"wheel_raw", 700, 0}, kUntil);
  for (ExternalEvent& e : wheel)
    e.time += static_cast<long long>(next() % 301) - 150;
  for (ExternalEvent& e : wheel) e.time = e.time < 0 ? 0 : e.time;
  return merge_traces(
      {wheel, periodic_trace(PeriodicSource{"timer", 5'000, 2'500}, kUntil),
       burst_trace("engine_raw", 3'000, 3, 40, kUntil),
       periodic_trace(PeriodicSource{"key_on", 40'000, 1'000}, kUntil),
       periodic_trace(PeriodicSource{"belt_on", 40'000, 31'000}, kUntil)});
}

Digest run_dash(RtosConfig config) {
  config.collect_log = true;
  const auto net = systems::dash_network();
  RtosSimulation sim(*net, std::move(config));
  sim.set_reference_task("deb", 120);
  sim.set_reference_task("wcnt", 200);
  sim.set_reference_task("spd", 300);
  sim.set_reference_task("odo", 250);
  sim.set_reference_task("ecnt", 200);
  sim.set_reference_task("tach", 350);
  sim.set_reference_task("blt", 150);
  return digest_of(sim.run(dash_trace()));
}

std::map<std::string, int> dash_priorities() {
  return {{"blt", 1}, {"deb", 2}, {"wcnt", 3}, {"ecnt", 4},
          {"spd", 5}, {"tach", 6}, {"odo", 7}};
}

TEST(RtosCharacterization, RoundRobinInterrupt) {
  EXPECT_EQ(run_dash(RtosConfig{}),
            (Digest{120390, 86820, 26635, 464, 15, 106, 41, 2095, 0, false,
                    14308461789398940850ull, ""}));
}

TEST(RtosCharacterization, PriorityPreemptionPolling) {
  RtosConfig config;
  config.policy = RtosConfig::Policy::kStaticPriority;
  config.preemptive = true;
  config.priority = dash_priorities();
  config.delivery = RtosConfig::HwDelivery::kPolling;
  config.polling_period = 450;
  EXPECT_EQ(run_dash(config),
            (Digest{121190, 94060, 39900, 513, 15, 77, 48, 2228, 0, false,
                    915909935409646140ull, ""}));
}

TEST(RtosCharacterization, IsrExecutedEventsAndChains) {
  RtosConfig config;
  config.isr_executed_events = {"wheel_raw", "key_on"};
  config.chains = {{"deb", "wcnt", "spd", "odo"}, {"ecnt", "tach"}};
  EXPECT_EQ(run_dash(config),
            (Digest{120545, 88940, 19820, 487, 15, 90, 53, 2137, 0, false,
                    9693274610478023178ull, ""}));
}

TEST(RtosCharacterization, HardwareInstances) {
  RtosConfig config;
  config.hardware_instances = {"deb", "ecnt"};
  config.hw_reaction_cycles = 3;
  EXPECT_EQ(run_dash(config),
            (Digest{120000, 55300, 17995, 589, 15, 9, 42, 1620, 0, false,
                    6654673564541606969ull, ""}));
}

TEST(RtosCharacterization, FaultsDropNewAndDeadlineMonitors) {
  RtosConfig config;
  config.policy = RtosConfig::Policy::kStaticPriority;
  config.priority = dash_priorities();
  config.faults.seed = 7;
  config.faults.drop_probability = 0.05;
  config.faults.delay_probability = 0.1;
  config.faults.max_delay = 400;
  config.faults.duplicate_probability = 0.05;
  config.faults.duplicate_gap = 30;
  config.faults.spike_probability = 0.05;
  config.faults.spike_cycles = 200;
  config.faults.exec_jitter = 0.3;
  config.faults.stalls["wcnt"] = StallFault{0.2, 500};
  config.overflow_default = OverflowPolicy::kDropNew;
  config.deadline_monitors["spd"] = {600, DeadlineMonitor::MissAction::kCount};
  config.deadline_monitors["odo"] = {
      800, DeadlineMonitor::MissAction::kFlushRestart};
  config.deadline_monitors["tach"] = {500, DeadlineMonitor::MissAction::kDemote,
                                      5};
  EXPECT_EQ(run_dash(config),
            (Digest{121643, 84186, 44335, 414, 6, 134, 25, 2524, 50, false,
                    14814511173200820504ull, ""}));
}

TEST(RtosCharacterization, AbortWithDiagnostic) {
  RtosConfig config;
  config.overflow_by_net["timer"] = OverflowPolicy::kAbortWithDiagnostic;
  EXPECT_EQ(run_dash(config),
            (Digest{27500, 19200, 6085, 104, 1, 24, 9, 476, 0, true,
                    9718011655224739079ull,
                    "buffer overflow on net timer at t=27500: event from env "
                    "found port tick of task blt already full"}));
}

TEST(RtosCharacterization, StarvationWatchdog) {
  RtosConfig config;
  config.policy = RtosConfig::Policy::kStaticPriority;
  config.priority = dash_priorities();
  config.watchdog.starvation_cycles = 900;
  EXPECT_EQ(run_dash(config),
            (Digest{4484, 2790, 1015, 16, 0, 4, 2, 76, 0, true,
                    4155406636121818366ull,
                    "watchdog: starvation — task odo runnable for 1130 cycles "
                    "(since t=3354) without being dispatched"}));
}

TEST(RtosCharacterization, LivelockWatchdog) {
  RtosConfig config;
  config.watchdog.livelock_reactions = 12;
  EXPECT_EQ(run_dash(config),
            (Digest{6970, 4680, 1590, 27, 0, 6, 2, 121, 0, true,
                    10800984293903399191ull,
                    "watchdog: livelock — 13 reactions without an external "
                    "output (last task deb at t=6970)"}));
}

// --- VM-backed tasks -------------------------------------------------------
// The same trace and configurations with every task the synthesized VM
// routine (hc11 cycle counts), so the pins also cover the compiled-task
// path that the benchmarks and polisc run.

Digest run_dash_vm(RtosConfig config) {
  config.collect_log = true;
  static const std::shared_ptr<cfsm::Network> net = systems::dash_network();
  // Only the compiled routines are kept: the synthesis results (and their
  // BDD managers) go away here, not after the metrics registry at exit.
  static const auto compiled = [] {
    SynthesisOptions options;
    options.num_threads = 1;
    std::map<std::string, std::shared_ptr<const vm::CompiledReaction>> out;
    for (const auto& [name, r] :
         synthesize_network(*net, options).per_instance)
      out[name] = r.compiled;
    return out;
  }();
  RtosSimulation sim(*net, std::move(config));
  for (const cfsm::Instance& inst : net->instances())
    sim.set_task(inst.name,
                 vm_task(compiled.at(inst.name), vm::hc11_like(),
                         inst.machine));
  return digest_of(sim.run(dash_trace()));
}

TEST(RtosCharacterization, VmRoundRobinInterrupt) {
  EXPECT_EQ(run_dash_vm(RtosConfig{}),
            (Digest{120093, 32237, 29515, 536, 15, 62, 50, 2260, 0, false,
                    9487090489695462254ull, ""}));
}

TEST(RtosCharacterization, VmPriorityPreemptionPolling) {
  RtosConfig config;
  config.policy = RtosConfig::Policy::kStaticPriority;
  config.preemptive = true;
  config.priority = dash_priorities();
  config.delivery = RtosConfig::HwDelivery::kPolling;
  config.polling_period = 450;
  EXPECT_EQ(run_dash_vm(config),
            (Digest{120444, 31635, 40300, 523, 15, 75, 48, 2248, 0, false,
                    167568523667325177ull, ""}));
}

TEST(RtosCharacterization, VmIsrExecutedEventsAndChains) {
  RtosConfig config;
  config.isr_executed_events = {"wheel_raw", "key_on"};
  config.chains = {{"deb", "wcnt", "spd", "odo"}, {"ecnt", "tach"}};
  EXPECT_EQ(run_dash_vm(config),
            (Digest{120093, 31571, 21730, 533, 15, 61, 44, 2208, 0, false,
                    2463272714294017371ull, ""}));
}

TEST(RtosCharacterization, VmHardwareInstances) {
  RtosConfig config;
  config.hardware_instances = {"deb", "ecnt"};
  config.hw_reaction_cycles = 3;
  EXPECT_EQ(run_dash_vm(config),
            (Digest{120000, 14525, 17995, 589, 15, 9, 42, 1620, 0, false,
                    3414188303131923256ull, ""}));
}

TEST(RtosCharacterization, VmFaultsDropNewAndDeadlineMonitors) {
  RtosConfig config;
  config.policy = RtosConfig::Policy::kStaticPriority;
  config.priority = dash_priorities();
  config.faults.seed = 7;
  config.faults.drop_probability = 0.05;
  config.faults.delay_probability = 0.1;
  config.faults.max_delay = 400;
  config.faults.duplicate_probability = 0.05;
  config.faults.duplicate_gap = 30;
  config.faults.spike_probability = 0.05;
  config.faults.spike_cycles = 200;
  config.faults.exec_jitter = 0.3;
  config.faults.stalls["wcnt"] = StallFault{0.2, 500};
  config.overflow_default = OverflowPolicy::kDropNew;
  config.deadline_monitors["spd"] = {600, DeadlineMonitor::MissAction::kCount};
  config.deadline_monitors["odo"] = {
      800, DeadlineMonitor::MissAction::kFlushRestart};
  config.deadline_monitors["tach"] = {500, DeadlineMonitor::MissAction::kDemote,
                                      5};
  EXPECT_EQ(run_dash_vm(config),
            (Digest{120107, 34837, 41555, 507, 6, 65, 48, 2748, 9, false,
                    1709739246783292068ull, ""}));
}

}  // namespace
}  // namespace polis::rtos
