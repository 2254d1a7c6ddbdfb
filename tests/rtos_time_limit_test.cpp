// Event times at the edge of the simulator's time range. RtosSimulation
// adds fault delays, duplicate gaps, polling quantisation and overhead
// spikes to caller-supplied times, and uses max/4 as its "no time" sentinel,
// so run() rejects times at or above that sentinel instead of overflowing.
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "cfsm/cfsm.hpp"
#include "cfsm/network.hpp"
#include "rtos/rtos.hpp"
#include "util/check.hpp"

namespace polis::rtos {
namespace {

constexpr long long kMax = std::numeric_limits<long long>::max();
constexpr long long kSentinel = kMax / 4;

cfsm::Network relay_network() {
  cfsm::Network net("n");
  net.add_instance(
      "r",
      std::make_shared<cfsm::Cfsm>(
          "relay", std::vector<cfsm::Signal>{{"i", 1}},
          std::vector<cfsm::Signal>{{"o", 1}}, std::vector<cfsm::StateVar>{},
          std::vector<cfsm::Rule>{cfsm::Rule{
              cfsm::presence("i"), {cfsm::Emit{"o", nullptr}}, {}}}),
      {{"i", "in"}, {"o", "out"}});
  return net;
}

std::string run_error(const RtosConfig& config, long long time) {
  const cfsm::Network net = relay_network();
  RtosSimulation sim(net, config);
  sim.set_reference_task("r", 100);
  try {
    sim.run({{0, "in", 0}, {time, "in", 0}});
  } catch (const CheckError& e) {
    return e.what();
  }
  return "";
}

TEST(RtosTimeLimit, TimeNearMaxIsRejectedWithNetAndTime) {
  RtosConfig config;
  config.delivery = RtosConfig::HwDelivery::kPolling;
  const std::string error = run_error(config, kMax - 1);
  EXPECT_NE(error.find("net in at t=" + std::to_string(kMax - 1)),
            std::string::npos)
      << error;
}

TEST(RtosTimeLimit, TimeAtSentinelIsRejected) {
  // A stimulus at the sentinel would read as "no stimulus" (latency 0).
  EXPECT_NE(run_error(RtosConfig{}, kSentinel), "");
  EXPECT_EQ(run_error(RtosConfig{}, kSentinel - 1), "");
}

TEST(RtosTimeLimit, LargeTimePastHorizonRunsCleanUnderFaults) {
  // Every sum the delivery schedule forms — delay, duplicate gap, polling
  // quantisation, spike — applied to the largest accepted time.
  RtosConfig config;
  config.delivery = RtosConfig::HwDelivery::kPolling;
  config.faults.delay_probability = 1.0;
  config.faults.max_delay = 1'000;
  config.faults.duplicate_probability = 1.0;
  config.faults.duplicate_gap = 5'000;
  config.faults.spike_probability = 1.0;
  config.faults.spike_cycles = 300;
  const cfsm::Network net = relay_network();
  RtosSimulation sim(net, config);
  sim.set_reference_task("r", 100);
  const SimStats stats = sim.run({{0, "in", 0}, {kSentinel - 1, "in", 0}});
  EXPECT_FALSE(stats.aborted);
  EXPECT_EQ(stats.injected.delays, 2);
  EXPECT_EQ(stats.injected.duplicates, 2);
  // Only the early event and its duplicate fall inside the horizon.
  EXPECT_EQ(stats.outputs.size(), 2u);
}

// A cycle of hardware instances (h1: a -> b, h2: b -> a) never hands control
// back to the main loop: the cascade must run without recursion and stop at
// the horizon instead of overflowing the stack.
TEST(RtosTimeLimit, HardwareCycleStopsAtHorizon) {
  auto relay = [](const std::string& name) {
    return std::make_shared<cfsm::Cfsm>(
        name, std::vector<cfsm::Signal>{{"i", 1}},
        std::vector<cfsm::Signal>{{"o", 1}}, std::vector<cfsm::StateVar>{},
        std::vector<cfsm::Rule>{
            cfsm::Rule{cfsm::presence("i"), {cfsm::Emit{"o", nullptr}}, {}}});
  };
  cfsm::Network net("loop");
  net.add_instance("h1", relay("r1"), {{"i", "a"}, {"o", "b"}});
  net.add_instance("h2", relay("r2"), {{"i", "b"}, {"o", "a"}});
  RtosConfig config;
  config.hardware_instances = {"h1", "h2"};
  RtosSimulation sim(net, config);
  sim.set_reference_task("h1", 10);
  sim.set_reference_task("h2", 10);

  constexpr long long kHorizon = 300'000;
  const SimStats stats = sim.run({{0, "a", 0}}, kHorizon);
  EXPECT_FALSE(stats.aborted);
  // One reaction per cycle from t=0 to the horizon; the last emission lands
  // one hardware reaction later and is left undetected.
  EXPECT_EQ(stats.reactions_run, kHorizon + 1);
  EXPECT_LE(stats.end_time, kHorizon + config.hw_reaction_cycles);
  EXPECT_GE(stats.end_time, kHorizon);
  EXPECT_EQ(stats.busy_cycles, 0);
}

}  // namespace
}  // namespace polis::rtos
