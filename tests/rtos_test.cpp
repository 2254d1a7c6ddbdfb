#include <gtest/gtest.h>

#include <sstream>

#include "cfsm/cfsm.hpp"
#include "cfsm/network.hpp"
#include "rtos/codegen.hpp"
#include "rtos/rtos.hpp"
#include "rtos/tasks.hpp"
#include "rtos/trace.hpp"
#include "rtos/vcd.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace polis::rtos {
namespace {

// Relay: forwards input event `i` to output `o`.
std::shared_ptr<cfsm::Cfsm> relay(const std::string& name) {
  return std::make_shared<cfsm::Cfsm>(
      name, std::vector<cfsm::Signal>{{"i", 1}},
      std::vector<cfsm::Signal>{{"o", 1}}, std::vector<cfsm::StateVar>{},
      std::vector<cfsm::Rule>{
          cfsm::Rule{cfsm::presence("i"), {cfsm::Emit{"o", nullptr}}, {}}});
}

TEST(Rtos, SingleRelayDeliversEndToEnd) {
  cfsm::Network net("n");
  net.add_instance("r", relay("relay"), {{"i", "in"}, {"o", "out"}});
  RtosSimulation sim(net, RtosConfig{});
  sim.set_reference_task("r", 100);

  const SimStats stats = sim.run({{0, "in", 0}, {5000, "in", 0}});
  ASSERT_EQ(stats.outputs.size(), 2u);
  EXPECT_EQ(stats.outputs[0].net, "out");
  EXPECT_EQ(stats.reactions_run, 2);
  EXPECT_EQ(stats.empty_reactions, 0);
  EXPECT_GT(stats.busy_cycles, 0);
  // Latency = reaction time + context switch.
  ASSERT_EQ(stats.input_to_output_latency.at("out").size(), 2u);
  EXPECT_GE(stats.input_to_output_latency.at("out")[0], 100);
}

TEST(Rtos, PipelineLatencyAccumulates) {
  cfsm::Network net("pipe");
  net.add_instance("a", relay("r1"), {{"i", "in"}, {"o", "mid"}});
  net.add_instance("b", relay("r2"), {{"i", "mid"}, {"o", "out"}});
  RtosSimulation sim(net, RtosConfig{});
  sim.set_reference_task("a", 100);
  sim.set_reference_task("b", 100);
  const SimStats stats = sim.run({{0, "in", 0}});
  ASSERT_EQ(stats.outputs.size(), 1u);
  EXPECT_GE(stats.input_to_output_latency.at("out")[0], 200);
}

TEST(Rtos, OverwriteLosesEvent) {
  // Two stimuli arrive while the single consumer is busy with a long
  // reaction of another task: the 1-place buffer overwrites.
  cfsm::Network net("n");
  net.add_instance("slow", relay("rs"), {{"i", "trigger"}, {"o", "sink1"}});
  net.add_instance("fast", relay("rf"), {{"i", "in"}, {"o", "out"}});
  RtosConfig config;
  config.policy = RtosConfig::Policy::kStaticPriority;
  config.priority = {{"slow", 1}, {"fast", 2}};
  RtosSimulation sim(net, config);
  sim.set_reference_task("slow", 10'000);
  sim.set_reference_task("fast", 100);
  // trigger at t=0 starts the long reaction; both "in" events arrive during
  // it and land in the same 1-place buffer.
  const SimStats stats =
      sim.run({{0, "trigger", 0}, {100, "in", 0}, {200, "in", 0}});
  EXPECT_EQ(stats.lost_events.at("in"), 1);
  EXPECT_EQ(stats.outputs.size(), 2u);  // sink1 + only one out
}

TEST(Rtos, LostEventCountsAtDeliverySite) {
  // Three stimuli land in the same 1-place buffer while a higher-priority
  // long reaction holds the CPU: exactly 2 of them are overwritten at the
  // delivery site (rtos.cpp's deliver_to_consumers), under both delivery
  // disciplines.
  cfsm::Network net("n");
  net.add_instance("busy", relay("rb"), {{"i", "trigger"}, {"o", "sink"}});
  net.add_instance("u", relay("ru"), {{"i", "a"}, {"o", "out"}});
  const std::vector<ExternalEvent> events = {
      {0, "trigger", 0}, {100, "a", 0}, {200, "a", 0}, {300, "a", 0}};

  auto run_with = [&](RtosConfig::HwDelivery delivery) {
    RtosConfig config;
    config.policy = RtosConfig::Policy::kStaticPriority;
    config.priority = {{"busy", 1}, {"u", 2}};
    config.delivery = delivery;
    config.polling_period = 2000;
    RtosSimulation sim(net, config);
    sim.set_reference_task("busy", 10'000);
    sim.set_reference_task("u", 100);
    return sim.run(events);
  };

  // Interrupt: all three "a" events are delivered while "busy" runs.
  const SimStats by_interrupt = run_with(RtosConfig::HwDelivery::kInterrupt);
  EXPECT_EQ(by_interrupt.lost_events.at("a"), 2);
  EXPECT_EQ(by_interrupt.outputs.size(), 2u);  // sink + a single out

  // Polling: all three collapse onto the same polling tick back to back.
  const SimStats by_polling = run_with(RtosConfig::HwDelivery::kPolling);
  EXPECT_EQ(by_polling.lost_events.at("a"), 2);
  EXPECT_EQ(by_polling.outputs.size(), 2u);
}

TEST(Rtos, LostEventCountsAtPreservedMergeSite) {
  // §IV-D: a non-firing reaction preserves its events; an arrival buffered
  // during that reaction collides with the preserved event at the merge in
  // run_task. Exactly 1 loss, under both delivery disciplines.
  auto both = std::make_shared<cfsm::Cfsm>(
      "both", std::vector<cfsm::Signal>{{"a", 1}, {"b", 1}},
      std::vector<cfsm::Signal>{{"o", 1}}, std::vector<cfsm::StateVar>{},
      std::vector<cfsm::Rule>{
          cfsm::Rule{expr::land(cfsm::presence("a"), cfsm::presence("b")),
                     {cfsm::Emit{"o", nullptr}},
                     {}}});
  cfsm::Network net("n");
  net.add_instance("u", both);

  {
    // Interrupt: a@0 starts a 1000-cycle no-fire reaction; a@500 lands
    // mid-run, is buffered, and overwrites the preserved event afterwards.
    RtosSimulation sim(net, RtosConfig{});
    sim.set_reference_task("u", 1000);
    const SimStats stats = sim.run({{0, "a", 0}, {500, "a", 0}});
    EXPECT_EQ(stats.lost_events.at("a"), 1);
    EXPECT_EQ(stats.reactions_run, 2);   // the merged event re-enables u
    EXPECT_EQ(stats.empty_reactions, 2); // b never arrives
    EXPECT_TRUE(stats.outputs.empty());
  }
  {
    // Polling (period 2000): a@0 is seen at t=2000 and starts a 3000-cycle
    // reaction; a@2500 is seen at the t=4000 tick, inside that reaction.
    RtosConfig config;
    config.delivery = RtosConfig::HwDelivery::kPolling;
    config.polling_period = 2000;
    RtosSimulation sim(net, config);
    sim.set_reference_task("u", 3000);
    const SimStats stats = sim.run({{0, "a", 0}, {2500, "a", 0}});
    EXPECT_EQ(stats.lost_events.at("a"), 1);
    EXPECT_EQ(stats.reactions_run, 2);
    EXPECT_EQ(stats.empty_reactions, 2);
    EXPECT_TRUE(stats.outputs.empty());
  }
}

TEST(Rtos, EventsPreservedWhenNoRuleFires) {
  // A machine that only reacts when both a and b are present; a alone must
  // be preserved (§IV-D) and consumed once b arrives.
  auto both = std::make_shared<cfsm::Cfsm>(
      "both", std::vector<cfsm::Signal>{{"a", 1}, {"b", 1}},
      std::vector<cfsm::Signal>{{"o", 1}}, std::vector<cfsm::StateVar>{},
      std::vector<cfsm::Rule>{
          cfsm::Rule{expr::land(cfsm::presence("a"), cfsm::presence("b")),
                     {cfsm::Emit{"o", nullptr}},
                     {}}});
  cfsm::Network net("n");
  net.add_instance("u", both);
  RtosSimulation sim(net, RtosConfig{});
  sim.set_reference_task("u", 50);
  const SimStats stats = sim.run({{0, "a", 0}, {10'000, "b", 0}});
  EXPECT_EQ(stats.reactions_run, 2);
  EXPECT_EQ(stats.empty_reactions, 1);  // the a-only execution
  ASSERT_EQ(stats.outputs.size(), 1u);  // fired when b arrived, a preserved
  EXPECT_EQ(stats.outputs[0].net, "o");
}

TEST(Rtos, SnapshotFrozenDuringExecution) {
  // §IV-D scenario: b arrives while the task is running; it must be seen in
  // a *later* snapshot, not merged into the active one.
  auto both = std::make_shared<cfsm::Cfsm>(
      "both", std::vector<cfsm::Signal>{{"a", 1}, {"b", 1}},
      std::vector<cfsm::Signal>{{"o", 1}, {"partial", 1}},
      std::vector<cfsm::StateVar>{},
      std::vector<cfsm::Rule>{
          cfsm::Rule{expr::land(cfsm::presence("a"), cfsm::presence("b")),
                     {cfsm::Emit{"o", nullptr}},
                     {}},
          cfsm::Rule{cfsm::presence("a"),
                     {cfsm::Emit{"partial", nullptr}},
                     {}}});
  cfsm::Network net("n");
  net.add_instance("u", both);
  RtosSimulation sim(net, RtosConfig{});
  sim.set_reference_task("u", 1000);
  // a at t=0 starts the reaction; b lands mid-execution (t=500).
  const SimStats stats = sim.run({{0, "a", 0}, {500, "b", 0}});
  // First reaction sees only a -> partial; second sees only b -> empty
  // (preserved); never the impossible {a,b} snapshot.
  ASSERT_GE(stats.outputs.size(), 1u);
  EXPECT_EQ(stats.outputs[0].net, "partial");
  for (const ObservedEmission& e : stats.outputs) EXPECT_NE(e.net, "o");
}

TEST(Rtos, RoundRobinIsFair) {
  cfsm::Network net("n");
  net.add_instance("a", relay("ra"), {{"i", "ia"}, {"o", "oa"}});
  net.add_instance("b", relay("rb"), {{"i", "ib"}, {"o", "ob"}});
  RtosSimulation sim(net, RtosConfig{});
  sim.set_reference_task("a", 100);
  sim.set_reference_task("b", 100);
  // Both enabled at t=0; round-robin runs a then b (declaration order).
  const SimStats stats = sim.run({{0, "ia", 0}, {0, "ib", 0}});
  ASSERT_EQ(stats.outputs.size(), 2u);
  EXPECT_EQ(stats.outputs[0].net, "oa");
  EXPECT_EQ(stats.outputs[1].net, "ob");
}

TEST(Rtos, StaticPriorityOrdersExecution) {
  cfsm::Network net("n");
  net.add_instance("a", relay("ra"), {{"i", "ia"}, {"o", "oa"}});
  net.add_instance("b", relay("rb"), {{"i", "ib"}, {"o", "ob"}});
  RtosConfig config;
  config.policy = RtosConfig::Policy::kStaticPriority;
  config.priority = {{"a", 10}, {"b", 1}};  // b higher priority
  RtosSimulation sim(net, config);
  sim.set_reference_task("a", 100);
  sim.set_reference_task("b", 100);
  const SimStats stats = sim.run({{0, "ia", 0}, {0, "ib", 0}});
  ASSERT_EQ(stats.outputs.size(), 2u);
  EXPECT_EQ(stats.outputs[0].net, "ob");  // b ran first
}

TEST(Rtos, PreemptionShortensHighPriorityLatency) {
  cfsm::Network net("n");
  net.add_instance("slow", relay("rs"), {{"i", "is"}, {"o", "os"}});
  net.add_instance("hot", relay("rh"), {{"i", "ih"}, {"o", "oh"}});

  auto run_with = [&](bool preemptive) {
    RtosConfig config;
    config.policy = RtosConfig::Policy::kStaticPriority;
    config.preemptive = preemptive;
    config.priority = {{"slow", 10}, {"hot", 1}};
    RtosSimulation sim(net, config);
    sim.set_reference_task("slow", 100'000);
    sim.set_reference_task("hot", 100);
    // slow starts at 0; the urgent event arrives mid-flight.
    const SimStats stats = sim.run({{0, "is", 0}, {1000, "ih", 0}});
    return stats.input_to_output_latency.at("oh")[0];
  };

  const long long np = run_with(false);
  const long long p = run_with(true);
  EXPECT_LT(p, np);
  EXPECT_LT(p, 10'000);    // served promptly under preemption
  EXPECT_GT(np, 90'000);   // had to wait for the slow reaction
}

TEST(Rtos, PollingDelaysDelivery) {
  cfsm::Network net("n");
  net.add_instance("r", relay("rr"), {{"i", "in"}, {"o", "out"}});

  auto latency_with = [&](RtosConfig::HwDelivery delivery) {
    RtosConfig config;
    config.delivery = delivery;
    config.polling_period = 5000;
    RtosSimulation sim(net, config);
    sim.set_reference_task("r", 100);
    const SimStats stats = sim.run({{1, "in", 0}});
    return stats.input_to_output_latency.at("out")[0];
  };

  const long long by_interrupt = latency_with(RtosConfig::HwDelivery::kInterrupt);
  const long long by_polling = latency_with(RtosConfig::HwDelivery::kPolling);
  EXPECT_GT(by_polling, by_interrupt);
  EXPECT_GE(by_polling, 4999);  // waited for the next polling tick
}

TEST(Rtos, ValuedEventsCarryValues) {
  auto scale = std::make_shared<cfsm::Cfsm>(
      "scale", std::vector<cfsm::Signal>{{"x", 8}},
      std::vector<cfsm::Signal>{{"y", 16}}, std::vector<cfsm::StateVar>{},
      std::vector<cfsm::Rule>{cfsm::Rule{
          cfsm::presence("x"),
          {cfsm::Emit{"y", expr::mul(cfsm::value_of("x"), expr::constant(2))}},
          {}}});
  cfsm::Network net("n");
  net.add_instance("s", scale);
  RtosSimulation sim(net, RtosConfig{});
  sim.set_reference_task("s", 10);
  const SimStats stats = sim.run({{0, "x", 5}});
  ASSERT_EQ(stats.outputs.size(), 1u);
  EXPECT_EQ(stats.outputs[0].value, 10);
}

TEST(Trace, PeriodicAndPoissonGenerators) {
  const auto periodic =
      periodic_trace(PeriodicSource{"t", 100, 0, 0.0, 1}, 1000);
  EXPECT_EQ(periodic.size(), 11u);
  EXPECT_EQ(periodic[3].time, 300);

  Rng rng(1);
  const auto poisson = poisson_trace("p", 50.0, 10'000, rng);
  EXPECT_GT(poisson.size(), 100u);  // mean gap 50 over 10k
  for (size_t i = 1; i < poisson.size(); ++i)
    EXPECT_GE(poisson[i].time, poisson[i - 1].time);

  const auto merged = merge_traces({periodic, poisson});
  EXPECT_EQ(merged.size(), periodic.size() + poisson.size());
  for (size_t i = 1; i < merged.size(); ++i)
    EXPECT_GE(merged[i].time, merged[i - 1].time);
}

TEST(Rtos, IsrExecutedEventsGetImmediateAttention) {
  // §IV-C: consumers of a designated event run inside the ISR, ahead of the
  // scheduling policy — even while a long unrelated reaction occupies the
  // CPU under a *non-preemptive* configuration.
  cfsm::Network net("n");
  net.add_instance("slow", relay("rs"), {{"i", "is"}, {"o", "os"}});
  net.add_instance("critical", relay("rc"), {{"i", "panic"}, {"o", "horn"}});

  auto latency_with = [&](bool isr_executed) {
    RtosConfig config;  // round-robin, non-preemptive
    if (isr_executed) config.isr_executed_events.insert("panic");
    RtosSimulation sim(net, config);
    sim.set_reference_task("slow", 100'000);
    sim.set_reference_task("critical", 100);
    const SimStats stats = sim.run({{0, "is", 0}, {1000, "panic", 0}});
    return stats.input_to_output_latency.at("horn")[0];
  };

  const long long normal = latency_with(false);
  const long long immediate = latency_with(true);
  EXPECT_GT(normal, 90'000);    // waited behind the long reaction
  EXPECT_LT(immediate, 1'000);  // served inside the ISR
}

TEST(Rtos, HardwareInstancesReactOffCpu) {
  // The co-design dimension: move the first pipeline stage to hardware.
  // It reacts instantly at delivery (1 cycle), occupies no CPU, and the
  // software stage still works — latency drops by one software reaction.
  cfsm::Network net("pipe");
  net.add_instance("front", relay("r1"), {{"i", "in"}, {"o", "mid"}});
  net.add_instance("back", relay("r2"), {{"i", "mid"}, {"o", "out"}});

  auto run_with = [&](bool front_in_hw) {
    RtosConfig config;
    if (front_in_hw) config.hardware_instances.insert("front");
    RtosSimulation sim(net, config);
    sim.set_reference_task("front", 5'000);  // expensive in software
    sim.set_reference_task("back", 100);
    return sim.run({{0, "in", 0}});
  };

  const SimStats sw = run_with(false);
  const SimStats hw = run_with(true);
  ASSERT_EQ(sw.outputs.size(), 1u);
  ASSERT_EQ(hw.outputs.size(), 1u);
  // The hw partition removes the front stage's CPU time entirely...
  EXPECT_LT(hw.busy_cycles, sw.busy_cycles - 4'000);
  // ...and the end-to-end latency collapses to the software tail.
  EXPECT_LT(hw.input_to_output_latency.at("out")[0],
            sw.input_to_output_latency.at("out")[0] - 4'000);
  EXPECT_EQ(hw.reactions_run, 2);  // the hw reaction is still counted
}

TEST(Rtos, HardwareChainCascadesInstantly) {
  // Two hw stages back to back: the whole chain completes in wall-clock
  // cycles without touching the scheduler. Without a cycle, a zero-delay
  // chain is legal and completes at the stimulus instant.
  cfsm::Network net("hwpipe");
  net.add_instance("h1", relay("r1"), {{"i", "in"}, {"o", "mid"}});
  net.add_instance("h2", relay("r2"), {{"i", "mid"}, {"o", "out"}});
  for (const long long delay : {2LL, 0LL}) {
    RtosConfig config;
    config.hardware_instances = {"h1", "h2"};
    config.hw_reaction_cycles = delay;
    RtosSimulation sim(net, config);
    sim.set_reference_task("h1", 999'999);  // cycle cost ignored in hardware
    sim.set_reference_task("h2", 999'999);
    const SimStats stats = sim.run({{100, "in", 0}});
    ASSERT_EQ(stats.outputs.size(), 1u);
    EXPECT_EQ(stats.outputs[0].time, 100 + 2 * delay);
    EXPECT_EQ(stats.busy_cycles, 0);  // CPU never ran
  }
}

TEST(Rtos, ZeroDelayHardwareCycleIsRejected) {
  // h1 and h2 feed each other in hardware: at zero delay the cascade would
  // never advance simulated time. The run is inside the check so that a
  // regression hangs into the ctest TIMEOUT instead of passing.
  cfsm::Network net("hwloop");
  net.add_instance("h1", relay("r1"), {{"i", "a"}, {"o", "b"}});
  net.add_instance("h2", relay("r2"), {{"i", "b"}, {"o", "a"}});
  RtosConfig config;
  config.hardware_instances = {"h1", "h2"};
  config.hw_reaction_cycles = 0;
  std::string error;
  try {
    RtosSimulation sim(net, config);
    sim.set_reference_task("h1", 1);
    sim.set_reference_task("h2", 1);
    sim.run({{0, "a", 0}}, 1000);
  } catch (const CheckError& e) {
    error = e.what();
  }
  EXPECT_NE(error.find("zero-delay hardware cycle"), std::string::npos)
      << error;
  EXPECT_NE(error.find("h1 -> h2 -> h1"), std::string::npos) << error;
}

TEST(Rtos, NegativeHardwareDelayIsRejected) {
  cfsm::Network net("hwpipe");
  net.add_instance("h1", relay("r1"), {{"i", "in"}, {"o", "out"}});
  RtosConfig config;
  config.hardware_instances = {"h1"};
  config.hw_reaction_cycles = -1;
  EXPECT_THROW(RtosSimulation(net, config), CheckError);
}

TEST(Rtos, StimulusOnUnknownNetIsRejected) {
  // A typo in a stimulus net ("inn" for "in") fails loudly, naming the net
  // and the event time, instead of reading as an external output.
  cfsm::Network net("n");
  net.add_instance("r", relay("relay"), {{"i", "in"}, {"o", "out"}});
  RtosSimulation sim(net, RtosConfig{});
  sim.set_reference_task("r", 100);
  std::string error;
  try {
    sim.run({{0, "in", 0}, {700, "inn", 0}});
  } catch (const CheckError& e) {
    error = e.what();
  }
  EXPECT_NE(error.find("net inn"), std::string::npos) << error;
  EXPECT_NE(error.find("t=700"), std::string::npos) << error;
}

TEST(Rtos, HardwareCascadeIsDepthFirst) {
  // A hw fork emits p then q; p fans out to two hw relays. Each emission's
  // whole cascade completes before the next consumer or emission is served.
  cfsm::Network net("fan");
  net.add_instance(
      "h0",
      std::make_shared<cfsm::Cfsm>(
          "fork", std::vector<cfsm::Signal>{{"i", 1}},
          std::vector<cfsm::Signal>{{"p", 1}, {"q", 1}},
          std::vector<cfsm::StateVar>{},
          std::vector<cfsm::Rule>{cfsm::Rule{
              cfsm::presence("i"),
              {cfsm::Emit{"p", nullptr}, cfsm::Emit{"q", nullptr}},
              {}}}),
      {{"i", "in"}});
  net.add_instance("h1", relay("r1"), {{"i", "p"}, {"o", "r"}});
  net.add_instance("h3", relay("r3"), {{"i", "p"}, {"o", "t"}});
  net.add_instance("h2", relay("r2"), {{"i", "q"}, {"o", "s"}});
  RtosConfig config;
  config.hardware_instances = {"h0", "h1", "h2", "h3"};
  config.collect_log = true;
  RtosSimulation sim(net, config);
  for (const char* h : {"h0", "h1", "h2", "h3"}) sim.set_reference_task(h, 1);
  const SimStats stats = sim.run({{10, "in", 0}});
  std::string order;
  for (const LogEvent& e : stats.log)
    order += std::to_string(e.time) + ":" + e.subject + " ";
  EXPECT_EQ(order, "10:in 10:h0 11:p 11:h1 12:r 11:h3 12:t 11:q 11:h2 12:s ");
}

TEST(Rtos, ChainingCutsSchedulingOverhead) {
  // §IV-A: chained executions bypass the RTOS. The two-stage pipeline's
  // end-to-end latency and total overhead drop when the stages are chained.
  cfsm::Network net("pipe");
  net.add_instance("a", relay("r1"), {{"i", "in"}, {"o", "mid"}});
  net.add_instance("b", relay("r2"), {{"i", "mid"}, {"o", "out"}});

  auto run_with = [&](bool chained) {
    RtosConfig config;
    config.context_switch_cycles = 500;
    if (chained) config.chains = {{"a", "b"}};
    RtosSimulation sim(net, config);
    sim.set_reference_task("a", 100);
    sim.set_reference_task("b", 100);
    return sim.run({{0, "in", 0}, {10'000, "in", 0}});
  };

  const SimStats plain = run_with(false);
  const SimStats chained = run_with(true);
  EXPECT_EQ(plain.outputs.size(), chained.outputs.size());
  EXPECT_LT(chained.overhead_cycles, plain.overhead_cycles);
  EXPECT_LT(chained.input_to_output_latency.at("out")[0],
            plain.input_to_output_latency.at("out")[0]);
  // The saving is roughly one context switch per chained hop.
  EXPECT_GE(plain.overhead_cycles - chained.overhead_cycles, 2 * 400);
}

TEST(Rtos, ChainOrderOnlyForwards) {
  // A chain {b, a} must not accelerate the a->b direction (only *later*
  // members run chained).
  cfsm::Network net("pipe");
  net.add_instance("a", relay("r1"), {{"i", "in"}, {"o", "mid"}});
  net.add_instance("b", relay("r2"), {{"i", "mid"}, {"o", "out"}});
  RtosConfig config;
  config.context_switch_cycles = 500;
  config.chains = {{"b", "a"}};  // wrong direction: no effect
  RtosSimulation sim(net, config);
  sim.set_reference_task("a", 100);
  sim.set_reference_task("b", 100);
  const SimStats stats = sim.run({{0, "in", 0}});
  ASSERT_EQ(stats.outputs.size(), 1u);
  // Two full context switches were paid.
  EXPECT_GE(stats.overhead_cycles, 1000);
}

TEST(Rtos, EventLogRecordsActivationsAndEmissions) {
  cfsm::Network net("n");
  net.add_instance("r", relay("relay"), {{"i", "in"}, {"o", "out"}});
  RtosConfig config;
  config.collect_log = true;
  RtosSimulation sim(net, config);
  sim.set_reference_task("r", 100);
  const SimStats stats = sim.run({{10, "in", 0}});
  ASSERT_FALSE(stats.log.empty());
  bool saw_start = false;
  bool saw_end = false;
  bool saw_emit = false;
  long long last_time = 0;
  for (const LogEvent& e : stats.log) {
    EXPECT_GE(e.time, last_time);  // time-ordered
    last_time = e.time;
    saw_start = saw_start || (e.kind == LogEvent::Kind::kTaskStart &&
                              e.subject == "r");
    saw_end = saw_end || (e.kind == LogEvent::Kind::kTaskEnd &&
                          e.subject == "r");
    saw_emit = saw_emit || (e.kind == LogEvent::Kind::kEmission &&
                            e.subject == "out");
  }
  EXPECT_TRUE(saw_start);
  EXPECT_TRUE(saw_end);
  EXPECT_TRUE(saw_emit);
  // Logging is off by default.
  RtosSimulation quiet(net, RtosConfig{});
  quiet.set_reference_task("r", 100);
  EXPECT_TRUE(quiet.run({{10, "in", 0}}).log.empty());
}

TEST(Rtos, VcdExportWellFormed) {
  cfsm::Network net("n");
  net.add_instance("r", relay("relay"), {{"i", "in"}, {"o", "out"}});
  RtosConfig config;
  config.collect_log = true;
  RtosSimulation sim(net, config);
  sim.set_reference_task("r", 100);
  const SimStats stats = sim.run({{10, "in", 0}, {500, "in", 0}});

  std::ostringstream os;
  write_vcd(net, stats, os);
  const std::string vcd = os.str();
  EXPECT_NE(vcd.find("$timescale 1us $end"), std::string::npos);
  EXPECT_NE(vcd.find("$var wire 1"), std::string::npos);
  EXPECT_NE(vcd.find("$enddefinitions $end"), std::string::npos);
  EXPECT_NE(vcd.find("$dumpvars"), std::string::npos);
  EXPECT_NE(vcd.find(" r $end"), std::string::npos);    // task wire
  EXPECT_NE(vcd.find(" out $end"), std::string::npos);  // net wire
  // Timestamps present and the document ends with one.
  EXPECT_NE(vcd.find("\n#"), std::string::npos);
}

// Every name-keyed RtosConfig field is resolved when the simulation is
// built; an unknown name is an error that names the field and the name.
std::string config_error(const RtosConfig& config) {
  cfsm::Network net("pipe");
  net.add_instance("a", relay("r1"), {{"i", "in"}, {"o", "mid"}});
  net.add_instance("b", relay("r2"), {{"i", "mid"}, {"o", "out"}});
  try {
    RtosSimulation sim(net, config);
  } catch (const CheckError& e) {
    return e.what();
  }
  return "";
}

void expect_rejected(const RtosConfig& config, const std::string& field,
                     const std::string& name) {
  const std::string error = config_error(config);
  EXPECT_NE(error.find("RtosConfig::" + field), std::string::npos) << error;
  EXPECT_NE(error.find(name), std::string::npos) << error;
}

TEST(RtosConfigNames, KnownNamesAreAccepted) {
  RtosConfig config;
  config.priority = {{"a", 1}, {"b", 2}};
  config.hardware_instances = {"a"};
  config.chains = {{"a", "b"}};
  config.isr_executed_events = {"in"};
  config.overflow_by_net = {{"mid", OverflowPolicy::kDropNew}};
  config.deadline_monitors["b"] = DeadlineMonitor{100};
  config.faults.stalls["b"] = StallFault{0.5, 10};
  EXPECT_EQ(config_error(config), "");
}

TEST(RtosConfigNames, UnknownPriorityInstance) {
  RtosConfig config;
  config.priority = {{"a", 1}, {"bb", 2}};
  expect_rejected(config, "priority", "bb");
}

TEST(RtosConfigNames, UnknownHardwareInstance) {
  RtosConfig config;
  config.hardware_instances = {"front"};
  expect_rejected(config, "hardware_instances", "front");
}

TEST(RtosConfigNames, UnknownChainMember) {
  RtosConfig config;
  config.chains = {{"a", "c"}};
  expect_rejected(config, "chains", "c");
}

TEST(RtosConfigNames, UnknownIsrExecutedNet) {
  RtosConfig config;
  config.isr_executed_events = {"inn"};
  expect_rejected(config, "isr_executed_events", "inn");
}

TEST(RtosConfigNames, UnknownOverflowNet) {
  RtosConfig config;
  config.overflow_by_net = {{"middle", OverflowPolicy::kDropNew}};
  expect_rejected(config, "overflow_by_net", "middle");
}

TEST(RtosConfigNames, UnknownDeadlineMonitorTask) {
  RtosConfig config;
  config.deadline_monitors["z"] = DeadlineMonitor{100};
  expect_rejected(config, "deadline_monitors", "z");
}

TEST(RtosConfigNames, UnknownStalledTask) {
  RtosConfig config;
  config.faults.stalls["x"] = StallFault{1.0, 10};
  expect_rejected(config, "faults.stalls", "x");
}

TEST(RtosCodegen, HeaderAndSchedulerShape) {
  cfsm::Network net("pair");
  net.add_instance("a", relay("r1"), {{"i", "in"}, {"o", "mid"}});
  net.add_instance("b", relay("r2"), {{"i", "mid"}, {"o", "out"}});

  const std::string header = generate_rt_header(net);
  EXPECT_NE(header.find("#define SIG_in"), std::string::npos);
  EXPECT_NE(header.find("#define SIG_mid"), std::string::npos);
  EXPECT_NE(header.find("int  polis_detect(int sig);"), std::string::npos);

  RtosConfig config;
  const std::string c = generate_rtos_c(net, config);
  EXPECT_NE(c.find("#define N_TASKS 2"), std::string::npos);
  EXPECT_NE(c.find("polis_scheduler_step"), std::string::npos);
  EXPECT_NE(c.find("sensitivity"), std::string::npos);
  // Task entry points are named after the *instances* so that several
  // instances of one module coexist.
  EXPECT_NE(c.find("cfsm_a"), std::string::npos);
  EXPECT_NE(c.find("cfsm_b"), std::string::npos);
  EXPECT_NE(c.find("polis_value"), std::string::npos);
  EXPECT_NE(c.find("polis_isr"), std::string::npos);  // interrupt delivery

  config.policy = RtosConfig::Policy::kStaticPriority;
  config.delivery = RtosConfig::HwDelivery::kPolling;
  const std::string c2 = generate_rtos_c(net, config);
  EXPECT_NE(c2.find("task_priority[t] < task_priority[best]"),
            std::string::npos);
  EXPECT_NE(c2.find("polis_poll"), std::string::npos);
}

}  // namespace
}  // namespace polis::rtos
