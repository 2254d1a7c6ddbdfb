// Resource governor: budgets, cancellation, recoverable unwinding, fault
// injection and atomic file writes. The central claims under test:
//
//   * a budget trip is a recoverable exception, not a fatal check — every
//     BddManager stays fully usable afterwards (live handles survive, new
//     operations work, GC runs);
//   * charges are exact: node/byte accounting refunds on GC and teardown, so
//     one governor can meter many manager lifetimes;
//   * injected allocation failures (the compiler-side FaultPlan mirror)
//     unwind leak- and corruption-free — this file doubles as the ASan/UBSan
//     fault-injection workload in CI;
//   * node-budget trips are operation-sequence deterministic.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bdd/bdd.hpp"
#include "cfsm/cfsm.hpp"
#include "core/synthesis.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/atomic_file.hpp"
#include "util/governor.hpp"

namespace polis {
namespace {

// A function family with enough structure to allocate hundreds of nodes:
// pairwise ANDs of XOR chains over `vars` variables.
bdd::Bdd busy_function(bdd::BddManager& mgr, int vars) {
  bdd::Bdd acc = mgr.one();
  for (int i = 0; i + 1 < vars; i += 2) {
    bdd::Bdd chain = mgr.zero();
    for (int j = i; j < vars; ++j) chain = chain ^ mgr.var(j);
    acc = acc & (chain | (mgr.var(i) & mgr.var(i + 1)));
  }
  return acc;
}

TEST(Governor, NodeBudgetTripsAsRecoverableError) {
  GovernorLimits limits;
  limits.max_nodes = 64;
  ResourceGovernor gov(limits);
  ResourceGovernor::Scope scope(&gov);

  bdd::BddManager mgr(16);
  bdd::Bdd survivor = mgr.var(0) & mgr.var(1);
  bool tripped = false;
  try {
    busy_function(mgr, 16);
  } catch (const BudgetExceeded& e) {
    tripped = true;
    EXPECT_EQ(e.kind(), BudgetExceeded::Kind::kNodes);
  }
  ASSERT_TRUE(tripped);
  EXPECT_GE(gov.budget_hits(), 1u);

  // The manager must be fully usable after the unwind: the live handle is
  // intact and both old and new operations work (ungoverned).
  {
    ResourceGovernor::Suspend suspend;
    EXPECT_FALSE(survivor.is_zero());
    EXPECT_TRUE((survivor & !mgr.var(0)).is_zero());
    mgr.garbage_collect();
    EXPECT_EQ((mgr.var(2) | !mgr.var(2)), mgr.one());
  }
}

TEST(Governor, ChargesRefundOnManagerTeardown) {
  GovernorLimits limits;
  limits.max_nodes = 1u << 20;
  ResourceGovernor gov(limits);
  ResourceGovernor::Scope scope(&gov);
  {
    bdd::BddManager mgr(12);
    bdd::Bdd keep = busy_function(mgr, 12);
    EXPECT_GT(gov.charged_nodes(), 0u);
    (void)keep;
  }
  // Everything the manager charged is refunded when it dies.
  EXPECT_EQ(gov.charged_nodes(), 0u);
}

// The exported peak is the high-water mark of the charge, not the charge at
// flush time: after a full refund it still reports what was once live.
TEST(Governor, PeakChargedNodesSurvivesRefund) {
  GovernorLimits limits;
  limits.max_nodes = 1u << 20;
  ResourceGovernor gov(limits);
  ResourceGovernor::Scope scope(&gov);
  uint64_t charged = 0;
  {
    bdd::BddManager mgr(14);
    bdd::Bdd keep = busy_function(mgr, 14);
    charged = gov.charged_nodes();
    EXPECT_GT(charged, 0u);
    (void)keep;
  }
  EXPECT_EQ(gov.charged_nodes(), 0u);
  gov.flush_stats_to_obs();
  const auto gauges = obs::MetricsRegistry::global().snapshot().gauges;
  const auto it = gauges.find("governor.peak_charged_nodes");
  ASSERT_NE(it, gauges.end());
  EXPECT_GE(it->second, static_cast<int64_t>(charged));
}

TEST(Governor, GcRefundsCompactedNodes) {
  GovernorLimits limits;
  limits.max_nodes = 1u << 20;
  ResourceGovernor gov(limits);
  ResourceGovernor::Scope scope(&gov);
  bdd::BddManager mgr(12);
  { bdd::Bdd dead = busy_function(mgr, 12); }
  const uint64_t before = gov.charged_nodes();
  mgr.garbage_collect();
  EXPECT_LT(gov.charged_nodes(), before);
}

TEST(Governor, DeadlineTripsOnPoll) {
  GovernorLimits limits;
  limits.deadline_ms = 1;
  ResourceGovernor gov(limits);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(gov.deadline_expired());
  EXPECT_THROW(gov.poll(), BudgetExceeded);
}

TEST(Governor, CancellationTripsOnPoll) {
  CancellationToken token;
  ResourceGovernor gov(GovernorLimits{}, token);
  gov.poll();  // not yet cancelled
  token.request_cancel();
  EXPECT_THROW(gov.poll(), Cancelled);
}

TEST(Governor, SuspendGatesThrowsButKeepsAccounting) {
  GovernorLimits limits;
  limits.max_nodes = 1;
  ResourceGovernor gov(limits);
  ResourceGovernor::Scope scope(&gov);
  {
    ResourceGovernor::Suspend suspend;
    gov.charge_arena(100, 0);  // over budget, but suspended: no throw
    gov.poll();
  }
  EXPECT_EQ(gov.charged_nodes(), 100u);  // charges recorded regardless
  EXPECT_TRUE(gov.nodes_over_budget());
  EXPECT_THROW(gov.charge_arena(1, 0), BudgetExceeded);
  gov.charge_arena(-101, 0);  // refunds never throw
  EXPECT_FALSE(gov.nodes_over_budget());
}

TEST(Governor, PollCurrentWithoutGovernorIsANoop) {
  for (int i = 0; i < 1024; ++i) ResourceGovernor::poll_current();
}

TEST(Governor, ScopeRestartsThePollCountdown) {
  // governor.polls must not depend on what a pool thread ran before: the
  // 200 calls in the scope stay under one stride whatever came earlier. A
  // fresh thread pins the countdown's starting point at 0.
  ResourceGovernor gov;
  std::thread([&] {
    for (int i = 0; i < 100; ++i) ResourceGovernor::poll_current();
    ResourceGovernor::Scope scope(&gov);
    for (int i = 0; i < 200; ++i) ResourceGovernor::poll_current();
  }).join();
  EXPECT_EQ(gov.polls(), 0u);
}

TEST(Governor, NodeBudgetTripIsDeterministic) {
  // Same operation sequence + same budget ⇒ the trip happens at the same
  // charge count. This is what makes degraded outputs byte-identical.
  const auto run = [] {
    GovernorLimits limits;
    limits.max_nodes = 80;
    ResourceGovernor gov(limits);
    ResourceGovernor::Scope scope(&gov);
    bdd::BddManager mgr(16);
    try {
      busy_function(mgr, 16);
    } catch (const BudgetExceeded&) {
    }
    return gov.charged_nodes();
  };
  EXPECT_EQ(run(), run());
}

TEST(Governor, InjectedAllocationFaultsUnwindCleanly) {
  // Deterministic single-failure windows swept across the first growth
  // decisions: every unwind must leave the manager consistent (checked by
  // continuing to operate on it; ASan checks the leak half in CI).
  for (uint64_t fail_after = 0; fail_after < 40; fail_after += 3) {
    ResourceGovernor gov{GovernorLimits{}};
    AllocFaultPlan plan;
    plan.fail_after = fail_after;
    plan.fail_first_n = 1;
    gov.set_alloc_fault_plan(plan);
    ResourceGovernor::Scope scope(&gov);

    bdd::BddManager mgr(14);
    bdd::Bdd partial;
    try {
      partial = busy_function(mgr, 14);
    } catch (const BudgetExceeded& e) {
      EXPECT_EQ(e.kind(), BudgetExceeded::Kind::kAllocation);
    }
    // One failure was injected (or the workload finished first).
    EXPECT_LE(gov.alloc_faults_injected(), 1u);
    // The manager survived: finish the same workload fault-free.
    {
      ResourceGovernor::Suspend suspend;
      const bdd::Bdd full = busy_function(mgr, 14);
      EXPECT_FALSE(full.is_null());
      mgr.garbage_collect();
    }
  }
}

TEST(Governor, FaultStormStillCompletesUnderDegrade) {
  // A probabilistic "budget storm" into a full synthesize() run in degrade
  // mode: the ladder (ungoverned χ rebuild, s-graph retry, estimator skip)
  // must still produce code.
  const auto machine = std::make_shared<const cfsm::Cfsm>(
      "stormy", std::vector<cfsm::Signal>{{"a", 4}, {"b", 1}},
      std::vector<cfsm::Signal>{{"y", 4}},
      std::vector<cfsm::StateVar>{{"s", 4, 0}},
      std::vector<cfsm::Rule>{
          cfsm::Rule{expr::land(cfsm::presence("a"),
                                expr::eq(expr::var("s"), cfsm::value_of("a"))),
                     {cfsm::Emit{"y", expr::add(expr::var("s"),
                                                expr::constant(1))}},
                     {cfsm::Assign{"s", expr::constant(0)}}},
          cfsm::Rule{cfsm::presence("b"),
                     {},
                     {cfsm::Assign{"s", expr::add(expr::var("s"),
                                                  expr::constant(1))}}},
      });

  for (uint64_t seed = 1; seed <= 5; ++seed) {
    GovernorLimits degrade;  // no budget: only the injected faults trip
    degrade.on_budget = OnBudget::kDegrade;
    ResourceGovernor gov{degrade};
    AllocFaultPlan plan;
    plan.seed = seed;
    plan.probability = 0.05;
    gov.set_alloc_fault_plan(plan);
    ResourceGovernor::Scope scope(&gov);

    const SynthesisResult r = synthesize(machine);
    EXPECT_FALSE(r.c_code.empty());
    EXPECT_FALSE(r.graph == nullptr);
  }
}

TEST(Governor, RetryUngovernedFollowsThePolicy) {
  GovernorLimits limits;
  limits.max_nodes = 64;
  for (const OnBudget mode : {OnBudget::kFail, OnBudget::kDegrade}) {
    limits.on_budget = mode;
    ResourceGovernor gov(limits);
    ResourceGovernor::Scope scope(&gov);
    EXPECT_EQ(ResourceGovernor::degrading(), mode == OnBudget::kDegrade);
    bdd::BddManager mgr(16);
    std::vector<bool> attempts;
    const auto attempt = [&](bool retry) {
      attempts.push_back(retry);
      return busy_function(mgr, 16);
    };
    if (mode == OnBudget::kFail) {
      EXPECT_THROW(ResourceGovernor::retry_ungoverned("retry", attempt),
                   BudgetExceeded);
      EXPECT_EQ(attempts, std::vector<bool>{false});
      EXPECT_EQ(gov.degradations(), 0u);
    } else {
      const bdd::Bdd f = ResourceGovernor::retry_ungoverned("retry", attempt);
      EXPECT_FALSE(f.is_null());
      EXPECT_EQ(attempts, (std::vector<bool>{false, true}));
      EXPECT_EQ(gov.degradations(), 1u);
    }
  }
  // No ambient governor: nothing degrades.
  EXPECT_FALSE(ResourceGovernor::degrading());
}

#ifndef POLIS_OBS_DISABLED
// Each ladder rung lands in the wall-clock trace as a "governor" instant
// named after the rung, so `polisc --trace` shows where a run degraded.
TEST(Governor, DegradationIsRecordedAsTraceInstant) {
  const char* const kRung = "busy function over budget; ungoverned retry";
  obs::TraceRecorder& recorder = obs::TraceRecorder::global();
  recorder.clear();
  recorder.set_enabled(true);
  {
    GovernorLimits limits;
    limits.max_nodes = 64;
    limits.on_budget = OnBudget::kDegrade;
    ResourceGovernor gov(limits);
    ResourceGovernor::Scope scope(&gov);
    bdd::BddManager mgr(16);
    ResourceGovernor::retry_ungoverned(
        kRung, [&](bool) { return busy_function(mgr, 16); });
  }
  recorder.set_enabled(false);
  size_t instants = 0;
  for (const obs::TraceEvent& e : recorder.collect()) {
    if (e.ph == 'i' && e.name == kRung && std::string(e.cat) == "governor")
      ++instants;
  }
  recorder.clear();
  EXPECT_EQ(instants, 1u);
}
#endif

TEST(AtomicFile, WritesAndOverwrites) {
  const auto dir = std::filesystem::temp_directory_path() / "polis_atomic_test";
  std::filesystem::create_directories(dir);
  const auto path = dir / "artifact.c";
  write_file_atomic(path, "first\n");
  write_file_atomic(path, "second\n");
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), "second\n");
  // No temp droppings left behind.
  size_t entries = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
  std::filesystem::remove_all(dir);
}

TEST(AtomicFile, FailureLeavesNoPartialFile) {
  const auto dir =
      std::filesystem::temp_directory_path() / "polis_atomic_missing" / "sub";
  // Parent directory does not exist: the write must throw and leave nothing.
  EXPECT_THROW(write_file_atomic(dir / "x.c", "data"), std::exception);
  EXPECT_FALSE(std::filesystem::exists(dir));
}

}  // namespace
}  // namespace polis
