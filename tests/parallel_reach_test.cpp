// Determinism and governor contracts of the sharded image computation
// (ParallelImage): the parallel reachability engine must be OBSERVABLY
// IDENTICAL to the serial one — same reached set (as a function, compared by
// migrating both into a common manager; raw handles are not comparable
// across managers), same BFS layers, same iteration count, same verdicts and
// byte-identical counterexamples — at every thread count. Budget trips
// mid-parallel-fixpoint must recover through the same widen / kUnknown
// ladder as serial runs, and every node charged to the ambient governor by
// the per-worker managers must be refunded by teardown.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "core/systems.hpp"
#include "frontend/parser.hpp"
#include "util/governor.hpp"
#include "verif/verif.hpp"

namespace polis {
namespace {

std::string slurp(const std::filesystem::path& p) {
  std::ifstream in(p);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// One reachability run with everything the comparisons need kept alive
/// (the Bdd handles in `reach` reference `mgr`).
struct ReachRun {
  std::unique_ptr<bdd::BddManager> mgr;
  std::unique_ptr<verif::NetworkEncoding> enc;
  verif::TransitionSystem tr;
  verif::ReachResult reach;
};

ReachRun run_reach(const cfsm::Network& net, int threads) {
  ReachRun r;
  r.mgr = std::make_unique<bdd::BddManager>();
  r.enc = std::make_unique<verif::NetworkEncoding>(net, *r.mgr);
  r.tr = verif::build_transition_system(*r.enc);
  verif::ReachOptions opt;
  opt.num_threads = threads;
  r.reach = verif::reachable_states(r.tr, opt);
  return r;
}

// Serial (threads = 1, in-manager image) versus sharded (2 and 8 workers)
// over the example networks: the reached set and every BFS onion layer must
// be the same boolean function, and the fixpoint must take the same number
// of iterations. Function equality across managers is checked by copying
// both sides into a fresh common manager, where canonicity makes handle
// equality function equality.
TEST(ParallelReach, ThreadCountsAreFunctionIdentical) {
  const std::vector<std::shared_ptr<cfsm::Network>> nets = {
      frontend::parse(
          slurp(std::filesystem::path(POLIS_EXAMPLES_DIR) / "blinker.rsl"))
          .networks.at("blinker"),
      systems::meter_network(),
      systems::dash_core_network(),
      systems::microwave_network(),
  };
  for (const auto& net : nets) {
    SCOPED_TRACE(net->name());
    const ReachRun serial = run_reach(*net, 1);
    EXPECT_EQ(serial.reach.stats.shards, 0);
    ASSERT_TRUE(serial.reach.stats.exact);

    for (const int threads : {2, 8}) {
      SCOPED_TRACE(threads);
      const ReachRun par = run_reach(*net, threads);
      EXPECT_GT(par.reach.stats.shards, 0);
      EXPECT_LE(par.reach.stats.shards, threads);
      EXPECT_EQ(par.reach.stats.iterations, serial.reach.stats.iterations);
      EXPECT_EQ(par.reach.stats.reached_states,
                serial.reach.stats.reached_states);
      EXPECT_TRUE(par.reach.stats.exact);
      EXPECT_TRUE(par.reach.stats.converged);
      EXPECT_EQ(par.reach.stats.worker_peak_nodes.size(),
                static_cast<size_t>(par.reach.stats.shards));

      bdd::BddManager common(serial.mgr->num_vars());
      bdd::CopyCache from_serial, from_par;
      EXPECT_EQ(common.copy_across(serial.reach.reached, from_serial),
                common.copy_across(par.reach.reached, from_par));
      ASSERT_EQ(par.reach.layers.size(), serial.reach.layers.size());
      for (size_t i = 0; i < serial.reach.layers.size(); ++i) {
        EXPECT_EQ(common.copy_across(serial.reach.layers[i], from_serial),
                  common.copy_across(par.reach.layers[i], from_par))
            << "layer " << i;
      }
    }
  }
}

// The deliberately-violated seat-belt alarm from the check tests: verdicts,
// violating-state counts and the BFS-minimal counterexample trace must be
// byte-identical whatever the thread count, because counterexamples are
// extracted from the (identical) onion layers.
const char* kAlarmSource =
    "module alarmist {\n"
    "  input key_on;\n"
    "  input belt_on;\n"
    "  input tick;\n"
    "  output alarm;\n"
    "  state st : int[3] = 0;\n"
    "  state cnt : int[4] = 0;\n"
    "  assert st != 2;\n"
    "  when present(key_on)                      -> { st := 1; cnt := 0; }\n"
    "  when st == 1 && present(belt_on)          -> { st := 0; }\n"
    "  when st == 1 && present(tick) && cnt < 3  -> { cnt := cnt + 1; }\n"
    "  when st == 1 && present(tick) && cnt >= 3 -> { st := 2; emit alarm; }\n"
    "}\n"
    "network alarmnet { instance blt : alarmist; }\n";

TEST(ParallelReach, VerdictsAndCounterexamplesMatchSerial) {
  const frontend::ParsedFile file = frontend::parse(kAlarmSource);
  const cfsm::Network& net = *file.networks.at("alarmnet");

  verif::VerifyOptions serial_opt;
  serial_opt.reach.num_threads = 1;
  const verif::VerifyResult serial = verif::verify_network(net, serial_opt);
  ASSERT_EQ(serial.assertions.size(), 1u);
  ASSERT_EQ(serial.assertions[0].verdict, verif::Verdict::kViolated);
  ASSERT_TRUE(serial.assertions[0].cex.has_value());

  for (const int threads : {2, 8}) {
    SCOPED_TRACE(threads);
    verif::VerifyOptions opt;
    opt.reach.num_threads = threads;
    const verif::VerifyResult par = verif::verify_network(net, opt);

    EXPECT_EQ(par.reach.reached_states, serial.reach.reached_states);
    EXPECT_EQ(par.reach.iterations, serial.reach.iterations);
    ASSERT_EQ(par.assertions.size(), serial.assertions.size());
    const verif::CheckResult& a = par.assertions[0];
    const verif::CheckResult& b = serial.assertions[0];
    EXPECT_EQ(a.verdict, b.verdict);
    EXPECT_EQ(a.violating_states, b.violating_states);
    ASSERT_TRUE(a.cex.has_value());
    EXPECT_EQ(a.cex->initial, b.cex->initial);
    ASSERT_EQ(a.cex->steps.size(), b.cex->steps.size());
    for (size_t i = 0; i < a.cex->steps.size(); ++i) {
      EXPECT_EQ(a.cex->steps[i].kind, b.cex->steps[i].kind) << "step " << i;
      EXPECT_EQ(a.cex->steps[i].subject, b.cex->steps[i].subject)
          << "step " << i;
      EXPECT_EQ(a.cex->steps[i].value, b.cex->steps[i].value) << "step " << i;
      EXPECT_EQ(a.cex->steps[i].after, b.cex->steps[i].after) << "step " << i;
    }
    EXPECT_EQ(par.lost_events.possible, serial.lost_events.possible);
    EXPECT_EQ(par.lost_events.offenders, serial.lost_events.offenders);
  }
}

// A node budget that trips while the sharded fixpoint is in flight must
// recover through widening: the run completes converged-but-inexact (the
// reached set overapproximates), counts the recovery, and — the accounting
// half — every node/byte the per-worker managers charged to the ambient
// governor is refunded once the engine tears down. The final conservation
// check (charges return exactly to zero after the main manager dies) covers
// the workers too: any leaked worker charge would surface as a nonzero
// residue.
TEST(ParallelReach, GovernorTripMidFixpointWidensAndRefunds) {
  GovernorLimits limits;
  // Above the (deterministic) arena charge of building the microwave
  // transition relation (~1.09 M slots), below what the sharded fixpoint
  // adds on top — so the trip lands mid-fixpoint, not during setup.
  limits.max_nodes = 1'100'000;
  limits.on_budget = OnBudget::kDegrade;
  ResourceGovernor gov(limits);
  ResourceGovernor::Scope scope(&gov);
  ASSERT_EQ(gov.charged_nodes(), 0u);
  ASSERT_EQ(gov.charged_bytes(), 0u);

  {
    const std::shared_ptr<cfsm::Network> net = systems::microwave_network();
    bdd::BddManager mgr;
    verif::NetworkEncoding enc(*net, mgr);
    verif::TransitionSystem tr = verif::build_transition_system(enc);
    verif::ReachOptions opt;
    opt.num_threads = 4;
    const verif::ReachResult reach = verif::reachable_states(tr, opt);

    EXPECT_TRUE(reach.stats.converged);
    EXPECT_FALSE(reach.stats.exact);
    EXPECT_GT(reach.stats.budget_recoveries, 0);
    EXPECT_GT(reach.stats.widenings, 0);
    EXPECT_GT(gov.charged_nodes(), 0u);
    // Workers are gone by now; only the main manager's charges remain, and
    // the widened reached set must still contain every truly reachable
    // state (checked cheaply: it contains the initial set).
    const bdd::Bdd init = enc.initial_set();
    EXPECT_EQ((init & reach.reached), init);
  }
  EXPECT_EQ(gov.charged_nodes(), 0u);
  EXPECT_EQ(gov.charged_bytes(), 0u);
}

// Cancellation mid-parallel-run takes the other arm of the ladder: the
// fixpoint stops non-converged (an underapproximation), and downstream
// property checking degrades the verdict to kUnknown — never to a bogus
// kProved — exactly as in the serial engine.
TEST(ParallelReach, CancellationDegradesVerdictsToUnknown) {
  const frontend::ParsedFile file = frontend::parse(kAlarmSource);
  const cfsm::Network& net = *file.networks.at("alarmnet");

  CancellationToken token;
  GovernorLimits degrade;
  degrade.on_budget = OnBudget::kDegrade;
  ResourceGovernor gov{degrade, token};

  bdd::BddManager mgr;
  verif::NetworkEncoding enc(net, mgr);
  verif::TransitionSystem tr = verif::build_transition_system(enc);
  token.request_cancel();  // trip the first in-fixpoint poll

  verif::ReachOptions opt;
  opt.num_threads = 4;
  verif::ReachResult reach;
  {
    ResourceGovernor::Scope scope(&gov);
    reach = verif::reachable_states(tr, opt);
  }
  EXPECT_FALSE(reach.stats.converged);

  const auto results = verif::check_assertions(tr, reach);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].verdict, verif::Verdict::kUnknown);
  const verif::LostEventReport lost = verif::check_no_lost_events(tr, reach);
  EXPECT_FALSE(lost.sound);
}

}  // namespace
}  // namespace polis
