// Degradation determinism: the contract of `--on-budget=degrade`.
//
//   * Budgets that never trip must leave the output byte-identical to an
//     unbudgeted run (the governor's presence alone changes nothing).
//   * A node budget small enough to trip must still complete — and because
//     node/byte trips depend only on the operation sequence, two runs under
//     the same tiny budget must produce byte-identical degraded output.
//   * Under --on-budget=fail the same trip surfaces as BudgetExceeded.
//   * The policy is the ambient governor's (GovernorLimits::on_budget), so
//     verification and synthesis under one governor degrade — or fail —
//     together.
//
// Eight golden configurations: the five example networks plus scheme /
// care-set / copy-in option variants. Everything runs serially
// (num_threads = 1) so governor charge order is deterministic.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>

#include "core/synthesis.hpp"
#include "frontend/parser.hpp"
#include "util/governor.hpp"
#include "verif/verif.hpp"

namespace polis {
namespace {

struct Config {
  const char* name;
  const char* file;
  const char* network;
  sgraph::OrderingScheme scheme;
  bool care;
  bool copyin;
};

const Config kConfigs[] = {
    {"blinker-sift", "blinker.rsl", "blinker",
     sgraph::OrderingScheme::kSiftOutputsAfterSupport, false, false},
    {"blinker-free", "blinker.rsl", "blinker",
     sgraph::OrderingScheme::kFreeOrder, false, false},
    {"dash-sift", "dashboard.rsl", "dash",
     sgraph::OrderingScheme::kSiftOutputsAfterSupport, false, false},
    {"dash-outfirst-copyin", "dashboard.rsl", "dash",
     sgraph::OrderingScheme::kOutputsBeforeInputs, false, true},
    {"meter-care", "meter.rsl", "meter",
     sgraph::OrderingScheme::kSiftOutputsAfterSupport, true, false},
    {"meter-naive", "meter.rsl", "meter", sgraph::OrderingScheme::kNaive,
     false, false},
    {"microwave-copyin", "microwave.rsl", "microwave",
     sgraph::OrderingScheme::kSiftOutputsAfterSupport, false, true},
    {"shock-sift", "shock_absorber.rsl", "shock",
     sgraph::OrderingScheme::kSiftOutputsAfterSupport, false, false},
};

std::string slurp(const std::filesystem::path& p) {
  std::ifstream in(p);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// The byte-comparable output of one synthesis run: generated C per
/// instance, plus the s-graph size (a cheap structural fingerprint).
using Output = std::map<std::string, std::string>;

Output run_config(const Config& c, const GovernorLimits* limits,
                  OnBudget mode, size_t* degradations = nullptr) {
  const frontend::ParsedFile file = frontend::parse(
      slurp(std::filesystem::path(POLIS_EXAMPLES_DIR) / c.file));
  const cfsm::Network& net = *file.networks.at(c.network);

  std::optional<ResourceGovernor> gov;
  std::optional<ResourceGovernor::Scope> scope;
  if (limits != nullptr) {
    GovernorLimits governed = *limits;
    governed.on_budget = mode;
    gov.emplace(governed);
    scope.emplace(&*gov);
  }

  SynthesisOptions options;
  options.scheme = c.scheme;
  options.build.use_care_set = c.care;
  options.optimize_copy_in = c.copyin;
  options.num_threads = 1;
  const NetworkSynthesis synth = synthesize_network(net, options);

  Output out;
  for (const auto& [instance, r] : synth.per_instance) {
    out[instance] = r.c_code + "\n// sgraph-nodes: " +
                    std::to_string(r.graph->num_nodes());
    if (degradations != nullptr) *degradations += r.degradations.size();
  }
  return out;
}

TEST(Degradation, UnhitBudgetsMatchUnbudgetedGoldens) {
  GovernorLimits roomy;
  roomy.max_nodes = uint64_t{1} << 40;
  roomy.max_arena_bytes = uint64_t{1} << 44;
  for (const Config& c : kConfigs) {
    const Output golden = run_config(c, nullptr, OnBudget::kFail);
    size_t degradations = 0;
    const Output governed =
        run_config(c, &roomy, OnBudget::kDegrade, &degradations);
    EXPECT_EQ(golden, governed) << c.name;
    EXPECT_EQ(degradations, 0u) << c.name;
  }
}

TEST(Degradation, TinyNodeBudgetIsDeterministicAndCompletes) {
  GovernorLimits tiny;
  tiny.max_nodes = 400;
  size_t total_degradations = 0;
  for (const Config& c : kConfigs) {
    size_t d1 = 0;
    size_t d2 = 0;
    const Output first = run_config(c, &tiny, OnBudget::kDegrade, &d1);
    const Output second = run_config(c, &tiny, OnBudget::kDegrade, &d2);
    EXPECT_EQ(first, second) << c.name;
    EXPECT_EQ(d1, d2) << c.name;
    EXPECT_FALSE(first.empty()) << c.name;
    for (const auto& [instance, code] : first)
      EXPECT_FALSE(code.empty()) << c.name << "/" << instance;
    total_degradations += d1;
  }
  // At least one configuration must actually have walked the ladder,
  // otherwise this test is vacuous.
  EXPECT_GT(total_degradations, 0u);
}

TEST(Degradation, TinyByteBudgetIsDeterministicAndCompletes) {
  GovernorLimits tiny;
  tiny.max_arena_bytes = 64 * 1024;
  for (const Config& c : kConfigs) {
    const Output first = run_config(c, &tiny, OnBudget::kDegrade);
    const Output second = run_config(c, &tiny, OnBudget::kDegrade);
    EXPECT_EQ(first, second) << c.name;
  }
}

TEST(Degradation, FailModeSurfacesTheTrip) {
  GovernorLimits tiny;
  tiny.max_nodes = 50;  // trips during any realistic χ construction
  bool tripped = false;
  try {
    run_config(kConfigs[2], &tiny, OnBudget::kFail);  // dashboard
  } catch (const BudgetExceeded& e) {
    tripped = true;
    EXPECT_EQ(e.kind(), BudgetExceeded::Kind::kNodes);
  }
  EXPECT_TRUE(tripped);
}

TEST(Degradation, VerificationDegradesToUnknownNotWrong) {
  // Tiny budget + degrade: the verifier must come back (no throw) and must
  // not claim kProved from a non-converged exploration.
  const frontend::ParsedFile file = frontend::parse(
      slurp(std::filesystem::path(POLIS_EXAMPLES_DIR) / "meter.rsl"));
  const cfsm::Network& net = *file.networks.at("meter");

  GovernorLimits tiny;
  tiny.max_nodes = 200;
  tiny.on_budget = OnBudget::kDegrade;
  ResourceGovernor gov(tiny);
  ResourceGovernor::Scope scope(&gov);

  const verif::VerifyResult v = verif::verify_network(net);
  if (!v.reach.converged) {
    for (const verif::CheckResult& r : v.assertions)
      EXPECT_NE(r.verdict, verif::Verdict::kProved) << r.property.name;
    EXPECT_TRUE(v.care_filters.empty());
  }
  SUCCEED();
}

// polisc's `--verify --care` order under one governor: verification first,
// then synthesis with the care filters it extracted (none unless the reached
// set is exact). `stage` records how far the run got.
NetworkSynthesis verify_then_synthesize(const cfsm::Network& net,
                                        verif::VerifyResult* verified,
                                        int* stage) {
  *stage = 1;
  *verified = verif::verify_network(net);
  *stage = 2;
  SynthesisOptions options;
  options.build.use_care_set = true;
  options.care_filter_by_machine = verified->care_filters;
  options.num_threads = 1;
  return synthesize_network(net, options);
}

TEST(Degradation, VerifyThenCareSynthesisFollowsOnePolicy) {
  const std::pair<const char*, const char*> kNets[] = {
      {"meter.rsl", "meter"},
      {"microwave.rsl", "microwave"},
      {"dashboard.rsl", "dash"},
  };
  for (const auto& [file_name, net_name] : kNets) {
    const frontend::ParsedFile file = frontend::parse(
        slurp(std::filesystem::path(POLIS_EXAMPLES_DIR) / file_name));
    const cfsm::Network& net = *file.networks.at(net_name);
    GovernorLimits tiny;
    tiny.max_nodes = 300;

    {
      // Degrade: both stages complete, and nothing is proved from a fixpoint
      // that did not converge.
      tiny.on_budget = OnBudget::kDegrade;
      ResourceGovernor gov(tiny);
      ResourceGovernor::Scope scope(&gov);
      verif::VerifyResult v;
      int stage = 0;
      const NetworkSynthesis synth = verify_then_synthesize(net, &v, &stage);
      for (const verif::CheckResult& r : v.assertions) {
        if (r.verdict == verif::Verdict::kProved) {
          EXPECT_TRUE(v.reach.converged) << net_name << "/" << r.property.name;
        }
      }
      EXPECT_EQ(synth.per_instance.size(), net.instances().size()) << net_name;
      for (const auto& [instance, r] : synth.per_instance)
        EXPECT_FALSE(r.c_code.empty()) << net_name << "/" << instance;
      EXPECT_GT(gov.degradations(), 0u) << net_name;
    }
    {
      // Fail: the same limits surface the trip from the first stage.
      tiny.on_budget = OnBudget::kFail;
      ResourceGovernor gov(tiny);
      ResourceGovernor::Scope scope(&gov);
      verif::VerifyResult v;
      int stage = 0;
      EXPECT_THROW(verify_then_synthesize(net, &v, &stage), BudgetExceeded)
          << net_name;
      EXPECT_EQ(stage, 1) << net_name;
      EXPECT_EQ(gov.degradations(), 0u) << net_name;
    }
  }
}

}  // namespace
}  // namespace polis
