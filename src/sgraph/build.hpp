// Initial s-graph construction from the characteristic function of a CFSM's
// reactive function (§III-B2, Theorem 1), under a chosen variable-ordering
// scheme (§III-B3):
//
//   * kNaive                   — discovery order, all tests before actions;
//   * kSiftOutputsAfterInputs  — sift constrained so all outputs stay below
//                                all inputs (first scheme of Table II);
//   * kSiftOutputsAfterSupport — sift constrained so each output stays below
//                                its own support: the paper's default, better
//                                sharing (second scheme of Table II);
//   * kOutputsBeforeInputs     — all outputs above all inputs: a TEST-free
//                                chain of ASSIGNs labelled with nested-ITE
//                                functions (the ESTEREL-v5-style scheme,
//                                §III-B3c) with identical execution time on
//                                every path;
//   * kCurrent                 — whatever order the manager currently holds.
//
// The construction recursively Shannon-cofactors χ by test variables
// (creating TEST vertices) and extracts assignment functions for action
// variables (creating ASSIGN vertices), memoised so the result is reduced:
// with the outputs-after-support order its structure corresponds exactly to
// the BDD of the reactive function (§III-B3b).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "cfsm/reactive.hpp"
#include "sgraph/sgraph.hpp"

namespace polis::sgraph {

enum class OrderingScheme {
  kNaive,
  kSiftOutputsAfterInputs,
  kSiftOutputsAfterSupport,
  kOutputsBeforeInputs,
  kCurrent,
  /// §VI future work, implemented: an *unordered* decision graph. Instead
  /// of one global variable order, each branch greedily picks the test that
  /// most shrinks its residual function (an FBDD-style construction), and
  /// actions are emitted as soon as they become constant. Canonicity is
  /// lost (less sharing is guaranteed), but paths can be shorter.
  kFreeOrder,
};

const char* to_string(OrderingScheme scheme);

struct BuildOptions {
  /// Restrict χ to the reachable care set before building, removing false
  /// paths (§III-C). Falls back to no restriction if the concrete space is
  /// too large to enumerate.
  bool use_care_set = false;
  /// Optional *global* care filter (network-level reachability from
  /// verif::care_filters_by_machine): concrete combinations it rejects are
  /// added to the don't cares. Only consulted when `use_care_set` is set.
  cfsm::CareFilter care_filter;
};

/// Builds the s-graph for `rf` under `scheme`. Sift-based schemes reorder
/// rf's manager in place (the manager must contain only rf's variables).
Sgraph build_sgraph(cfsm::ReactiveFunction& rf, OrderingScheme scheme,
                    const BuildOptions& options = {});

/// Builds under an explicit total order of rf's BDD variables (top first).
Sgraph build_sgraph_with_order(cfsm::ReactiveFunction& rf,
                               const std::vector<int>& order,
                               const BuildOptions& options = {});

/// Executes one reaction through the s-graph (procedure `evaluate`, §III-A)
/// and decodes the executed actions against the machine's interface. This is
/// the reference path used to prove Theorem 1 behaviourally in the tests.
cfsm::Reaction run_reaction(const Sgraph& graph, const cfsm::Cfsm& machine,
                            const cfsm::Snapshot& snapshot,
                            const std::map<std::string, std::int64_t>& state);

}  // namespace polis::sgraph
