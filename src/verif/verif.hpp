// One-call façade over the symbolic verification engine: encode the
// network, build the partitioned transition relation, run the reachability
// fixpoint, check every `assert` property plus the built-in lost-event
// property, and distill the reached set into per-machine care filters for
// s-graph synthesis. The BDD manager lives and dies inside the call; the
// result carries only plain data (and self-contained filters).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cfsm/network.hpp"
#include "cfsm/reactive.hpp"
#include "verif/check.hpp"
#include "verif/reach.hpp"
#include "verif/transition.hpp"

namespace polis::verif {

struct VerifyOptions {
  TransitionOptions transition;
  ReachOptions reach;
  /// Local-enumeration cap for properties and care-filter extraction.
  std::uint64_t enum_limit = 1u << 20;
  /// Extract per-machine care filters from the reached set.
  bool extract_care = true;
};

struct VerifyResult {
  ReachStats reach;
  std::uint64_t clusters = 0;
  std::uint64_t transitions = 0;  // concrete transitions encoded
  std::vector<CheckResult> assertions;
  LostEventReport lost_events;
  /// Feed into core::SynthesisOptions::care_filter_by_machine. Empty for
  /// machines whose local space exceeded the limit, or after widening
  /// (an overapproximate reached set would admit unreachable combos but
  /// we keep the guarantee that filters are exact).
  std::map<std::string, cfsm::CareFilter> care_filters;

  bool all_proved() const {
    for (const CheckResult& r : assertions)
      if (r.verdict != Verdict::kProved) return false;
    return true;
  }
};

VerifyResult verify_network(const cfsm::Network& network,
                            const VerifyOptions& options = {});

}  // namespace polis::verif
