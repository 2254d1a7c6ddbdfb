#include "verif/verif.hpp"

#include "bdd/bdd.hpp"
#include "obs/obs.hpp"
#include "util/governor.hpp"
#include "verif/care.hpp"
#include "verif/encode.hpp"

namespace polis::verif {

VerifyResult verify_network(const cfsm::Network& network,
                            const VerifyOptions& options) {
  OBS_SPAN(span, "verify_network", "verif");
  if (span.armed()) span.arg("network", network.name());

  try {
    bdd::BddManager mgr;
    NetworkEncoding enc(network, mgr);
    TransitionSystem tr = build_transition_system(enc, options.transition);
    const ReachResult reach = reachable_states(tr, options.reach);

    VerifyResult result;
    result.reach = reach.stats;
    result.clusters = tr.clusters.size();
    for (const Cluster& c : tr.clusters) result.transitions += c.transitions;
    {
      OBS_SPAN(stage, "verif.check_assertions", "verif");
      result.assertions = check_assertions(tr, reach, options.enum_limit);
    }
    {
      OBS_SPAN(stage, "verif.check_lost_events", "verif");
      result.lost_events = check_no_lost_events(tr, reach);
    }
    // Care filters come only from an *exact* reached set: an
    // overapproximation would be sound too (a superset of care is just less
    // effective), but keeping them exact makes the reported code-size win
    // reproducible. (An underapproximation would be UNSOUND — excluded but
    // reachable combos would miscompile — which is why `exact` is cleared on
    // every non-converged path.)
    if (options.extract_care && reach.stats.exact) {
      OBS_SPAN(stage, "verif.extract_care", "verif");
      result.care_filters =
          care_filters_by_machine(enc, reach.reached, options.enum_limit);
    }
    if (span.armed()) {
      span.arg("clusters", result.clusters);
      span.arg("transitions", result.transitions);
    }
    return result;
  } catch (const RecoverableError&) {
    // The fixpoint degrades internally; a budget blown while *encoding* the
    // network or checking properties cannot. Under degrade mode that still
    // must not fail the run: report every property honestly unknown.
    ResourceGovernor::degrade_or_rethrow(
        "verification abandoned on budget; unknown");
    VerifyResult fallback;
    fallback.reach.exact = false;
    fallback.reach.converged = false;
    for (const Property& p : assertion_properties(network)) {
      CheckResult r;
      r.property = p;
      r.verdict = Verdict::kUnknown;
      fallback.assertions.push_back(std::move(r));
    }
    fallback.lost_events.sound = false;
    return fallback;
  }
}

}  // namespace polis::verif
