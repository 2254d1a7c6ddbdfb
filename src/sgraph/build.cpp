#include "sgraph/build.hpp"

#include <set>
#include <unordered_map>

#include "bdd/io.hpp"
#include "bdd/reorder.hpp"
#include "obs/obs.hpp"
#include "sgraph/eval.hpp"
#include "util/check.hpp"
#include "util/governor.hpp"

namespace polis::sgraph {

const char* to_string(OrderingScheme scheme) {
  switch (scheme) {
    case OrderingScheme::kNaive: return "naive";
    case OrderingScheme::kSiftOutputsAfterInputs: return "sift-out-after-in";
    case OrderingScheme::kSiftOutputsAfterSupport:
      return "sift-out-after-support";
    case OrderingScheme::kOutputsBeforeInputs: return "out-before-in";
    case OrderingScheme::kCurrent: return "current";
    case OrderingScheme::kFreeOrder: return "free-order";
  }
  return "?";
}

namespace {

ActionOp to_action_op(const cfsm::ReactiveFunction& rf,
                      const cfsm::ActionVariable& av) {
  ActionOp op;
  switch (av.kind) {
    case cfsm::ActionVariable::Kind::kConsume:
      op.kind = ActionOp::Kind::kConsume;
      break;
    case cfsm::ActionVariable::Kind::kAssignState:
      op.kind = ActionOp::Kind::kAssignVar;
      op.target = av.target;
      op.value = av.value;
      break;
    case cfsm::ActionVariable::Kind::kEmit: {
      const cfsm::Signal* sig = rf.machine().find_output(av.target);
      POLIS_CHECK(sig != nullptr);
      op.kind = sig->is_pure() ? ActionOp::Kind::kEmitPure
                               : ActionOp::Kind::kEmitValued;
      op.target = av.target;
      op.value = av.value;
      break;
    }
  }
  return op;
}

class Builder {
 public:
  Builder(cfsm::ReactiveFunction& rf, const std::vector<int>& order)
      : rf_(rf), mgr_(rf.manager()), order_(order),
        graph_(rf.machine().name()) {
    for (const cfsm::ActionVariable& a : rf.actions())
      other_actions_of_[a.bdd_var] = [&] {
        std::vector<int> others;
        for (const cfsm::ActionVariable& b : rf.actions())
          if (b.bdd_var != a.bdd_var) others.push_back(b.bdd_var);
        return others;
      }();
  }

  Sgraph run(const bdd::Bdd& chi) {
    graph_.set_entry(rec(0, chi));
    return std::move(graph_);
  }

 private:
  // The recursive `build` of §III-B2, memoised on (level, χ-cofactor) so the
  // result is reduced exactly like the underlying BDD.
  NodeId rec(size_t level, const bdd::Bdd& f) {
    ResourceGovernor::poll_current();
    if (level == order_.size()) return graph_.end();
    if (f.is_zero()) return graph_.end();  // unconstrained: nothing to do

    const std::uint64_t key =
        (static_cast<std::uint64_t>(level) << 32) | f.raw_index();
    auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;
    live_.push_back(f);  // keep cofactors alive so raw indices stay meaningful

    const int v = order_[level];
    NodeId result;
    if (rf_.is_test_var(v)) {
      const bdd::Bdd f1 = mgr_.cofactor(f, v, true);
      const bdd::Bdd f0 = mgr_.cofactor(f, v, false);
      if (f1 == f0) {
        result = rec(level + 1, f1);  // f does not depend on this test
      } else {
        const cfsm::TestVariable& t = rf_.test_of(v);
        const NodeId when_true = rec(level + 1, f1);
        const NodeId when_false = rec(level + 1, f0);
        result = graph_.test(t.predicate, t.is_presence, when_true, when_false);
      }
    } else {
      // Action variable z. Over the remaining variables, z may be 0 exactly
      // where a0 holds and may be 1 exactly where a1 holds (§III-B2's
      // flexibility conditions). We pick the assignment function a = ¬a0:
      // 1 wherever z is forced to 1 (or the input combination is
      // unreachable), 0 wherever "no action" is allowed — the cheapest
      // completion of the don't cares.
      const bdd::Bdd f1 = mgr_.cofactor(f, v, true);
      const bdd::Bdd f0 = mgr_.cofactor(f, v, false);
      if (f1 == f0) {
        result = rec(level + 1, f1);  // pure don't care: no assignment
      } else {
        const std::vector<int>& others = other_actions_of_.at(v);
        const bdd::Bdd smoothed = mgr_.smooth(f, others);
        const bdd::Bdd a0 = mgr_.cofactor(smoothed, v, false);
        const bdd::Bdd a = !a0;
        // Continuation: χ with z resolved to a(x).
        const bdd::Bdd fnext = (f1 & a) | (f0 & !a);
        const NodeId next = rec(level + 1, fnext);
        const ActionOp op = to_action_op(rf_, rf_.action_of(v));
        if (a.is_one()) {
          result = graph_.assign(op, nullptr, next);
        } else if (a.is_zero()) {
          result = next;
        } else {
          const expr::ExprRef cond = bdd::to_expr(a, [this](int var) {
            return rf_.test_of(var).predicate;
          });
          result = graph_.assign(op, cond, next);
        }
      }
    }
    memo_.emplace(key, result);
    return result;
  }

  cfsm::ReactiveFunction& rf_;
  bdd::BddManager& mgr_;
  const std::vector<int>& order_;
  Sgraph graph_;
  std::unordered_map<std::uint64_t, NodeId> memo_;
  std::unordered_map<int, std::vector<int>> other_actions_of_;
  std::vector<bdd::Bdd> live_;
};

// The free-order ("unordered decision diagram", §VI) builder: no global
// variable order. At each vertex, every action variable whose value has
// become constant is emitted immediately and removed from χ; then the test
// variable whose Shannon split minimises the residual BDD sizes is chosen
// locally for that branch.
class FreeOrderBuilder {
 public:
  FreeOrderBuilder(cfsm::ReactiveFunction& rf)
      : rf_(rf), mgr_(rf.manager()), graph_(rf.machine().name()) {}

  Sgraph run(const bdd::Bdd& chi) {
    graph_.set_entry(rec(chi));
    return std::move(graph_);
  }

 private:
  NodeId rec(const bdd::Bdd& f_in) {
    ResourceGovernor::poll_current();
    auto it = memo_.find(f_in.raw_index());
    if (it != memo_.end()) return it->second;
    live_.push_back(f_in);

    bdd::Bdd f = f_in;
    // Phase 1: emit every action whose value is already forced, until the
    // set stabilises (emitting one action can force another).
    std::vector<ActionOp> emitted;
    bool changed = true;
    while (changed) {
      changed = false;
      for (const cfsm::ActionVariable& av : rf_.actions()) {
        const bdd::Bdd f1 = mgr_.cofactor(f, av.bdd_var, true);
        const bdd::Bdd f0 = mgr_.cofactor(f, av.bdd_var, false);
        if (f1 == f0) continue;  // not (or no longer) constrained
        std::vector<int> others;
        for (const cfsm::ActionVariable& b : rf_.actions())
          if (b.bdd_var != av.bdd_var) others.push_back(b.bdd_var);
        const bdd::Bdd a0 =
            mgr_.cofactor(mgr_.smooth(f, others), av.bdd_var, false);
        const bdd::Bdd a = !a0;
        if (a.is_one()) {
          emitted.push_back(to_action_op(rf_, av));
          f = f1;
          changed = true;
        } else if (a.is_zero()) {
          f = f0;
          changed = true;
        }
        // Non-constant: decided further down, after more tests.
      }
    }

    // Phase 2: pick the locally best remaining test variable.
    int best_var = -1;
    size_t best_score = 0;
    bdd::Bdd best_f1;
    bdd::Bdd best_f0;
    for (int v : mgr_.support(f)) {
      if (!rf_.is_test_var(v)) continue;
      const bdd::Bdd f1 = mgr_.cofactor(f, v, true);
      const bdd::Bdd f0 = mgr_.cofactor(f, v, false);
      const size_t score =
          mgr_.node_count(f1) + mgr_.node_count(f0);
      if (best_var < 0 || score < best_score ||
          (score == best_score && v < best_var)) {
        best_var = v;
        best_score = score;
        best_f1 = f1;
        best_f0 = f0;
      }
    }

    NodeId tail;
    if (best_var < 0) {
      // No test left: all actions were resolved in phase 1.
      tail = graph_.end();
    } else {
      const cfsm::TestVariable& t = rf_.test_of(best_var);
      const NodeId when_true = rec(best_f1);
      const NodeId when_false = rec(best_f0);
      tail = graph_.test(t.predicate, t.is_presence, when_true, when_false);
    }
    for (auto op = emitted.rbegin(); op != emitted.rend(); ++op)
      tail = graph_.assign(*op, nullptr, tail);

    memo_.emplace(f_in.raw_index(), tail);
    return tail;
  }

  cfsm::ReactiveFunction& rf_;
  bdd::BddManager& mgr_;
  Sgraph graph_;
  std::unordered_map<std::uint32_t, NodeId> memo_;
  std::vector<bdd::Bdd> live_;
};

bdd::Bdd restricted_chi(cfsm::ReactiveFunction& rf,
                        const BuildOptions& options) {
  bdd::Bdd chi = rf.chi();
  if (!options.use_care_set) return chi;
  constexpr std::uint64_t kCareEnumLimit = 1u << 22;  // test valuations
  try {
    if (auto care = rf.reachable_care_set(kCareEnumLimit, options.care_filter);
        care && !care->is_zero()) {
      // Coudert–Madre restrict: minimise χ using the unreachable test
      // valuations (false paths, §III-C) as don't cares.
      chi = rf.manager().restrict(chi, *care);
    }
  } catch (const BudgetExceeded&) {
    // The restriction is an optimisation: dropping it only costs code size.
    ResourceGovernor::degrade_or_rethrow(
        "care-set restriction over budget; raw chi");
  }
  return chi;
}

/// Runs `fn` (a complete s-graph construction) under the degradation ladder:
/// a budget trip discards the partial build (releasing its cofactor roots),
/// garbage-collects, and retries once with the governor suspended so the
/// build is guaranteed to complete. Deterministic for node/byte budgets: the
/// retry starts from the same χ and order. Cancelled is not caught.
template <typename Fn>
Sgraph build_degradable(bdd::BddManager& mgr, Fn&& fn) {
  return ResourceGovernor::retry_ungoverned(
      "s-graph build over budget; ungoverned retry", [&](bool retry) {
        if (retry) mgr.garbage_collect();
        return fn();
      });
}

}  // namespace

Sgraph build_sgraph_with_order(cfsm::ReactiveFunction& rf,
                               const std::vector<int>& order,
                               const BuildOptions& options) {
  // The order must cover every test and action variable exactly once.
  POLIS_CHECK_MSG(order.size() == rf.tests().size() + rf.actions().size(),
                  "order must cover all test and action variables");
  std::set<int> seen;
  for (int v : order) {
    POLIS_CHECK_MSG(rf.is_test_var(v) || rf.is_action_var(v),
                    "variable " << v << " is not part of this CFSM");
    POLIS_CHECK_MSG(seen.insert(v).second, "duplicate variable " << v);
  }
  return build_degradable(rf.manager(), [&] {
    const bdd::Bdd chi = restricted_chi(rf, options);
    Builder builder(rf, order);
    return builder.run(chi);
  });
}

Sgraph build_sgraph(cfsm::ReactiveFunction& rf, OrderingScheme scheme,
                    const BuildOptions& options) {
  OBS_SPAN(span, "sgraph.build", "sgraph");
  if (span.armed()) {
    span.arg("machine", rf.machine().name());
    span.arg("scheme", to_string(scheme));
  }
  // One sample per built graph: the size distribution across machines.
  const auto publish = [&](const Sgraph& g) {
    static const auto nodes_hist =
        obs::MetricsRegistry::global().histogram("sgraph.nodes");
    obs::MetricsRegistry::global().observe(nodes_hist, g.num_nodes());
    if (span.armed()) span.arg("nodes", g.num_nodes());
  };

  bdd::BddManager& mgr = rf.manager();
  std::vector<int> order;

  if (scheme == OrderingScheme::kFreeOrder) {
    Sgraph graph = build_degradable(mgr, [&] {
      const bdd::Bdd chi = restricted_chi(rf, options);
      FreeOrderBuilder builder(rf);
      return builder.run(chi);
    });
    publish(graph);
    return graph;
  }

  switch (scheme) {
    case OrderingScheme::kNaive: {
      for (const cfsm::TestVariable& t : rf.tests())
        order.push_back(t.bdd_var);
      for (const cfsm::ActionVariable& a : rf.actions())
        order.push_back(a.bdd_var);
      break;
    }
    case OrderingScheme::kOutputsBeforeInputs: {
      for (const cfsm::ActionVariable& a : rf.actions())
        order.push_back(a.bdd_var);
      for (const cfsm::TestVariable& t : rf.tests())
        order.push_back(t.bdd_var);
      break;
    }
    case OrderingScheme::kCurrent: {
      order = mgr.current_order();
      break;
    }
    case OrderingScheme::kFreeOrder:
      break;  // handled above
    case OrderingScheme::kSiftOutputsAfterInputs:
    case OrderingScheme::kSiftOutputsAfterSupport: {
      POLIS_CHECK_MSG(
          mgr.num_vars() ==
              static_cast<int>(rf.tests().size() + rf.actions().size()),
          "sift-based schemes need a manager dedicated to this CFSM");
      // Start from the naive order (legal for both constraint sets).
      std::vector<int> start;
      for (const cfsm::TestVariable& t : rf.tests())
        start.push_back(t.bdd_var);
      for (const cfsm::ActionVariable& a : rf.actions())
        start.push_back(a.bdd_var);
      mgr.set_order(start);
      // The ordering step is an optimisation: support-precedence extraction
      // (smooth/cofactor of χ) and sifting both allocate nodes and can trip
      // the budget. In degrade mode keep whatever order exists at the trip —
      // the naive start, or the best order a partially-run sift settled on.
      try {
        const auto precedence =
            scheme == OrderingScheme::kSiftOutputsAfterInputs
                ? rf.precedence_outputs_after_all_inputs()
                : rf.precedence_outputs_after_support();
        bdd::sift(mgr, precedence);
      } catch (const BudgetExceeded&) {
        ResourceGovernor::degrade_or_rethrow(
            "sift ordering over budget; current order kept");
      }
      order = mgr.current_order();
      break;
    }
  }
  Sgraph graph = build_sgraph_with_order(rf, order, options);
  publish(graph);
  return graph;
}

cfsm::Reaction run_reaction(const Sgraph& graph, const cfsm::Cfsm& machine,
                            const cfsm::Snapshot& snapshot,
                            const std::map<std::string, std::int64_t>& state) {
  const expr::Env env = [&](const std::string& name) -> std::int64_t {
    for (const cfsm::Signal& s : machine.inputs()) {
      if (name == cfsm::presence_name(s.name))
        return snapshot.is_present(s.name);
      if (!s.is_pure() && name == cfsm::value_name(s.name))
        return snapshot.value_of(s.name);
    }
    auto it = state.find(name);
    POLIS_CHECK_MSG(it != state.end(),
                    machine.name() << ": unbound variable " << name);
    return it->second;
  };

  const EvalResult eval = evaluate(graph, env);
  cfsm::Reaction out;
  out.next_state = state;
  for (const ActionOp& op : eval.executed) {
    switch (op.kind) {
      case ActionOp::Kind::kConsume:
        out.fired = true;
        break;
      case ActionOp::Kind::kEmitPure:
        out.emissions.emplace_back(op.target, 0);
        break;
      case ActionOp::Kind::kEmitValued: {
        const cfsm::Signal* sig = machine.find_output(op.target);
        POLIS_CHECK(sig != nullptr);
        out.emissions.emplace_back(
            op.target,
            cfsm::wrap_to_domain(expr::evaluate(*op.value, env), sig->domain));
        break;
      }
      case ActionOp::Kind::kAssignVar: {
        const cfsm::StateVar* sv = machine.find_state(op.target);
        POLIS_CHECK(sv != nullptr);
        out.next_state[op.target] =
            cfsm::wrap_to_domain(expr::evaluate(*op.value, env), sv->domain);
        break;
      }
    }
  }
  return out;
}

}  // namespace polis::sgraph
