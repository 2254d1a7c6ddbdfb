#include "bdd/reorder.hpp"

#include <algorithm>
#include <numeric>

#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/governor.hpp"

namespace polis::bdd {

namespace {

std::uint64_t nodes_saved(const SiftTelemetry& tel) {
  return tel.initial_size > tel.final_size ? tel.initial_size - tel.final_size
                                           : 0;
}

using enum obs::MetricKind;
using obs::field;

// Published once per `sift` invocation, so the per-swap hot path carries no
// observability cost at all.
constexpr obs::MirroredMetric<SiftTelemetry> kSiftMetrics[] = {
    {"sift.runs", kCounter, obs::one},
    {"sift.stopped_early", kCounter, field<&SiftTelemetry::stopped_early>},
    {"sift.swaps", kCounter, field<&SiftTelemetry::swaps>},
    {"sift.size_evaluations", kCounter,
     field<&SiftTelemetry::size_evaluations>},
    {"sift.passes_run", kCounter, field<&SiftTelemetry::passes_run>},
    {"sift.nodes_saved", kCounter, nodes_saved},
    {"sift.peak_arena", kMaxGauge, field<&SiftTelemetry::peak_arena>},
    {"sift.run_shrink_nodes", kHistogram, nodes_saved},
};

// Legal insertion window [lo, hi] (inclusive, as positions in `order` with
// `var` removed) given the precedence pairs. Used by the rebuild reference.
std::pair<size_t, size_t> legal_window(
    const std::vector<int>& order_without_var, int var,
    const std::vector<std::pair<int, int>>& precedence) {
  size_t lo = 0;
  size_t hi = order_without_var.size();
  for (const auto& [above, below] : precedence) {
    if (below == var) {
      // `above` must stay above var: insertion position must be after it.
      for (size_t i = 0; i < order_without_var.size(); ++i) {
        if (order_without_var[i] == above) {
          lo = std::max(lo, i + 1);
          break;
        }
      }
    }
    if (above == var) {
      // `below` must stay below var: insertion position must be at/before it.
      for (size_t i = 0; i < order_without_var.size(); ++i) {
        if (order_without_var[i] == below) {
          hi = std::min(hi, i);
          break;
        }
      }
    }
  }
  return {lo, hi};
}

void check_precedence(int num_vars,
                      const std::vector<std::pair<int, int>>& precedence) {
  for (const auto& [above, below] : precedence) {
    POLIS_CHECK_MSG(above >= 0 && above < num_vars && below >= 0 &&
                        below < num_vars,
                    "precedence pair (" << above << ", " << below
                                        << ") mentions an unknown variable");
  }
  // Kahn's algorithm: cyclic constraints (including self-pairs) admit no
  // legal order at all, so fail loudly instead of sifting into a corner.
  std::vector<std::vector<int>> adj(static_cast<size_t>(num_vars));
  std::vector<int> indeg(static_cast<size_t>(num_vars), 0);
  for (const auto& [above, below] : precedence) {
    adj[static_cast<size_t>(above)].push_back(below);
    indeg[static_cast<size_t>(below)]++;
  }
  std::vector<int> queue;
  for (int v = 0; v < num_vars; ++v)
    if (indeg[static_cast<size_t>(v)] == 0) queue.push_back(v);
  int ordered = 0;
  while (!queue.empty()) {
    const int v = queue.back();
    queue.pop_back();
    ++ordered;
    for (int w : adj[static_cast<size_t>(v)])
      if (--indeg[static_cast<size_t>(w)] == 0) queue.push_back(w);
  }
  POLIS_CHECK_MSG(ordered == num_vars,
                  "precedence constraints are cyclic: no legal order exists");
}

// Variables to sift this pass, fattest level first (the classic heuristic:
// the fattest level has the most to gain). Variables with no live nodes are
// dropped: no order can give them any, so sifting them cannot improve size.
std::vector<int> sift_candidates(BddManager& mgr) {
  const std::vector<size_t> profile = mgr.var_node_profile();
  std::vector<int> vars;
  vars.reserve(profile.size());
  for (size_t v = 0; v < profile.size(); ++v)
    if (profile[v] > 0) vars.push_back(static_cast<int>(v));
  std::stable_sort(vars.begin(), vars.end(), [&](int a, int b) {
    return profile[static_cast<size_t>(a)] > profile[static_cast<size_t>(b)];
  });
  return vars;
}

}  // namespace

bool order_respects(const std::vector<int>& order,
                    const std::vector<std::pair<int, int>>& precedence) {
  std::vector<int> pos(order.size());
  for (size_t i = 0; i < order.size(); ++i)
    pos[static_cast<size_t>(order[i])] = static_cast<int>(i);
  for (const auto& [above, below] : precedence) {
    if (pos[static_cast<size_t>(above)] >= pos[static_cast<size_t>(below)])
      return false;
  }
  return true;
}

size_t sift(BddManager& mgr,
            const std::vector<std::pair<int, int>>& precedence,
            const SiftOptions& options) {
  const int n = mgr.num_vars();
  check_precedence(n, precedence);

  OBS_SPAN(sift_span, "bdd.sift", "reorder");

  SiftTelemetry local;
  SiftTelemetry& tel = options.telemetry ? *options.telemetry : local;
  tel = SiftTelemetry{};

  // Exact live counts for the whole sift: every swap keeps them current and
  // frees the nodes it orphans, so a measurement is an O(1) read and the
  // swaps walk chains that hold live nodes only.
  const BddManager::LiveCounts counts(mgr);

  auto measure = [&]() -> size_t {
    ++tel.size_evaluations;
    tel.peak_arena = std::max(tel.peak_arena, mgr.arena_size());
    const size_t live = counts.live();
    if (options.verify_with_oracle) {
      // The oracle's scratch rebuild is not governed work.
      ResourceGovernor::Suspend suspend;
      POLIS_CHECK_MSG(live == mgr.size_under_order(mgr.current_order()),
                      "fast sift size diverged from the rebuild oracle");
    }
    return live;
  };

  // One adjacent-level swap of the walk. Under the oracle, also checks the
  // incremental bookkeeping against a full traversal after every swap.
  auto swap = [&](int level) {
    tel.swaps += 1;
    mgr.swap_adjacent_levels(level);
    if (options.verify_with_oracle) {
      POLIS_CHECK_MSG(counts.live() == mgr.live_node_count(),
                      "incremental live count diverged from mark_live");
      POLIS_CHECK_MSG(mgr.check_canonical_form(),
                      "level swap broke the canonical form");
      POLIS_CHECK_MSG(mgr.table_node_count() <= counts.live(),
                      "level swap left garbage on the unique table");
    }
  };

  size_t current = measure();
  tel.initial_size = current;
  tel.final_size = current;
  if (n <= 1) {
    obs::publish<kSiftMetrics>(tel);
    return current;
  }

  POLIS_CHECK_MSG(order_respects(mgr.current_order(), precedence),
                  "initial order violates the precedence constraints");

  // blocks[a * n + b]: a must stay above b, so a may not move below b and b
  // may not move above a.
  const size_t un = static_cast<size_t>(n);
  std::vector<bool> blocks(un * un, false);
  for (const auto& [above, below] : precedence)
    blocks[static_cast<size_t>(above) * un + static_cast<size_t>(below)] = true;
  const auto blocked = [&](int above, int below) {
    return blocks[static_cast<size_t>(above) * un + static_cast<size_t>(below)];
  };

  // Sifting is an anytime optimization: when the ambient governor's
  // deadline, node budget or cancel flag trips, the current candidate still
  // settles to its best position (swaps run under their own governor
  // suspension, so settling cannot throw) and the sift returns the best
  // order found so far. Callers in --on-budget=fail mode fail at their next
  // poll; in degrade mode this IS the degraded result.
  ResourceGovernor* const gov = ResourceGovernor::current();
  const auto over_budget = [gov]() {
    return gov != nullptr && gov->should_stop();
  };
  bool stopped = false;

  for (int pass = 0; pass < options.passes && !stopped; ++pass) {
    bool improved_this_pass = false;
    for (int v : sift_candidates(mgr)) {
      OBS_SPAN(var_span, "sift.var", "reorder");
      if (var_span.armed()) var_span.arg("var", v);

      const int start = mgr.level_of(v);
      size_t best_size = current;
      int best_level = start;
      int level = start;

      // Walk down to the bottom of the legal window, measuring each stop.
      while (!over_budget() && level + 1 < n &&
             !blocked(v, mgr.var_at_level(level + 1))) {
        swap(level);
        ++level;
        const size_t here = measure();
        if (here < best_size) {
          best_size = here;
          best_level = level;
        }
      }
      // Walk back up to the top of the window. `<=` so that among equal
      // minima the topmost position wins, like the rebuild reference.
      while (!over_budget() && level > 0 &&
             !blocked(mgr.var_at_level(level - 1), v)) {
        swap(level - 1);
        --level;
        const size_t here = measure();
        if (here <= best_size) {
          best_size = here;
          best_level = level;
        }
      }

      // Settle: move to the best position, or back to the start if nothing
      // strictly improved.
      const int target = best_size < current ? best_level : start;
      for (; level < target; ++level) swap(level);
      for (; level > target; --level) swap(level - 1);
      if (var_span.armed()) {
        var_span.arg("start_level", start);
        var_span.arg("settled_level", target);
        var_span.arg("size_after", best_size < current ? best_size : current);
      }
      if (best_size < current) {
        current = best_size;
        improved_this_pass = true;
      }
      if (over_budget()) {
        // The candidate above has already settled to its best position;
        // stop visiting further candidates and keep the order as-is.
        stopped = true;
        tel.stopped_early = true;
        gov->note_degradation("sift stopped early on budget/deadline");
        break;
      }
    }
    ++tel.passes_run;
    tel.pass_sizes.push_back(current);
    if (!improved_this_pass) break;
  }

  tel.final_size = current;
  if (sift_span.armed()) {
    sift_span.arg("initial_size", tel.initial_size);
    sift_span.arg("final_size", tel.final_size);
    sift_span.arg("swaps", tel.swaps);
    sift_span.arg("passes", tel.passes_run);
  }
  obs::publish<kSiftMetrics>(tel);
  return current;
}

size_t sift(BddManager& mgr, const SiftOptions& options) {
  return sift(mgr, {}, options);
}

size_t sift_by_rebuild(BddManager& mgr,
                       const std::vector<std::pair<int, int>>& precedence,
                       const SiftOptions& options) {
  const int n = mgr.num_vars();
  check_precedence(n, precedence);
  if (n <= 1) return mgr.size_under_order(mgr.current_order());

  POLIS_CHECK_MSG(order_respects(mgr.current_order(), precedence),
                  "initial order violates the precedence constraints");

  size_t best_total = mgr.size_under_order(mgr.current_order());

  for (int pass = 0; pass < options.passes; ++pass) {
    bool improved_this_pass = false;
    for (int v : sift_candidates(mgr)) {
      std::vector<int> order = mgr.current_order();
      std::vector<int> without;
      without.reserve(order.size() - 1);
      for (size_t i = 0; i < order.size(); ++i) {
        if (order[i] != v) without.push_back(order[i]);
      }

      const auto [lo, hi] = legal_window(without, v, precedence);
      POLIS_CHECK_MSG(lo <= hi, "empty legal window for variable "
                                    << v << ": contradictory precedence");
      size_t best_size = best_total;
      size_t best_pos = lo;
      bool have_best = false;
      for (size_t p = lo; p <= hi; ++p) {
        std::vector<int> candidate = without;
        candidate.insert(candidate.begin() + static_cast<std::ptrdiff_t>(p), v);
        const size_t sz = mgr.size_under_order(candidate);
        if (!have_best || sz < best_size) {
          best_size = sz;
          best_pos = p;
          have_best = true;
        }
      }

      std::vector<int> final_order = without;
      final_order.insert(
          final_order.begin() + static_cast<std::ptrdiff_t>(best_pos), v);
      if (final_order != order && best_size < best_total) {
        mgr.set_order(final_order);
        best_total = best_size;
        improved_this_pass = true;
      }
    }
    if (!improved_this_pass) break;
  }
  return best_total;
}

}  // namespace polis::bdd
