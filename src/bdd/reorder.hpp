// Dynamic variable reordering by sifting (Rudell [31]), with precedence
// constraints.
//
// The paper's default ordering scheme ("outputs after their support",
// §III-B3b) is sifting constrained so that no output variable may move above
// any input in its support. A precedence pair (a, b) means "a must stay
// above b" in the final order.
//
// Each variable is moved, one at a time, through every legal position; it is
// frozen at the position minimising the total live-BDD node count (exactly
// the sift objective). `sift` walks the variable down and then up through
// its legal window with in-place adjacent-level swaps
// (`BddManager::swap_adjacent_levels`) — no arena rebuilds on the hot path.
// For the whole sift the manager holds exact per-(node, phase) live counts
// (`BddManager::LiveCounts`): each swap updates them and frees the nodes it
// orphans, so the live size after a swap is an O(1) read and the unique
// table never holds garbage. `sift_by_rebuild` is the original
// rebuild-per-candidate implementation, kept as a slow reference oracle:
// both produce identical final orders and sizes.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "bdd/bdd.hpp"

namespace polis::bdd {

/// Counters filled in by `sift`, consumable by the bench harness.
struct SiftTelemetry {
  /// Adjacent-level swaps performed (including settle-back moves).
  size_t swaps = 0;
  /// Live-size measurements taken (one per candidate position visited).
  size_t size_evaluations = 0;
  /// Live node count before / after sifting (terminals excluded).
  size_t initial_size = 0;
  size_t final_size = 0;
  /// Largest arena (live nodes + free slots) seen while sifting.
  size_t peak_arena = 0;
  /// Passes actually executed (≤ SiftOptions::passes; stops when a pass
  /// yields no improvement).
  int passes_run = 0;
  /// Live size at the end of each executed pass.
  std::vector<size_t> pass_sizes;
  /// True when an ambient ResourceGovernor deadline/budget/cancel stopped
  /// the sift before all candidates were visited. The order in the manager
  /// is still the best one found — sifting is an anytime optimization, so a
  /// truncated run is a correct (just less minimized) result.
  bool stopped_early = false;
};

struct SiftOptions {
  /// Full sweeps over all variables. One pass reproduces the paper's
  /// "single-pass dynamic variable ordering (sift)" (§V-A).
  int passes = 1;
  /// Cross-check every fast-path size measurement against the
  /// `size_under_order` rebuild oracle, and after every swap check the
  /// incremental live count against `live_node_count()`, the canonical form
  /// and a garbage-free unique table (slow; meant for tests).
  bool verify_with_oracle = false;
  /// Optional sink for sift telemetry.
  SiftTelemetry* telemetry = nullptr;
};

/// Sifts the manager's live functions with in-place adjacent-level swaps.
/// `precedence` lists (above, below) variable pairs that must be respected;
/// cyclic constraints are rejected with a CheckError. Returns the final
/// live node count (terminals excluded).
size_t sift(BddManager& mgr,
            const std::vector<std::pair<int, int>>& precedence,
            const SiftOptions& options = {});

/// Unconstrained sifting.
size_t sift(BddManager& mgr, const SiftOptions& options = {});

/// Reference implementation: evaluates every candidate position by
/// rebuilding the live functions in a scratch manager (`size_under_order`).
/// O(vars² × rebuild) — kept only so tests and benches can compare the fast
/// path against it.
size_t sift_by_rebuild(BddManager& mgr,
                       const std::vector<std::pair<int, int>>& precedence,
                       const SiftOptions& options = {});

/// True if `order` (top to bottom) satisfies all precedence pairs.
bool order_respects(const std::vector<int>& order,
                    const std::vector<std::pair<int, int>>& precedence);

}  // namespace polis::bdd
