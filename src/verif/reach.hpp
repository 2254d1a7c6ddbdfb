// BDD reachability fixpoint over the partitioned transition relation:
// forward image iteration with frontier-vs-accumulated sets, per-iteration
// telemetry and in-fixpoint garbage collection.
//
// Under an ambient ResourceGovernor whose policy is kDegrade, a governor
// node/byte/allocation trip mid-fixpoint degrades gracefully to an
// overapproximation (existentially smoothing the fattest state bits), and a
// deadline or cancellation stops the iteration with `converged == false`
// (underapproximation — verdicts become kUnknown). Under kFail, governor
// errors propagate and fail the run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bdd/bdd.hpp"
#include "verif/transition.hpp"

namespace polis::verif {

struct ReachOptions {
  /// Run BddManager::garbage_collect between iterations once the unique
  /// table holds more than this many nodes. 0 = never collect. The default
  /// is deliberately generous (8 Mi nodes ≈ 128 MiB of arena): every
  /// collection also clears the computed cache, and long fixpoints live on
  /// inter-iteration cache reuse — on full dash, collecting at 4 Mi nodes
  /// instead of 8 Mi makes the run 4.5× slower. Memory-bounded runs should
  /// cap via the governor's byte budget, not a tight GC threshold.
  std::size_t gc_threshold = std::size_t{8} << 20;
  /// Image-computation workers. 1 = serial (in the main manager);
  /// N > 1 shards the transition-relation clusters across N private
  /// per-thread managers (see ParallelImage) — bit-identical results, the
  /// partial images are merged deterministically on the main manager.
  /// 0 = one worker per hardware thread.
  int num_threads = 1;
};

struct ReachStats {
  int iterations = 0;
  std::size_t peak_live_nodes = 0;  // max live BDD nodes over the fixpoint
  std::size_t reached_nodes = 0;    // node count of the final reached set
  double reached_states = 0;        // sat_count over the present variables
  std::uint64_t gc_runs = 0;        // in-fixpoint garbage collections
  int widenings = 0;                // budget-triggered overapproximations
  int budget_recoveries = 0;        // governor trips recovered by widening
  int shards = 0;                   // image workers (0 = serial path)
  /// Per-worker high-water arena sizes (parallel path only; index = shard).
  std::vector<std::size_t> worker_peak_nodes;
  std::uint64_t worker_gc_runs = 0;  // collections across worker managers
  bool exact = true;
  /// True iff the fixpoint ran until the frontier emptied. A widened run is
  /// converged-but-inexact: `reached` OVERapproximates, so an empty bad
  /// intersection still proves safety. A non-converged run (deadline,
  /// cancellation, nothing left to widen) leaves an UNDERapproximation — nothing can be
  /// proved from it, only found (verdicts degrade to kUnknown).
  bool converged = true;
};

struct ReachResult {
  bdd::Bdd reached;
  /// layers[k] = states first reached after exactly k steps (layers[0] is
  /// the initial state); counterexample extraction walks them. Empty after
  /// widening or a non-converged stop.
  std::vector<bdd::Bdd> layers;
  ReachStats stats;
};

ReachResult reachable_states(const TransitionSystem& tr,
                             const ReachOptions& options = {});

}  // namespace polis::verif
