#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "bdd/bdd.hpp"
#include "bdd/reorder.hpp"
#include "util/check.hpp"
#include "util/governor.hpp"
#include "util/rng.hpp"

namespace polis::bdd {

// Lowers the manager's arena cap so the level swap's cap check can trip
// without allocating 2^27 nodes.
struct BddManagerTestPeer {
  static void set_max_arena_nodes(BddManager& mgr, size_t cap) {
    mgr.max_arena_nodes_ = cap;
  }
  static void reset_max_arena_nodes(BddManager& mgr) {
    mgr.max_arena_nodes_ = BddManager::kMaxArenaNodes;
  }
};

namespace {

TEST(Reorder, OrderRespectsPrecedence) {
  EXPECT_TRUE(order_respects({0, 1, 2}, {{0, 1}, {1, 2}}));
  EXPECT_FALSE(order_respects({1, 0, 2}, {{0, 1}}));
  EXPECT_TRUE(order_respects({2, 0, 1}, {}));
}

TEST(Sift, RecoversInterleavingForDisjointAnds) {
  // Classic: Σ x_i & y_i needs interleaved variables; sifting must find an
  // order close to the optimum starting from the bad separated one.
  const int k = 4;
  BddManager mgr(2 * k);
  Bdd f = mgr.zero();
  for (int i = 0; i < k; ++i) f = f | (mgr.var(i) & mgr.var(i + k));

  const size_t bad = mgr.node_count(f);
  std::vector<int> interleaved;
  for (int i = 0; i < k; ++i) {
    interleaved.push_back(i);
    interleaved.push_back(i + k);
  }
  const size_t optimal = mgr.size_under_order(interleaved);
  SiftOptions options;
  options.passes = 3;
  options.verify_with_oracle = true;  // every swap must match the rebuild
  const size_t sifted = sift(mgr, options);
  EXPECT_LT(sifted, bad);
  EXPECT_LE(sifted, optimal + 2);  // sifting should get essentially there
  EXPECT_EQ(sifted, mgr.size_under_order(mgr.current_order()));
  // Function unchanged.
  for (int m = 0; m < (1 << (2 * k)); ++m) {
    bool want = false;
    for (int i = 0; i < k; ++i)
      want = want || (((m >> i) & 1) && ((m >> (i + k)) & 1));
    EXPECT_EQ(mgr.eval(f, [m](int v) { return (m >> v) & 1; }), want);
  }
}

TEST(Sift, NeverIncreasesSize) {
  Rng rng(99);
  for (int trial = 0; trial < 5; ++trial) {
    const int n = 6;
    BddManager mgr(n);
    // Random function of 3 products.
    Bdd f = mgr.zero();
    for (int t = 0; t < 3; ++t) {
      Bdd cube = mgr.one();
      for (int v = 0; v < n; ++v) {
        const auto c = rng.uniform(0, 2);
        if (c == 0) cube = cube & mgr.var(v);
        if (c == 1) cube = cube & mgr.nvar(v);
      }
      f = f | cube;
    }
    const size_t before = mgr.size_under_order(mgr.current_order());
    SiftOptions options;
    options.verify_with_oracle = true;
    const size_t after = sift(mgr, options);
    EXPECT_LE(after, before);
  }
}

TEST(Sift, RespectsPrecedenceConstraints) {
  const int k = 3;
  BddManager mgr(2 * k);
  Bdd f = mgr.zero();
  for (int i = 0; i < k; ++i) f = f | (mgr.var(i) & mgr.var(i + k));

  // Constrain all "x" vars (0..k-1) above all "y" vars (k..2k-1): sifting
  // then cannot interleave, so the separated order is already optimal-ish.
  std::vector<std::pair<int, int>> precedence;
  for (int i = 0; i < k; ++i)
    for (int j = 0; j < k; ++j) precedence.emplace_back(i, j + k);
  SiftOptions options;
  options.verify_with_oracle = true;
  sift(mgr, precedence, options);
  EXPECT_TRUE(order_respects(mgr.current_order(), precedence));
}

TEST(Sift, PrecedenceViolatingStartRejected) {
  BddManager mgr(2);
  Bdd f = mgr.var(0) & mgr.var(1);
  (void)f;
  mgr.set_order({1, 0});
  EXPECT_THROW(sift(mgr, {{0, 1}}), CheckError);
}

TEST(Sift, CyclicPrecedenceRejected) {
  BddManager mgr(3);
  Bdd f = mgr.var(0) & mgr.var(1);
  (void)f;
  // 0 above 1, 1 above 2, 2 above 0: no order can satisfy this; the sift
  // must fail loudly instead of silently clamping to an empty window.
  const std::vector<std::pair<int, int>> cyclic{{0, 1}, {1, 2}, {2, 0}};
  EXPECT_THROW(sift(mgr, cyclic), CheckError);
  EXPECT_THROW(sift_by_rebuild(mgr, cyclic), CheckError);
  // A self-pair is the smallest cycle.
  EXPECT_THROW(sift(mgr, {{1, 1}}), CheckError);
  // Out-of-range variables are also rejected.
  EXPECT_THROW(sift(mgr, {{0, 7}}), CheckError);
}

TEST(Sift, SingleVariableTrivial) {
  BddManager mgr(1);
  Bdd f = mgr.var(0);
  (void)f;
  EXPECT_NO_THROW(sift(mgr));
}

TEST(Sift, FastPathMatchesRebuildReference) {
  // Build the same functions in two managers; the swap-based path and the
  // rebuild-per-candidate reference must land on the same final order and
  // size (same window, same tie-breaks).
  Rng rng(4242);
  for (int trial = 0; trial < 6; ++trial) {
    const int n = 7;
    std::vector<std::vector<int>> cubes;  // 0 = pos, 1 = neg, 2 = absent
    for (int t = 0; t < 4; ++t) {
      std::vector<int> cube;
      for (int v = 0; v < n; ++v) cube.push_back(rng.uniform(0, 2));
      cubes.push_back(cube);
    }
    const auto build = [&](BddManager& mgr) {
      Bdd f = mgr.zero();
      for (const auto& cube : cubes) {
        Bdd c = mgr.one();
        for (int v = 0; v < n; ++v) {
          if (cube[static_cast<size_t>(v)] == 0) c = c & mgr.var(v);
          if (cube[static_cast<size_t>(v)] == 1) c = c & mgr.nvar(v);
        }
        f = f | c;
      }
      return f;
    };
    const std::vector<std::pair<int, int>> precedence{{0, n - 1}, {1, n - 2}};

    BddManager fast_mgr(n);
    const Bdd fast_f = build(fast_mgr);
    (void)fast_f;
    SiftOptions options;
    options.passes = 2;
    options.verify_with_oracle = true;
    const size_t fast = sift(fast_mgr, precedence, options);

    BddManager ref_mgr(n);
    const Bdd ref_f = build(ref_mgr);
    (void)ref_f;
    SiftOptions ref_options;
    ref_options.passes = 2;
    const size_t ref = sift_by_rebuild(ref_mgr, precedence, ref_options);

    EXPECT_EQ(fast, ref) << "trial " << trial;
    EXPECT_EQ(fast_mgr.current_order(), ref_mgr.current_order())
        << "trial " << trial;
    EXPECT_EQ(fast, fast_mgr.size_under_order(fast_mgr.current_order()));
  }
}

TEST(Sift, TelemetryReportsWork) {
  const int k = 4;
  BddManager mgr(2 * k);
  Bdd f = mgr.zero();
  for (int i = 0; i < k; ++i) f = f | (mgr.var(i) & mgr.var(i + k));
  SiftTelemetry telemetry;
  SiftOptions options;
  options.passes = 3;
  options.telemetry = &telemetry;
  const size_t after = sift(mgr, options);
  EXPECT_GT(telemetry.swaps, 0u);
  EXPECT_GT(telemetry.size_evaluations, 0u);
  EXPECT_EQ(telemetry.final_size, after);
  EXPECT_LE(telemetry.final_size, telemetry.initial_size);
  EXPECT_GE(telemetry.peak_arena, telemetry.final_size);
  EXPECT_GT(telemetry.passes_run, 0);
  EXPECT_LE(telemetry.passes_run, options.passes);
  EXPECT_EQ(telemetry.pass_sizes.size(),
            static_cast<size_t>(telemetry.passes_run));
  EXPECT_EQ(telemetry.pass_sizes.back(), after);
}

// --- Property: sifting (with and without precedence) preserves function
// --- semantics and lands on an order that respects the constraints, with
// --- sizes identical to the rebuild oracle.
class SiftProperty : public ::testing::TestWithParam<int> {};

TEST_P(SiftProperty, PreservesSemanticsAndRespectsPrecedence) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 6271 + 5);
  const int n = 4 + static_cast<int>(rng.uniform(0, 8));  // 4..12 vars
  BddManager mgr(n);

  // A few random functions built from random cubes, kept live together so
  // sifting optimises their shared arena.
  std::vector<Bdd> funcs;
  for (int fi = 0; fi < 3; ++fi) {
    Bdd f = mgr.zero();
    const int num_cubes = 2 + static_cast<int>(rng.uniform(0, 3));
    for (int t = 0; t < num_cubes; ++t) {
      Bdd cube = mgr.one();
      for (int v = 0; v < n; ++v) {
        const auto c = rng.uniform(0, 3);
        if (c == 0) cube = cube & mgr.var(v);
        if (c == 1) cube = cube & mgr.nvar(v);
      }
      f = f | cube;
    }
    funcs.push_back(f);
  }

  // Reference truth tables before reordering.
  std::vector<std::vector<bool>> tables;
  for (const Bdd& f : funcs) {
    std::vector<bool> t(static_cast<size_t>(1) << n);
    for (size_t m = 0; m < t.size(); ++m)
      t[m] = mgr.eval(f, [m](int v) { return (m >> v) & 1; });
    tables.push_back(std::move(t));
  }

  // Random acyclic precedence: pairs (a, b) with a before b in the initial
  // order are both acyclic and satisfied at the start.
  std::vector<std::pair<int, int>> precedence;
  const bool constrained = (GetParam() % 2) == 0;
  if (constrained) {
    for (int t = 0; t < n / 2; ++t) {
      const int a = static_cast<int>(rng.uniform(0, n - 2));
      const int b =
          a + 1 + static_cast<int>(rng.uniform(0, n - a - 2));
      precedence.emplace_back(a, b);
    }
  }

  SiftOptions options;
  options.passes = 2;
  options.verify_with_oracle = true;
  const size_t after = sift(mgr, precedence, options);

  EXPECT_TRUE(order_respects(mgr.current_order(), precedence));
  EXPECT_EQ(after, mgr.size_under_order(mgr.current_order()));
  for (size_t i = 0; i < funcs.size(); ++i) {
    for (size_t m = 0; m < tables[i].size(); ++m) {
      ASSERT_EQ(mgr.eval(funcs[i], [m](int v) { return (m >> v) & 1; }),
                tables[i][m])
          << "func " << i << " minterm " << m;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SiftProperty, ::testing::Range(0, 12));

// --- Sift-scoped live counts: aliased/complemented roots, early stops and a
// --- swap that throws must all leave a count-free, canonical manager whose
// --- later operations (and a second sift) still compute the right functions.

constexpr int kForestVars = 8;
using Table = std::vector<bool>;

Table table_of(BddManager& mgr, const Bdd& f) {
  Table t(size_t{1} << kForestVars);
  for (size_t m = 0; m < t.size(); ++m)
    t[m] = mgr.eval(f, [m](int v) { return (m >> v) & 1; });
  return t;
}

// Random functions rooted through several handles each: copies of f and of
// ¬f, so the counts see aliased roots in both phases, plus handles on
// subfunctions that other roots also reach.
struct Forest {
  explicit Forest(std::uint64_t seed) : mgr(kForestVars) {
    Rng rng(seed);
    std::vector<Bdd> funcs;
    for (int fi = 0; fi < 3; ++fi) {
      Bdd f = mgr.zero();
      for (int t = 0; t < 4; ++t) {
        Bdd cube = mgr.one();
        for (int v = 0; v < kForestVars; ++v) {
          const auto c = rng.uniform(0, 3);
          if (c == 0) cube = cube & mgr.var(v);
          if (c == 1) cube = cube & mgr.nvar(v);
        }
        f = f ^ cube;
      }
      funcs.push_back(f);
    }
    for (const Bdd& f : funcs) {
      roots.push_back(f);
      roots.push_back(f);
      roots.push_back(!f);
      roots.push_back(!f);
    }
    for (const Bdd& f : funcs) {
      if (f.is_constant()) continue;
      roots.push_back(f.low());
      roots.push_back(!f.high());
    }
    for (const Bdd& r : roots) tables.push_back(table_of(mgr, r));
    // Warm the computed cache, so `expect_healthy` recomputes against
    // whatever a sift leaves in it.
    combine();
  }

  // AND and ITE over the roots, checked against the truth tables.
  void combine() {
    const size_t k = roots.size();
    for (size_t i = 0; i < k; ++i) {
      const Bdd& f = roots[i];
      const Bdd& g = roots[(i + 1) % k];
      const Bdd& h = roots[(i + 5) % k];
      const Table got_and = table_of(mgr, f & g);
      const Table got_ite = table_of(mgr, mgr.ite(f, g, h));
      for (size_t m = 0; m < got_and.size(); ++m) {
        ASSERT_EQ(got_and[m], tables[i][m] && tables[(i + 1) % k][m]);
        ASSERT_EQ(got_ite[m], tables[i][m] ? tables[(i + 1) % k][m]
                                           : tables[(i + 5) % k][m]);
      }
    }
  }

  void expect_healthy() {
    EXPECT_FALSE(mgr.has_live_counts());
    EXPECT_TRUE(mgr.check_canonical_form());
    for (size_t i = 0; i < roots.size(); ++i)
      ASSERT_EQ(table_of(mgr, roots[i]), tables[i]) << "root " << i;
    combine();
  }

  BddManager mgr;
  std::vector<Bdd> roots;
  std::vector<Table> tables;
};

TEST(SiftLiveCounts, AliasedAndComplementedRoots) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Forest forest(seed);
    BddManager& mgr = forest.mgr;
    SiftOptions options;
    options.passes = 2;
    options.verify_with_oracle = true;
    const size_t first = sift(mgr, options);
    EXPECT_EQ(first, mgr.live_node_count());
    EXPECT_EQ(first, mgr.size_under_order(mgr.current_order()));
    forest.expect_healthy();

    // Drop every other handle: one alias of each phase of f, and some of
    // the subfunction roots.
    for (size_t i = 0; i < forest.roots.size(); i += 2)
      forest.roots[i] = mgr.one();
    const size_t second = sift(mgr, options);
    EXPECT_EQ(second, mgr.live_node_count());
    EXPECT_LE(second, first);
    for (size_t i = 0; i < forest.roots.size(); i += 2)
      forest.tables[i] = table_of(mgr, forest.roots[i]);
    forest.expect_healthy();
  }
}

// Every internal subfunction reachable from `roots`, one handle each.
std::vector<Bdd> subfunctions(const std::vector<Bdd>& roots) {
  std::vector<Bdd> out;
  std::vector<Bdd> stack(roots.begin(), roots.end());
  std::set<std::uint32_t> seen;
  while (!stack.empty()) {
    const Bdd f = stack.back();
    stack.pop_back();
    if (f.is_constant() || !seen.insert(f.raw_index()).second) continue;
    out.push_back(f);
    stack.push_back(f.high());
    stack.push_back(f.low());
  }
  return out;
}

TEST(SiftLiveCounts, FreedSlotsLeaveNoStaleCacheEntries) {
  // With no garbage at sift entry the opening prune keeps the computed
  // cache, so the entries naming slots that the swaps free and recycle must
  // go when the sift ends. Cache an AND of every subfunction with every
  // function first (keeping the results, so nothing is garbage), then redo
  // them over the reordered forest.
  Forest forest(31);
  BddManager& mgr = forest.mgr;
  mgr.garbage_collect();
  std::vector<Bdd> keep;
  for (const Bdd& s : subfunctions(forest.roots))
    for (size_t i = 0; i < forest.roots.size(); i += 2)
      keep.push_back(s & forest.roots[i]);
  ASSERT_EQ(mgr.prune_dead_nodes(), 0u);

  const KernelStats before = mgr.stats();
  SiftOptions options;
  options.verify_with_oracle = true;
  sift(mgr, options);
  ASSERT_GT(mgr.stats().nodes_reclaimed, before.nodes_reclaimed);

  for (const Bdd& s : subfunctions(forest.roots)) {
    const Table ts = table_of(mgr, s);
    for (size_t i = 0; i < forest.roots.size(); i += 2) {
      const Table got = table_of(mgr, s & forest.roots[i]);
      for (size_t m = 0; m < got.size(); ++m)
        ASSERT_EQ(got[m], ts[m] && forest.tables[i][m]) << "minterm " << m;
    }
  }
  forest.expect_healthy();
}

// A second, ungoverned sift on the same manager must still work.
void expect_second_sift_works(Forest& forest) {
  SiftOptions options;
  options.verify_with_oracle = true;
  const size_t after = sift(forest.mgr, options);
  EXPECT_EQ(after, forest.mgr.live_node_count());
  forest.expect_healthy();
}

SiftTelemetry sift_under(Forest& forest, ResourceGovernor& gov) {
  SiftTelemetry tel;
  ResourceGovernor::Scope scope(&gov);
  SiftOptions options;
  options.passes = 2;
  options.telemetry = &tel;
  options.verify_with_oracle = true;
  const size_t after = sift(forest.mgr, options);
  EXPECT_EQ(after, forest.mgr.live_node_count());
  return tel;
}

TEST(SiftLiveCounts, StoppedEarlyByCancel) {
  Forest forest(11);
  CancellationToken token;
  token.request_cancel();
  ResourceGovernor gov(GovernorLimits{}, token);
  EXPECT_TRUE(sift_under(forest, gov).stopped_early);
  forest.expect_healthy();
  expect_second_sift_works(forest);
}

TEST(SiftLiveCounts, StoppedEarlyByDeadline) {
  Forest forest(12);
  GovernorLimits limits;
  limits.deadline_ms = 1;
  ResourceGovernor gov(limits);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(sift_under(forest, gov).stopped_early);
  forest.expect_healthy();
  expect_second_sift_works(forest);
}

TEST(SiftLiveCounts, StoppedMidWalkByNodeBudget) {
  // The forest is built outside the governor and compacted, so the first
  // nodes the swaps allocate are charged: the budget trips partway through
  // the walk.
  Forest forest(13);
  forest.mgr.garbage_collect();
  GovernorLimits limits;
  limits.max_nodes = 1;
  ResourceGovernor gov(limits);
  const SiftTelemetry tel = sift_under(forest, gov);
  EXPECT_TRUE(tel.stopped_early);
  EXPECT_GT(tel.swaps, 0u);
  forest.expect_healthy();
  expect_second_sift_works(forest);
}

TEST(SiftLiveCounts, SwapThrowsAtArenaCap) {
  // Sweep the cap upwards from the current arena size: small caps trip on
  // the first swap, larger ones partway through the sift. Every outcome
  // must leave a healthy manager.
  int mid_sift_throws = 0;
  for (size_t slack = 0; slack <= 64; slack += 2) {
    Forest forest(21);
    BddManager& mgr = forest.mgr;
    mgr.prune_dead_nodes();
    BddManagerTestPeer::set_max_arena_nodes(mgr, mgr.arena_size() + slack);
    SiftTelemetry tel;
    SiftOptions options;
    options.passes = 2;
    options.telemetry = &tel;
    options.verify_with_oracle = true;
    try {
      sift(mgr, options);
    } catch (const BudgetExceeded& e) {
      EXPECT_EQ(e.kind(), BudgetExceeded::Kind::kNodes);
      if (tel.swaps > 1) ++mid_sift_throws;
    }
    BddManagerTestPeer::reset_max_arena_nodes(mgr);
    forest.expect_healthy();
    expect_second_sift_works(forest);
  }
  EXPECT_GT(mid_sift_throws, 0);
}

}  // namespace
}  // namespace polis::bdd
