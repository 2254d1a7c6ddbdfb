#include "bdd/bdd.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <unordered_map>
#include <unordered_set>

#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/governor.hpp"

namespace polis::bdd {

// --- Bdd handle ----------------------------------------------------------------
// Lifecycle (ctors/dtor/moves/registry splices) is inline in bdd.hpp — it is
// the hottest code in the kernel's public surface.

bool Bdd::is_zero() const {
  return mgr_ != nullptr && idx_ == BddManager::kZero;
}

bool Bdd::is_one() const {
  return mgr_ != nullptr && idx_ == BddManager::kOne;
}

int Bdd::top_var() const {
  POLIS_CHECK(!is_null() && !is_constant());
  return static_cast<int>(mgr_->nodes_[BddManager::idx_of(idx_)].var);
}

Bdd Bdd::high() const {
  POLIS_CHECK(!is_null() && !is_constant());
  // Push the handle's complement bit into the child so the result is the
  // positive cofactor of the *function*, not of the underlying node.
  return Bdd(mgr_, mgr_->nodes_[BddManager::idx_of(idx_)].hi ^
                       BddManager::comp_of(idx_));
}

Bdd Bdd::low() const {
  POLIS_CHECK(!is_null() && !is_constant());
  return Bdd(mgr_, mgr_->nodes_[BddManager::idx_of(idx_)].lo ^
                       BddManager::comp_of(idx_));
}

// --- Manager ---------------------------------------------------------------------

BddManager::BddManager() {
  // The single terminal (constant one) lives at arena index 0; handle kOne
  // is its regular phase, handle kZero its complement.
  nodes_.push_back(Node{kTermVar, kOne, kOne, kNil});
  cache_.resize(kInitCacheEntries);
  cache_mask_ = kInitCacheEntries - 1;
  stats_.peak_nodes = nodes_.size();
}

BddManager::BddManager(int num_vars) : BddManager() {
  for (int i = 0; i < num_vars; ++i) new_var();
}

BddManager::~BddManager() {
  flush_stats_to_obs();
  // Refund everything still charged so a long-lived governor (one per
  // polisc run / polisd request) meters live usage across managers.
  if (gov_charged_nodes_ != 0 || gov_charged_bytes_ != 0)
    ResourceGovernor::charge_arena_current(
        -static_cast<int64_t>(gov_charged_nodes_),
        -static_cast<int64_t>(gov_charged_bytes_));
  // Null out surviving handles so they do not dangle.
  for (Bdd* h = handle_head_; h != nullptr;) {
    Bdd* next = h->next_;
    h->mgr_ = nullptr;
    h->idx_ = 0;
    h->prev_ = nullptr;
    h->next_ = nullptr;
    h = next;
  }
}

int BddManager::new_var(std::string name) {
  const int v = num_vars();
  perm_.push_back(v);
  invperm_.push_back(v);
  if (name.empty()) name = "v" + std::to_string(v);
  names_.push_back(std::move(name));
  subtables_.emplace_back();
  return v;
}

const std::string& BddManager::var_name(int var) const {
  POLIS_CHECK(var >= 0 && var < num_vars());
  return names_[static_cast<size_t>(var)];
}

void BddManager::set_var_name(int var, std::string name) {
  POLIS_CHECK(var >= 0 && var < num_vars());
  names_[static_cast<size_t>(var)] = std::move(name);
}

void BddManager::check_var(int v) const {
  POLIS_CHECK_MSG(v >= 0 && v < num_vars(), "variable " << v << " not in manager");
}

Bdd BddManager::var(int v) {
  check_var(v);
  return make(find_or_add(static_cast<std::uint32_t>(v), kZero, kOne));
}

Bdd BddManager::nvar(int v) {
  check_var(v);
  return make(find_or_add(static_cast<std::uint32_t>(v), kOne, kZero));
}

// --- Unique table ----------------------------------------------------------------

std::uint32_t BddManager::find_or_add(std::uint32_t var, std::uint32_t lo,
                                      std::uint32_t hi) {
  if (lo == hi) return lo;
  // Canonical form: the stored then-edge is never complemented. A request
  // with complemented `hi` stores the complemented node and returns a
  // negated handle instead, so every function has exactly one
  // representation and handle equality is function equality.
  const std::uint32_t out_c = comp_of(hi);
  lo ^= out_c;
  hi ^= out_c;
  Subtable& st = subtables_[var];
  if (st.buckets.empty()) st.buckets.assign(kInitBuckets, kNil);
  ++stats_.unique_lookups;
  const size_t slot = hash_children(lo, hi) & (st.buckets.size() - 1);
  for (std::uint32_t n = st.buckets[slot]; n != kNil; n = nodes_[n].next) {
    const Node& nd = nodes_[n];
    if (nd.lo == lo && nd.hi == hi) {
      ++stats_.unique_hits;
      return (n << 1) | out_c;
    }
  }
  std::uint32_t idx;
  if (free_head_ != kNil) {
    idx = free_head_;
    free_head_ = nodes_[idx].next;
    ++stats_.nodes_recycled;
  } else {
    // Everything that can fail happens before any mutation, so a throw here
    // unwinds with the manager fully consistent (the satisfied lookup path
    // above, live handles, tables and cache are all untouched) — this is the
    // recoverable-unwind boundary the governor relies on.
    if (nodes_.size() >= max_arena_nodes_)
      throw BudgetExceeded(
          BudgetExceeded::Kind::kNodes,
          "BDD arena exceeds " + std::to_string(max_arena_nodes_) +
              " nodes (handle space exhausted)");
    ResourceGovernor::draw_alloc_fault_current("bdd.arena");
    // Charge-then-refund-on-failure keeps the governor's counter equal to
    // the nodes that actually exist, so the destructor's refund is exact
    // even across many failed attempts under kDegrade retries.
    ++gov_charged_nodes_;
    gov_charged_bytes_ += sizeof(Node);
    try {
      ResourceGovernor::charge_arena_current(
          1, static_cast<int64_t>(sizeof(Node)));
      nodes_.push_back(Node{});
    } catch (const std::bad_alloc&) {
      --gov_charged_nodes_;
      gov_charged_bytes_ -= sizeof(Node);
      ResourceGovernor::charge_arena_current(
          -1, -static_cast<int64_t>(sizeof(Node)));
      throw BudgetExceeded(BudgetExceeded::Kind::kAllocation,
                           "BDD arena allocation failed");
    } catch (...) {
      --gov_charged_nodes_;
      gov_charged_bytes_ -= sizeof(Node);
      ResourceGovernor::charge_arena_current(
          -1, -static_cast<int64_t>(sizeof(Node)));
      throw;
    }
    idx = static_cast<std::uint32_t>(nodes_.size() - 1);
    stats_.peak_nodes = std::max(stats_.peak_nodes, nodes_.size());
    ++stats_.nodes_created;
  }
  nodes_[idx] = Node{var, lo, hi, st.buckets[slot]};
  st.buckets[slot] = idx;
  if (++st.count > st.buckets.size() * kMaxChainLoad) grow_subtable(st);
  return (idx << 1) | out_c;
}

void BddManager::subtable_insert(std::uint32_t var, std::uint32_t idx) {
  Subtable& st = subtables_[var];
  if (st.buckets.empty()) st.buckets.assign(kInitBuckets, kNil);
  const size_t slot =
      hash_children(nodes_[idx].lo, nodes_[idx].hi) & (st.buckets.size() - 1);
  nodes_[idx].next = st.buckets[slot];
  st.buckets[slot] = idx;
  if (++st.count > st.buckets.size() * kMaxChainLoad) grow_subtable(st);
}

void BddManager::grow_subtable(Subtable& st) {
  // Growth is an optimization (the chains are merely over the target load
  // factor); every failure path leaves the old buckets installed and the
  // chains intact. The new array is fully allocated before anything moves.
  ResourceGovernor::draw_alloc_fault_current("bdd.subtable");
  std::vector<std::uint32_t> grown;
  try {
    grown.assign(st.buckets.size() * 2, kNil);
  } catch (const std::bad_alloc&) {
    throw BudgetExceeded(BudgetExceeded::Kind::kAllocation,
                         "BDD unique-subtable growth failed");
  }
  std::vector<std::uint32_t> old = std::move(st.buckets);
  st.buckets = std::move(grown);
  const size_t mask = st.buckets.size() - 1;
  for (std::uint32_t head : old) {
    while (head != kNil) {
      const std::uint32_t next = nodes_[head].next;
      const size_t slot = hash_children(nodes_[head].lo, nodes_[head].hi) & mask;
      nodes_[head].next = st.buckets[slot];
      st.buckets[slot] = head;
      head = next;
    }
  }
}

bool BddManager::check_canonical_form() const {
  for (std::uint32_t i = 1; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (n.var == kDeadVar) continue;  // free-list slot
    if (n.var >= static_cast<std::uint32_t>(num_vars())) return false;
    if (comp_of(n.hi) != 0) return false;  // complemented then-edge stored
    if (n.lo == n.hi) return false;        // redundant node stored
    const std::uint32_t li = idx_of(n.lo);
    const std::uint32_t hi = idx_of(n.hi);
    if (li >= nodes_.size() || hi >= nodes_.size()) return false;
    if (nodes_[li].var == kDeadVar || nodes_[hi].var == kDeadVar) return false;
  }
  return true;
}

// --- Computed cache --------------------------------------------------------------

bool BddManager::cache_lookup(std::uint32_t op, std::uint32_t a,
                              std::uint32_t b, std::uint32_t c,
                              std::uint32_t* result) {
  ++stats_.cache_lookups;
  const std::uint32_t key0 = a | (op << kOpShift);
  const CacheEntry& e = cache_[cache_slot(key0, b, c)];
  if (e.key0 == key0 && e.b == b && e.c == c) {
    ++stats_.cache_hits;
    *result = e.result;
    return true;
  }
  return false;
}

void BddManager::cache_insert(std::uint32_t op, std::uint32_t a,
                              std::uint32_t b, std::uint32_t c,
                              std::uint32_t result) {
  // One poll per computed miss bounds every apply/ITE/quantification
  // recursion by the governor's deadline and cancel flag. Throwing here is
  // safe: the result's nodes exist and are reachable only through consistent
  // structures; the entry is simply never written.
  ResourceGovernor::poll_current();
  ++stats_.cache_inserts;
  const std::uint32_t key0 = a | (op << kOpShift);
  CacheEntry& e = cache_[cache_slot(key0, b, c)];
  if (e.key0 != 0 && !(e.key0 == key0 && e.b == b && e.c == c))
    ++stats_.cache_evictions;
  e = CacheEntry{key0, b, c, result};
  maybe_resize_cache();
}

void BddManager::maybe_resize_cache() {
  // Resize policy: once we have inserted half a cache's worth of entries
  // since the last resize (or cache clear), the cache is under pressure;
  // double it while the hit rate over that window shows it is earning its
  // keep. Half-size windows let an apply-heavy run climb from the small
  // initial cache to its working size within a few percent of its
  // operations. The window must still be meaningful: right after a clear
  // the counters restart, so a handful of lookups — or hits carried over
  // from before a GC wiped the entries — can never justify doubling an
  // empty cache.
  if (stats_.cache_inserts - cache_inserts_at_resize_ <= cache_.size() / 2 ||
      cache_.size() >= kMaxCacheEntries) {
    return;
  }
  const std::uint64_t lookups = stats_.cache_lookups - cache_lookups_at_resize_;
  const std::uint64_t hits = stats_.cache_hits - cache_hits_at_resize_;
  if (lookups >= cache_.size() / 8 && hits * 10 >= lookups * 3) {
    // A strongly-hitting window below the jump size goes straight to the
    // working size: every doubling step it would otherwise creep through
    // costs a window's worth of avoidable evictions.
    const bool jump = cache_.size() < kJumpCacheEntries && hits * 10 >= lookups * 6;
    resize_cache(jump ? kJumpCacheEntries : cache_.size() * 2);
  } else {
    // Not earning hits (or window too small to tell): restart the
    // observation window at this size.
    cache_lookups_at_resize_ = stats_.cache_lookups;
    cache_hits_at_resize_ = stats_.cache_hits;
    cache_inserts_at_resize_ = stats_.cache_inserts;
  }
}

void BddManager::cache_clear() {
  std::fill(cache_.begin(), cache_.end(), CacheEntry{});
  // An emptied cache starts a fresh observation window: lookups and hits
  // earned against the old entries must not feed the next resize decision.
  cache_lookups_at_resize_ = stats_.cache_lookups;
  cache_hits_at_resize_ = stats_.cache_hits;
  cache_inserts_at_resize_ = stats_.cache_inserts;
}

void BddManager::resize_cache(size_t new_entries) {
  OBS_SPAN(span, "bdd.cache_resize", "bdd");
  if (span.armed()) {
    span.arg("old_entries", cache_.size());
    span.arg("new_entries", new_entries);
  }
  // Allocate the replacement before touching cache_: a growth failure is a
  // recoverable BudgetExceeded with the old cache still fully installed.
  ResourceGovernor::draw_alloc_fault_current("bdd.cache");
  std::vector<CacheEntry> fresh;
  try {
    fresh.assign(new_entries, CacheEntry{});
  } catch (const std::bad_alloc&) {
    throw BudgetExceeded(BudgetExceeded::Kind::kAllocation,
                         "BDD computed-cache growth failed");
  }
  std::vector<CacheEntry> old = std::move(cache_);
  cache_ = std::move(fresh);
  cache_mask_ = new_entries - 1;
  for (const CacheEntry& e : old) {
    if (e.key0 != 0) cache_[cache_slot(e.key0, e.b, e.c)] = e;
  }
  ++stats_.cache_resizes;
  cache_lookups_at_resize_ = stats_.cache_lookups;
  cache_hits_at_resize_ = stats_.cache_hits;
  cache_inserts_at_resize_ = stats_.cache_inserts;
  // Meter the growth (resizes only grow). A byte-budget throw lands after
  // the new cache is fully installed, so unwinding is clean.
  if (new_entries > old.size()) {
    const int64_t delta =
        static_cast<int64_t>(new_entries - old.size()) *
        static_cast<int64_t>(sizeof(CacheEntry));
    gov_charged_bytes_ += static_cast<std::uint64_t>(delta);
    ResourceGovernor::charge_arena_current(0, delta);
  }
}

KernelStats BddManager::stats() const {
  KernelStats out = stats_;
  out.cache_capacity = cache_.size();
  out.arena_nodes = nodes_.size();
  return out;
}

void BddManager::reset_stats() {
  stats_ = KernelStats{};
  flushed_ = obs::MirrorState{};
  stats_.peak_nodes = nodes_.size();
  cache_lookups_at_resize_ = 0;
  cache_hits_at_resize_ = 0;
  cache_inserts_at_resize_ = 0;
}

namespace {

using enum obs::MetricKind;
using obs::field;

constexpr obs::MirroredMetric<KernelStats> kKernelMetrics[] = {
    {"bdd.ite_calls", kCounter, field<&KernelStats::ite_calls>},
    {"bdd.apply_calls", kCounter,
     [](const KernelStats& s) -> std::uint64_t {
       return s.and_apply_calls + s.xor_apply_calls;
     }},
    {"bdd.cache_lookups", kCounter, field<&KernelStats::cache_lookups>},
    {"bdd.cache_hits", kCounter, field<&KernelStats::cache_hits>},
    {"bdd.cache_inserts", kCounter, field<&KernelStats::cache_inserts>},
    {"bdd.cache_evictions", kCounter, field<&KernelStats::cache_evictions>},
    {"bdd.cache_resizes", kCounter, field<&KernelStats::cache_resizes>},
    {"bdd.unique_lookups", kCounter, field<&KernelStats::unique_lookups>},
    {"bdd.unique_hits", kCounter, field<&KernelStats::unique_hits>},
    {"bdd.nodes_created", kCounter, field<&KernelStats::nodes_created>},
    {"bdd.nodes_recycled", kCounter, field<&KernelStats::nodes_recycled>},
    {"bdd.gc_runs", kCounter, field<&KernelStats::gc_runs>},
    {"bdd.nodes_reclaimed", kCounter, field<&KernelStats::nodes_reclaimed>},
    {"bdd.peak_nodes", kMaxGauge, field<&KernelStats::peak_nodes>},
    // One sample per manager lifetime peak.
    {"bdd.manager_peak_nodes", kHistogram, field<&KernelStats::peak_nodes>},
    {"bdd.copy_across_calls", kCounter, field<&KernelStats::copy_across_calls>},
    {"bdd.copy_nodes", kCounter, field<&KernelStats::copy_nodes>},
    {"bdd.copy_cache_hits", kCounter, field<&KernelStats::copy_cache_hits>},
};

}  // namespace

void BddManager::flush_stats_to_obs() {
  obs::drain<kKernelMetrics>(stats_, flushed_);
}

// --- Core operations -------------------------------------------------------------

std::uint32_t BddManager::and_rec(std::uint32_t f, std::uint32_t g) {
  // Terminal cases, two branches on the hot path: handles differing only in
  // the complement bit (f ∧ f = f, f ∧ ¬f = 0), then either operand
  // constant (terminal handles are 0 and 1, so `min <= kZero` covers both).
  if ((f ^ g) <= 1u) return f == g ? f : kZero;
  if (std::min(f, g) <= kZero) {
    if (f == kZero || g == kZero) return kZero;
    return f == kOne ? g : f;
  }
  // Commutative: normalise operand order for cache hits.
  if (f > g) std::swap(f, g);

  std::uint32_t r;
  if (cache_lookup(kOpAnd, f, g, 0, &r)) return r;

  const int lf = level(f);
  const int lg = level(g);
  const int top = std::min(lf, lg);
  const std::uint32_t v =
      static_cast<std::uint32_t>(invperm_[static_cast<size_t>(top)]);
  // Cofactors of the *functions*: the parent complement bit flows into the
  // children. Extracted before recursing — the arena may grow below.
  const std::uint32_t fc = comp_of(f);
  const std::uint32_t gc = comp_of(g);
  const Node& fn = nodes_[idx_of(f)];
  const Node& gn = nodes_[idx_of(g)];
  const std::uint32_t f1 = (lf == top) ? fn.hi ^ fc : f;
  const std::uint32_t f0 = (lf == top) ? fn.lo ^ fc : f;
  const std::uint32_t g1 = (lg == top) ? gn.hi ^ gc : g;
  const std::uint32_t g0 = (lg == top) ? gn.lo ^ gc : g;

  const std::uint32_t t = and_rec(f1, g1);
  const std::uint32_t e = and_rec(f0, g0);
  r = find_or_add(v, e, t);
  cache_insert(kOpAnd, f, g, 0, r);
  return r;
}

std::uint32_t BddManager::xor_rec(std::uint32_t f, std::uint32_t g) {
  // Terminal cases (same two-branch structure as and_rec).
  if ((f ^ g) <= 1u) return f == g ? kZero : kOne;
  if (std::min(f, g) <= kZero) {
    if (f <= kZero) return f == kZero ? g : negate(g);
    return g == kZero ? f : negate(f);
  }
  // XOR commutes with complementation on either operand: strip both
  // complement bits into the output, so one cache entry serves all four
  // phase combinations of (f, g).
  const std::uint32_t out_c = comp_of(f) ^ comp_of(g);
  f = regular(f);
  g = regular(g);
  if (f > g) std::swap(f, g);

  std::uint32_t r;
  if (cache_lookup(kOpXor, f, g, 0, &r)) return r ^ out_c;

  const int lf = level(f);
  const int lg = level(g);
  const int top = std::min(lf, lg);
  const std::uint32_t v =
      static_cast<std::uint32_t>(invperm_[static_cast<size_t>(top)]);
  const Node& fn = nodes_[idx_of(f)];
  const Node& gn = nodes_[idx_of(g)];
  const std::uint32_t f1 = (lf == top) ? fn.hi : f;
  const std::uint32_t f0 = (lf == top) ? fn.lo : f;
  const std::uint32_t g1 = (lg == top) ? gn.hi : g;
  const std::uint32_t g0 = (lg == top) ? gn.lo : g;

  const std::uint32_t t = xor_rec(f1, g1);
  const std::uint32_t e = xor_rec(f0, g0);
  r = find_or_add(v, e, t);
  cache_insert(kOpXor, f, g, 0, r);
  return r ^ out_c;
}

std::uint32_t BddManager::ite_rec(std::uint32_t f, std::uint32_t g,
                                  std::uint32_t h) {
  // Terminal cases.
  if (f == kOne) return g;
  if (f == kZero) return h;
  if (g == h) return g;
  // Equal-operand normalisation raises the cache hit rate: ite(f, f, h) =
  // ite(f, 1, h), ite(f, ¬f, h) = ite(f, 0, h), and dually for h.
  if (f == g) g = kOne;
  else if (f == negate(g)) g = kZero;
  if (f == h) h = kZero;
  else if (f == negate(h)) h = kOne;
  if (g == kOne && h == kZero) return f;
  if (g == kZero && h == kOne) return negate(f);
  // 2-operand dispatch: every ITE with a constant branch (or complementary
  // branches) is an AND or XOR in disguise — route it to the dedicated
  // apply paths, whose cache keys are shared with the operator entrypoints.
  if (h == kZero) return and_rec(f, g);
  if (g == kZero) return and_rec(negate(f), h);
  if (g == kOne) return negate(and_rec(negate(f), negate(h)));
  if (h == kOne) return negate(and_rec(f, negate(g)));
  if (g == negate(h)) return negate(xor_rec(f, g));  // ite(f,g,¬g) = ¬(f⊕g)

  // Normalise for the cache: a complemented f swaps the branches; a
  // complemented g complements the output. After this, f and g are regular
  // and one entry covers the whole complementation orbit of the call.
  std::uint32_t out_c = 0;
  if (comp_of(f)) {
    f = negate(f);
    std::swap(g, h);
  }
  if (comp_of(g)) {
    out_c = 1;
    g = negate(g);
    h = negate(h);
  }

  std::uint32_t r;
  if (cache_lookup(kOpIte, f, g, h, &r)) return r ^ out_c;

  const int lf = level(f);
  const int lg = level(g);
  const int lh = level(h);
  const int top = std::min(lf, std::min(lg, lh));
  const std::uint32_t v =
      static_cast<std::uint32_t>(invperm_[static_cast<size_t>(top)]);

  const std::uint32_t hc = comp_of(h);
  const Node& fn = nodes_[idx_of(f)];
  const Node& gn = nodes_[idx_of(g)];
  const Node& hn = nodes_[idx_of(h)];
  const std::uint32_t f1 = (lf == top) ? fn.hi : f;
  const std::uint32_t f0 = (lf == top) ? fn.lo : f;
  const std::uint32_t g1 = (lg == top) ? gn.hi : g;
  const std::uint32_t g0 = (lg == top) ? gn.lo : g;
  const std::uint32_t h1 = (lh == top) ? hn.hi ^ hc : h;
  const std::uint32_t h0 = (lh == top) ? hn.lo ^ hc : h;

  const std::uint32_t t = ite_rec(f1, g1, h1);
  const std::uint32_t e = ite_rec(f0, g0, h0);
  r = find_or_add(v, e, t);
  cache_insert(kOpIte, f, g, h, r);
  return r ^ out_c;
}

Bdd BddManager::ite(const Bdd& f, const Bdd& g, const Bdd& h) {
  POLIS_CHECK(f.mgr_ == this && g.mgr_ == this && h.mgr_ == this);
  ++stats_.ite_calls;
  return make(ite_rec(f.idx_, g.idx_, h.idx_));
}

Bdd BddManager::band(const Bdd& f, const Bdd& g) {
  POLIS_CHECK(f.mgr_ == this && g.mgr_ == this);
  ++stats_.and_apply_calls;
  return make(and_rec(f.idx_, g.idx_));
}

Bdd BddManager::bor(const Bdd& f, const Bdd& g) {
  POLIS_CHECK(f.mgr_ == this && g.mgr_ == this);
  ++stats_.and_apply_calls;
  return make(or_of(f.idx_, g.idx_));
}

Bdd BddManager::bxor(const Bdd& f, const Bdd& g) {
  POLIS_CHECK(f.mgr_ == this && g.mgr_ == this);
  ++stats_.xor_apply_calls;
  return make(xor_rec(f.idx_, g.idx_));
}

Bdd BddManager::bnot(const Bdd& f) {
  POLIS_CHECK(f.mgr_ == this);
  return make(negate(f.idx_));
}

std::uint32_t BddManager::cofactor_rec(std::uint32_t f, int var, bool val) {
  if (is_term(f)) return f;
  // Cofactor commutes with complementation: recurse on the regular function
  // and restore the phase on the way out, so one cache entry serves both.
  const std::uint32_t fc = comp_of(f);
  f = regular(f);
  const int vlevel = perm_[static_cast<size_t>(var)];
  if (level(f) > vlevel) return f ^ fc;  // var cannot appear below its level
  const Node& n = nodes_[idx_of(f)];
  if (static_cast<int>(n.var) == var) return (val ? n.hi : n.lo) ^ fc;
  std::uint32_t r;
  const std::uint32_t tag =
      (static_cast<std::uint32_t>(var) << 1) | (val ? 1u : 0u);
  if (cache_lookup(kOpCofactor, f, tag, 0, &r)) return r ^ fc;
  // Copies: the recursion below may grow nodes_ and invalidate `n`.
  const std::uint32_t nvar = n.var;
  const std::uint32_t nlo = n.lo;
  const std::uint32_t nhi = n.hi;
  const std::uint32_t lo = cofactor_rec(nlo, var, val);
  const std::uint32_t hi = cofactor_rec(nhi, var, val);
  r = find_or_add(nvar, lo, hi);
  cache_insert(kOpCofactor, f, tag, 0, r);
  return r ^ fc;
}

Bdd BddManager::cofactor(const Bdd& f, int var, bool val) {
  POLIS_CHECK(f.mgr_ == this);
  check_var(var);
  return make(cofactor_rec(f.idx_, var, val));
}

std::uint32_t BddManager::make_cube(const std::vector<int>& vars) {
  // Conjunction of positive literals, built bottom-up in level order so each
  // step is a single unique-table insertion. A positive cube is always a
  // regular handle with regular then-edges, so cube traversals below never
  // need complement-bit fixups.
  std::vector<int> sorted = vars;
  std::sort(sorted.begin(), sorted.end(), [&](int a, int b) {
    return perm_[static_cast<size_t>(a)] > perm_[static_cast<size_t>(b)];
  });
  std::uint32_t cube = kOne;
  int prev = -1;
  for (const int v : sorted) {
    if (v == prev) continue;  // duplicate var in the set
    prev = v;
    cube = find_or_add(static_cast<std::uint32_t>(v), kZero, cube);
  }
  return cube;
}

std::uint32_t BddManager::quant_rec(std::uint32_t f, std::uint32_t cube,
                                    bool existential) {
  // Quantified vars above f's top variable cannot appear in f: skip them.
  while (!is_term(cube) && level(cube) < level(f))
    cube = nodes_[idx_of(cube)].hi;
  if (is_term(f) || cube == kOne) return f;
  // ∃x.¬f = ¬∀x.f — strip the operand's complement by flipping the
  // quantifier, so the cache is keyed on the regular function only.
  const std::uint32_t fc = comp_of(f);
  f = regular(f);
  const bool ex = fc ? !existential : existential;
  std::uint32_t r;
  const std::uint32_t op = ex ? kOpExists : kOpForall;
  if (cache_lookup(op, f, cube, 0, &r)) return r ^ fc;
  const Node n = nodes_[idx_of(f)];  // copy: recursion below may grow nodes_
  if (level(f) == level(cube)) {
    const std::uint32_t rest = nodes_[idx_of(cube)].hi;
    const std::uint32_t lo = quant_rec(n.lo, rest, ex);
    const std::uint32_t hi = quant_rec(n.hi, rest, ex);
    r = ex ? or_of(lo, hi) : and_rec(lo, hi);
  } else {
    const std::uint32_t lo = quant_rec(n.lo, cube, ex);
    const std::uint32_t hi = quant_rec(n.hi, cube, ex);
    r = find_or_add(n.var, lo, hi);
  }
  cache_insert(op, f, cube, 0, r);
  return r ^ fc;
}

Bdd BddManager::smooth(const Bdd& f, const std::vector<int>& vars) {
  POLIS_CHECK(f.mgr_ == this);
  if (vars.empty()) return f;
  for (int v : vars) check_var(v);
  const std::uint32_t cube = make_cube(vars);
  return make(quant_rec(f.idx_, cube, /*existential=*/true));
}

Bdd BddManager::forall(const Bdd& f, const std::vector<int>& vars) {
  POLIS_CHECK(f.mgr_ == this);
  if (vars.empty()) return f;
  for (int v : vars) check_var(v);
  const std::uint32_t cube = make_cube(vars);
  return make(quant_rec(f.idx_, cube, /*existential=*/false));
}

std::uint32_t BddManager::and_exists_rec(std::uint32_t f, std::uint32_t g,
                                         std::uint32_t cube) {
  ++stats_.and_exists_recursions;
  // Terminal cases: f∧g collapses, or no quantified vars remain below.
  if (f == kZero || g == kZero || f == negate(g)) return kZero;
  if (f == kOne && g == kOne) return kOne;
  if (f == kOne) return quant_rec(g, cube, /*existential=*/true);
  if (g == kOne || f == g) return quant_rec(f, cube, /*existential=*/true);
  // Commutative: normalise operand order for cache hits.
  if (f > g) std::swap(f, g);

  const int lf = level(f);
  const int lg = level(g);
  const int top = std::min(lf, lg);
  // Quantified vars above both operands cannot appear in either: skip them.
  while (!is_term(cube) && level(cube) < top) cube = nodes_[idx_of(cube)].hi;
  if (cube == kOne) return and_rec(f, g);  // plain conjunction

  std::uint32_t r;
  if (cache_lookup(kOpAndExists, f, g, cube, &r)) {
    ++stats_.and_exists_cache_hits;
    return r;
  }

  const std::uint32_t v =
      static_cast<std::uint32_t>(invperm_[static_cast<size_t>(top)]);
  // Copies: the recursion below may grow nodes_.
  const std::uint32_t fc = comp_of(f);
  const std::uint32_t gc = comp_of(g);
  const Node& fn = nodes_[idx_of(f)];
  const Node& gn = nodes_[idx_of(g)];
  const std::uint32_t f1 = (lf == top) ? fn.hi ^ fc : f;
  const std::uint32_t f0 = (lf == top) ? fn.lo ^ fc : f;
  const std::uint32_t g1 = (lg == top) ? gn.hi ^ gc : g;
  const std::uint32_t g0 = (lg == top) ? gn.lo ^ gc : g;

  if (level(cube) == top) {
    const std::uint32_t rest = nodes_[idx_of(cube)].hi;
    const std::uint32_t hi = and_exists_rec(f1, g1, rest);
    if (hi == kOne) {
      r = kOne;  // ∃v absorbs: the other branch cannot add anything
    } else {
      const std::uint32_t lo = and_exists_rec(f0, g0, rest);
      r = or_of(hi, lo);
    }
  } else {
    const std::uint32_t hi = and_exists_rec(f1, g1, cube);
    const std::uint32_t lo = and_exists_rec(f0, g0, cube);
    r = find_or_add(v, lo, hi);
  }
  cache_insert(kOpAndExists, f, g, cube, r);
  return r;
}

Bdd BddManager::and_exists(const Bdd& f, const Bdd& g,
                           const std::vector<int>& vars) {
  POLIS_CHECK(f.mgr_ == this && g.mgr_ == this);
  ++stats_.and_exists_calls;
  for (int v : vars) check_var(v);
  const std::uint32_t cube = make_cube(vars);
  return make(and_exists_rec(f.idx_, g.idx_, cube));
}

std::uint32_t BddManager::compose_rec(std::uint32_t f, int var,
                                      std::uint32_t g) {
  if (is_term(f)) return f;
  // Composition commutes with complementation of f: recurse regular.
  const std::uint32_t fc = comp_of(f);
  f = regular(f);
  if (level(f) > perm_[static_cast<size_t>(var)]) return f ^ fc;  // var ∉ support
  std::uint32_t r;
  if (cache_lookup(kOpCompose, f, g, static_cast<std::uint32_t>(var), &r))
    return r ^ fc;
  const Node n = nodes_[idx_of(f)];  // copy: recursion below may grow nodes_
  if (static_cast<int>(n.var) == var) {
    r = ite_rec(g, n.hi, n.lo);
  } else {
    const std::uint32_t lo = compose_rec(n.lo, var, g);
    const std::uint32_t hi = compose_rec(n.hi, var, g);
    // g may depend on variables above n.var, so rebuild with ITE on the
    // branch variable instead of a direct find_or_add.
    const std::uint32_t v = find_or_add(n.var, kZero, kOne);
    r = ite_rec(v, hi, lo);
  }
  cache_insert(kOpCompose, f, g, static_cast<std::uint32_t>(var), r);
  return r ^ fc;
}

Bdd BddManager::compose(const Bdd& f, int var, const Bdd& g) {
  POLIS_CHECK(f.mgr_ == this && g.mgr_ == this);
  check_var(var);
  return make(compose_rec(f.idx_, var, g.idx_));
}

int BddManager::register_rename(
    const std::vector<std::pair<int, int>>& from_to) {
  std::vector<int> map(perm_.size());
  for (size_t v = 0; v < map.size(); ++v) map[v] = static_cast<int>(v);
  for (const auto& [from, to] : from_to) {
    check_var(from);
    check_var(to);
    map[static_cast<size_t>(from)] = to;
  }
  rename_maps_.push_back(std::move(map));
  return static_cast<int>(rename_maps_.size()) - 1;
}

std::uint32_t BddManager::rename_rec(std::uint32_t f,
                                     const std::vector<int>& map,
                                     std::uint32_t map_id) {
  if (is_term(f)) return f;
  // Substitution commutes with complementation: recurse regular so one
  // cache entry serves both phases.
  const std::uint32_t fc = comp_of(f);
  f = regular(f);
  std::uint32_t r;
  if (cache_lookup(kOpRename, f, map_id, 0, &r)) return r ^ fc;
  const Node n = nodes_[idx_of(f)];  // copy: recursion below may grow nodes_
  const std::uint32_t hi = rename_rec(n.hi, map, map_id);
  const std::uint32_t lo = rename_rec(n.lo, map, map_id);
  const int v = map[n.var];
  const int lvl = perm_[static_cast<size_t>(v)];
  if ((is_term(hi) || level(hi) > lvl) && (is_term(lo) || level(lo) > lvl)) {
    // The target variable sits above both renamed children: a pure relabel,
    // one hash-cons per node. This is the hot path for next→present in the
    // interleaved reachability encoding.
    r = find_or_add(static_cast<std::uint32_t>(v), lo, hi);
  } else {
    // General case (the map moves a variable under another): rebuild with
    // ITE on the target variable, as in CUDD's permute.
    r = ite_rec(find_or_add(static_cast<std::uint32_t>(v), kZero, kOne), hi,
                lo);
  }
  cache_insert(kOpRename, f, map_id, 0, r);
  return r ^ fc;
}

Bdd BddManager::rename(const Bdd& f, int map_id) {
  POLIS_CHECK(f.mgr_ == this);
  POLIS_CHECK_MSG(map_id >= 0 &&
                      static_cast<size_t>(map_id) < rename_maps_.size(),
                  "rename: unknown map id");
  ++stats_.rename_calls;
  return make(rename_rec(f.idx_, rename_maps_[static_cast<size_t>(map_id)],
                         static_cast<std::uint32_t>(map_id)));
}

std::uint32_t BddManager::restrict_rec(std::uint32_t g, std::uint32_t c) {
  // Deliberately NOT complement-normalised: restrict is a heuristic (the
  // result depends on the shape of the recursion, not just the functions),
  // and the `c == kZero → kZero` base case would flip meaning under output
  // complementation. Keying the cache on the tagged pair keeps the
  // recursion — and therefore the minimised result — function-for-function
  // identical to a kernel without complement edges.
  if (c == kZero) return kZero;  // entirely don't care: anything goes
  if (c == kOne || is_term(g)) return g;
  std::uint32_t r;
  if (cache_lookup(kOpRestrict, g, c, 0, &r)) return r;

  const int lg = level(g);
  const int lc = level(c);
  if (lc < lg) {
    // The care set constrains a variable above g's top: merge branches.
    const std::uint32_t cc = comp_of(c);
    const std::uint32_t c1 = nodes_[idx_of(c)].hi ^ cc;
    const std::uint32_t c0 = nodes_[idx_of(c)].lo ^ cc;
    r = restrict_rec(g, or_of(c0, c1));  // c|v=0 ∨ c|v=1
  } else {
    const std::uint32_t gc = comp_of(g);
    const Node& gn = nodes_[idx_of(g)];
    const std::uint32_t gvar = gn.var;
    const std::uint32_t g1 = gn.hi ^ gc;
    const std::uint32_t g0 = gn.lo ^ gc;
    const std::uint32_t cc = comp_of(c);
    const std::uint32_t c1 = (lc == lg) ? nodes_[idx_of(c)].hi ^ cc : c;
    const std::uint32_t c0 = (lc == lg) ? nodes_[idx_of(c)].lo ^ cc : c;
    if (c1 == kZero) {
      r = restrict_rec(g0, c0);  // sibling substitution
    } else if (c0 == kZero) {
      r = restrict_rec(g1, c1);
    } else {
      const std::uint32_t lo = restrict_rec(g0, c0);
      const std::uint32_t hi = restrict_rec(g1, c1);
      r = find_or_add(gvar, lo, hi);
    }
  }
  cache_insert(kOpRestrict, g, c, 0, r);
  return r;
}

Bdd BddManager::restrict(const Bdd& f, const Bdd& care) {
  POLIS_CHECK(f.mgr_ == this && care.mgr_ == this);
  return make(restrict_rec(f.idx_, care.idx_));
}

// --- Queries ---------------------------------------------------------------------

std::set<int> BddManager::support(const Bdd& f) {
  POLIS_CHECK(f.mgr_ == this);
  std::set<int> out;
  if (visit_epoch_.size() < 2 * nodes_.size())
    visit_epoch_.resize(2 * nodes_.size(), 0);
  ++epoch_;
  visit_stack_.clear();
  // Support ignores phases: traverse physical nodes (mark by arena index).
  visit_stack_.push_back(idx_of(f.idx_));
  while (!visit_stack_.empty()) {
    const std::uint32_t n = visit_stack_.back();
    visit_stack_.pop_back();
    if (n == 0 || visit_epoch_[n] == epoch_) continue;
    visit_epoch_[n] = epoch_;
    out.insert(static_cast<int>(nodes_[n].var));
    visit_stack_.push_back(idx_of(nodes_[n].lo));
    visit_stack_.push_back(idx_of(nodes_[n].hi));
  }
  return out;
}

bool BddManager::eval(const Bdd& f, const std::function<bool(int)>& assignment) {
  POLIS_CHECK(f.mgr_ == this);
  std::uint32_t h = f.idx_;
  while (!is_term(h)) {
    const Node& node = nodes_[idx_of(h)];
    h = (assignment(static_cast<int>(node.var)) ? node.hi : node.lo) ^
        comp_of(h);
  }
  return h == kOne;
}

double BddManager::sat_count(const Bdd& f, int nvars) {
  POLIS_CHECK(f.mgr_ == this);
  const int num_levels = num_vars();
  // Exact minterm count of each regular subfunction over the variables at
  // its own level and below, memoised per node. Scaling between levels is
  // ldexp on integer exponents — every factor is an exact power of two, so
  // (unlike accumulating per-node 0.5 fractions against a 2^nvars scale)
  // nothing underflows and counts are exact up to double's 2^53 integers,
  // for any number of variables.
  std::unordered_map<std::uint32_t, double> memo;
  // count_at(h, l): minterms of the function h over levels l..N-1.
  auto count_at = [&](std::uint32_t h, int l, auto&& self) -> double {
    if (h == kZero) return 0.0;
    if (h == kOne) return std::ldexp(1.0, num_levels - l);
    const std::uint32_t reg = regular(h);
    const int lr = level(reg);
    double cnt;
    auto it = memo.find(reg);
    if (it != memo.end()) {
      cnt = it->second;
    } else {
      const Node& n = nodes_[idx_of(reg)];
      cnt = self(n.lo, lr + 1, self) + self(n.hi, lr + 1, self);
      memo.emplace(reg, cnt);
    }
    const double scaled = std::ldexp(cnt, lr - l);
    return comp_of(h) ? std::ldexp(1.0, num_levels - l) - scaled : scaled;
  };
  return std::ldexp(count_at(f.idx_, 0, count_at), nvars - num_levels);
}

std::vector<std::pair<int, bool>> BddManager::one_sat(const Bdd& f) {
  POLIS_CHECK(f.mgr_ == this);
  POLIS_CHECK_MSG(f.idx_ != kZero, "one_sat of unsatisfiable function");
  std::vector<std::pair<int, bool>> cube;
  std::uint32_t h = f.idx_;
  while (!is_term(h)) {
    const Node& node = nodes_[idx_of(h)];
    const std::uint32_t hi = node.hi ^ comp_of(h);
    if (hi != kZero) {
      cube.emplace_back(static_cast<int>(node.var), true);
      h = hi;
    } else {
      cube.emplace_back(static_cast<int>(node.var), false);
      h = node.lo ^ comp_of(h);
    }
  }
  return cube;
}

size_t BddManager::node_count(const Bdd& f) {
  return node_count(std::vector<Bdd>{f});
}

size_t BddManager::node_count(const std::vector<Bdd>& roots) {
  if (visit_epoch_.size() < 2 * nodes_.size())
    visit_epoch_.resize(2 * nodes_.size(), 0);
  ++epoch_;
  visit_stack_.clear();
  for (const Bdd& r : roots) {
    POLIS_CHECK(r.mgr_ == this);
    visit_stack_.push_back(r.idx_);
  }
  // Phase-pair counting: each reachable (node, phase) pair is one distinct
  // subfunction, which matches the node count a kernel without complement
  // edges would report for the same functions.
  size_t count = 0;
  while (!visit_stack_.empty()) {
    const std::uint32_t h = visit_stack_.back();
    visit_stack_.pop_back();
    if (is_term(h) || visit_epoch_[h] == epoch_) continue;
    visit_epoch_[h] = epoch_;
    ++count;
    const Node& n = nodes_[idx_of(h)];
    visit_stack_.push_back(n.lo ^ comp_of(h));
    visit_stack_.push_back(n.hi ^ comp_of(h));
  }
  return count;
}

size_t BddManager::shared_node_count(const Bdd& f) {
  POLIS_CHECK(f.mgr_ == this);
  if (visit_epoch_.size() < 2 * nodes_.size())
    visit_epoch_.resize(2 * nodes_.size(), 0);
  ++epoch_;
  visit_stack_.clear();
  visit_stack_.push_back(idx_of(f.idx_));
  size_t count = 0;
  while (!visit_stack_.empty()) {
    const std::uint32_t n = visit_stack_.back();
    visit_stack_.pop_back();
    if (n == 0 || visit_epoch_[n] == epoch_) continue;
    visit_epoch_[n] = epoch_;
    ++count;
    visit_stack_.push_back(idx_of(nodes_[n].lo));
    visit_stack_.push_back(idx_of(nodes_[n].hi));
  }
  return count;
}

size_t BddManager::mark_live() {
  if (visit_epoch_.size() < 2 * nodes_.size())
    visit_epoch_.resize(2 * nodes_.size(), 0);
  ++epoch_;
  visit_stack_.clear();
  // Roots = every registered handle; duplicates collapse on the epoch check.
  for (const Bdd* h = handle_head_; h != nullptr; h = h->next_)
    visit_stack_.push_back(h->idx_);
  size_t count = 0;
  while (!visit_stack_.empty()) {
    const std::uint32_t h = visit_stack_.back();
    visit_stack_.pop_back();
    if (is_term(h) || visit_epoch_[h] == epoch_) continue;
    visit_epoch_[h] = epoch_;
    ++count;
    const Node& n = nodes_[idx_of(h)];
    visit_stack_.push_back(n.lo ^ comp_of(h));
    visit_stack_.push_back(n.hi ^ comp_of(h));
  }
  return count;
}

size_t BddManager::live_node_count() { return mark_live(); }

BddManager::LiveCounts::LiveCounts(BddManager& mgr) : mgr_(mgr) {
  POLIS_CHECK_MSG(!mgr.has_live_counts(), "LiveCounts sessions do not nest");
  // Pruning first makes every chained node live, the invariant the swaps
  // keep: a node is freed the moment its last live phase loses its last
  // reference.
  mgr.prune_dead_nodes();
  try {
    mgr.refs_.assign(2 * mgr.nodes_.capacity(), 0);
  } catch (const std::bad_alloc&) {
    throw BudgetExceeded(BudgetExceeded::Kind::kAllocation,
                         "BDD live-count allocation failed");
  }
  mgr.counted_live_ = 0;
  mgr.session_freed_ = 0;
  // One reference per registered handle, so aliased roots stay counted
  // until their last handle is gone.
  for (const Bdd* h = mgr.handle_head_; h != nullptr; h = h->next_)
    mgr.ref_pair(h->idx_);
}

BddManager::LiveCounts::~LiveCounts() {
  std::vector<std::uint32_t>().swap(mgr_.refs_);
  if (mgr_.session_freed_ != 0) {
    // Cached results may name freed slots, which the free list recycles
    // into different functions.
    mgr_.cache_clear();
    mgr_.stats_.nodes_reclaimed += mgr_.session_freed_;
  }
}

void BddManager::ref_pair(std::uint32_t h) {
  if (is_term(h) || refs_[h]++ != 0) return;
  ++counted_live_;
  const Node& n = nodes_[idx_of(h)];
  ref_pair(n.lo ^ comp_of(h));
  ref_pair(n.hi ^ comp_of(h));
}

void BddManager::deref_pair(std::uint32_t h) {
  if (is_term(h) || --refs_[h] != 0) return;
  --counted_live_;
  const Node& n = nodes_[idx_of(h)];
  deref_pair(n.lo ^ comp_of(h));
  deref_pair(n.hi ^ comp_of(h));
  if (refs_[negate(h)] == 0) free_node(idx_of(h));
}

void BddManager::free_node(std::uint32_t i) {
  Node& n = nodes_[i];
  Subtable& st = subtables_[n.var];
  std::uint32_t* link =
      &st.buckets[hash_children(n.lo, n.hi) & (st.buckets.size() - 1)];
  while (*link != i) link = &nodes_[*link].next;
  *link = n.next;
  --st.count;
  n.var = kDeadVar;
  n.next = free_head_;
  free_head_ = i;
  ++session_freed_;
}

// --- Reordering / memory ---------------------------------------------------------

size_t BddManager::swap_adjacent_levels(int level) {
  POLIS_CHECK_MSG(level >= 0 && level + 1 < num_vars(),
                  "swap_adjacent_levels: level " << level << " out of range");
  const int x = invperm_[static_cast<size_t>(level)];      // upper var
  const int y = invperm_[static_cast<size_t>(level + 1)];  // lower var
  const std::uint32_t xv = static_cast<std::uint32_t>(x);
  const std::uint32_t yv = static_cast<std::uint32_t>(y);
  // Nodes labelled x are rewritten in place: their indices survive but the
  // order (and for cross-manager consumers, the shape) changes — stale
  // CopyCache translations keyed on this manager must not survive.
  ++structure_epoch_;

  // The swap body is not unwindable once x's chains are stolen, so every
  // throwing path is moved in front of it: reject if the worst case (two
  // fresh nodes per x-node) could hit the hard arena cap, pre-reserve the
  // arena (and the live counts, when held) so no reallocation happens
  // mid-swap, and suspend the governor so injected faults and budget trips
  // cannot fire inside the rewrite. The budget is re-checked by the caller
  // between swaps (sift polls after each step), so suspension here delays a
  // trip by at most one swap.
  ResourceGovernor::Suspend suspend;
  const bool counting = has_live_counts();
  const size_t worst_new = 2 * static_cast<size_t>(subtables_[xv].count);
  if (nodes_.size() + worst_new > max_arena_nodes_)
    throw BudgetExceeded(
        BudgetExceeded::Kind::kNodes,
        "BDD arena would exceed the handle-space cap during a level swap");
  try {
    nodes_.reserve(nodes_.size() + worst_new);
    if (counting && refs_.size() < 2 * nodes_.capacity())
      refs_.resize(2 * nodes_.capacity(), 0);
    // Pre-grow both subtables so no insertion during the rewrite can trigger
    // a (potentially throwing) growth: x's table can end up holding its old
    // nodes plus two fresh children per rewritten node (≤ 3× its count), y's
    // gains at most every stolen node.
    Subtable& stx_pre = subtables_[xv];
    Subtable& sty_pre = subtables_[yv];
    if (stx_pre.buckets.empty()) stx_pre.buckets.assign(kInitBuckets, kNil);
    if (sty_pre.buckets.empty()) sty_pre.buckets.assign(kInitBuckets, kNil);
    while (3 * static_cast<size_t>(stx_pre.count) >
           stx_pre.buckets.size() * kMaxChainLoad)
      grow_subtable(stx_pre);
    while (static_cast<size_t>(sty_pre.count) +
               static_cast<size_t>(stx_pre.count) >
           sty_pre.buckets.size() * kMaxChainLoad)
      grow_subtable(sty_pre);
  } catch (const std::bad_alloc&) {
    throw BudgetExceeded(BudgetExceeded::Kind::kAllocation,
                         "BDD arena reservation for a level swap failed");
  }

  // Only nodes labelled x can change: a node x ? f1 : f0 whose cofactors
  // depend on y is relabelled, in place, to
  //   y ? (x ? f11 : f01) : (x ? f10 : f00),
  // preserving its function (and hence its index, all handles and the
  // computed cache). The canonical form survives too: the stored then-edge
  // f1 is regular, so f11 — and with it the rewritten then-edge
  // x ? f11 : f01 — is regular. Nodes labelled x with y-free cofactors just
  // ride to the lower level untouched; all other nodes are unaffected.
  //
  // Steal x's chains wholesale, then reinsert in two passes: y-independent
  // nodes first, so the find_or_add calls of the rewrite pass hash-cons
  // against them (a rewrite's new children are y-free x-nodes, which can
  // never equal a pending rewrite — those still have a y-labelled child).
  Subtable& stx = subtables_[static_cast<size_t>(x)];
  swap_scratch_.clear();
  for (std::uint32_t& head : stx.buckets) {
    for (std::uint32_t n = head; n != kNil; n = nodes_[n].next)
      swap_scratch_.push_back(n);
    head = kNil;
  }
  stx.count = 0;

  size_t deps = 0;
  for (const std::uint32_t n : swap_scratch_) {
    const std::uint32_t f1 = nodes_[n].hi;  // regular by canonical form
    const std::uint32_t f0 = nodes_[n].lo;  // may carry a complement edge
    const bool hi_dep = !is_term(f1) && nodes_[idx_of(f1)].var == yv;
    const bool lo_dep = !is_term(f0) && nodes_[idx_of(f0)].var == yv;
    if (hi_dep || lo_dep) {
      swap_scratch_[deps++] = n;  // rewrite below
    } else {
      subtable_insert(xv, n);  // rides to the lower level untouched
    }
  }
  for (size_t i = 0; i < deps; ++i) {
    const std::uint32_t n = swap_scratch_[i];
    const std::uint32_t f1 = nodes_[n].hi;
    const std::uint32_t f0 = nodes_[n].lo;
    const std::uint32_t f0c = comp_of(f0);
    const bool hi_dep = !is_term(f1) && nodes_[idx_of(f1)].var == yv;
    const bool lo_dep = !is_term(f0) && nodes_[idx_of(f0)].var == yv;
    // Grandchildren as functions: f0's complement bit flows into its
    // children. f11 stays regular (then-edge of a regular then-edge).
    const std::uint32_t f11 = hi_dep ? nodes_[idx_of(f1)].hi : f1;
    const std::uint32_t f10 = hi_dep ? nodes_[idx_of(f1)].lo : f1;
    const std::uint32_t f01 = lo_dep ? nodes_[idx_of(f0)].hi ^ f0c : f0;
    const std::uint32_t f00 = lo_dep ? nodes_[idx_of(f0)].lo ^ f0c : f0;
    // The grandchildren sit strictly below both levels, so these lookups
    // can only hit (or create) y-free x-nodes — never a pending rewrite.
    // new_hi is regular because f11 is, so rewriting the node in place
    // keeps it in canonical form and its function unchanged.
    const std::uint32_t new_hi = find_or_add(xv, f01, f11);
    const std::uint32_t new_lo = find_or_add(xv, f00, f10);
    nodes_[n].var = yv;
    nodes_[n].lo = new_lo;
    nodes_[n].hi = new_hi;
    subtable_insert(yv, n);
    if (!counting) continue;
    // Move each live phase's references from the old children to the new
    // ones. Increments go first, so the grandchildren — all still reached
    // through the new x-nodes — never touch zero; only old y-children can
    // die, and they are freed on the spot. A pending rewrite's children
    // hold a reference from it, so no slot it reads can be recycled.
    for (std::uint32_t phase = 0; phase < 2; ++phase) {
      if (refs_[(n << 1) | phase] == 0) continue;
      ref_pair(new_hi ^ phase);
      ref_pair(new_lo ^ phase);
      deref_pair(f1 ^ phase);
      deref_pair(f0 ^ phase);
    }
  }
  std::swap(invperm_[static_cast<size_t>(level)],
            invperm_[static_cast<size_t>(level + 1)]);
  perm_[static_cast<size_t>(x)] = level + 1;
  perm_[static_cast<size_t>(y)] = level;
  return deps;
}

std::uint32_t BddManager::transfer_from(BddManager& src, std::uint32_t f,
                                        std::vector<std::uint32_t>& memo) {
  if (src.is_term(f)) return f;  // terminal handles agree across managers
  // Memoise the image of the regular function per source node; a
  // complemented caller gets the free complement of the memoised image.
  const std::uint32_t fc = comp_of(f);
  const std::uint32_t fi = idx_of(f);
  if (memo[fi] != kNil) return memo[fi] ^ fc;
  const Node n = src.nodes_[fi];
  const std::uint32_t lo = transfer_from(src, n.lo, memo);
  const std::uint32_t hi = transfer_from(src, n.hi, memo);
  const std::uint32_t v_h =
      find_or_add(n.var, kZero, kOne);  // the variable itself
  const std::uint32_t r = ite_rec(v_h, hi, lo);
  memo[fi] = r;
  return r ^ fc;
}

std::uint32_t BddManager::copy_rec(const BddManager& src, std::uint32_t f,
                                   CopyCache& cache) {
  if (src.is_term(f)) return f;  // terminal handles agree across managers
  // Memoise the image of the regular function per source node; a
  // complemented caller gets the free complement of the cached image.
  const std::uint32_t fc = comp_of(f);
  const std::uint32_t fr = regular(f);
  const auto it = cache.map_.find(fr);
  if (it != cache.map_.end()) {
    ++stats_.copy_cache_hits;
    return it->second.idx_ ^ fc;
  }
  const Node n = src.nodes_[idx_of(f)];
  const std::uint32_t lo = copy_rec(src, n.lo, cache);
  const std::uint32_t hi = copy_rec(src, n.hi, cache);
  // Both managers share the variable order, `hi` is regular by induction
  // (the source stores it regular), and lo != hi in the source implies
  // lo != hi here (injectivity per level, bottom up) — so this is exactly
  // the stored-node constellation and find_or_add never re-normalises. The
  // image of a regular handle is therefore regular: canonical form and
  // function-equality-is-handle-equality carry over verbatim.
  const std::uint32_t r = find_or_add(n.var, lo, hi);
  cache.map_.emplace(fr, Bdd(this, r));
  ++stats_.copy_nodes;
  return r ^ fc;
}

Bdd BddManager::copy_across(const Bdd& f, CopyCache& cache) {
  POLIS_CHECK_MSG(f.mgr_ != nullptr, "copy_across: null source handle");
  const BddManager& src = *f.mgr_;
  if (&src == this) return f;
  POLIS_CHECK_MSG(src.invperm_ == invperm_,
                  "copy_across requires identical variable sets and orders");
  if (cache.src_ != &src || cache.dst_ != this ||
      cache.src_epoch_ != src.structure_epoch_) {
    // First use, rebinding, or the source renumbered/recycled arena slots
    // since the cache was filled: raw source indices are no longer valid
    // keys, start over.
    if (!cache.map_.empty()) ++stats_.copy_cache_resets;
    cache.map_.clear();
    cache.src_ = &src;
    cache.dst_ = this;
    cache.src_epoch_ = src.structure_epoch_;
  }
  ++stats_.copy_across_calls;
  return make(copy_rec(src, f.idx_, cache));
}

std::vector<std::uint32_t> BddManager::live_roots() const {
  // Distinct non-terminal tagged handles over the registered-handle list,
  // first-seen order.
  std::vector<std::uint32_t> out;
  std::unordered_set<std::uint32_t> seen;
  for (const Bdd* h = handle_head_; h != nullptr; h = h->next_) {
    if (h->idx_ > kZero && seen.insert(h->idx_).second) out.push_back(h->idx_);
  }
  return out;
}

std::vector<size_t> BddManager::var_node_profile() {
  std::vector<size_t> profile(static_cast<size_t>(num_vars()), 0);
  mark_live();
  // Every tagged handle marked with the current epoch is a live
  // subfunction; bucket it by the var of its node (phase-pair counting,
  // matching node_count).
  const size_t limit = 2 * nodes_.size();
  for (std::uint32_t h = 2; h < limit; ++h) {
    if (visit_epoch_[h] == epoch_) profile[nodes_[idx_of(h)].var]++;
  }
  return profile;
}

void BddManager::set_order(const std::vector<int>& order) {
  POLIS_CHECK_MSG(static_cast<int>(order.size()) == num_vars(),
                  "order must mention every variable exactly once");
  std::vector<bool> seen(order.size(), false);
  for (int v : order) {
    check_var(v);
    POLIS_CHECK_MSG(!seen[static_cast<size_t>(v)], "duplicate var in order");
    seen[static_cast<size_t>(v)] = true;
  }

  // Like swap_adjacent_levels: the rebuild is a reorganization, not growth
  // (old and new arenas only coexist transiently), so suspend the governor —
  // a budget trip or injected fault mid-transfer would leave nothing for the
  // caller to degrade to. Charges are still recorded; the caller's next
  // governed operation re-checks the budget.
  ResourceGovernor::Suspend suspend;
  BddManager scratch;
  for (int i = 0; i < num_vars(); ++i) scratch.new_var(names_[static_cast<size_t>(i)]);
  scratch.invperm_ = order;
  for (int lvl = 0; lvl < num_vars(); ++lvl)
    scratch.perm_[static_cast<size_t>(order[static_cast<size_t>(lvl)])] = lvl;

  // Retarget every handle to its image in the scratch arena. The old arena
  // stays intact for the whole loop, so handles sharing an index and index
  // coincidences between old and new values are both harmless.
  std::vector<std::uint32_t> memo(nodes_.size(), kNil);
  for (Bdd* h = handle_head_; h != nullptr; h = h->next_) {
    h->idx_ = scratch.transfer_from(*this, h->idx_, memo);
  }

  nodes_ = std::move(scratch.nodes_);
  subtables_ = std::move(scratch.subtables_);
  perm_ = std::move(scratch.perm_);
  invperm_ = std::move(scratch.invperm_);
  free_head_ = kNil;
  ++structure_epoch_;  // every raw index was renumbered
  cache_clear();
  visit_epoch_.assign(2 * nodes_.size(), 0);
  stats_.peak_nodes = std::max(stats_.peak_nodes, nodes_.size());
}

void BddManager::garbage_collect() {
  OBS_SPAN(span, "bdd.gc", "bdd");
  const size_t before = nodes_.size();
  mark_live();
  const auto live = [&](std::uint32_t i) {
    return visit_epoch_[2 * i] == epoch_ || visit_epoch_[2 * i + 1] == epoch_;
  };

  // Compact into a fresh arena ordered level by level (top first): after a
  // collection the nodes of one variable occupy a contiguous run, which is
  // the access pattern of swap_adjacent_levels and of the apply recursions
  // (both touch one level at a time). In-place monotone remapping cannot
  // produce this layout, so the collection builds a new vector.
  std::vector<std::vector<std::uint32_t>> by_level(
      static_cast<size_t>(num_vars()));
  size_t live_count = 0;
  for (std::uint32_t i = 1; i < nodes_.size(); ++i) {
    if (nodes_[i].var == kDeadVar) continue;  // free-list slot
    if (live(i)) {
      by_level[static_cast<size_t>(perm_[nodes_[i].var])].push_back(i);
      ++live_count;
    }
  }

  std::vector<std::uint32_t> remap(nodes_.size(), kNil);
  remap[0] = 0;  // the terminal is a fixed point
  std::vector<Node> fresh;
  fresh.reserve(1 + live_count);
  fresh.push_back(nodes_[0]);
  for (const auto& bucket : by_level) {
    for (const std::uint32_t i : bucket) {
      remap[i] = static_cast<std::uint32_t>(fresh.size());
      fresh.push_back(nodes_[i]);
    }
  }
  // Children point strictly downward, so the full remap is ready before any
  // child handle is rewritten (complement bits ride along unchanged).
  for (size_t i = 1; i < fresh.size(); ++i) {
    Node& n = fresh[i];
    n.lo = (remap[idx_of(n.lo)] << 1) | comp_of(n.lo);
    n.hi = remap[idx_of(n.hi)] << 1;  // then-edges are regular
    n.next = kNil;
  }
  nodes_ = std::move(fresh);

  for (Subtable& st : subtables_) {
    std::fill(st.buckets.begin(), st.buckets.end(), kNil);
    st.count = 0;
  }
  for (std::uint32_t i = 1; i < nodes_.size(); ++i)
    subtable_insert(nodes_[i].var, i);

  for (Bdd* h = handle_head_; h != nullptr; h = h->next_) {
    if (h->idx_ > kZero)
      h->idx_ = (remap[idx_of(h->idx_)] << 1) | comp_of(h->idx_);
  }

  free_head_ = kNil;
  ++structure_epoch_;  // compaction renumbered every surviving index
  cache_clear();
  visit_epoch_.assign(2 * nodes_.size(), 0);
  if (before > nodes_.size()) {
    ++stats_.gc_runs;
    stats_.nodes_reclaimed += before - nodes_.size();
    // Refund the compacted-away nodes so a governor metering several
    // manager lifetimes tracks live usage. Clamped to what was actually
    // charged (a manager created outside any governor scope charges 0).
    const std::uint64_t freed = before - nodes_.size();
    const std::uint64_t node_refund = std::min(freed, gov_charged_nodes_);
    const std::uint64_t byte_refund =
        std::min(freed * sizeof(Node), gov_charged_bytes_);
    if (node_refund != 0 || byte_refund != 0) {
      gov_charged_nodes_ -= node_refund;
      gov_charged_bytes_ -= byte_refund;
      ResourceGovernor::charge_arena_current(
          -static_cast<int64_t>(node_refund),
          -static_cast<int64_t>(byte_refund));
    }
  }
  if (span.armed()) {
    span.arg("arena_before", before);
    span.arg("arena_after", nodes_.size());
  }
}

size_t BddManager::prune_dead_nodes() {
  OBS_SPAN(span, "bdd.prune", "bdd");
  mark_live();  // leaves the liveness epoch in visit_epoch_
  // A node is live iff either of its phases is a live subfunction.
  const auto live = [&](std::uint32_t i) {
    return visit_epoch_[2 * i] == epoch_ || visit_epoch_[2 * i + 1] == epoch_;
  };
  size_t removed = 0;
  for (Subtable& st : subtables_) {
    for (std::uint32_t& head : st.buckets) {
      std::uint32_t* link = &head;
      while (*link != kNil) {
        const std::uint32_t n = *link;
        if (live(n)) {
          link = &nodes_[n].next;
        } else {
          *link = nodes_[n].next;
          nodes_[n].var = kDeadVar;
          nodes_[n].next = free_head_;
          free_head_ = n;
          --st.count;
          ++removed;
        }
      }
    }
  }
  if (removed > 0) {
    // Cached results may reference pruned slots, which the free list will
    // recycle into different functions; drop the cache. Cross-manager
    // translation caches keyed on this manager are stale for the same
    // reason — advance the structure epoch so they self-invalidate.
    cache_clear();
    ++structure_epoch_;
    ++stats_.gc_runs;
    stats_.nodes_reclaimed += removed;
  }
  if (span.armed()) span.arg("pruned", removed);
  return removed;
}

size_t BddManager::size_under_order(const std::vector<int>& order) {
  POLIS_CHECK(static_cast<int>(order.size()) == num_vars());
  BddManager scratch;
  for (int i = 0; i < num_vars(); ++i) scratch.new_var();
  scratch.invperm_ = order;
  for (int lvl = 0; lvl < num_vars(); ++lvl)
    scratch.perm_[static_cast<size_t>(order[static_cast<size_t>(lvl)])] = lvl;

  std::vector<std::uint32_t> memo(nodes_.size(), kNil);
  std::vector<Bdd> roots;
  for (std::uint32_t h : live_roots()) {
    const std::uint32_t r = scratch.transfer_from(*this, h, memo);
    roots.push_back(scratch.make(r));
  }
  return scratch.node_count(roots);
}

}  // namespace polis::bdd
