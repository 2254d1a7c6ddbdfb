// A from-scratch ROBDD package (Bryant [10]) in the style the paper relies
// on: unique table for canonicity, ITE with a computed cache, cofactors,
// smoothing (existential quantification, §II-C), support computation, and
// order replacement used by the sifting reorderer (Rudell [31]).
//
// The kernel follows Brace–Rudell–Bryant ("Efficient Implementation of a BDD
// Package") and Somenzi's CUDD:
//
//   * Handles carry a complement edge in their low bit: handle = index << 1 |
//     negated. There is a single terminal node (arena slot 0, the constant
//     one); false is its complement. NOT is a pointer flip — no recursion, no
//     cache traffic, no memo table — and a function and its negation share
//     every node, roughly halving node counts. Canonical form: the then-edge
//     of a stored node is never complemented (`find_or_add` complements both
//     children and returns a negated handle instead), so each Boolean
//     function has exactly one representation.
//   * The unique table is split into per-variable subtables. Each subtable is
//     an open-addressed bucket array whose collision chains are intrusive
//     `next` indices threaded through the node arena — no separate hash-map
//     nodes, no per-insert allocation. The chains double as the per-variable
//     node enumeration that `swap_adjacent_levels` rewrites.
//   * All operation results go through one fixed-size, power-of-two, lossy
//     computed cache, tagged by operation. Dedicated 2-operand AND and XOR
//     apply paths run beside generic ITE (the `&`, `|`, `^` operators route
//     to them; OR is ¬(¬f ∧ ¬g), free under complement edges). Cache keys are
//     normalised under complementation — ITE is stored with regular f and g,
//     XOR with both operands regular — so one entry serves a function and its
//     negation (four functions, for XOR). Collisions simply overwrite;
//     hit/miss/eviction counters feed the bench harnesses and a high-load
//     policy grows the cache while it keeps earning hits over a windowed
//     hit rate — doubling normally, jumping straight to the working size on
//     a strongly-hitting window (the window restarts whenever the cache is
//     cleared, so a resize decision can never be taken on a stale or empty
//     window right after a GC).
//   * Garbage collection roots come straight from the handle registry: the
//     intrusive list of live `Bdd` handles IS the root set, so handle
//     construction/destruction costs a couple of pointer stores and no
//     refcount traffic. `prune_dead_nodes` marks from the registered handles
//     and unlinks dead nodes from the subtable chains onto an intrusive free
//     list (slots are recycled by the next allocation); `garbage_collect`
//     compacts the arena level by level — nodes of one variable end up
//     contiguous, so `swap_adjacent_levels` and the apply loops walk hot
//     cachelines — and rehashes the subtables. Reference counts exist only
//     inside a sift (`LiveCounts`): per (node, phase) pair, maintained by
//     the level swaps alone, so the sift objective is an O(1) read.
//
// Handles (`Bdd`) are registered with their `BddManager` on an intrusive
// doubly-linked list (registration is O(1) and allocation-free), which lets
// the manager retarget every live handle when the variable order changes or
// when the node arena is compacted. Handles must not outlive their manager;
// if the manager is destroyed first, surviving handles become null.
//
// A manager and its handles are confined to one thread; share-nothing
// parallelism (one manager per CFSM, as in `synthesize_network`) is the
// supported concurrency model.
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace polis::bdd {

class BddManager;

/// Reference-style handle to a BDD node; copyable, registered with the
/// manager so that reordering can update it in place.
class Bdd {
 public:
  Bdd() = default;
  Bdd(const Bdd& other);
  Bdd(Bdd&& other) noexcept;
  Bdd& operator=(const Bdd& other);
  Bdd& operator=(Bdd&& other) noexcept;
  ~Bdd();

  bool is_null() const { return mgr_ == nullptr; }
  bool is_zero() const;
  bool is_one() const;
  bool is_constant() const { return is_zero() || is_one(); }

  BddManager* manager() const { return mgr_; }
  /// Tagged handle: node index << 1 | complement bit. Equal raw indices on
  /// the same manager denote equal functions (and vice versa), so this is a
  /// valid memoisation key; it is NOT an arena subscript.
  std::uint32_t raw_index() const { return idx_; }
  /// True when this handle reaches its node through a complement edge.
  bool is_complemented() const { return (idx_ & 1u) != 0; }

  /// Variable id labelling the top node. Requires a non-constant BDD.
  int top_var() const;

  /// Children of the top node as functions (the parent's complement bit is
  /// pushed into them). Requires a non-constant BDD.
  Bdd high() const;
  Bdd low() const;

  // Boolean operations (delegate to the manager).
  Bdd operator&(const Bdd& o) const;
  Bdd operator|(const Bdd& o) const;
  Bdd operator^(const Bdd& o) const;
  Bdd operator!() const;
  bool operator==(const Bdd& o) const {
    return mgr_ == o.mgr_ && idx_ == o.idx_;
  }
  bool operator!=(const Bdd& o) const { return !(*this == o); }

 private:
  friend class BddManager;
  Bdd(BddManager* mgr, std::uint32_t idx);
  void attach(BddManager* mgr, std::uint32_t idx);
  void detach();
  /// Takes over `other`'s registry slot (move construction/assignment):
  /// no refcount traffic, just neighbour pointer fixups.
  void splice(Bdd& other) noexcept;

  BddManager* mgr_ = nullptr;
  std::uint32_t idx_ = 0;
  // Intrusive registry links (owned by the manager).
  Bdd* prev_ = nullptr;
  Bdd* next_ = nullptr;
};

/// Kernel counters, snapshotted by `BddManager::stats()`. All counts are
/// cumulative since construction (or the last `reset_stats`).
struct KernelStats {
  // Top-level operation counts.
  std::uint64_t ite_calls = 0;  // public ite()/band/bor/bxor entries
  std::uint64_t and_apply_calls = 0;  // top-level 2-operand AND/OR applies
  std::uint64_t xor_apply_calls = 0;  // top-level 2-operand XOR applies
  // Computed cache.
  std::uint64_t cache_lookups = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_inserts = 0;
  std::uint64_t cache_evictions = 0;  // overwrites of a different live entry
  std::uint64_t cache_resizes = 0;
  std::size_t cache_capacity = 0;  // current entry count (power of two)
  // Unique table.
  std::uint64_t unique_lookups = 0;
  std::uint64_t unique_hits = 0;
  // Arena.
  std::size_t arena_nodes = 0;  // allocated slots (live + garbage + free)
  std::size_t peak_nodes = 0;   // high-water arena size
  std::uint64_t nodes_created = 0;
  std::uint64_t nodes_recycled = 0;  // allocations served from the free list
  // Garbage collection.
  std::uint64_t gc_runs = 0;  // prune or compaction passes that freed nodes
  std::uint64_t nodes_reclaimed = 0;
  // Relational product (and_exists).
  std::uint64_t and_exists_calls = 0;       // top-level invocations
  std::uint64_t and_exists_recursions = 0;  // recursive steps taken
  std::uint64_t and_exists_cache_hits = 0;  // computed-cache hits on kOpAndExists
  // Simultaneous variable substitution (rename).
  std::uint64_t rename_calls = 0;  // top-level invocations
  // Cross-manager migration (copy_across; counters on the destination).
  std::uint64_t copy_across_calls = 0;     // top-level invocations
  std::uint64_t copy_nodes = 0;            // nodes materialised in this manager
  std::uint64_t copy_cache_hits = 0;       // translation-cache hits
  std::uint64_t copy_cache_resets = 0;     // cache invalidations (epoch/rebind)

  double cache_hit_rate() const {
    return cache_lookups == 0
               ? 0.0
               : static_cast<double>(cache_hits) /
                     static_cast<double>(cache_lookups);
  }
};

/// Memoised node-translation cache for `BddManager::copy_across`. Maps
/// regular source handles to their images in the destination manager; the
/// values are registered `Bdd` handles, so they both survive and are
/// retargeted by destination-side garbage collection — a warm cache stays
/// valid across destination GCs. Source-side validity is tracked by the
/// source manager's structure epoch: any operation that can reuse or
/// renumber source arena slots (compaction, pruning, reordering) bumps the
/// epoch and the next `copy_across` discards the cache. One cache binds one
/// (source, destination) pair; pass it back to the same pair to reuse
/// translations across calls (the parallel reachability engine keeps one
/// per direction per worker for exactly this).
class CopyCache {
 public:
  CopyCache() = default;
  CopyCache(const CopyCache&) = delete;
  CopyCache& operator=(const CopyCache&) = delete;

  /// Cached translations currently held.
  std::size_t size() const { return map_.size(); }
  /// Drops all translations (the binding is re-established on next use).
  void clear() {
    map_.clear();
    src_ = nullptr;
    dst_ = nullptr;
  }

 private:
  friend class BddManager;
  const BddManager* src_ = nullptr;
  BddManager* dst_ = nullptr;
  std::uint64_t src_epoch_ = 0;
  std::unordered_map<std::uint32_t, Bdd> map_;  // regular src handle -> dst
};

/// Owns the node arena, per-variable unique subtables, computed cache and
/// variable order.
class BddManager {
 public:
  BddManager();
  explicit BddManager(int num_vars);
  ~BddManager();

  BddManager(const BddManager&) = delete;
  BddManager& operator=(const BddManager&) = delete;

  // --- Variables -------------------------------------------------------------

  /// Creates a new variable placed at the bottom of the current order.
  int new_var(std::string name = {});
  int num_vars() const { return static_cast<int>(perm_.size()); }
  const std::string& var_name(int var) const;
  void set_var_name(int var, std::string name);

  /// Level (0 = top) of `var` in the current order.
  int level_of(int var) const { return perm_[static_cast<size_t>(var)]; }
  /// Variable at `level` in the current order.
  int var_at_level(int level) const {
    return invperm_[static_cast<size_t>(level)];
  }
  /// Current order as a top-to-bottom list of variable ids.
  std::vector<int> current_order() const { return invperm_; }

  // --- Construction ----------------------------------------------------------

  Bdd zero() { return make(kZero); }
  Bdd one() { return make(kOne); }
  Bdd var(int v);
  Bdd nvar(int v);
  Bdd constant(bool b) { return b ? one() : zero(); }

  // --- Core operations ---------------------------------------------------------

  Bdd ite(const Bdd& f, const Bdd& g, const Bdd& h);
  /// Dedicated 2-operand apply paths (beside generic ITE): AND recurses on
  /// two operands with a commutatively-normalised cache key; OR is
  /// ¬(¬f ∧ ¬g) (free negations under complement edges); XOR normalises both
  /// operands to regular form so one cache entry serves all four phase
  /// combinations.
  Bdd band(const Bdd& f, const Bdd& g);
  Bdd bor(const Bdd& f, const Bdd& g);
  Bdd bxor(const Bdd& f, const Bdd& g);
  /// Complement: a pointer flip on the handle. Free — no recursion, no
  /// cache traffic, no new nodes — and `bnot(bnot(f))` is handle-identical
  /// to `f`.
  Bdd bnot(const Bdd& f);
  Bdd implies(const Bdd& f, const Bdd& g) { return ite(f, g, one()); }

  /// Restriction f|_{var=val} (cofactor, §II-C).
  Bdd cofactor(const Bdd& f, int var, bool val);

  /// Smoothing S_vars(f) = existential quantification of `vars` (§II-C).
  Bdd smooth(const Bdd& f, const std::vector<int>& vars);
  Bdd forall(const Bdd& f, const std::vector<int>& vars);

  /// Relational product ∃vars. f ∧ g — the image-computation workhorse.
  /// Conjoins and quantifies in one recursion (with its own computed-cache
  /// tag) instead of materialising f ∧ g first, so the intermediate
  /// conjunction over the quantified variables is never built.
  Bdd and_exists(const Bdd& f, const Bdd& g, const std::vector<int>& vars);

  /// Substitutes `g` for variable `var` in `f`.
  Bdd compose(const Bdd& f, int var, const Bdd& g);

  /// Registers a simultaneous variable substitution (every `first` becomes
  /// `second`, all at once) for use with `rename`. Maps are immutable and
  /// live for the manager's lifetime; the returned id is a stable computed
  /// cache key, so renames memoise across calls — in the reachability
  /// fixpoint the next→present relabel of an unchanged image subgraph is a
  /// cache hit on the next iteration.
  int register_rename(const std::vector<std::pair<int, int>>& from_to);

  /// Simultaneous substitution of variables for variables (CUDD's permute).
  /// One memoised pass over `f`; when a target variable sits above both
  /// renamed children — the interleaved present/next encoding guarantees
  /// this for next→present — each step is a single `find_or_add`, making
  /// the relabel O(nodes) instead of one `compose` traversal per variable.
  /// Falls back to ITE per node for arbitrary (support-overlapping) maps.
  Bdd rename(const Bdd& f, int map_id);

  /// Migrates `f` from its own manager into this one, structurally —
  /// memoised `find_or_add` per source node, no text round-trip and no ITE
  /// rebuild. Requires both managers to have the same variables in the same
  /// order. `cache` memoises source-node translations across calls (see
  /// `CopyCache`); it is (re)bound to this (source, destination) pair and
  /// invalidated automatically when the source's structure epoch moves.
  /// Copying preserves the complement-edge canonical form: the image of a
  /// regular handle is regular, so equal functions land on equal handles.
  Bdd copy_across(const Bdd& f, CopyCache& cache);

  /// Monotone counter bumped by every operation that can renumber or
  /// recycle arena slots (`garbage_collect`, `prune_dead_nodes`,
  /// `set_order`, `swap_adjacent_levels`). While it holds still, a raw node
  /// index keeps denoting the same function — the validity contract of
  /// `CopyCache` entries keyed on this manager as source.
  std::uint64_t structure_epoch() const { return structure_epoch_; }

  /// Coudert–Madre restrict (sibling substitution): a function equal to `f`
  /// wherever `care` holds, heuristically minimised using ¬care as don't
  /// care. Used to exploit false-path information (§III-C) without growing
  /// the result the way f∧care would.
  Bdd restrict(const Bdd& f, const Bdd& care);

  // --- Queries -----------------------------------------------------------------

  /// Variables `f` essentially depends on (§II-C definition of support).
  std::set<int> support(const Bdd& f);

  /// Evaluates under a total assignment.
  bool eval(const Bdd& f, const std::function<bool(int)>& assignment);

  /// Number of minterms over `nvars` variables. Scaling uses exact ldexp
  /// 2^k factors (no underflowing per-node fractions), so wide encodings
  /// count exactly up to the 2^53 integer precision of double.
  double sat_count(const Bdd& f, int nvars);

  /// One satisfying assignment as (var, value) pairs over support vars.
  /// Requires a satisfiable f.
  std::vector<std::pair<int, bool>> one_sat(const Bdd& f);

  /// Distinct internal subfunctions reachable from `f` — each (node, phase)
  /// pair counts once, so the number matches the node count of a
  /// non-complement-edge BDD and the sifting objective is unchanged by the
  /// tagged representation. Terminals are excluded so the count agrees with
  /// `var_node_profile`.
  size_t node_count(const Bdd& f);
  /// As above over several roots (shared subfunctions counted once).
  size_t node_count(const std::vector<Bdd>& roots);
  /// Physical nodes reachable from `f` in the shared arena: a function and
  /// its complement count once. This is the complement-edge win over
  /// `node_count`.
  size_t shared_node_count(const Bdd& f);
  /// Total node slots in the arena (live + garbage + free).
  size_t arena_size() const { return nodes_.size(); }

  /// Bytes held by the node arena and computed cache — what the governor's
  /// arena-bytes cap meters.
  size_t arena_bytes() const {
    return nodes_.capacity() * sizeof(Node) +
           cache_.capacity() * sizeof(CacheEntry);
  }

  /// Nodes currently threaded on the unique-table chains (live + garbage,
  /// excluding recycled free slots). The gap to the physically live count is
  /// the garbage a `prune_dead_nodes` would reclaim — the reachability
  /// fixpoint's GC trigger.
  size_t table_node_count() const {
    size_t total = 0;
    for (const Subtable& st : subtables_) total += st.count;
    return total;
  }

  /// Kernel counter snapshot (cache hit rates, peak nodes, GC work).
  KernelStats stats() const;
  /// Clears the cumulative counters; `peak_nodes` restarts from the current
  /// arena size.
  void reset_stats();

  /// Drains the stats counted since the last flush into the process-wide
  /// registry ("bdd.*"; flushing twice adds nothing). The destructor flushes
  /// too, so short-lived managers are never lost from a `--metrics` snapshot.
  void flush_stats_to_obs();

  // --- Reordering / memory -----------------------------------------------------

  /// Replaces the variable order; `order` is a permutation of all var ids,
  /// top to bottom. All registered handles are retargeted.
  void set_order(const std::vector<int>& order);

  /// Rudell's adjacent-level swap: exchanges the variables at `level` and
  /// `level + 1` by rewriting, in place, only the nodes labelled with the
  /// upper variable. Every surviving node index keeps denoting the same
  /// Boolean function (the canonical regular-then-edge form is preserved
  /// through the rewrite), so registered handles and the unique table stay
  /// valid — no arena rebuild. Old children of rewritten nodes may be
  /// orphaned: while `LiveCounts` are held the swap updates them and frees
  /// the orphans on the spot; otherwise they stay on the chains until the
  /// next `prune_dead_nodes`. Returns the number of nodes rewritten.
  size_t swap_adjacent_levels(int level);

  /// Sift-scoped exact live counts: one reference count per (node, phase)
  /// pair, built from the registered handles when the session opens (after
  /// one `prune_dead_nodes`) and kept exact by every `swap_adjacent_levels`
  /// while the session lasts, so the sifting objective reads in O(1) and the
  /// unique table never holds garbage. The registered handle set must not
  /// change while a session is open. Closing the session drops the counts
  /// and clears the computed cache if a swap freed any node. Sessions do not
  /// nest; the apply/ITE paths never touch the counts.
  class LiveCounts {
   public:
    explicit LiveCounts(BddManager& mgr);
    ~LiveCounts();
    LiveCounts(const LiveCounts&) = delete;
    LiveCounts& operator=(const LiveCounts&) = delete;

    /// Equals `live_node_count()`, in O(1).
    size_t live() const { return mgr_.counted_live_; }

   private:
    BddManager& mgr_;
  };

  /// True while a `LiveCounts` session is open on this manager.
  bool has_live_counts() const { return !refs_.empty(); }

  /// Distinct internal subfunctions reachable from the registered handles
  /// (terminals excluded): the sifting objective, phase-counted like
  /// `node_count`. O(live) per call: an epoch-marked traversal seeded from
  /// the handle registry (aliased handles collapse on the mark).
  size_t live_node_count();

  /// Compacts the arena, keeping only nodes reachable from live handles.
  /// Live nodes are renumbered level by level (top level first), so after a
  /// collection the nodes of one variable occupy a contiguous arena run —
  /// the layout `swap_adjacent_levels` and the apply recursions walk.
  /// Registered handles are retargeted to the compacted indices.
  void garbage_collect();

  /// Unlinks nodes unreachable from live handles from the subtable chains
  /// and pushes their slots onto the free list for recycling (the arena is
  /// not compacted). O(arena), no handle retargeting — cheap enough for the
  /// sifting hot loop. Returns the number of nodes pruned.
  size_t prune_dead_nodes();

  /// Size (subfunction count) the live handles would have under `order`,
  /// without modifying this manager. Used by the sifting reorderer.
  size_t size_under_order(const std::vector<int>& order);

  /// Distinct tagged handles of all registered handles (live roots;
  /// terminals excluded).
  std::vector<std::uint32_t> live_roots() const;

  /// Per-variable count of live subfunctions (reachable from registered
  /// handles, phase-counted like `node_count`).
  std::vector<size_t> var_node_profile();

  /// Test/debug hook: checks the complement-edge canonical-form invariant
  /// over the whole arena — no stored node has a complemented then-edge,
  /// every stored node has distinct child handles, and children point at
  /// allocated, non-dead slots. Returns true when the arena is canonical.
  bool check_canonical_form() const;

 private:
  friend class Bdd;
  friend struct BddManagerTestPeer;  // lowers max_arena_nodes_ in tests

  struct Node {
    std::uint32_t var;
    /// Children as tagged handles. Canonical form: `hi` is always regular
    /// (complement bit clear); `lo` may carry a complement edge.
    std::uint32_t lo;
    std::uint32_t hi;
    /// Intrusive link: next node *index* in this node's unique-subtable
    /// collision chain, or next slot on the free list once the node is dead.
    std::uint32_t next;
  };

  /// Per-variable unique subtable: bucket heads into the intrusive chains.
  struct Subtable {
    std::vector<std::uint32_t> buckets;  // kNil-terminated chain heads
    std::uint32_t count = 0;             // nodes currently in the chains
  };

  /// One lossy computed-cache entry, packed to 16 bytes so a probe touches
  /// exactly one cacheline. `key0` folds the op tag into the top 4 bits of
  /// the first operand — sound because handles stay below 2^28 (the arena
  /// is capped at kMaxArenaNodes). `key0 == 0` marks an empty slot: every
  /// real op is >= 1, so a live entry has key0 >= 1 << kOpShift.
  struct CacheEntry {
    std::uint32_t key0 = 0;  // a | (op << kOpShift)
    std::uint32_t b = 0;
    std::uint32_t c = 0;
    std::uint32_t result = 0;
  };
  static_assert(sizeof(CacheEntry) == 16,
                "cache entries must not straddle cachelines");

  enum CacheOp : std::uint32_t {
    kOpNone = 0,
    kOpIte,        // keys normalised: f and g stored regular
    kOpAnd,        // commutative: a <= b
    kOpXor,        // commutative, both operands stored regular: a <= b
    kOpCofactor,   // b = (var << 1) | val; key stored regular
    kOpExists,     // b = positive cube; key stored regular (¬f flips to ∀)
    kOpForall,     // b = positive cube; key stored regular (¬f flips to ∃)
    kOpCompose,    // b = g, c = var; key stored regular
    kOpRestrict,   // b = care
    kOpAndExists,  // b = second conjunct, c = positive cube of the vars
    kOpRename,     // b = rename map id; key stored regular
  };

  // Tagged-handle encoding: handle = node index << 1 | complement bit. The
  // single terminal (constant one) lives at arena index 0; false is its
  // complement.
  static constexpr std::uint32_t kOne = 0;
  static constexpr std::uint32_t kZero = 1;
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::uint32_t kTermVar = 0xffffffffu;
  static constexpr std::uint32_t kDeadVar = 0xfffffffeu;
  static constexpr size_t kInitBuckets = 8;         // per-subtable
  static constexpr size_t kMaxChainLoad = 4;        // avg chain length bound
  // The initial size is a real trade-off: the whole cache is zeroed at
  // construction and on every GC clear, and `synthesize_network` /
  // `sift_by_rebuild` build one manager per CFSM (or per candidate
  // position), so a CUDD-scale initial cache taxes every small manager a
  // megabyte of memset for entries it never probes. Start at 8Ki entries
  // (128 KiB) and let the resize policy jump a strongly-hitting manager
  // straight to `kJumpCacheEntries` (see `maybe_resize_cache`).
  static constexpr size_t kInitCacheEntries = 1u << 13;
  static constexpr size_t kJumpCacheEntries = 1u << 16;
  // The ceiling matters for long symbolic fixpoints: full-dash reachability
  // issues ~10^9 cache lookups over a ~7M-node working set, and capping the
  // cache at 4Mi entries (64 MiB) evicted 455M live entries — raising the
  // cap to 64Mi entries (1 GiB, reached only after the windowed policy has
  // doubled through eleven sustained-hit-rate checkpoints) cut that run
  // from ~260 s to ~55 s. Small managers never get near it; the governor's
  // arena-bytes cap still meters the cache, so budgeted runs stay bounded.
  static constexpr size_t kMaxCacheEntries = 1u << 26;
  /// Arena ceiling (2^27 nodes ≈ 2 GiB of Node storage). Keeps every tagged
  /// handle below 2^28 so cache keys can carry the op tag in their top bits.
  static constexpr size_t kMaxArenaNodes = 1u << 27;
  static constexpr std::uint32_t kOpShift = 28;

  static constexpr std::uint32_t idx_of(std::uint32_t h) { return h >> 1; }
  static constexpr std::uint32_t comp_of(std::uint32_t h) { return h & 1u; }
  static constexpr std::uint32_t negate(std::uint32_t h) { return h ^ 1u; }
  static constexpr std::uint32_t regular(std::uint32_t h) { return h & ~1u; }

  Bdd make(std::uint32_t h) { return Bdd(this, h); }
  /// A handle is terminal iff it points at arena slot 0 (either phase).
  bool is_term(std::uint32_t h) const { return h <= kZero; }
  int level(std::uint32_t h) const {
    return is_term(h) ? kTermLevel : perm_[nodes_[idx_of(h)].var];
  }

  // Unique table. `find_or_add` is the single node constructor and enforces
  // the canonical form: a complemented then-edge complements both children
  // and returns a negated handle.
  std::uint32_t find_or_add(std::uint32_t var, std::uint32_t lo,
                            std::uint32_t hi);
  void subtable_insert(std::uint32_t var, std::uint32_t idx);
  void grow_subtable(Subtable& st);
  static std::uint32_t hash_children(std::uint32_t lo, std::uint32_t hi) {
    std::uint64_t h = (static_cast<std::uint64_t>(lo) << 32) | hi;
    h *= 0x9e3779b97f4a7c15ULL;
    return static_cast<std::uint32_t>(h >> 32);
  }

  // Computed cache.
  bool cache_lookup(std::uint32_t op, std::uint32_t a, std::uint32_t b,
                    std::uint32_t c, std::uint32_t* result);
  void cache_insert(std::uint32_t op, std::uint32_t a, std::uint32_t b,
                    std::uint32_t c, std::uint32_t result);
  void cache_clear();
  void resize_cache(size_t new_entries);
  void maybe_resize_cache();
  size_t cache_slot(std::uint32_t key0, std::uint32_t b,
                    std::uint32_t c) const {
    // Two independent multiplies (not a chained mix): the probe address is
    // on the critical path of every operation, so hash latency is ~7 cycles
    // instead of ~15. Quality is ample for a lossy direct-mapped cache.
    const std::uint64_t h =
        key0 * 0x9e3779b97f4a7c15ULL ^
        ((static_cast<std::uint64_t>(b) << 32 | c) * 0xbf58476d1ce4e5b9ULL);
    return static_cast<size_t>(h ^ (h >> 32)) & cache_mask_;
  }

  // Operations on tagged handles.
  std::uint32_t ite_rec(std::uint32_t f, std::uint32_t g, std::uint32_t h);
  std::uint32_t and_rec(std::uint32_t f, std::uint32_t g);
  std::uint32_t xor_rec(std::uint32_t f, std::uint32_t g);
  std::uint32_t or_of(std::uint32_t f, std::uint32_t g) {
    return negate(and_rec(negate(f), negate(g)));
  }
  std::uint32_t cofactor_rec(std::uint32_t f, int var, bool val);
  std::uint32_t quant_rec(std::uint32_t f, std::uint32_t cube,
                          bool existential);
  std::uint32_t and_exists_rec(std::uint32_t f, std::uint32_t g,
                               std::uint32_t cube);
  std::uint32_t compose_rec(std::uint32_t f, int var, std::uint32_t g);
  std::uint32_t rename_rec(std::uint32_t f, const std::vector<int>& map,
                           std::uint32_t map_id);
  std::uint32_t restrict_rec(std::uint32_t f, std::uint32_t care);
  std::uint32_t copy_rec(const BddManager& src, std::uint32_t f,
                         CopyCache& cache);
  /// Positive cube (ordered conjunction) of `vars`, built bottom-up.
  std::uint32_t make_cube(const std::vector<int>& vars);
  std::uint32_t transfer_from(BddManager& src, std::uint32_t f,
                              std::vector<std::uint32_t>& memo);

  // Handle registry. The intrusive doubly-linked list of registered `Bdd`
  // handles IS the root set: construction/destruction only links/unlinks
  // (no refcount traffic on the hot path), and GC / reordering walk the
  // list when they need the roots.
  void register_handle(Bdd* h);
  void unregister_handle(Bdd* h);

  /// Marks subfunctions reachable from the registered handles with a fresh
  /// epoch (one visit slot per tagged handle) and returns the subfunction
  /// count. Leaves the epoch in visit_epoch_ for callers that filter by
  /// liveness; a *node* is live iff either of its phases is marked.
  size_t mark_live();

  // Live-count maintenance (only while a LiveCounts session is open).
  // Recursion depth is bounded by the number of levels below `h`.
  void ref_pair(std::uint32_t h);
  void deref_pair(std::uint32_t h);
  /// Unlinks node `i` from its subtable chain onto the free list.
  void free_node(std::uint32_t i);

  void check_var(int v) const;

  static constexpr int kTermLevel = 0x7fffffff;

  std::vector<Node> nodes_;
  std::vector<Subtable> subtables_;   // one per variable
  std::uint32_t free_head_ = kNil;    // intrusive free list through `next`
  std::vector<CacheEntry> cache_;
  size_t cache_mask_ = 0;
  std::vector<int> perm_;     // var -> level
  std::vector<int> invperm_;  // level -> var
  std::vector<std::string> names_;
  std::vector<std::vector<int>> rename_maps_;  // map id -> var -> new var
  std::uint64_t structure_epoch_ = 0;
  Bdd* handle_head_ = nullptr;  // intrusive doubly-linked handle registry
  // Epoch-marked visit buffer for allocation-free traversals; one slot per
  // tagged handle (2 × arena slots).
  std::vector<std::uint64_t> visit_epoch_;
  std::vector<std::uint32_t> visit_stack_;
  std::vector<std::uint32_t> swap_scratch_;
  std::uint64_t epoch_ = 0;
  // Cache resize policy state: the observation window since the last resize
  // or cache clear.
  std::uint64_t cache_lookups_at_resize_ = 0;
  std::uint64_t cache_hits_at_resize_ = 0;
  std::uint64_t cache_inserts_at_resize_ = 0;
  KernelStats stats_;
  obs::MirrorState flushed_;  // what flush_stats_to_obs has published
  // Nodes/bytes this manager has charged to the ambient ResourceGovernor
  // (refunded on GC compaction and at destruction, so a governor outliving
  // many managers meters live usage, not cumulative traffic).
  std::uint64_t gov_charged_nodes_ = 0;
  std::uint64_t gov_charged_bytes_ = 0;
  // LiveCounts session state: one count per tagged handle (empty when no
  // session is open), the number of pairs with a nonzero count, and the
  // nodes the session's swaps have freed.
  std::vector<std::uint32_t> refs_;
  size_t counted_live_ = 0;
  size_t session_freed_ = 0;
  // kMaxArenaNodes, except in tests that exercise the cap.
  size_t max_arena_nodes_ = kMaxArenaNodes;
};

// --- Inline handle lifecycle -----------------------------------------------------
// Handle construction, destruction and moves sit on the hot path of every
// Boolean operation in every consumer TU; keeping the registry splices
// inline makes a temporary handle a handful of pointer stores instead of a
// chain of cross-TU calls.

inline void BddManager::register_handle(Bdd* h) {
  h->prev_ = nullptr;
  h->next_ = handle_head_;
  if (handle_head_ != nullptr) handle_head_->prev_ = h;
  handle_head_ = h;
}

inline void BddManager::unregister_handle(Bdd* h) {
  if (h->prev_ != nullptr) {
    h->prev_->next_ = h->next_;
  } else {
    handle_head_ = h->next_;
  }
  if (h->next_ != nullptr) h->next_->prev_ = h->prev_;
}

inline void Bdd::attach(BddManager* mgr, std::uint32_t idx) {
  mgr_ = mgr;
  idx_ = idx;
  if (mgr_ != nullptr) mgr_->register_handle(this);
}

inline void Bdd::detach() {
  if (mgr_ != nullptr) mgr_->unregister_handle(this);
  mgr_ = nullptr;
  idx_ = 0;
  prev_ = nullptr;
  next_ = nullptr;
}

inline void Bdd::splice(Bdd& other) noexcept {
  // Move = take over `other`'s slot in the manager's handle list: two
  // neighbour pointer fixups, no registry round trip.
  mgr_ = other.mgr_;
  idx_ = other.idx_;
  prev_ = other.prev_;
  next_ = other.next_;
  if (mgr_ != nullptr) {
    if (prev_ != nullptr) {
      prev_->next_ = this;
    } else {
      mgr_->handle_head_ = this;
    }
    if (next_ != nullptr) next_->prev_ = this;
  }
  other.mgr_ = nullptr;
  other.idx_ = 0;
  other.prev_ = nullptr;
  other.next_ = nullptr;
}

inline Bdd::Bdd(BddManager* mgr, std::uint32_t idx) { attach(mgr, idx); }

inline Bdd::Bdd(const Bdd& other) { attach(other.mgr_, other.idx_); }

inline Bdd::Bdd(Bdd&& other) noexcept { splice(other); }

inline Bdd& Bdd::operator=(const Bdd& other) {
  if (this != &other) {
    detach();
    attach(other.mgr_, other.idx_);
  }
  return *this;
}

inline Bdd& Bdd::operator=(Bdd&& other) noexcept {
  if (this != &other) {
    detach();
    splice(other);
  }
  return *this;
}

inline Bdd::~Bdd() { detach(); }

// Boolean operators forward straight into the manager; inline so the only
// out-of-line call per operation is the apply recursion itself.
inline Bdd Bdd::operator&(const Bdd& o) const {
  POLIS_CHECK_MSG(!is_null() && !o.is_null(), "Boolean op on a null BDD handle");
  return mgr_->band(*this, o);
}

inline Bdd Bdd::operator|(const Bdd& o) const {
  POLIS_CHECK_MSG(!is_null() && !o.is_null(), "Boolean op on a null BDD handle");
  return mgr_->bor(*this, o);
}

inline Bdd Bdd::operator^(const Bdd& o) const {
  POLIS_CHECK_MSG(!is_null() && !o.is_null(), "Boolean op on a null BDD handle");
  return mgr_->bxor(*this, o);
}

inline Bdd Bdd::operator!() const {
  POLIS_CHECK_MSG(!is_null(), "Boolean op on a null BDD handle");
  return mgr_->bnot(*this);
}

}  // namespace polis::bdd
