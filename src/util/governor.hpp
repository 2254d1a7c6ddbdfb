// Resource governor: cooperative budgets, deadlines and cancellation for the
// synthesis pipeline.
//
// The compiler's hot loops (BDD apply/ITE, sifting, the verification
// fixpoint, s-graph construction, RTOS simulation) are all potentially
// exponential in the input; a caller embedding the pipeline (polisc, a test,
// a long-lived service) cannot afford any of them to run unbounded or to die
// on a resource blow-up. The governor provides:
//
//   - a wall-clock deadline, a live-BDD-node budget and an arena-bytes cap
//     (`GovernorLimits`), plus a cooperative `CancellationToken`;
//   - the one budget policy (`GovernorLimits::on_budget`): fail, or walk the
//     degradation ladder. Every rung asks the ambient governor through
//     `degrading()`, `degrade_or_rethrow()` and `retry_ungoverned()`; no
//     pipeline option repeats the choice;
//   - an ambient, thread-local instance (`ResourceGovernor::current()`)
//     installed with a `Scope` RAII guard, so deep kernel code need not
//     thread a pointer through every signature;
//   - amortized polling in the style of the obs span gate: `poll()` is a
//     relaxed counter bump on the fast path and only consults the clock /
//     cancel flag every `kPollStride` calls;
//   - a split error taxonomy: `RecoverableError` (→ `BudgetExceeded`,
//     `Cancelled`) unwinds cleanly and leaves every manager usable, while
//     `CheckError` (util/check.hpp) remains fatal for genuine invariant
//     corruption;
//   - a seeded `AllocFaultPlan` mirroring the RTOS `FaultPlan`
//     (src/rtos/fault.hpp): replayable injection of allocation failures into
//     the arena/cache growth paths, used by tests to prove unwind paths are
//     leak- and corruption-free under ASan.
//
// Determinism contract: node- and byte-budget trips depend only on the
// operation sequence, so a given budget always trips at the same point and
// degraded outputs are byte-identical across runs. Deadline and cancel trips
// are timing-dependent by nature and are only used where the degraded result
// is still correct (sift keeps the best order found so far; verification
// reports an honest kUnknown).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"

namespace polis {

// --- Error taxonomy ---------------------------------------------------------

/// Base class for errors that unwind the current phase but leave the process
/// (and every BddManager) healthy. Contrast CheckError: invariant corruption,
/// never caught by the pipeline.
class RecoverableError : public std::runtime_error {
 public:
  explicit RecoverableError(const std::string& message)
      : std::runtime_error(message) {}
};

/// A resource budget was exhausted. Which one is in `kind()`.
class BudgetExceeded : public RecoverableError {
 public:
  enum class Kind {
    kDeadline,    ///< wall-clock deadline passed
    kNodes,       ///< live BDD nodes over budget
    kBytes,       ///< arena bytes over cap
    kAllocation,  ///< allocation failed (real bad_alloc or injected fault)
  };

  BudgetExceeded(Kind kind, const std::string& message)
      : RecoverableError(message), kind_(kind) {}

  Kind kind() const { return kind_; }

  static const char* kind_name(Kind k) {
    switch (k) {
      case Kind::kDeadline: return "deadline";
      case Kind::kNodes: return "nodes";
      case Kind::kBytes: return "bytes";
      case Kind::kAllocation: return "allocation";
    }
    return "?";
  }

 private:
  Kind kind_;
};

/// Cooperative cancellation was requested via a CancellationToken.
class Cancelled : public RecoverableError {
 public:
  Cancelled() : RecoverableError("operation cancelled") {}
};

// --- Exit codes -------------------------------------------------------------

/// Process exit codes `polisc` maps the taxonomy to. Stable contract for
/// scripts and supervisors.
enum ExitCode : int {
  kExitOk = 0,
  kExitError = 1,     ///< generic / uncategorized failure
  kExitUsage = 2,     ///< bad command line
  kExitParse = 3,     ///< frontend ParseError (malformed input)
  kExitBudget = 4,    ///< BudgetExceeded under --on-budget=fail
  kExitCancelled = 5, ///< cooperative cancellation
  kExitInternal = 6,  ///< CheckError: invariant corruption (a bug)
};

// --- Cancellation -----------------------------------------------------------

/// Copyable handle to a shared cancel flag. The producer side calls
/// `request_cancel()`; governors observe it with a relaxed load.
class CancellationToken {
 public:
  CancellationToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void request_cancel() { flag_->store(true, std::memory_order_relaxed); }
  bool cancel_requested() const {
    return flag_->load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

// --- Fault injection --------------------------------------------------------

/// Seeded, replayable allocation-failure plan, mirroring rtos::FaultPlan.
/// Each growth decision in the BDD arena / unique table / computed cache
/// draws once; a draw below `probability` (or within the first
/// `fail_first_n` draws after `fail_after`) fails the allocation as a
/// recoverable BudgetExceeded{kAllocation}. Draw order is deterministic for
/// a serial pipeline (tests run num_threads=1).
struct AllocFaultPlan {
  uint64_t seed = 0;
  double probability = 0.0;  ///< chance each draw fails
  uint64_t fail_after = 0;   ///< draws before deterministic failures start
  uint64_t fail_first_n = 0; ///< number of deterministic failures injected

  bool enabled() const { return probability > 0.0 || fail_first_n > 0; }
};

// --- Limits -----------------------------------------------------------------

/// What to do when a budget trips mid-pipeline.
enum class OnBudget {
  kFail,    ///< unwind the whole run with BudgetExceeded (exit code 4)
  kDegrade, ///< walk the degradation ladder; always produce correct output
};

struct GovernorLimits {
  /// Wall-clock budget in milliseconds; 0 = unlimited.
  int64_t deadline_ms = 0;
  /// Max BDD nodes charged to this governor (across all managers in the
  /// scope); 0 = unlimited.
  uint64_t max_nodes = 0;
  /// Max arena bytes charged to this governor; 0 = unlimited.
  uint64_t max_arena_bytes = 0;
  /// The budget policy of every pipeline stage run under this governor.
  /// kFail unwinds the run with the recoverable error. kDegrade walks the
  /// ladder: χ, calibration and the s-graph build retry ungoverned, the care
  /// set and the sift are dropped, the estimator is skipped, verification
  /// widens or reports kUnknown, and compile/codegen always complete. With
  /// no budget set, kDegrade still degrades on a real allocation failure.
  OnBudget on_budget = OnBudget::kFail;

  /// True if any budget is set (the policy alone is not a budget).
  bool any() const {
    return deadline_ms > 0 || max_nodes > 0 || max_arena_bytes > 0;
  }
};

// --- Governor ---------------------------------------------------------------

class ResourceGovernor {
 public:
  /// Real deadline/cancel checks happen every `kPollStride` polls; budget
  /// charges are exact. Matches the obs span gate's amortization style.
  static constexpr uint32_t kPollStride = 256;

  ResourceGovernor() = default;
  explicit ResourceGovernor(const GovernorLimits& limits,
                            CancellationToken token = {});

  ResourceGovernor(const ResourceGovernor&) = delete;
  ResourceGovernor& operator=(const ResourceGovernor&) = delete;

  /// The governor ambient on this thread, or nullptr.
  static ResourceGovernor* current() { return tls_current_; }

  /// RAII installer for the ambient governor. Nests; restores the previous
  /// governor on destruction. The poll countdown restarts inside the scope
  /// and is restored after it: a scope's polls depend only on its calls.
  class Scope {
   public:
    explicit Scope(ResourceGovernor* gov)
        : prev_(tls_current_), prev_countdown_(tls_poll_countdown_) {
      tls_current_ = gov;
      tls_poll_countdown_ = 0;
    }
    ~Scope() {
      tls_current_ = prev_;
      tls_poll_countdown_ = prev_countdown_;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    ResourceGovernor* prev_;
    uint32_t prev_countdown_;
  };

  /// RAII guard that makes throwing polls no-ops on this thread while alive.
  /// Used around code that must run to completion even over budget: sift's
  /// settle-back, degrade-mode codegen, unwind paths.
  class Suspend {
   public:
    Suspend() : prev_(tls_suspended_) { tls_suspended_ = true; }
    ~Suspend() { tls_suspended_ = prev_; }
    Suspend(const Suspend&) = delete;
    Suspend& operator=(const Suspend&) = delete;

   private:
    bool prev_;
  };

  static bool suspended() { return tls_suspended_; }

  // --- Throwing API (hot paths) --------------------------------------------

  /// Full deadline/cancel check. Throws BudgetExceeded{kDeadline} or
  /// Cancelled. Costs a clock read — call at coarse points (fixpoint
  /// iterations, per-pass loops) or via the amortized `poll_current()`.
  void poll() {
    polls_.fetch_add(1, std::memory_order_relaxed);
    poll_slow();
  }

  /// Amortized `poll()` on the ambient governor: a thread-local counter bump
  /// on the fast path (no shared-cacheline traffic — workers would otherwise
  /// contend on one governor), a real check every `kPollStride` calls. The
  /// single call site to sprinkle into hot loops.
  static void poll_current() {
    if (++tls_poll_countdown_ & (kPollStride - 1)) return;
    if (ResourceGovernor* g = tls_current_) g->poll();
  }

  /// Charge `nodes` live nodes / `bytes` arena bytes against the budgets;
  /// throws BudgetExceeded{kNodes|kBytes} when a cap is crossed. Negative
  /// deltas refund (GC, manager destruction).
  void charge_arena(int64_t nodes, int64_t bytes);

  static void charge_arena_current(int64_t nodes, int64_t bytes) {
    if (ResourceGovernor* g = tls_current_) g->charge_arena(nodes, bytes);
  }

  /// Draw from the alloc-fault plan; throws BudgetExceeded{kAllocation} on an
  /// injected failure. Call once per arena/table/cache growth decision.
  void draw_alloc_fault(const char* site);

  static void draw_alloc_fault_current(const char* site) {
    if (ResourceGovernor* g = tls_current_) g->draw_alloc_fault(site);
  }

  // --- Non-throwing API (degrade decisions) --------------------------------

  /// True once the deadline has passed (checked for real, not amortized).
  bool deadline_expired() const;
  /// True once cancellation was requested.
  bool cancel_requested() const { return token_.cancel_requested(); }
  /// True if the live-node budget is currently exceeded.
  bool nodes_over_budget() const;
  /// Deadline, cancel or node budget — "stop looping and settle" signal for
  /// loops that degrade rather than throw (sift, verification fixpoint).
  bool should_stop() const {
    return deadline_expired() || cancel_requested() || nodes_over_budget();
  }

  // --- Budget policy (the degradation ladder) ------------------------------

  /// True when an ambient governor is installed and its policy is kDegrade.
  static bool degrading() {
    const ResourceGovernor* g = tls_current_;
    return g != nullptr && g->limits_.on_budget == OnBudget::kDegrade;
  }

  /// One ladder rung; call only inside a catch handler. When degrading,
  /// notes `what` on the ambient governor and returns so the caller can
  /// degrade; otherwise rethrows the exception being handled.
  static void degrade_or_rethrow(const char* what) {
    if (!degrading()) throw;
    tls_current_->note_degradation(what);
  }

  /// The "retry once ungoverned" rung: runs `attempt(false)`; when it throws
  /// BudgetExceeded while degrading, notes `what` and runs `attempt(true)`
  /// with the governor suspended, so the retry always completes. The flag
  /// tells the attempt it is the retry (for per-site preparation such as a
  /// GC). Cancelled and fail-mode trips propagate.
  template <typename Attempt>
  static auto retry_ungoverned(const char* what, Attempt&& attempt) {
    try {
      return attempt(false);
    } catch (const BudgetExceeded&) {
      degrade_or_rethrow(what);
    }
    Suspend suspend;
    return attempt(true);
  }

  // --- Configuration / bookkeeping -----------------------------------------

  const GovernorLimits& limits() const { return limits_; }
  void set_alloc_fault_plan(const AllocFaultPlan& plan);
  const CancellationToken& token() const { return token_; }

  /// Record a degradation event (e.g. "sift stopped at deadline"): counted
  /// into the governor.degradations metric and recorded as a "governor"
  /// instant in the wall-clock trace (`polisc --trace`).
  void note_degradation(const char* what);

  uint64_t polls() const { return polls_.load(std::memory_order_relaxed); }
  uint64_t charged_nodes() const {
    return charged_nodes_.load(std::memory_order_relaxed);
  }
  /// High-water mark of charged_nodes() over the governor's lifetime.
  uint64_t peak_charged_nodes() const {
    return peak_charged_nodes_.load(std::memory_order_relaxed);
  }
  uint64_t charged_bytes() const {
    return charged_bytes_.load(std::memory_order_relaxed);
  }
  uint64_t degradations() const {
    return degradations_.load(std::memory_order_relaxed);
  }
  uint64_t budget_hits() const {
    return budget_hits_.load(std::memory_order_relaxed);
  }
  uint64_t alloc_faults_injected() const {
    return alloc_faults_injected_.load(std::memory_order_relaxed);
  }

  /// Flush the poll, budget-hit and injected-fault counters and the peak
  /// charge into the obs metrics registry (governor.* metrics). Repeated
  /// flushes add only what changed. Cheap; call once per phase or at exit.
  void flush_stats_to_obs() const;

 private:
  void poll_slow();
  [[noreturn]] void throw_budget(BudgetExceeded::Kind kind,
                                 const std::string& message);

  // constinit: guaranteed constant-initialized, so no TLS init wrapper is
  // emitted and cross-TU access compiles to a direct TLS load (the wrapper's
  // weak-symbol init test also false-positives GCC's -fsanitize=null).
  static constinit thread_local ResourceGovernor* tls_current_;
  static constinit thread_local bool tls_suspended_;
  static constinit thread_local uint32_t tls_poll_countdown_;

  GovernorLimits limits_;
  CancellationToken token_;
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();

  std::atomic<uint64_t> polls_{0};
  std::atomic<uint64_t> charged_nodes_{0};
  std::atomic<uint64_t> peak_charged_nodes_{0};
  std::atomic<uint64_t> charged_bytes_{0};
  std::atomic<uint64_t> degradations_{0};
  std::atomic<uint64_t> budget_hits_{0};

  AllocFaultPlan fault_plan_;
  std::atomic<uint64_t> fault_draws_{0};
  std::atomic<uint64_t> alloc_faults_injected_{0};

  mutable obs::MirrorState flushed_;  // what flush_stats_to_obs published
};

}  // namespace polis
