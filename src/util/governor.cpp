#include "util/governor.hpp"

#include <sstream>

#include "obs/metrics.hpp"
#include "obs/series.hpp"
#include "obs/trace.hpp"

namespace polis {

constinit thread_local ResourceGovernor* ResourceGovernor::tls_current_ = nullptr;
constinit thread_local bool ResourceGovernor::tls_suspended_ = false;
constinit thread_local uint32_t ResourceGovernor::tls_poll_countdown_ = 0;

namespace {

// splitmix64 — the same generator family the RTOS FaultPlan uses; one draw
// per growth decision keyed by (seed, draw index) so failure points replay
// exactly for a fixed seed and serial draw order.
uint64_t splitmix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double unit_double(uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

}  // namespace

ResourceGovernor::ResourceGovernor(const GovernorLimits& limits,
                                   CancellationToken token)
    : limits_(limits), token_(std::move(token)) {}

void ResourceGovernor::set_alloc_fault_plan(const AllocFaultPlan& plan) {
  fault_plan_ = plan;
}

bool ResourceGovernor::deadline_expired() const {
  if (limits_.deadline_ms <= 0) return false;
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  return std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
             .count() >= limits_.deadline_ms;
}

bool ResourceGovernor::nodes_over_budget() const {
  if (limits_.max_nodes == 0) return false;
  return charged_nodes_.load(std::memory_order_relaxed) > limits_.max_nodes;
}

void ResourceGovernor::poll_slow() {
  if (tls_suspended_) return;
#ifndef POLIS_OBS_DISABLED
  // Budget-headroom gauges for the streaming series: published only while a
  // series recorder is live (a relaxed load otherwise) and only for budgets
  // that are actually set, so default runs keep their byte-identical sim
  // series (headroom_ms is wall-dependent by nature).
  if (obs::SeriesRecorder::global().enabled()) {
    auto& reg = obs::MetricsRegistry::global();
    static const auto nodes_id = reg.gauge("governor.headroom_nodes");
    static const auto bytes_id = reg.gauge("governor.headroom_bytes");
    static const auto ms_id = reg.gauge("governor.headroom_ms");
    if (limits_.max_nodes != 0) {
      const uint64_t used = charged_nodes_.load(std::memory_order_relaxed);
      reg.set(nodes_id, used >= limits_.max_nodes
                            ? 0
                            : static_cast<int64_t>(limits_.max_nodes - used));
    }
    if (limits_.max_arena_bytes != 0) {
      const uint64_t used = charged_bytes_.load(std::memory_order_relaxed);
      reg.set(bytes_id,
              used >= limits_.max_arena_bytes
                  ? 0
                  : static_cast<int64_t>(limits_.max_arena_bytes - used));
    }
    if (limits_.deadline_ms > 0) {
      const auto elapsed = std::chrono::steady_clock::now() - start_;
      const int64_t elapsed_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
              .count();
      reg.set(ms_id, limits_.deadline_ms > elapsed_ms
                         ? limits_.deadline_ms - elapsed_ms
                         : 0);
    }
  }
#endif
  if (token_.cancel_requested()) {
    budget_hits_.fetch_add(1, std::memory_order_relaxed);
    throw Cancelled();
  }
  if (deadline_expired()) {
    std::ostringstream os;
    os << "wall-clock deadline of " << limits_.deadline_ms << " ms exceeded";
    throw_budget(BudgetExceeded::Kind::kDeadline, os.str());
  }
  if (nodes_over_budget()) {
    std::ostringstream os;
    os << "live BDD node budget exceeded ("
       << charged_nodes_.load(std::memory_order_relaxed) << " > "
       << limits_.max_nodes << ")";
    throw_budget(BudgetExceeded::Kind::kNodes, os.str());
  }
}

void ResourceGovernor::charge_arena(int64_t nodes, int64_t bytes) {
  // Refunds (GC, manager teardown) must never throw — they run on unwind
  // paths. fetch_add with a negative delta wraps benignly only if callers
  // never refund more than they charged; the BDD kernel charges per node
  // created and refunds per node destroyed, so the running sum is exact.
  const uint64_t new_nodes =
      charged_nodes_.fetch_add(static_cast<uint64_t>(nodes),
                               std::memory_order_relaxed) +
      static_cast<uint64_t>(nodes);
  const uint64_t new_bytes =
      charged_bytes_.fetch_add(static_cast<uint64_t>(bytes),
                               std::memory_order_relaxed) +
      static_cast<uint64_t>(bytes);
  uint64_t peak = peak_charged_nodes_.load(std::memory_order_relaxed);
  while (nodes > 0 && new_nodes > peak &&
         !peak_charged_nodes_.compare_exchange_weak(
             peak, new_nodes, std::memory_order_relaxed)) {
  }
  if (nodes <= 0 && bytes <= 0) return;
  if (tls_suspended_) return;
  if (limits_.max_nodes != 0 && new_nodes > limits_.max_nodes) {
    std::ostringstream os;
    os << "live BDD node budget exceeded (" << new_nodes << " > "
       << limits_.max_nodes << ")";
    throw_budget(BudgetExceeded::Kind::kNodes, os.str());
  }
  if (limits_.max_arena_bytes != 0 && new_bytes > limits_.max_arena_bytes) {
    std::ostringstream os;
    os << "BDD arena byte budget exceeded (" << new_bytes << " > "
       << limits_.max_arena_bytes << ")";
    throw_budget(BudgetExceeded::Kind::kBytes, os.str());
  }
}

void ResourceGovernor::draw_alloc_fault(const char* site) {
  if (!fault_plan_.enabled() || tls_suspended_) return;
  const uint64_t draw = fault_draws_.fetch_add(1, std::memory_order_relaxed);
  bool fail = false;
  if (fault_plan_.fail_first_n > 0 && draw >= fault_plan_.fail_after &&
      draw < fault_plan_.fail_after + fault_plan_.fail_first_n)
    fail = true;
  if (!fail && fault_plan_.probability > 0.0 &&
      unit_double(splitmix64(fault_plan_.seed ^ (draw * 0x9e3779b97f4a7c15ull))) <
          fault_plan_.probability)
    fail = true;
  if (!fail) return;
  alloc_faults_injected_.fetch_add(1, std::memory_order_relaxed);
  std::ostringstream os;
  os << "injected allocation failure at " << site << " (draw " << draw
     << ", seed " << fault_plan_.seed << ")";
  throw_budget(BudgetExceeded::Kind::kAllocation, os.str());
}

void ResourceGovernor::throw_budget(BudgetExceeded::Kind kind,
                                    const std::string& message) {
  budget_hits_.fetch_add(1, std::memory_order_relaxed);
  throw BudgetExceeded(kind, message);
}

void ResourceGovernor::note_degradation(const char* what) {
  degradations_.fetch_add(1, std::memory_order_relaxed);
  auto& reg = obs::MetricsRegistry::global();
  static const obs::MetricsRegistry::Id id =
      reg.counter("governor.degradations");
  reg.add(id, 1);
#ifndef POLIS_OBS_DISABLED
  obs::trace_instant(what, "governor");
#else
  (void)what;
#endif
}

namespace {

using enum obs::MetricKind;
using Gov = ResourceGovernor;

constexpr obs::MirroredMetric<Gov> kGovernorMetrics[] = {
    {"governor.polls", kCounter, [](const Gov& g) { return g.polls(); }},
    {"governor.budget_hits", kCounter,
     [](const Gov& g) { return g.budget_hits(); }},
    {"governor.alloc_faults_injected", kCounter,
     [](const Gov& g) { return g.alloc_faults_injected(); }},
    {"governor.peak_charged_nodes", kMaxGauge,
     [](const Gov& g) { return g.peak_charged_nodes(); }},
};

}  // namespace

void ResourceGovernor::flush_stats_to_obs() const {
  obs::drain<kGovernorMetrics>(*this, flushed_);
}

}  // namespace polis
