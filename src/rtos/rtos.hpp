// The automatically generated RTOS (§IV) and a cycle-level discrete-event
// simulation of a network of sw-CFSMs running under it on one processor.
//
// Responsibilities reproduced from the paper:
//   * scheduling of sw-CFSMs (round-robin or static priority, with or
//     without preemption, §IV-A);
//   * event emission/detection between sw-CFSMs via per-task private flags
//     with one-place buffers — re-emission before detection overwrites and
//     loses the event (§II-D, §IV-B);
//   * delivery of environment ("hw-CFSM") events by interrupt (immediate,
//     with ISR overhead) or by polling (delayed to the next polling tick,
//     §IV-C);
//   * snapshot consistency: a task's input flags are frozen when it starts
//     reading them; events arriving during its execution are buffered and
//     merged afterwards, so no impossible event combination is ever observed
//     (§IV-D); a reaction that fires no rule preserves its input events.
//
// Data layout (DESIGN.md §4): RtosSimulation interns every name once, at
// construction. Nets become dense net ids; ports and state variables become
// the index of the signal or variable in the machine's inputs()/outputs()/
// state(). run() then works on flat per-task flag and state vectors, routes
// indexed by net id and per-net counters. Names reappear only at the edges:
// the SimStats maps (built when the run ends), the event log and VCD, the
// on_task_* probes and abort diagnostics.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cfsm/cfsm.hpp"
#include "cfsm/network.hpp"
#include "rtos/fault.hpp"

namespace polis::rtos {

class VcdWriter;

struct RtosConfig {
  enum class Policy { kRoundRobin, kStaticPriority };
  Policy policy = Policy::kRoundRobin;
  bool preemptive = false;
  long long context_switch_cycles = 40;

  enum class HwDelivery { kInterrupt, kPolling };
  HwDelivery delivery = HwDelivery::kInterrupt;
  long long polling_period = 2000;

  /// Static priorities (lower value = higher priority). Instances absent
  /// from the map default to priority 100, ties broken by declaration order.
  ///
  /// Every name-keyed field (priority, isr_executed_events, chains,
  /// hardware_instances, overflow_by_net, deadline_monitors, faults.stalls)
  /// must name an instance or net of the network: RtosSimulation's
  /// constructor throws a CheckError naming the field and the unknown name.
  std::map<std::string, int> priority;

  /// Record a full event log in SimStats::log (task activations, event
  /// emissions and deliveries) for inspection / VCD export.
  bool collect_log = false;

  /// Streaming VCD export: every log event is forwarded to this writer as
  /// it happens, and `VcdWriter::finish(end_time)` runs when the simulation
  /// ends — including the abort path (degradation policies, watchdog), so a
  /// terminated run still produces a loadable waveform. Independent of
  /// `collect_log`. The writer must outlive `run()`; null = disabled.
  VcdWriter* live_vcd = nullptr;

  /// §IV-C: "the user has the option to specify that for designated events,
  /// all sw-CFSMs sensitive to that event are also to be executed inside
  /// the ISR. In this way, the most critical tasks can be given immediate
  /// attention." External events on these nets run their consumers
  /// immediately at delivery time, ahead of any scheduling policy.
  std::set<std::string> isr_executed_events;

  /// §IV-A: "the user can also instruct the system to bypass the RTOS and
  /// chain certain executions of CFSMs into a single task, thus reducing
  /// scheduling and communication overhead." When a task in a chain
  /// completes and its emissions enable a *later* member of the same chain,
  /// that member runs immediately, paying a short chain link (see
  /// rtos.cpp) instead of a full context switch.
  std::vector<std::vector<std::string>> chains;

  /// Hardware/software partitioning (the co-design dimension, §I-A/§IV-C):
  /// instances in this set are hw-CFSMs — they react immediately at event
  /// delivery, take `hw_reaction_cycles` of wall-clock (not CPU) time, and
  /// never occupy the processor or the scheduler. `hw_reaction_cycles` must
  /// be >= 0, and > 0 when the hardware instances form a cycle.
  std::set<std::string> hardware_instances;
  long long hw_reaction_cycles = 1;

  /// Robustness layer (all defaults preserve the paper's exact semantics).
  /// Seeded fault injection; a plan with `empty() == true` is a no-op.
  FaultPlan faults;
  /// 1-place buffer overflow policy: per-net override, else the default.
  OverflowPolicy overflow_default = OverflowPolicy::kOverwrite;
  std::map<std::string, OverflowPolicy> overflow_by_net;
  /// Per-task deadline monitors, by instance name.
  std::map<std::string, DeadlineMonitor> deadline_monitors;
  /// Livelock/starvation watchdog; disabled by default.
  WatchdogConfig watchdog;

  /// Streaming telemetry: when > 0 (and series recording is enabled), the
  /// simulator publishes SimStats deltas into the metrics registry and ticks
  /// one simulated-cycle epoch every `metrics_epoch_cycles` cycles. Epochs
  /// are driven purely by deterministic simulation state, so the resulting
  /// JSONL series is byte-identical across identical runs. 0 = end-of-run
  /// publishing only (the historical behavior).
  long long metrics_epoch_cycles = 0;

  /// Observability probes, e.g. for confirming a verif counterexample by
  /// replay. `on_task_start` fires at every dispatch with the frozen input
  /// snapshot and the pre-reaction state; `on_task_end` fires at completion
  /// with the post-reaction state. Hardware instances fire both around their
  /// immediate reaction. Null = disabled; probes take no simulated time.
  std::function<void(const std::string& task, long long time,
                     const cfsm::Snapshot& snapshot,
                     const std::map<std::string, std::int64_t>& state)>
      on_task_start;
  std::function<void(const std::string& task, long long time,
                     const std::map<std::string, std::int64_t>& state)>
      on_task_end;
};

/// One entry of the simulation event log.
struct LogEvent {
  enum class Kind {
    kTaskStart,
    kTaskEnd,
    kEmission,
    kDelivery,
    kFault,         // an injected perturbation ("drop net", "stall task", …)
    kDeadlineMiss,  // subject = task, value = observed response time
  };
  long long time = 0;
  Kind kind = Kind::kEmission;
  std::string subject;      // task name or net name
  std::int64_t value = 0;   // event value (emission/delivery)
};

/// One external stimulus to an input net of the network.
struct ExternalEvent {
  long long time = 0;
  std::string net;
  std::int64_t value = 0;
};

/// One input port's 1-place event buffer (§II-D): the task's private flag
/// (§IV-B) plus the times the simulator tracks for latency and deadlines.
struct PortFlag {
  bool present = false;
  std::int64_t value = 0;
  long long emit_time = 0;
  long long stimulus_time = 0;  // originating external stimulus
};

/// One emission of a dense reaction: (output port index, value).
using PortEmission = std::pair<int, std::int64_t>;

/// A task's reaction on dense operands: ports and state variables are the
/// indices of the machine's inputs()/outputs()/state(). A kernel is bound to
/// one task of one simulation, so it may keep scratch buffers.
class TaskKernel {
 public:
  virtual ~TaskKernel() = default;
  /// Runs one reaction on the frozen input `flags` (one per input port),
  /// updating `state` in place to the next state and appending emissions
  /// to `emissions` (empty on entry). Returns whether a rule fired (events
  /// are consumed iff true); `*cycles` receives the execution time in CPU
  /// cycles.
  virtual bool react(const std::vector<PortFlag>& flags,
                     std::vector<std::int64_t>& state,
                     std::vector<PortEmission>& emissions,
                     long long* cycles) = 0;
};

/// Executes one reaction of one task. A ReactFn is either
///   * a name-keyed callable, `(const cfsm::Snapshot&, const std::map<
///     std::string, std::int64_t>& state, long long* cycles) ->
///     cfsm::Reaction`, which must fill `cycles`; or
///   * a dense task (vm_task): a kernel factory plus its name-keyed view.
/// Either way it is callable with the name-keyed signature, so it can be
/// wrapped in such a callable (e.g. to time each reaction).
/// RtosSimulation::set_task binds it once: a dense task runs its kernel
/// directly; a callable runs behind the one edge adapter, which builds the
/// Snapshot and state map from the flat operands on every reaction and maps
/// the Reaction back by port and variable name.
class ReactFn {
 public:
  using Callable = std::function<cfsm::Reaction(
      const cfsm::Snapshot& snapshot,
      const std::map<std::string, std::int64_t>& state, long long* cycles)>;
  /// Makes the kernel for one task; receives the instance's machine.
  using KernelFactory =
      std::function<std::unique_ptr<TaskKernel>(const cfsm::Cfsm& machine)>;

  ReactFn() = default;
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, ReactFn> &&
             std::is_constructible_v<Callable, F>)
  ReactFn(F&& fn) : call_(std::forward<F>(fn)) {}
  ReactFn(KernelFactory make_kernel, Callable call)
      : call_(std::move(call)), make_kernel_(std::move(make_kernel)) {}

  cfsm::Reaction operator()(const cfsm::Snapshot& snapshot,
                            const std::map<std::string, std::int64_t>& state,
                            long long* cycles) const {
    return call_(snapshot, state, cycles);
  }
  explicit operator bool() const { return static_cast<bool>(call_); }

  /// The kernel one task of `machine` runs: the dense kernel when there is
  /// one, else the edge adapter over the callable; null when empty.
  std::unique_ptr<TaskKernel> bind(const cfsm::Cfsm& machine) const;

 private:
  Callable call_;
  KernelFactory make_kernel_;
};

struct ObservedEmission {
  long long time = 0;  // completion time of the emitting reaction
  std::string net;
  std::int64_t value = 0;
  std::string producer;  // instance name ("env" for external stimuli)
};

struct SimStats {
  long long end_time = 0;
  long long busy_cycles = 0;          // CPU time in reactions
  long long overhead_cycles = 0;      // scheduler/ISR/polling/context switches
  long long reactions_run = 0;
  long long empty_reactions = 0;      // executed but no rule fired
  std::map<std::string, long long> lost_events;   // net -> overwritten count
  std::map<std::string, long long> emitted_events;  // net -> emission count
  std::vector<ObservedEmission> outputs;          // external outputs
  std::vector<LogEvent> log;                      // when collect_log is set
  /// Latency samples per external-output net: time from the environment
  /// stimulus that triggered the causal chain to the output emission.
  std::map<std::string, std::vector<long long>> input_to_output_latency;
  /// Robustness layer outcomes.
  FaultCounts injected;                           // perturbations applied
  std::map<std::string, long long> deadline_misses;  // task -> miss count
  bool aborted = false;         // a policy or the watchdog ended the run
  bool watchdog_fired = false;  // the abort came from the watchdog
  std::string diagnostic;       // why, naming the offending net/task + time
  double utilization() const {
    return end_time > 0
               ? static_cast<double>(busy_cycles + overhead_cycles) /
                     static_cast<double>(end_time)
               : 0.0;
  }
};

/// Simulates the network under the generated RTOS until all external events
/// are delivered and the system is quiescent (or `horizon` is reached).
class RtosSimulation {
 public:
  /// Resolves every name in `config` against `network`; an unknown name, a
  /// negative `hw_reaction_cycles` or a zero-delay hardware cycle is a
  /// CheckError naming the offending field or instances.
  RtosSimulation(const cfsm::Network& network, RtosConfig config);

  /// Registers the software implementation of one instance (binds
  /// `fn` to the instance's machine once, see ReactFn).
  void set_task(const std::string& instance, const ReactFn& fn);

  /// Convenience: implement an instance with the reference interpreter and
  /// a fixed reaction cost.
  void set_reference_task(const std::string& instance, long long cycles);

  /// Hardware cascades (§I-A) run depth-first like the emissions that cause
  /// them, without recursion; a hardware reaction starts only at or before
  /// `horizon`, so a cycle of hardware instances ends there. Every event
  /// must name a net of the network; an unknown net is a CheckError.
  SimStats run(const std::vector<ExternalEvent>& events,
               long long horizon = 100'000'000);

 private:
  struct TaskState {
    std::string name;
    const cfsm::Instance* instance = nullptr;
    std::unique_ptr<TaskKernel> kernel;
    std::vector<std::int64_t> state;      // by state variable
    std::vector<PortFlag> flags;          // by input port
    std::vector<PortFlag> incoming;       // buffered while running
    std::vector<PortFlag> frozen;         // the running reaction's input
    std::vector<PortEmission> emissions;  // the running reaction's output
    int present = 0;                      // flags with `present` set
    bool running = false;
    int base_priority = 100;              // from RtosConfig::priority
    int priority = 100;                   // this run's (kDemote raises it)
    bool hardware = false;                // a hw-CFSM (§I-A co-design)
    std::vector<size_t> chain_next;       // later members of its §IV-A chain
    std::vector<int> in_net;              // input port -> net id
    std::vector<int> out_net;             // output port -> net id
    std::vector<int> ports_by_name;       // input ports in name order
    const DeadlineMonitor* monitor = nullptr;
    const StallFault* stall = nullptr;
  };
  // One net's delivery, resolved at construction: its consumers (task,
  // input port), the overflow policy of their 1-place buffers (§II-D), and
  // whether its external events run the consumers inside the ISR (§IV-C).
  struct Route {
    std::vector<std::pair<size_t, int>> consumers;
    OverflowPolicy overflow = OverflowPolicy::kOverwrite;
    bool isr_executed = false;
  };

  TaskState& task(const std::string& instance);

  const cfsm::Network* network_;
  RtosConfig config_;
  std::vector<TaskState> tasks_;
  std::vector<Route> routes_;           // by net id
  std::vector<std::string> net_names_;  // by net id
  std::unordered_map<std::string, int> net_ids_;
};

}  // namespace polis::rtos
