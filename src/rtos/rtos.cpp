#include "rtos/rtos.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <sstream>

#include "obs/obs.hpp"
#include "obs/series.hpp"
#include "rtos/vcd.hpp"
#include "util/check.hpp"
#include "util/governor.hpp"
#include "util/rng.hpp"

namespace polis::rtos {

namespace {
constexpr long long kInf = std::numeric_limits<long long>::max() / 4;

using enum obs::MetricKind;
using obs::field;

// A simulation's running totals: SimStats' counters plus the events lost
// and deadlines missed so far (SimStats' per-net and per-task maps are built
// only when the run ends).
struct SimTotals {
  const SimStats& stats;
  long long lost;
  long long misses;
};

template <long long SimStats::*Member>
std::uint64_t sim(const SimTotals& totals) {
  return static_cast<std::uint64_t>(totals.stats.*Member);
}

// Drained per metrics epoch and once more when the run ends.
constexpr obs::MirroredMetric<SimTotals> kSimTotalMetrics[] = {
    {"rtos.reactions_run", kCounter, sim<&SimStats::reactions_run>},
    {"rtos.empty_reactions", kCounter, sim<&SimStats::empty_reactions>},
    {"rtos.busy_cycles", kCounter, sim<&SimStats::busy_cycles>},
    {"rtos.overhead_cycles", kCounter, sim<&SimStats::overhead_cycles>},
    {"rtos.lost_events", kCounter, field<&SimTotals::lost>},
    {"rtos.deadline_misses", kCounter, field<&SimTotals::misses>},
    {"rtos.injected_faults", kCounter,
     [](const SimTotals& t) -> std::uint64_t {
       return static_cast<std::uint64_t>(t.stats.injected.total());
     }},
};

// The run's outcome, published once when it ends.
constexpr obs::MirroredMetric<SimStats> kSimRunMetrics[] = {
    {"rtos.runs", kCounter, obs::one},
    {"rtos.aborted_runs", kCounter, field<&SimStats::aborted>},
    {"rtos.watchdog_fires", kCounter, field<&SimStats::watchdog_fired>},
    {"rtos.run_cycles", kHistogram, field<&SimStats::end_time>},
};

// Internal control-flow: a degradation policy or the watchdog terminates
// the run; caught in run(), never escapes to the caller.
struct AbortSim {
  bool watchdog = false;
  std::string diagnostic;
};

// --- Name-keyed edge --------------------------------------------------------

cfsm::Snapshot snapshot_of(const cfsm::Cfsm& machine,
                           const std::vector<PortFlag>& flags) {
  cfsm::Snapshot snap;
  for (size_t p = 0; p < flags.size(); ++p) {
    if (!flags[p].present) continue;
    const cfsm::Signal& in = machine.inputs()[p];
    snap.present[in.name] = true;
    if (!in.is_pure()) snap.value[in.name] = flags[p].value;
  }
  return snap;
}

std::map<std::string, std::int64_t> state_map(
    const cfsm::Cfsm& machine, const std::vector<std::int64_t>& state) {
  std::map<std::string, std::int64_t> out;
  for (size_t v = 0; v < state.size(); ++v)
    out[machine.state()[v].name] = state[v];
  return out;
}

std::vector<std::int64_t> initial_state_of(const cfsm::Cfsm& machine) {
  std::vector<std::int64_t> out;
  for (const cfsm::StateVar& v : machine.state()) out.push_back(v.init);
  return out;
}

// The one edge adapter: runs a name-keyed callable on a task's flat operands
// (Snapshot and state map in; next state and emissions mapped back by name).
class CallableKernel final : public TaskKernel {
 public:
  CallableKernel(ReactFn::Callable call, const cfsm::Cfsm& machine)
      : call_(std::move(call)), machine_(&machine) {}

  bool react(const std::vector<PortFlag>& flags,
             std::vector<std::int64_t>& state,
             std::vector<PortEmission>& emissions,
             long long* cycles) override {
    const cfsm::Reaction r = call_(snapshot_of(*machine_, flags),
                                   state_map(*machine_, state), cycles);
    const std::vector<cfsm::StateVar>& vars = machine_->state();
    for (size_t v = 0; v < vars.size(); ++v) {
      auto it = r.next_state.find(vars[v].name);
      if (it != r.next_state.end()) state[v] = it->second;
    }
    const std::vector<cfsm::Signal>& outs = machine_->outputs();
    for (const auto& [signal, value] : r.emissions) {
      size_t o = 0;
      while (o < outs.size() && outs[o].name != signal) ++o;
      POLIS_CHECK_MSG(o < outs.size(), "a task of machine "
                                            << machine_->name() << " emitted "
                                            << signal
                                            << ", which is not an output");
      emissions.emplace_back(static_cast<int>(o), value);
    }
    return r.fired;
  }

 private:
  ReactFn::Callable call_;
  const cfsm::Cfsm* machine_;
};

size_t input_index(const cfsm::Cfsm& machine, const std::string& port) {
  const std::vector<cfsm::Signal>& ins = machine.inputs();
  for (size_t p = 0; p < ins.size(); ++p)
    if (ins[p].name == port) return p;
  check_failed("false", __FILE__, __LINE__,
               "machine " + machine.name() + " has no input " + port);
}
}  // namespace

std::unique_ptr<TaskKernel> ReactFn::bind(const cfsm::Cfsm& machine) const {
  if (make_kernel_) return make_kernel_(machine);
  if (!call_) return nullptr;
  return std::make_unique<CallableKernel>(call_, machine);
}

RtosSimulation::RtosSimulation(const cfsm::Network& network, RtosConfig config)
    : network_(&network), config_(std::move(config)) {
  std::map<std::string, size_t> index;
  for (const cfsm::Instance& inst : network.instances()) {
    index[inst.name] = tasks_.size();
    TaskState t;
    t.name = inst.name;
    t.instance = &inst;
    tasks_.push_back(std::move(t));
  }
  // Nets are interned here only: run() resolves stimuli against this set.
  const std::map<std::string, cfsm::Net> nets = network.nets();
  for (const auto& [name, net] : nets) {
    net_ids_.emplace(name, static_cast<int>(net_names_.size()));
    net_names_.push_back(name);
    routes_.push_back(Route{{}, config_.overflow_default, false});
  }

  // Every name in the config must resolve: a typo is an error, not a
  // silently ignored setting.
  auto instance_of = [&](const char* field, const std::string& name) {
    auto it = index.find(name);
    POLIS_CHECK_MSG(it != index.end(),
                    "RtosConfig::" << field << " names unknown instance "
                                   << name << " (network " << network.name()
                                   << ")");
    return it->second;
  };
  auto net_of = [&](const char* field, const std::string& name) {
    auto it = net_ids_.find(name);
    POLIS_CHECK_MSG(it != net_ids_.end(),
                    "RtosConfig::" << field << " names unknown net " << name
                                   << " (network " << network.name() << ")");
    return static_cast<size_t>(it->second);
  };
  for (const auto& [name, priority] : config_.priority)
    tasks_[instance_of("priority", name)].base_priority = priority;
  for (const std::string& name : config_.hardware_instances)
    tasks_[instance_of("hardware_instances", name)].hardware = true;
  for (const auto& [name, monitor] : config_.deadline_monitors)
    tasks_[instance_of("deadline_monitors", name)].monitor = &monitor;
  for (const auto& [name, stall] : config_.faults.stalls)
    tasks_[instance_of("faults.stalls", name)].stall = &stall;
  for (const std::vector<std::string>& chain : config_.chains)
    for (const std::string& name : chain) instance_of("chains", name);
  for (const auto& [name, policy] : config_.overflow_by_net)
    routes_[net_of("overflow_by_net", name)].overflow = policy;
  for (const std::string& name : config_.isr_executed_events)
    routes_[net_of("isr_executed_events", name)].isr_executed = true;

  for (TaskState& t : tasks_) {
    for (const std::vector<std::string>& chain : config_.chains) {
      auto pos = std::find(chain.begin(), chain.end(), t.name);
      if (pos == chain.end()) continue;
      for (++pos; pos != chain.end(); ++pos)
        t.chain_next.push_back(index.at(*pos));
      break;  // a task follows the first chain that names it
    }
    const cfsm::Cfsm& m = *t.instance->machine;
    for (const cfsm::Signal& in : m.inputs())
      t.in_net.push_back(net_ids_.at(t.instance->net_of(in.name)));
    for (const cfsm::Signal& out : m.outputs())
      t.out_net.push_back(net_ids_.at(t.instance->net_of(out.name)));
    t.flags.assign(m.inputs().size(), PortFlag{});
    t.incoming = t.frozen = t.flags;
    for (size_t p = 0; p < m.inputs().size(); ++p)
      t.ports_by_name.push_back(static_cast<int>(p));
    std::sort(t.ports_by_name.begin(), t.ports_by_name.end(),
              [&m](int a, int b) {
                return m.inputs()[static_cast<size_t>(a)].name <
                       m.inputs()[static_cast<size_t>(b)].name;
              });
  }
  for (const auto& [name, net] : nets) {
    Route& r = routes_[static_cast<size_t>(net_ids_.at(name))];
    for (const auto& [inst, port] : net.consumers) {
      const size_t ti = index.at(inst);
      const size_t p = input_index(*tasks_[ti].instance->machine, port);
      r.consumers.emplace_back(ti, static_cast<int>(p));
    }
  }

  // A hardware reaction advances simulated time by hw_reaction_cycles. At
  // zero, a cycle of hardware instances re-triggers itself at one instant,
  // which the horizon cannot end: reject it here, as a static cycle.
  POLIS_CHECK_MSG(config_.hw_reaction_cycles >= 0,
                  "RtosConfig::hw_reaction_cycles is negative ("
                      << config_.hw_reaction_cycles << ")");
  if (config_.hw_reaction_cycles == 0) {
    enum Mark : char { kNew, kOnPath, kDone };
    std::vector<Mark> mark(tasks_.size(), kNew);
    std::vector<size_t> path;
    auto visit = [&](size_t ti, const auto& self) -> void {
      mark[ti] = kOnPath;
      path.push_back(ti);
      for (const int net : tasks_[ti].out_net) {
        for (const auto& [next, port] :
             routes_[static_cast<size_t>(net)].consumers) {
          if (!tasks_[next].hardware || mark[next] == kDone) continue;
          if (mark[next] == kOnPath) {
            std::ostringstream cycle;
            for (auto it = std::find(path.begin(), path.end(), next);
                 it != path.end(); ++it)
              cycle << tasks_[*it].name << " -> ";
            check_failed("false", __FILE__, __LINE__,
                         "zero-delay hardware cycle " + cycle.str() +
                             tasks_[next].name + " (network " +
                             network.name() +
                             ", RtosConfig::hw_reaction_cycles = 0)");
          }
          self(next, self);
        }
      }
      path.pop_back();
      mark[ti] = kDone;
    };
    for (size_t ti = 0; ti < tasks_.size(); ++ti)
      if (tasks_[ti].hardware && mark[ti] == kNew) visit(ti, visit);
  }
}

RtosSimulation::TaskState& RtosSimulation::task(const std::string& instance) {
  for (TaskState& t : tasks_)
    if (t.name == instance) return t;
  check_failed("false", __FILE__, __LINE__, "no instance named " + instance);
}

void RtosSimulation::set_task(const std::string& instance, const ReactFn& fn) {
  TaskState& t = task(instance);
  t.kernel = fn.bind(*t.instance->machine);
}

void RtosSimulation::set_reference_task(const std::string& instance,
                                        long long cycles) {
  const cfsm::Cfsm* m = task(instance).instance->machine.get();
  set_task(instance, [m, cycles](const cfsm::Snapshot& snap,
                                 const std::map<std::string, std::int64_t>& st,
                                 long long* out_cycles) {
    *out_cycles = cycles;
    return m->react(snap, st);
  });
}

// The simulation engine proper lives in run(); tasks, deliveries and the
// preemption stack share its locals through lambdas. Enablement is
// edge-triggered (§IV-A): a task becomes runnable when an event *occurs* at
// its input; executing the task clears runnability even if a non-firing
// reaction preserved the events.
SimStats RtosSimulation::run(const std::vector<ExternalEvent>& events,
                             long long horizon) {
  OBS_SPAN(run_span, "rtos.simulate", "rtos");
  const auto wall_start = std::chrono::steady_clock::now();
  if (run_span.armed()) {
    run_span.arg("network", network_->name());
    run_span.arg("external_events", events.size());
  }

  // Every stimulus names a net of the network. Fault and polling sums add
  // cycles to caller times, and a stimulus at kInf would read as "no
  // stimulus": keep caller times below the sentinel.
  std::vector<int> event_net;
  event_net.reserve(events.size());
  for (const ExternalEvent& e : events) {
    auto it = net_ids_.find(e.net);
    POLIS_CHECK_MSG(it != net_ids_.end(),
                    "external event at t=" << e.time << " on net " << e.net
                                           << ", which is not in network "
                                           << network_->name());
    POLIS_CHECK_MSG(e.time < kInf, "external event on net "
                                       << e.net << " at t=" << e.time
                                       << " is not below the time limit "
                                       << kInf);
    event_net.push_back(it->second);
  }

  struct Delivery {
    long long dtime;   // when the flags are actually set
    long long stimulus;  // original environment time (for latency)
    int net;
    std::int64_t value;
    bool polled;
    long long spike = 0;  // injected ISR/polling overhead spike
  };

  // Initialise task state and runnability. Priorities are reset from the
  // config so a kDemote action in a previous run() does not leak.
  for (TaskState& t : tasks_) {
    POLIS_CHECK_MSG(t.kernel != nullptr,
                    "no implementation registered for task " << t.name);
    t.state = initial_state_of(*t.instance->machine);
    std::fill(t.flags.begin(), t.flags.end(), PortFlag{});
    std::fill(t.incoming.begin(), t.incoming.end(), PortFlag{});
    t.present = 0;
    t.running = false;
    t.priority = t.base_priority;
  }
  std::vector<bool> runnable(tasks_.size(), false);
  auto enabled = [](const TaskState& t) {
    return !t.running && t.present > 0;
  };

  // Per-net and per-task outcomes; the SimStats maps are built at the end.
  const size_t num_nets = net_names_.size();
  std::vector<long long> lost(num_nets, 0);
  std::vector<long long> emitted(num_nets, 0);
  std::vector<std::vector<long long>> latency(num_nets);
  std::vector<long long> misses(tasks_.size(), 0);
  long long lost_total = 0;
  long long miss_total = 0;

  SimStats stats;
  static const auto latency_id =  // registered by every valid run
      obs::MetricsRegistry::global().histogram("rtos.latency_cycles");

  // Callers test `logging` first, so no subject string is built otherwise.
  const bool logging = config_.collect_log || config_.live_vcd != nullptr;
  auto log_event = [&](long long time, LogEvent::Kind kind,
                       std::string subject, std::int64_t value) {
    LogEvent e{time, kind, std::move(subject), value};
    if (config_.live_vcd != nullptr) config_.live_vcd->on_event(e);
    if (config_.collect_log) stats.log.push_back(std::move(e));
  };

  // All fault perturbations are drawn from this one seeded stream in a
  // fixed order (per event below, then per dispatch inside run_task), so a
  // plan replays byte-identically from its seed.
  const FaultPlan& plan = config_.faults;
  const bool faulty = !plan.empty();
  Rng fault_rng(plan.seed);

  // Delivery schedule: interrupts arrive at the event time; polled events
  // are seen at the next polling tick. Event faults (drop/delay/duplicate/
  // overhead spike) are applied here, before polling quantisation.
  std::vector<Delivery> schedule;
  schedule.reserve(events.size());
  auto push_delivery = [&](long long etime, size_t k) {
    const ExternalEvent& e = events[k];
    Delivery d;
    d.stimulus = e.time;
    d.net = event_net[k];
    d.value = e.value;
    d.polled = config_.delivery == RtosConfig::HwDelivery::kPolling;
    d.dtime = d.polled
                  ? ((etime + config_.polling_period - 1) /
                     config_.polling_period) *
                        config_.polling_period
                  : etime;
    if (faulty && plan.spike_probability > 0 && plan.spike_cycles > 0 &&
        fault_rng.flip(plan.spike_probability)) {
      d.spike = plan.spike_cycles;
      d.dtime += d.spike;
      stats.injected.spikes++;
      if (logging)
        log_event(d.dtime, LogEvent::Kind::kFault, "spike " + e.net, d.spike);
    }
    schedule.push_back(d);
  };
  for (size_t k = 0; k < events.size(); ++k) {
    const ExternalEvent& e = events[k];
    long long etime = e.time;
    if (faulty) {
      if (plan.drop_probability > 0 && fault_rng.flip(plan.drop_probability)) {
        stats.injected.drops++;
        if (logging)
          log_event(e.time, LogEvent::Kind::kFault, "drop " + e.net, e.value);
        continue;
      }
      if (plan.delay_probability > 0 && plan.max_delay > 0 &&
          fault_rng.flip(plan.delay_probability)) {
        const long long late = fault_rng.uniform(1, plan.max_delay);
        etime += late;
        stats.injected.delays++;
        if (logging)
          log_event(etime, LogEvent::Kind::kFault, "delay " + e.net, late);
      }
    }
    push_delivery(etime, k);
    if (faulty && plan.duplicate_probability > 0 &&
        fault_rng.flip(plan.duplicate_probability)) {
      stats.injected.duplicates++;
      if (logging)
        log_event(etime, LogEvent::Kind::kFault, "duplicate " + e.net,
                  e.value);
      push_delivery(etime + std::max<long long>(1, plan.duplicate_gap), k);
    }
  }
  // Traces usually arrive in time order; only faults and polling reorder.
  auto by_time = [](const Delivery& a, const Delivery& b) {
    return a.dtime < b.dtime;
  };
  if (!std::is_sorted(schedule.begin(), schedule.end(), by_time))
    std::stable_sort(schedule.begin(), schedule.end(), by_time);

  size_t next_delivery = 0;
  size_t rr_cursor = 0;

  // --- Helpers ---------------------------------------------------------------

  // Writes `arrival` into a 1-place buffer (§II-D) under the net's overflow
  // policy; returns false when kDropNew discards it. `clash` describes the
  // collision for the kAbortWithDiagnostic diagnostic.
  auto buffer_write = [&](PortFlag& slot, const PortFlag& arrival, int net,
                          OverflowPolicy policy, long long now,
                          const auto& clash) {
    if (slot.present) {
      lost[static_cast<size_t>(net)]++;
      lost_total++;
      switch (policy) {
        case OverflowPolicy::kOverwrite:
          break;  // paper default: newest wins
        case OverflowPolicy::kDropNew:
          // Oldest wins: the arriving event is discarded.
          if (logging)
            log_event(now, LogEvent::Kind::kFault,
                      "dropnew " + net_names_[static_cast<size_t>(net)],
                      arrival.value);
          return false;
        case OverflowPolicy::kAbortWithDiagnostic: {
          std::ostringstream os;
          os << "buffer overflow on net "
             << net_names_[static_cast<size_t>(net)] << " at t=" << now
             << ": ";
          clash(os);
          throw AbortSim{false, os.str()};
        }
      }
    }
    slot = arrival;
    return true;
  };

  // §IV-D: a reaction reads its flags atomically at start. They move to the
  // task's `frozen` buffer (later arrivals go to the emptied flags or, while
  // it runs, to `incoming`); a reaction that fires no rule gets its input
  // events back for the next execution.
  struct Frozen {
    long long stimulus = kInf;    // originating external stimulus
    long long enabled_at = kInf;  // earliest undetected event (deadlines)
  };
  auto freeze = [](TaskState& t) {
    Frozen f;
    t.frozen.swap(t.flags);
    std::fill(t.flags.begin(), t.flags.end(), PortFlag{});
    t.present = 0;
    for (const PortFlag& flag : t.frozen) {
      if (!flag.present) continue;
      f.stimulus = std::min(f.stimulus, flag.stimulus_time);
      f.enabled_at = std::min(f.enabled_at, flag.emit_time);
    }
    return f;
  };
  auto preserve_if_empty = [](TaskState& t, bool fired) {
    if (fired) return;
    for (size_t p = 0; p < t.frozen.size(); ++p) {
      if (!t.frozen[p].present) continue;
      if (!t.flags[p].present) ++t.present;
      t.flags[p] = t.frozen[p];
    }
  };

  // The on_task_* probes see names: built only when a probe is set.
  auto probe_start = [&](const TaskState& t, long long now) {
    if (config_.on_task_start)
      config_.on_task_start(t.name, now,
                            snapshot_of(*t.instance->machine, t.frozen),
                            state_map(*t.instance->machine, t.state));
  };
  auto probe_end = [&](const TaskState& t, long long now) {
    if (config_.on_task_end)
      config_.on_task_end(t.name, now,
                          state_map(*t.instance->machine, t.state));
  };

  // Watchdog state: reactions executed since the last external output, and
  // since when each task has been runnable without being dispatched.
  long long reactions_since_output = 0;
  std::vector<long long> runnable_since(tasks_.size(), -1);
  long long watermark = 0;  // latest simulated time (for abort diagnostics)

  auto note_reaction = [&](size_t task, long long now, bool fired) {
    stats.reactions_run++;
    if (config_.watchdog.livelock_reactions > 0 &&
        ++reactions_since_output > config_.watchdog.livelock_reactions) {
      std::ostringstream os;
      os << "watchdog: livelock — " << reactions_since_output
         << " reactions without an external output (last task "
         << tasks_[task].name << " at t=" << now << ")";
      throw AbortSim{true, os.str()};
    }
    if (!fired) stats.empty_reactions++;
  };

  auto check_starvation = [&](long long now) {
    if (config_.watchdog.starvation_cycles <= 0) return;
    for (size_t i = 0; i < tasks_.size(); ++i) {
      if (!runnable[i] || runnable_since[i] < 0) continue;
      const long long waited = now - runnable_since[i];
      if (waited > config_.watchdog.starvation_cycles) {
        std::ostringstream os;
        os << "watchdog: starvation — task " << tasks_[i].name
           << " runnable for " << waited << " cycles (since t="
           << runnable_since[i] << ") without being dispatched";
        throw AbortSim{true, os.str()};
      }
    }
  };

  // --- Delivery cascade -----------------------------------------------------
  // An emission goes to every consumer of its net in route order. A hardware
  // consumer (§I-A) reacts at once, and its emissions are delivered, depth
  // first, before the next consumer is served. The cascade runs on an
  // explicit stack: a cycle of hardware instances never returns to the main
  // loop, so a hardware reaction starts only at or before the horizon.
  struct Step {
    bool hardware = false;      // a hardware reaction's emissions, else one
                                // delivery of `value` on `net`
    int net = 0;
    std::int64_t value = 0;
    long long time = 0;         // delivery / hardware completion time
    long long stimulus = 0;
    int producer = -1;          // task index, -1 = the environment
    size_t next = 0;            // next consumer / next emission
    size_t begin = 0, end = 0;  // hardware: its emissions in `pending`
  };
  std::vector<Step> cascade;
  std::vector<std::pair<int, std::int64_t>> pending;  // (net, value)
  const std::string env_name = "env";
  auto producer_name = [&](int producer) -> const std::string& {
    return producer < 0 ? env_name : tasks_[static_cast<size_t>(producer)].name;
  };

  // Logs and counts one emission; an emission on a net with no consumer is
  // observed by the environment, any other is pushed for delivery.
  auto emit = [&](int net, std::int64_t value, long long now,
                  long long stimulus, int producer) {
    const size_t n = static_cast<size_t>(net);
    if (logging)
      log_event(now, LogEvent::Kind::kEmission, net_names_[n], value);
    emitted[n]++;
    watermark = std::max(watermark, now);
    if (routes_[n].consumers.empty()) {
      stats.outputs.push_back(
          ObservedEmission{now, net_names_[n], value, producer_name(producer)});
      latency[n].push_back(now - stimulus);
      if (now >= stimulus)  // lock-free shard path; epoch sketches read this
        obs::MetricsRegistry::global().observe(
            latency_id, static_cast<std::uint64_t>(now - stimulus));
      reactions_since_output = 0;
      return;
    }
    Step s;
    s.net = net;
    s.value = value;
    s.time = now;
    s.stimulus = stimulus;
    s.producer = producer;
    cascade.push_back(s);
  };

  // One reaction of a hw-CFSM: instantaneous w.r.t. the CPU,
  // `hw_reaction_cycles` of wall-clock latency; its emissions are pushed.
  auto react_hardware = [&](size_t ti, long long now) {
    if (now > horizon) return;  // the event stays buffered
    TaskState& t = tasks_[ti];
    const Frozen in = freeze(t);
    probe_start(t, now);
    t.emissions.clear();
    long long unused_cycles = 0;
    const bool fired =
        t.kernel->react(t.frozen, t.state, t.emissions, &unused_cycles);
    note_reaction(ti, now, fired);
    preserve_if_empty(t, fired);
    const long long done = now + config_.hw_reaction_cycles;
    probe_end(t, done);
    if (t.emissions.empty()) return;
    Step s;
    s.hardware = true;
    s.time = done;
    s.stimulus = in.stimulus == kInf ? done : in.stimulus;
    s.producer = static_cast<int>(ti);
    s.begin = s.next = pending.size();
    for (const auto& [port, value] : t.emissions)
      pending.emplace_back(t.out_net[static_cast<size_t>(port)], value);
    s.end = pending.size();
    cascade.push_back(s);
  };

  // Delivers one emission and everything it cascades into. A step whose
  // last piece of work starts a deeper one is popped first, so a chain of
  // hardware reactions runs in constant stack space.
  auto deliver = [&](int net, std::int64_t value, long long now,
                     long long stimulus, int producer) {
    emit(net, value, now, stimulus, producer);
    while (!cascade.empty()) {
      Step& s = cascade.back();
      if (s.hardware) {
        const std::pair<int, std::int64_t> out = pending[s.next++];
        const Step from = s;
        if (s.next == s.end) {
          pending.resize(s.begin);
          cascade.pop_back();
        }
        emit(out.first, out.second, from.time, from.stimulus, from.producer);
        continue;
      }
      const Route& r = routes_[static_cast<size_t>(s.net)];
      bool descended = false;
      while (s.next < r.consumers.size()) {
        const auto [ti, port] = r.consumers[s.next++];
        TaskState& c = tasks_[ti];
        const size_t p = static_cast<size_t>(port);
        PortFlag& slot = (c.running ? c.incoming : c.flags)[p];
        const bool was_present = slot.present;
        if (!buffer_write(slot, PortFlag{true, s.value, s.time, s.stimulus},
                          s.net, r.overflow, s.time, [&](std::ostream& os) {
                            os << "event from " << producer_name(s.producer)
                               << " found port "
                               << c.instance->machine->inputs()[p].name
                               << " of task " << c.name << " already full";
                          }))
          continue;
        if (!was_present && !c.running) ++c.present;
        if (logging)
          log_event(s.time, LogEvent::Kind::kDelivery, c.name, s.value);
        if (c.hardware) {
          const long long at = s.time;
          if (s.next == r.consumers.size()) cascade.pop_back();
          react_hardware(ti, at);
          descended = true;
          break;
        }
        if (!c.running) {
          if (!runnable[ti]) runnable_since[ti] = s.time;
          runnable[ti] = true;
        }
      }
      if (!descended) cascade.pop_back();
    }
  };

  // Set when deliver_due hands an ISR-executed event in; serviced by
  // service_isr on an idle CPU or in the middle of a reaction.
  std::vector<size_t> isr_ready;

  auto deliver_due = [&](long long now) {
    while (next_delivery < schedule.size() &&
           schedule[next_delivery].dtime <= now) {
      const Delivery& d = schedule[next_delivery++];
      constexpr long long kPollingRoutineCycles = 60;  // per polled event
      constexpr long long kIsrOverheadCycles = 25;     // ISR entry + exit
      stats.overhead_cycles +=
          (d.polled ? kPollingRoutineCycles : kIsrOverheadCycles) + d.spike;
      deliver(d.net, d.value, d.dtime, d.stimulus, -1);
      const Route& r = routes_[static_cast<size_t>(d.net)];
      if (d.polled || !r.isr_executed) continue;
      for (const auto& consumer : r.consumers)
        if (runnable[consumer.first] && enabled(tasks_[consumer.first]))
          isr_ready.push_back(consumer.first);
    }
  };

  // §IV-C immediate attention: runs the ISR-executed consumers queued by
  // deliver_due, from `now`; returns the time they are done.
  auto service_isr = [&](long long now, const auto& run_task) {
    while (!isr_ready.empty()) {
      const size_t h = isr_ready.back();
      isr_ready.pop_back();
      if (runnable[h] && enabled(tasks_[h]))
        now = run_task(h, now, config_.context_switch_cycles, run_task);
    }
    return now;
  };

  auto pick_next = [&]() -> int {
    if (config_.policy == RtosConfig::Policy::kRoundRobin) {
      for (size_t k = 0; k < tasks_.size(); ++k) {
        const size_t i = (rr_cursor + k) % tasks_.size();
        if (runnable[i] && enabled(tasks_[i])) {
          rr_cursor = (i + 1) % tasks_.size();
          return static_cast<int>(i);
        }
      }
      return -1;
    }
    int best = -1;
    for (size_t i = 0; i < tasks_.size(); ++i) {
      if (!runnable[i] || !enabled(tasks_[i])) continue;
      if (best < 0 ||
          tasks_[i].priority < tasks_[static_cast<size_t>(best)].priority)
        best = static_cast<int>(i);
    }
    return best;
  };

  // Runs one reaction starting at `start`; returns its completion time.
  // With preemption, higher-priority tasks enabled by mid-run deliveries run
  // inside this call, extending the completion time. `dispatch_cycles` is
  // the scheduling overhead charged for this activation (a full context
  // switch normally, the cheap chain link for §IV-A chained executions).
  auto run_task = [&](size_t idx, long long start, long long dispatch_cycles,
                      auto&& self) -> long long {
    TaskState& t = tasks_[idx];
    runnable[idx] = false;
    runnable_since[idx] = -1;

    // Dispatch-order fault draws: stall first, then execution jitter.
    if (faulty && t.stall != nullptr && t.stall->cycles > 0 &&
        fault_rng.flip(t.stall->probability)) {
      dispatch_cycles += t.stall->cycles;
      stats.injected.stalls++;
      if (logging)
        log_event(start, LogEvent::Kind::kFault, "stall " + t.name,
                  t.stall->cycles);
    }

    const Frozen in = freeze(t);
    t.running = true;
    if (logging) log_event(start, LogEvent::Kind::kTaskStart, t.name, 0);
    probe_start(t, start);

    // The reaction computes its next state and emissions now; nothing reads
    // the task's state before its completion, where both take effect.
    long long cycles = 0;
    t.emissions.clear();
    const bool fired = t.kernel->react(t.frozen, t.state, t.emissions, &cycles);
    note_reaction(idx, start, fired);
    if (faulty && plan.exec_jitter > 0) {
      const long long extra = std::llround(static_cast<double>(cycles) *
                                           plan.exec_jitter *
                                           fault_rng.uniform01());
      if (extra > 0) {
        cycles += extra;
        stats.injected.jittered++;
        if (logging)
          log_event(start, LogEvent::Kind::kFault, "jitter " + t.name, extra);
      }
    }
    stats.busy_cycles += cycles;
    stats.overhead_cycles += dispatch_cycles;

    long long now = start;
    long long remaining = cycles + dispatch_cycles;
    while (remaining > 0) {
      const long long next_d = next_delivery < schedule.size()
                                   ? schedule[next_delivery].dtime
                                   : kInf;
      if (next_d >= now + remaining) {
        now += remaining;
        remaining = 0;
        break;
      }
      remaining -= next_d - now;
      now = next_d;
      deliver_due(now);
      now = service_isr(now, self);
      if (config_.preemptive) {
        while (true) {
          int h = pick_next();
          if (h < 0 ||
              tasks_[static_cast<size_t>(h)].priority >= t.priority)
            break;
          now = self(static_cast<size_t>(h), now,
                     config_.context_switch_cycles, self);
        }
      }
    }
    watermark = std::max(watermark, now);

    // Completion: the effects apply atomically (the reaction delay has
    // elapsed).
    probe_end(t, now);
    // A fresh arrival for a preserved port (merged below) overwrites the
    // preserved event, counting it as lost.
    preserve_if_empty(t, fired);
    // Merge buffered arrivals in port-name order, under the same per-net
    // overflow policy as delivery: a preserved event and a buffered arrival
    // contend for the same 1-place buffer.
    bool any_incoming = false;
    for (const int port : t.ports_by_name) {
      const size_t p = static_cast<size_t>(port);
      if (!t.incoming[p].present) continue;
      const int net = t.in_net[p];
      const bool was_present = t.flags[p].present;
      const bool written = buffer_write(
          t.flags[p], t.incoming[p], net,
          routes_[static_cast<size_t>(net)].overflow, now,
          [&](std::ostream& os) {
            os << "arrival buffered during the reaction of task " << t.name
               << " collided with its preserved event on port "
               << t.instance->machine->inputs()[p].name;
          });
      if (written && !was_present) ++t.present;
      any_incoming |= written;
    }
    std::fill(t.incoming.begin(), t.incoming.end(), PortFlag{});
    t.running = false;
    if (any_incoming) {
      if (!runnable[idx]) runnable_since[idx] = now;
      runnable[idx] = true;
    }

    // Deadline monitor: response time is measured from the earliest event
    // that enabled this activation to its completion.
    const DeadlineMonitor* monitor = t.monitor;
    if (monitor != nullptr && monitor->deadline_cycles > 0 &&
        in.enabled_at != kInf &&
        now - in.enabled_at > monitor->deadline_cycles) {
      misses[idx]++;
      miss_total++;
      if (logging)
        log_event(now, LogEvent::Kind::kDeadlineMiss, t.name,
                  now - in.enabled_at);
      switch (monitor->action) {
        case DeadlineMonitor::MissAction::kCount:
          break;
        case DeadlineMonitor::MissAction::kFlushRestart:
          // Shed load: drop every pending input and restart the task.
          std::fill(t.flags.begin(), t.flags.end(), PortFlag{});
          std::fill(t.incoming.begin(), t.incoming.end(), PortFlag{});
          t.present = 0;
          t.state = initial_state_of(*t.instance->machine);
          runnable[idx] = false;
          runnable_since[idx] = -1;
          break;
        case DeadlineMonitor::MissAction::kDemote:
          t.priority += monitor->demote_by;
          break;
      }
    }

    if (logging) log_event(now, LogEvent::Kind::kTaskEnd, t.name, 0);
    // Emissions propagate at completion time.
    const long long stimulus = in.stimulus == kInf ? now : in.stimulus;
    for (const auto& [port, value] : t.emissions)
      deliver(t.out_net[static_cast<size_t>(port)], value, now, stimulus,
              static_cast<int>(idx));

    // §IV-A chaining: run later members of this task's chain that the
    // emissions just enabled, bypassing the scheduler.
    constexpr long long kChainLinkCycles = 5;  // vs a full context switch
    for (const size_t next : t.chain_next)
      if (runnable[next] && enabled(tasks_[next]))
        now = self(next, now, kChainLinkCycles, self);
    check_starvation(now);
    return now;
  };

  // --- Main loop ----------------------------------------------------------------
  // Streaming epochs: one metrics epoch per metrics_epoch_cycles boundary the
  // simulated clock crosses, driven only by deterministic integer state.
  obs::MirrorState published;
  const long long epoch_cycles = config_.metrics_epoch_cycles;
  long long next_epoch = epoch_cycles > 0 ? epoch_cycles : kInf;
#ifndef POLIS_OBS_DISABLED
  const bool epochs_on =
      epoch_cycles > 0 && obs::SeriesRecorder::global().enabled();
  // Re-baseline so the sim series starts from this run's state regardless of
  // what earlier pipeline phases did to the registry.
  if (epochs_on) obs::SeriesRecorder::global().begin_series(obs::Timebase::kSim);
#endif
  long long now = 0;
  try {
    while (now <= horizon) {
      while (now >= next_epoch) {
#ifndef POLIS_OBS_DISABLED
        if (epochs_on) {
          obs::drain<kSimTotalMetrics>(
              SimTotals{stats, lost_total, miss_total}, published);
          OBS_TICK_EPOCH(obs::Timebase::kSim, next_epoch);
        }
#endif
        next_epoch += epoch_cycles;
      }
      // Amortized deadline/cancel check: a pathological schedule (dense
      // deliveries, runaway preemption) stays bounded by the ambient
      // governor instead of running to the horizon.
      ResourceGovernor::poll_current();
      deliver_due(now);
      check_starvation(now);
      now = service_isr(now, run_task);
      const int idx = pick_next();
      if (idx >= 0) {
        now = run_task(static_cast<size_t>(idx), now,
                       config_.context_switch_cycles, run_task);
        continue;
      }
      if (next_delivery < schedule.size()) {
        now = schedule[next_delivery].dtime;
        continue;
      }
      break;
    }
  } catch (const AbortSim& abort) {
    stats.aborted = true;
    stats.watchdog_fired = abort.watchdog;
    stats.diagnostic = abort.diagnostic;
    if (config_.collect_log && !stats.log.empty()) {
      // Append the tail of the event log as the diagnostic trace.
      std::ostringstream os;
      os << stats.diagnostic << "\n  trace tail:";
      const size_t first = stats.log.size() > 8 ? stats.log.size() - 8 : 0;
      for (size_t i = first; i < stats.log.size(); ++i) {
        const LogEvent& e = stats.log[i];
        static const char* const kind_names[] = {
            "start", "end", "emit", "deliver", "fault", "deadline-miss"};
        os << "\n    t=" << e.time << " "
           << kind_names[static_cast<int>(e.kind)] << " " << e.subject << " "
           << e.value;
      }
      stats.diagnostic = os.str();
    }
  }
  stats.end_time = std::max(now, watermark);
  for (size_t n = 0; n < num_nets; ++n) {
    if (lost[n] > 0) stats.lost_events[net_names_[n]] = lost[n];
    if (emitted[n] > 0) stats.emitted_events[net_names_[n]] = emitted[n];
    if (!latency[n].empty())
      stats.input_to_output_latency[net_names_[n]] = std::move(latency[n]);
  }
  for (size_t i = 0; i < tasks_.size(); ++i)
    if (misses[i] > 0) stats.deadline_misses[tasks_[i].name] = misses[i];
  // Closing the live VCD here — not at any earlier exit — is what keeps a
  // waveform from an aborted run loadable: wires still high are dropped and
  // the final timestamp is stamped even when AbortSim cut the run short.
  if (config_.live_vcd != nullptr) config_.live_vcd->finish(stats.end_time);
  if (run_span.armed()) {
    run_span.arg("end_time", stats.end_time);
    run_span.arg("reactions", stats.reactions_run);
    run_span.arg("aborted", stats.aborted);
    // Throughput in wall-clock time: trace-only, so the registry and the
    // simulated-cycle series stay byte-identical across runs.
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();
    if (wall > 0) {
      run_span.arg("events_per_s", static_cast<double>(events.size()) / wall);
      run_span.arg("reactions_per_s",
                   static_cast<double>(stats.reactions_run) / wall);
    }
  }
  obs::drain<kSimTotalMetrics>(SimTotals{stats, lost_total, miss_total},
                               published);
  obs::publish<kSimRunMetrics>(stats);
  return stats;
}

}  // namespace polis::rtos
