#include "rtos/rtos.hpp"

#include <algorithm>
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

struct SimStatIds {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  obs::MetricsRegistry::Id runs = reg.counter("rtos.runs");
  obs::MetricsRegistry::Id reactions = reg.counter("rtos.reactions_run");
  obs::MetricsRegistry::Id empty = reg.counter("rtos.empty_reactions");
  obs::MetricsRegistry::Id busy = reg.counter("rtos.busy_cycles");
  obs::MetricsRegistry::Id overhead = reg.counter("rtos.overhead_cycles");
  obs::MetricsRegistry::Id lost = reg.counter("rtos.lost_events");
  obs::MetricsRegistry::Id misses = reg.counter("rtos.deadline_misses");
  obs::MetricsRegistry::Id aborted = reg.counter("rtos.aborted_runs");
  obs::MetricsRegistry::Id watchdog = reg.counter("rtos.watchdog_fires");
  obs::MetricsRegistry::Id faults = reg.counter("rtos.injected_faults");
  obs::MetricsRegistry::Id span = reg.histogram("rtos.run_cycles");
  obs::MetricsRegistry::Id latency = reg.histogram("rtos.latency_cycles");
};
const SimStatIds& sim_stat_ids() {
  static const SimStatIds ids;
  return ids;
}

// How much of the in-flight SimStats has already been mirrored into the
// registry; the per-epoch publisher drains against this so the end-of-run
// publish never double-counts.
struct PublishedSim {
  long long reactions = 0;
  long long empty = 0;
  long long busy = 0;
  long long overhead = 0;
  long long lost = 0;
  long long misses = 0;
  long long faults = 0;
};

// Mirrors the monotonic pieces of a (possibly mid-run) SimStats into the
// registry as deltas since the last publish. Called per metrics epoch and
// once at run end.
void publish_sim_deltas(const SimStats& stats, PublishedSim& pub) {
  const SimStatIds& ids = sim_stat_ids();
  obs::MetricsRegistry& reg = ids.reg;
  auto drain = [&](obs::MetricsRegistry::Id id, long long now,
                   long long& last) {
    if (now > last) reg.add(id, static_cast<std::uint64_t>(now - last));
    last = now;
  };
  drain(ids.reactions, stats.reactions_run, pub.reactions);
  drain(ids.empty, stats.empty_reactions, pub.empty);
  drain(ids.busy, stats.busy_cycles, pub.busy);
  drain(ids.overhead, stats.overhead_cycles, pub.overhead);
  long long lost = 0;
  for (const auto& [net, n] : stats.lost_events) lost += n;
  drain(ids.lost, lost, pub.lost);
  long long misses = 0;
  for (const auto& [task, n] : stats.deadline_misses) misses += n;
  drain(ids.misses, misses, pub.misses);
  drain(ids.faults, stats.injected.total(), pub.faults);
}

// End-of-run publish: the remaining deltas plus the once-per-run outcomes.
void publish_sim_stats(const SimStats& stats, PublishedSim& pub) {
  const SimStatIds& ids = sim_stat_ids();
  obs::MetricsRegistry& reg = ids.reg;
  publish_sim_deltas(stats, pub);
  reg.add(ids.runs, 1);
  if (stats.aborted) reg.add(ids.aborted, 1);
  if (stats.watchdog_fired) reg.add(ids.watchdog, 1);
  reg.observe(ids.span, static_cast<std::uint64_t>(stats.end_time));
}

// Internal control-flow: a degradation policy or the watchdog terminates
// the run; caught in run(), never escapes to the caller.
struct AbortSim {
  bool watchdog = false;
  std::string diagnostic;
};
}  // namespace

RtosSimulation::RtosSimulation(const cfsm::Network& network, RtosConfig config)
    : network_(&network), config_(std::move(config)) {
  std::map<std::string, size_t> index;
  for (const cfsm::Instance& inst : network.instances()) {
    index[inst.name] = tasks_.size();
    TaskState t;
    t.name = inst.name;
    t.instance = &inst;
    t.hardware = config_.hardware_instances.count(inst.name) != 0;
    tasks_.push_back(std::move(t));
  }
  for (TaskState& t : tasks_) {
    for (const std::vector<std::string>& chain : config_.chains) {
      auto pos = std::find(chain.begin(), chain.end(), t.name);
      if (pos == chain.end()) continue;
      for (++pos; pos != chain.end(); ++pos)
        if (index.count(*pos) != 0) t.chain_next.push_back(index.at(*pos));
      break;  // a task follows the first chain that names it
    }
  }
  for (const auto& [name, net] : network.nets()) {
    Route& r = routes_[name];
    for (const auto& [inst, port] : net.consumers)
      r.consumers.emplace_back(index.at(inst), port);
    auto it = config_.overflow_by_net.find(name);
    r.overflow = it != config_.overflow_by_net.end() ? it->second
                                                     : config_.overflow_default;
    r.isr_executed = config_.isr_executed_events.count(name) != 0;
  }
}

RtosSimulation::TaskState& RtosSimulation::task(const std::string& instance) {
  for (TaskState& t : tasks_)
    if (t.name == instance) return t;
  check_failed("false", __FILE__, __LINE__, "no instance named " + instance);
}

void RtosSimulation::set_task(const std::string& instance, ReactFn fn) {
  task(instance).react = std::move(fn);
}

void RtosSimulation::set_reference_task(const std::string& instance,
                                        long long cycles) {
  TaskState& t = task(instance);
  const cfsm::Cfsm* m = t.instance->machine.get();
  t.react = [m, cycles](const cfsm::Snapshot& snap,
                        const std::map<std::string, std::int64_t>& st,
                        long long* out_cycles) {
    *out_cycles = cycles;
    return m->react(snap, st);
  };
}

bool RtosSimulation::enabled(const TaskState& t) const {
  if (t.running) return false;
  for (const auto& [port, flag] : t.flags)
    if (flag.present) return true;
  return false;
}

// The simulation engine proper lives in run(); tasks, deliveries and the
// preemption stack share its locals through lambdas. Enablement is
// edge-triggered (§IV-A): a task becomes runnable when an event *occurs* at
// its input; executing the task clears runnability even if a non-firing
// reaction preserved the events.
SimStats RtosSimulation::run(const std::vector<ExternalEvent>& events,
                             long long horizon) {
  OBS_SPAN(run_span, "rtos.simulate", "rtos");
  if (run_span.armed()) {
    run_span.arg("network", network_->name());
    run_span.arg("external_events", events.size());
  }

  // Fault and polling sums add cycles to caller times, and a stimulus at
  // kInf would read as "no stimulus": keep caller times below the sentinel.
  for (const ExternalEvent& e : events)
    POLIS_CHECK_MSG(e.time < kInf, "external event on net "
                                       << e.net << " at t=" << e.time
                                       << " is not below the time limit "
                                       << kInf);

  struct Delivery {
    long long dtime;   // when the flags are actually set
    long long stimulus;  // original environment time (for latency)
    std::string net;
    std::int64_t value;
    bool polled;
    long long spike = 0;  // injected ISR/polling overhead spike
  };

  // Initialise task state and runnability. Priorities are re-read from the
  // config so a kDemote action in a previous run() does not leak.
  for (TaskState& t : tasks_) {
    POLIS_CHECK_MSG(t.react != nullptr,
                    "no implementation registered for task " << t.name);
    t.state = t.instance->machine->initial_state();
    t.flags.clear();
    t.incoming.clear();
    t.running = false;
    auto it = config_.priority.find(t.name);
    t.priority = it != config_.priority.end() ? it->second : 100;
  }
  std::vector<bool> runnable(tasks_.size(), false);

  SimStats stats;

  auto log_event = [&](long long time, LogEvent::Kind kind,
                       const std::string& subject, std::int64_t value) {
    if (!config_.collect_log && config_.live_vcd == nullptr) return;
    const LogEvent e{time, kind, subject, value};
    if (config_.live_vcd != nullptr) config_.live_vcd->on_event(e);
    if (config_.collect_log) stats.log.push_back(e);
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
  auto push_delivery = [&](long long etime, const ExternalEvent& e) {
    Delivery d;
    d.stimulus = e.time;
    d.net = e.net;
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
      log_event(d.dtime, LogEvent::Kind::kFault, "spike " + e.net, d.spike);
    }
    schedule.push_back(std::move(d));
  };
  for (const ExternalEvent& e : events) {
    long long etime = e.time;
    if (faulty) {
      if (plan.drop_probability > 0 && fault_rng.flip(plan.drop_probability)) {
        stats.injected.drops++;
        log_event(e.time, LogEvent::Kind::kFault, "drop " + e.net, e.value);
        continue;
      }
      if (plan.delay_probability > 0 && plan.max_delay > 0 &&
          fault_rng.flip(plan.delay_probability)) {
        const long long late = fault_rng.uniform(1, plan.max_delay);
        etime += late;
        stats.injected.delays++;
        log_event(etime, LogEvent::Kind::kFault, "delay " + e.net, late);
      }
    }
    push_delivery(etime, e);
    if (faulty && plan.duplicate_probability > 0 &&
        fault_rng.flip(plan.duplicate_probability)) {
      stats.injected.duplicates++;
      log_event(etime, LogEvent::Kind::kFault, "duplicate " + e.net, e.value);
      push_delivery(etime + std::max<long long>(1, plan.duplicate_gap), e);
    }
  }
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const Delivery& a, const Delivery& b) {
                     return a.dtime < b.dtime;
                   });

  size_t next_delivery = 0;
  size_t rr_cursor = 0;

  // --- Helpers ---------------------------------------------------------------

  // Writes `arrival` into a 1-place buffer (§II-D) under the net's overflow
  // policy; returns false when kDropNew discards it. `clash` describes the
  // collision for the kAbortWithDiagnostic diagnostic.
  auto buffer_write = [&](Flag& slot, const Flag& arrival,
                          const std::string& net, OverflowPolicy policy,
                          long long now, const auto& clash) {
    if (slot.present) {
      stats.lost_events[net]++;
      switch (policy) {
        case OverflowPolicy::kOverwrite:
          break;  // paper default: newest wins
        case OverflowPolicy::kDropNew:
          // Oldest wins: the arriving event is discarded.
          log_event(now, LogEvent::Kind::kFault, "dropnew " + net,
                    arrival.value);
          return false;
        case OverflowPolicy::kAbortWithDiagnostic: {
          std::ostringstream os;
          os << "buffer overflow on net " << net << " at t=" << now << ": ";
          clash(os);
          throw AbortSim{false, os.str()};
        }
      }
    }
    slot = arrival;
    return true;
  };

  // §IV-D: a reaction reads its flags atomically at start (later arrivals go
  // to the incoming buffer); a reaction that fires no rule gets its input
  // events back for the next execution.
  struct Frozen {
    cfsm::Snapshot snap;
    std::map<std::string, Flag> flags;
    long long stimulus = kInf;    // originating external stimulus
    long long enabled_at = kInf;  // earliest undetected event (deadlines)
  };
  auto freeze = [](TaskState& t) {
    Frozen f;
    for (const auto& [port, flag] : t.flags) {
      if (!flag.present) continue;
      f.snap.present[port] = true;
      const cfsm::Signal* in = t.instance->machine->find_input(port);
      if (in != nullptr && !in->is_pure()) f.snap.value[port] = flag.value;
      f.stimulus = std::min(f.stimulus, flag.stimulus_time);
      f.enabled_at = std::min(f.enabled_at, flag.emit_time);
    }
    f.flags.swap(t.flags);
    return f;
  };
  auto preserve_if_empty = [](TaskState& t, const Frozen& f,
                              const cfsm::Reaction& reaction) {
    if (reaction.fired) return;
    for (const auto& [port, flag] : f.flags)
      if (flag.present) t.flags[port] = flag;
  };

  // Watchdog state: reactions executed since the last external output, and
  // since when each task has been runnable without being dispatched.
  long long reactions_since_output = 0;
  std::vector<long long> runnable_since(tasks_.size(), -1);
  long long watermark = 0;  // latest simulated time (for abort diagnostics)

  auto note_reaction = [&](const std::string& task, long long now,
                           bool fired) {
    stats.reactions_run++;
    if (config_.watchdog.livelock_reactions > 0 &&
        ++reactions_since_output > config_.watchdog.livelock_reactions) {
      std::ostringstream os;
      os << "watchdog: livelock — " << reactions_since_output
         << " reactions without an external output (last task " << task
         << " at t=" << now << ")";
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

  // Executes one reaction of a hw-CFSM (§I-A): instantaneous w.r.t. the
  // CPU, `hw_reaction_cycles` of wall-clock latency, emissions cascade.
  std::function<void(size_t, long long)> run_hardware;

  std::function<void(const std::string&, std::int64_t, long long, long long,
                     const std::string&)>
      deliver_to_consumers;
  deliver_to_consumers = [&](const std::string& net, std::int64_t value,
                             long long now, long long stimulus,
                             const std::string& producer) -> void {
    log_event(now, LogEvent::Kind::kEmission, net, value);
    stats.emitted_events[net]++;
    watermark = std::max(watermark, now);
    const auto r = routes_.find(net);
    if (r == routes_.end() || r->second.consumers.empty()) {
      // External output: observed by the environment.
      stats.outputs.push_back(ObservedEmission{now, net, value, producer});
      stats.input_to_output_latency[net].push_back(now - stimulus);
      if (now >= stimulus)  // lock-free shard path; epoch sketches read this
        sim_stat_ids().reg.observe(
            sim_stat_ids().latency, static_cast<std::uint64_t>(now - stimulus));
      reactions_since_output = 0;
      return;
    }
    for (const auto& [ti, port] : r->second.consumers) {
      TaskState& c = tasks_[ti];
      if (!buffer_write((c.running ? c.incoming : c.flags)[port],
                        Flag{true, value, now, stimulus}, net,
                        r->second.overflow, now, [&](std::ostream& os) {
                          os << "event from " << producer << " found port "
                             << port << " of task " << c.name
                             << " already full";
                        }))
        continue;
      log_event(now, LogEvent::Kind::kDelivery, c.name, value);
      if (c.hardware) {
        run_hardware(ti, now);
      } else if (!c.running) {
        if (!runnable[ti]) runnable_since[ti] = now;
        runnable[ti] = true;
      }
    }
  };

  run_hardware = [&](size_t ti, long long now) {
    TaskState& t = tasks_[ti];
    const Frozen in = freeze(t);
    if (config_.on_task_start)
      config_.on_task_start(t.name, now, in.snap, t.state);
    long long unused_cycles = 0;
    const cfsm::Reaction reaction = t.react(in.snap, t.state, &unused_cycles);
    note_reaction(t.name, now, reaction.fired);
    preserve_if_empty(t, in, reaction);
    t.state = reaction.next_state;
    const long long done = now + config_.hw_reaction_cycles;
    if (config_.on_task_end) config_.on_task_end(t.name, done, t.state);
    for (const auto& [port, value] : reaction.emissions)
      deliver_to_consumers(t.instance->net_of(port), value, done,
                           in.stimulus == kInf ? done : in.stimulus, t.name);
  };

  // Set when deliver_due hands an ISR-executed event in; serviced by
  // service_isr on an idle CPU or in the middle of a reaction.
  std::vector<size_t> isr_ready;

  auto deliver_due = [&](long long now) {
    while (next_delivery < schedule.size() &&
           schedule[next_delivery].dtime <= now) {
      const Delivery& d = schedule[next_delivery++];
      stats.overhead_cycles += (d.polled ? config_.polling_routine_cycles
                                         : config_.isr_overhead_cycles) +
                               d.spike;
      deliver_to_consumers(d.net, d.value, d.dtime, d.stimulus, "env");
      const auto r = d.polled ? routes_.end() : routes_.find(d.net);
      if (r == routes_.end() || !r->second.isr_executed) continue;
      for (const auto& consumer : r->second.consumers)
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
    if (faulty) {
      auto stall = plan.stalls.find(t.name);
      if (stall != plan.stalls.end() && stall->second.cycles > 0 &&
          fault_rng.flip(stall->second.probability)) {
        dispatch_cycles += stall->second.cycles;
        stats.injected.stalls++;
        log_event(start, LogEvent::Kind::kFault, "stall " + t.name,
                  stall->second.cycles);
      }
    }

    const Frozen in = freeze(t);
    t.running = true;
    log_event(start, LogEvent::Kind::kTaskStart, t.name, 0);
    if (config_.on_task_start)
      config_.on_task_start(t.name, start, in.snap, t.state);

    long long cycles = 0;
    const cfsm::Reaction reaction = t.react(in.snap, t.state, &cycles);
    note_reaction(t.name, start, reaction.fired);
    if (faulty && plan.exec_jitter > 0) {
      const long long extra = std::llround(static_cast<double>(cycles) *
                                           plan.exec_jitter *
                                           fault_rng.uniform01());
      if (extra > 0) {
        cycles += extra;
        stats.injected.jittered++;
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

    // Completion: apply effects atomically (the reaction delay has elapsed).
    t.state = reaction.next_state;
    if (config_.on_task_end) config_.on_task_end(t.name, now, t.state);
    // A fresh arrival for a preserved port (merged below) overwrites the
    // preserved event, counting it as lost.
    preserve_if_empty(t, in, reaction);
    // Merge buffered arrivals, under the same per-net overflow policy as
    // delivery: a preserved event and a buffered arrival contend for the
    // same 1-place buffer.
    bool any_incoming = false;
    for (const auto& [port, flag] : t.incoming) {
      if (!flag.present) continue;
      const std::string& net = t.instance->net_of(port);
      any_incoming |= buffer_write(
          t.flags[port], flag, net, routes_.at(net).overflow, now,
          [&](std::ostream& os) {
            os << "arrival buffered during the reaction of task " << t.name
               << " collided with its preserved event on port " << port;
          });
    }
    t.incoming.clear();
    t.running = false;
    if (any_incoming) {
      if (!runnable[idx]) runnable_since[idx] = now;
      runnable[idx] = true;
    }

    // Deadline monitor: response time is measured from the earliest event
    // that enabled this activation to its completion.
    auto monitor = config_.deadline_monitors.find(t.name);
    if (monitor != config_.deadline_monitors.end() &&
        monitor->second.deadline_cycles > 0 && in.enabled_at != kInf &&
        now - in.enabled_at > monitor->second.deadline_cycles) {
      stats.deadline_misses[t.name]++;
      log_event(now, LogEvent::Kind::kDeadlineMiss, t.name,
                now - in.enabled_at);
      switch (monitor->second.action) {
        case DeadlineMonitor::MissAction::kCount:
          break;
        case DeadlineMonitor::MissAction::kFlushRestart:
          // Shed load: drop every pending input and restart the task.
          t.flags.clear();
          t.incoming.clear();
          t.state = t.instance->machine->initial_state();
          runnable[idx] = false;
          runnable_since[idx] = -1;
          break;
        case DeadlineMonitor::MissAction::kDemote:
          t.priority += monitor->second.demote_by;
          break;
      }
    }

    log_event(now, LogEvent::Kind::kTaskEnd, t.name, 0);
    // Emissions propagate at completion time.
    for (const auto& [port, value] : reaction.emissions)
      deliver_to_consumers(t.instance->net_of(port), value, now,
                           in.stimulus == kInf ? now : in.stimulus, t.name);

    // §IV-A chaining: run later members of this task's chain that the
    // emissions just enabled, bypassing the scheduler.
    for (const size_t next : t.chain_next)
      if (runnable[next] && enabled(tasks_[next]))
        now = self(next, now, config_.chain_link_cycles, self);
    check_starvation(now);
    return now;
  };

  // --- Main loop ----------------------------------------------------------------
  // Streaming epochs: one metrics epoch per metrics_epoch_cycles boundary the
  // simulated clock crosses, driven only by deterministic integer state.
  PublishedSim published;
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
          publish_sim_deltas(stats, published);
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
  // Closing the live VCD here — not at any earlier exit — is what keeps a
  // waveform from an aborted run loadable: wires still high are dropped and
  // the final timestamp is stamped even when AbortSim cut the run short.
  if (config_.live_vcd != nullptr) config_.live_vcd->finish(stats.end_time);
  if (run_span.armed()) {
    run_span.arg("end_time", stats.end_time);
    run_span.arg("reactions", stats.reactions_run);
    run_span.arg("aborted", stats.aborted);
  }
  publish_sim_stats(stats, published);
  return stats;
}

}  // namespace polis::rtos
