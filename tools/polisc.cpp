// polisc — the command-line front door of the synthesis flow. Its flags are
// the rows of the option table in parse_args; `polisc --help` prints them.
//
// For a module: prints (or writes) the synthesized C and a cost report.
// For a network: synthesizes every instance, emits polis_rt.h, the
// generated RTOS translation unit and one C file per task, plus a report
// table — the complete §I-H flow as a tool.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cli.hpp"
#include "codegen/c_codegen.hpp"
#include "core/synthesis.hpp"
#include "estim/calibrate.hpp"
#include "frontend/parser.hpp"
#include "obs/obs.hpp"
#include "obs/prometheus.hpp"
#include "obs/series.hpp"
#include "rtos/codegen.hpp"
#include "rtos/rtos.hpp"
#include "rtos/sim_trace.hpp"
#include "rtos/tasks.hpp"
#include "rtos/trace.hpp"
#include "rtos/vcd.hpp"
#include "sched/sched.hpp"
#include "util/atomic_file.hpp"
#include "util/check.hpp"
#include "util/governor.hpp"
#include "util/rng.hpp"
#include "verif/verif.hpp"
#include "sgraph/io.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "vm/machine.hpp"

namespace {

using namespace polis;

// The command line; parse_args declares one row per flag.
struct Args {
  std::string input;
  bool list = false;
  std::string module;
  std::string network;
  sgraph::OrderingScheme scheme =
      sgraph::OrderingScheme::kSiftOutputsAfterSupport;
  vm::TargetProfile (*target)() = &vm::hc11_like;
  rtos::RtosConfig::Policy policy = rtos::RtosConfig::Policy::kRoundRobin;
  bool preemptive = false;
  bool polling = false;
  bool care = false;
  bool verify = false;
  int verify_threads = 1;
  bool opt_copyin = false;
  bool report = false;
  bool dot = false;
  long long simulate = 0;
  std::string vcd;
  std::string out_dir;
  std::string trace_file;
  bool metrics = false;
  std::string metrics_file;  // "" = stderr
  std::string metrics_out;
  long long metrics_interval_ms = 0;
  std::string metrics_prom;
  long long deadline_ms = 0;
  unsigned long long max_nodes = 0;
  long long max_arena_mb = 0;
  OnBudget on_budget = OnBudget::kFail;
};

Args parse_args(int argc, char** argv) {
  using sgraph::OrderingScheme;
  using Policy = rtos::RtosConfig::Policy;
  constexpr long long kMax = std::numeric_limits<long long>::max();
  constexpr long long kMaxArenaMb = (1LL << 44) - 1;  // bytes fit a uint64_t
  Args a;
  cli::parse("polisc", {
      cli::text("", &a.input, "input.rsl", "the RSL source"),
      cli::flag("--list", &a.list, "list the modules and networks"),
      cli::text("--module", &a.module, "NAME", "synthesize one module"),
      cli::text("--network", &a.network, "NAME",
                "synthesize a network (tasks + RTOS)"),
      cli::choice("--scheme", &a.scheme,
                  {{"naive", OrderingScheme::kNaive},
                   {"sift", OrderingScheme::kSiftOutputsAfterSupport},
                   {"sift-in", OrderingScheme::kSiftOutputsAfterInputs},
                   {"out-first", OrderingScheme::kOutputsBeforeInputs},
                   {"free", OrderingScheme::kFreeOrder}},
                  "BDD variable-ordering scheme"),
      cli::flag("--care", &a.care, "exploit the reachable care set"),
      cli::flag("--verify", &a.verify,
                "check asserts and lost events symbolically"),
      cli::count("--verify-threads", &a.verify_threads, 0,
                 std::numeric_limits<int>::max(), "N",
                 "verifier image workers; 0 = one per core"),
      cli::flag("--opt-copyin", &a.opt_copyin, "copy-in optimization (§V-B)"),
      cli::choice("--target", &a.target,
                  {{"hc11", &vm::hc11_like}, {"risc32", &vm::risc32_like}},
                  "target processor profile"),
      cli::choice("--policy", &a.policy,
                  {{"rr", Policy::kRoundRobin},
                   {"prio", Policy::kStaticPriority}},
                  "RTOS scheduling policy"),
      cli::flag("--preemptive", &a.preemptive, "preemptive scheduling"),
      cli::flag("--polling", &a.polling, "polled hw->sw event delivery"),
      cli::flag("--report", &a.report, "print the cost/performance table"),
      cli::count("--simulate", &a.simulate, 0, kMax, "N",
                 "simulate N cycles under the RTOS"),
      cli::text("--vcd", &a.vcd, "FILE", "write the simulation as VCD"),
      cli::flag("--dot", &a.dot, "also emit the s-graph as Graphviz"),
      cli::text("--out", &a.out_dir, "DIR", "write artifacts into DIR"),
      cli::text("--trace", &a.trace_file, "FILE", "write a Chrome trace"),
      cli::optional("--metrics", &a.metrics, &a.metrics_file, "FILE",
                    "write a JSON metrics snapshot (else to stderr)"),
      cli::text("--metrics-out", &a.metrics_out, "FILE",
                "stream metrics epochs as JSONL"),
      cli::count("--metrics-interval-ms", &a.metrics_interval_ms, 0, kMax, "N",
                 "wall-clock epoch every N ms; 0 = off"),
      cli::text("--metrics-prom", &a.metrics_prom, "FILE",
                "write the snapshot as Prometheus text"),
      cli::count("--deadline-ms", &a.deadline_ms, 0, kMax, "N",
                 "wall-clock budget; 0 = none"),
      cli::count("--max-nodes", &a.max_nodes, 0, kMax, "N",
                 "live BDD-node budget; 0 = none"),
      cli::count("--max-arena-mb", &a.max_arena_mb, 0, kMaxArenaMb, "N",
                 "BDD arena cap in MiB; 0 = none"),
      cli::choice("--on-budget", &a.on_budget,
                  {{"fail", OnBudget::kFail}, {"degrade", OnBudget::kDegrade}},
                  "on a budget trip: exit 4, or degrade"),
  }, argc, argv,
      "exit codes: 0 ok, 1 error, 2 usage, 3 parse error, 4 budget\n"
      "            exceeded, 5 cancelled, 6 internal invariant failure\n");
  return a;
}

void write_artifact(const Args& args, const std::string& name,
                    const std::string& content) {
  if (args.out_dir.empty()) {
    std::cout << "// ===== " << name << " =====\n" << content << "\n";
    return;
  }
  std::filesystem::create_directories(args.out_dir);
  const std::string path = args.out_dir + "/" + name;
  // Temp-file + rename: an interrupted or budget-killed run never leaves a
  // truncated artifact behind.
  write_file_atomic(path, content);
  std::cout << "wrote " << path << "\n";
}

void write_dot(const Args& args, const std::string& name,
               const sgraph::Sgraph& graph) {
  if (!args.dot) return;
  std::ostringstream dot;
  sgraph::to_dot(graph, dot);
  write_artifact(args, c_identifier(name) + ".dot", dot.str());
}

/// Prints the degradation-ladder rungs a synthesis run took; deterministic
/// for node/byte budgets, so degraded runs stay byte-for-byte comparable.
void report_degradations(const std::string& name, const SynthesisResult& r) {
  for (const std::string& d : r.degradations)
    std::cout << "degraded " << name << ": " << d << "\n";
  if (r.estimate_skipped)
    std::cout << "degraded " << name << ": estimates are placeholders\n";
}

/// The synthesis options the command line selects, shared by module and
/// network runs (the budget policy lives on the ambient governor).
SynthesisOptions synthesis_options(const Args& args,
                                   const estim::CostModel& model,
                                   const vm::TargetProfile& target) {
  SynthesisOptions options;
  options.scheme = args.scheme;
  options.build.use_care_set = args.care;
  options.optimize_copy_in = args.opt_copyin;
  options.target = target;
  options.cost_model = &model;
  return options;
}

/// Runs the symbolic engine over a network, prints the verdicts (assert
/// clauses + the built-in lost-event property) and a replay confirmation for
/// every counterexample. Returns the per-machine care filters (empty unless
/// the reached set is exact).
std::map<std::string, cfsm::CareFilter> run_verify(const cfsm::Network& net,
                                                   int verify_threads) {
  verif::VerifyOptions options;
  options.reach.num_threads = verify_threads;
  const verif::VerifyResult v = verif::verify_network(net, options);
  std::cout << "verify: " << v.reach.reached_states << " reachable states in "
            << v.reach.iterations << " iterations ("
            << (!v.reach.converged
                    ? "incomplete"
                    : v.reach.exact ? "exact" : "overapproximate")
            << "), "
            << v.clusters << " clusters / " << v.transitions
            << " transitions, peak " << v.reach.peak_live_nodes
            << " live nodes";
  if (v.reach.shards > 0)
    std::cout << ", " << v.reach.shards << " image shards";
  std::cout << "\n";
  for (const verif::CheckResult& r : v.assertions) {
    std::cout << "  assert " << r.property.name;
    if (r.property.line > 0) std::cout << " (line " << r.property.line << ")";
    std::cout << ": " << verif::to_string(r.verdict);
    if (r.verdict != verif::Verdict::kProved)
      std::cout << " — " << r.violating_states << " reachable violating state"
                << (r.violating_states == 1 ? "" : "s");
    if (r.cex) {
      const bool interp = verif::replay_counterexample(net, *r.cex, r.property);
      const bool on_rtos = verif::replay_on_rtos(net, *r.cex, r.property);
      std::cout << "; counterexample of " << r.cex->steps.size()
                << " steps (interpreter replay "
                << (interp ? "confirms" : "DIVERGES") << ", RTOS replay "
                << (on_rtos ? "confirms" : "diverges") << ")";
    }
    std::cout << "\n";
  }
  if (v.lost_events.possible) {
    for (const auto& [subject, states] : v.lost_events.offenders)
      std::cout << "  lost-event risk: a step of '" << subject
                << "' can overwrite a pending event (in " << states
                << " reachable states)\n";
  } else if (v.lost_events.sound) {
    std::cout << "  no reachable state can lose an event\n";
  } else {
    std::cout << "  no lost event found (exploration incomplete; "
                 "not a proof)\n";
  }
  return v.care_filters;
}

void add_report_row(Table& table, const std::string& name,
                    const SynthesisResult& r, const vm::TargetProfile& target) {
  const auto timing = vm::measure_timing(*r.compiled, target, *r.machine);
  table.add_row(
      {name, std::to_string(r.graph->num_reachable()),
       std::to_string(r.estimate.size_bytes), std::to_string(r.vm_size_bytes),
       std::to_string(r.estimate.min_cycles) + ".." +
           std::to_string(r.estimate.max_cycles),
       timing.has_value() ? std::to_string(timing->min_cycles) + ".." +
                                std::to_string(timing->max_cycles)
                          : "n/a",
       fixed(1000.0 * r.synthesis_seconds, 1)});
}

int run(const Args& args) {
  std::ifstream in(args.input);
  if (!in) {
    std::cerr << "polisc: cannot open " << args.input << "\n";
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  // The parser polls the governor so hostile input cannot wedge the run past
  // the deadline. In degrade mode a deadline that expires mid-parse re-parses
  // ungoverned instead: parsing terminates on any finite input, and nothing
  // downstream can degrade without a parse tree.
  const std::string source = buffer.str();
  const frontend::ParsedFile file = ResourceGovernor::retry_ungoverned(
      "parse over deadline; ungoverned re-parse", [&](bool retry) {
        if (retry)
          std::cerr << "degraded frontend: parse over deadline; re-parsing"
                       " ungoverned\n";
        return frontend::parse(source);
      });

  if (args.list) {
    std::cout << "modules:";
    for (const auto& [name, m] : file.modules)
      std::cout << ' ' << name << '(' << m->rules().size() << " rules)";
    std::cout << "\nnetworks:";
    for (const auto& [name, n] : file.networks)
      std::cout << ' ' << name << '(' << n->instances().size()
                << " instances)";
    std::cout << "\n";
    return 0;
  }

  const vm::TargetProfile target = args.target();
  // Calibration compiles sample programs through the governed BDD kernel, so
  // an expired deadline can trip inside it; the cost model is mandatory for
  // estimation, so degrade mode recalibrates ungoverned (it is small and
  // deterministic) instead of dropping the run.
  const estim::CostModel model = ResourceGovernor::retry_ungoverned(
      "calibration over budget; ungoverned rerun", [&](bool retry) {
        if (retry)
          std::cerr << "degraded calibration: over budget; rerunning"
                       " ungoverned\n";
        return estim::calibrate(target);
      });
  Table report({"task", "s-graph", "est bytes", "meas bytes", "est cycles",
                "meas cycles", "synth ms"});

  if (!args.module.empty()) {
    auto it = file.modules.find(args.module);
    if (it == file.modules.end()) {
      std::cerr << "polisc: no module named " << args.module << "\n";
      return 1;
    }
    const SynthesisResult r =
        synthesize(it->second, synthesis_options(args, model, target));
    report_degradations(args.module, r);
    write_artifact(args, "cfsm_" + c_identifier(args.module) + ".c", r.c_code);
    write_dot(args, args.module, *r.graph);
    if (args.report) {
      add_report_row(report, args.module, r, target);
      report.print(std::cout);
    }
    return 0;
  }

  if (!args.network.empty()) {
    auto it = file.networks.find(args.network);
    if (it == file.networks.end()) {
      std::cerr << "polisc: no network named " << args.network << "\n";
      return 1;
    }
    const cfsm::Network& net = *it->second;

    std::map<std::string, cfsm::CareFilter> care_filters;
    if (args.verify)
      care_filters = run_verify(net, args.verify_threads);

    rtos::RtosConfig config;
    config.policy = args.policy;
    config.preemptive = args.preemptive;
    if (args.polling)
      config.delivery = rtos::RtosConfig::HwDelivery::kPolling;
    // The simulated workload's period: every external input fires ~50
    // times over the horizon. The "cycles" metrics series samples at the
    // same cadence — deterministic, so two identical runs emit
    // byte-identical series.
    const long long period = std::max<long long>(args.simulate / 50, 1);
    if (args.simulate > 0) config.metrics_epoch_cycles = period;

    write_artifact(args, "polis_rt.h", rtos::generate_rt_header(net));
    write_artifact(args, "polis_rtos.c", rtos::generate_rtos_c(net, config));

    // One fan-out over the distinct machines (instances sharing a machine
    // are synthesized once); verif care filters land on their machines via
    // care_filter_by_machine. The same results feed codegen, the report and
    // the simulator below.
    SynthesisOptions net_options = synthesis_options(args, model, target);
    net_options.care_filter_by_machine = care_filters;
    const NetworkSynthesis synth = synthesize_network(net, net_options);

    // Degradations are per distinct machine; report them once each.
    {
      std::set<std::string> seen;
      for (const cfsm::Instance& inst : net.instances()) {
        if (!seen.insert(inst.machine->name()).second) continue;
        report_degradations(inst.machine->name(),
                            synth.per_instance.at(inst.name));
      }
    }

    for (const cfsm::Instance& inst : net.instances()) {
      const SynthesisResult& r = synth.per_instance.at(inst.name);
      codegen::CCodegenOptions c_options;
      c_options.optimize_copy_in = args.opt_copyin;
      write_artifact(args, "cfsm_" + c_identifier(inst.name) + ".c",
                     codegen::generate_instance_c(*r.graph, inst, c_options));
      write_dot(args, inst.name, *r.graph);
      if (args.report) add_report_row(report, inst.name, r, target);
    }
    if (args.report) report.print(std::cout);

    if (args.simulate > 0) try {
      // §I-H step 4: static schedulability of the periodic workload the
      // simulator runs below — estimator WCETs against the source period.
      {
        std::vector<sched::Task> taskset;
        for (const cfsm::Instance& inst : net.instances())
          taskset.push_back(
              {inst.name, static_cast<double>(synth.max_cycles.at(inst.name)),
               static_cast<double>(period), 0, 0});
        taskset = sched::rate_monotonic_order(std::move(taskset));
        const auto responses = sched::response_times(taskset);
        std::cout << "schedulability: utilization "
                  << fixed(100 * sched::utilization(taskset), 1)
                  << "% at period " << period << ", rate-monotonic "
                  << (responses.has_value() ? "feasible" : "INFEASIBLE")
                  << "\n";
      }

      config.collect_log = !args.vcd.empty() || !args.trace_file.empty();
      rtos::RtosSimulation sim(net, config);
      for (const cfsm::Instance& inst : net.instances()) {
        const SynthesisResult& r = synth.per_instance.at(inst.name);
        sim.set_task(inst.name,
                     rtos::vm_task(r.compiled, target, inst.machine));
      }
      // Periodic workload: phases staggered, values random in the net's
      // domain.
      Rng rng(1);
      std::vector<std::vector<rtos::ExternalEvent>> traces;
      long long phase = 0;
      const auto nets = net.nets();
      for (const std::string& in : net.external_inputs()) {
        rtos::PeriodicSource source;
        source.net = in;
        source.period = period;
        source.phase = phase;
        source.value_domain = nets.at(in).domain;
        traces.push_back(rtos::periodic_trace(source, args.simulate, &rng));
        phase += source.period / std::max<size_t>(
                     net.external_inputs().size(), 1);
      }
      const rtos::SimStats stats =
          sim.run(rtos::merge_traces(std::move(traces)));

      std::cout << "simulation: " << stats.end_time << " cycles, "
                << stats.reactions_run << " reactions ("
                << stats.empty_reactions << " empty), utilization "
                << fixed(100 * stats.utilization(), 1) << "%\n";
      std::map<std::string, int> counts;
      for (const rtos::ObservedEmission& e : stats.outputs) counts[e.net]++;
      for (const auto& [out, n] : counts)
        std::cout << "  output " << out << ": " << n << " emissions\n";
      for (const auto& [n, lost] : stats.lost_events)
        std::cout << "  lost on " << n << ": " << lost << "\n";
      if (!args.vcd.empty()) {
        std::ostringstream vcd;
        rtos::write_vcd(net, stats, vcd);
        write_file_atomic(args.vcd, vcd.str());
        std::cout << "wrote " << args.vcd << " (" << stats.log.size()
                  << " log events)\n";
      }
      // The simulated-cycle lanes of the trace: same clock as the VCD.
      if (!args.trace_file.empty()) rtos::record_sim_trace(net, stats);
    } catch (const BudgetExceeded& e) {
      // The simulation is advisory — the synthesized artifacts above are
      // already on disk — so in degrade mode a budget trip drops it rather
      // than the whole run. Cancellation still propagates.
      ResourceGovernor::degrade_or_rethrow("simulation dropped on budget");
      std::cerr << "degraded simulation: dropped on budget ("
                << BudgetExceeded::kind_name(e.kind()) << ")\n";
    }
    return 0;
  }

  std::cerr << "polisc: nothing to do: list the input, or pick a module or a "
               "network (see --help)\n";
  return 1;
}

}  // namespace

// Writes one requested export atomically; a failure is reported, not fatal.
void write_export(const std::string& path, const char* what,
                  void (*write)(std::ostream&)) {
  if (path.empty()) return;
  try {
    std::ostringstream out;
    write(out);
    polis::write_file_atomic(path, out.str());
    std::cout << "wrote " << path << " (" << what << ")\n";
  } catch (const std::exception& e) {
    std::cerr << "polisc: cannot write " << path << ": " << e.what() << "\n";
  }
}

// Writes the trace / metrics files requested on the command line. Runs even
// when the flow failed part-way: a trace of a failing run is exactly what
// one wants to look at.
void write_obs_outputs(const Args& args) {
  write_export(args.trace_file, "Chrome trace", [](std::ostream& os) {
    obs::TraceRecorder::global().write_chrome_json(os);
  });
  // No file: the final snapshot goes to stderr, as it always has.
  if (args.metrics && args.metrics_file.empty())
    obs::write_metrics_json(std::cerr);
  write_export(args.metrics_file, "metrics snapshot",
               [](std::ostream& os) { obs::write_metrics_json(os); });
  write_export(args.metrics_prom, "Prometheus text",
               [](std::ostream& os) { obs::write_prometheus(os); });
}

int main(int argc, char** argv) {
  using namespace polis;
  const Args args = parse_args(argc, argv);
  if (!args.trace_file.empty()) {
    obs::TraceRecorder::global().set_enabled(true);
    obs::TraceRecorder::global().name_this_thread("polisc main");
  }

  // Streaming series: a JSONL sink and/or a wall-clock sampler turn the
  // recorder on; the rtos/verif probe sites then tick their own timebases.
  std::ofstream series_sink;
  if (!args.metrics_out.empty() || args.metrics_interval_ms > 0) {
#ifdef POLIS_OBS_DISABLED
    std::cerr << "polisc: streaming metrics unavailable (built with "
                 "POLIS_OBS=OFF); ignoring the metrics stream and sampler\n";
#else
    obs::SeriesRecorder& series = obs::SeriesRecorder::global();
    if (!args.metrics_out.empty()) {
      // The sink opens before run() creates the output directory, so a sink
      // path inside it needs its directory brought into existence here.
      const auto parent = std::filesystem::path(args.metrics_out).parent_path();
      if (!parent.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(parent, ec);
      }
      series_sink.open(args.metrics_out, std::ios::out | std::ios::trunc);
      if (!series_sink) {
        std::cerr << "polisc: cannot open " << args.metrics_out << "\n";
        return kExitError;
      }
      series.set_sink(&series_sink);
    }
    if (!args.trace_file.empty())
      series.set_trace_counters(&obs::TraceRecorder::global());
    series.set_enabled(true);
    if (args.metrics_interval_ms > 0)
      series.start_wall_sampler(args.metrics_interval_ms);
#endif
  }

  // One governor spans the whole run; every phase charges/polls it through
  // the thread-local ambient pointer (worker threads re-install it) and asks
  // it for the budget policy. Degrade mode installs it even without a budget,
  // so a real allocation failure still walks the ladder.
  GovernorLimits limits;
  limits.deadline_ms = args.deadline_ms;
  limits.max_nodes = args.max_nodes;
  limits.max_arena_bytes =
      static_cast<uint64_t>(args.max_arena_mb) * (uint64_t{1} << 20);
  limits.on_budget = args.on_budget;
  ResourceGovernor governor(limits);
  std::optional<ResourceGovernor::Scope> scope;
  if (limits.any() || limits.on_budget == OnBudget::kDegrade)
    scope.emplace(&governor);

  int rc = kExitError;
  try {
    rc = run(args);
  } catch (const frontend::ParseError& e) {
    std::cerr << "polisc: " << args.input << ": " << e.what() << "\n";
    rc = kExitParse;
  } catch (const Cancelled& e) {
    std::cerr << "polisc: " << e.what() << "\n";
    rc = kExitCancelled;
  } catch (const BudgetExceeded& e) {
    std::cerr << "polisc: budget exceeded ("
              << BudgetExceeded::kind_name(e.kind()) << "): " << e.what()
              << "\n";
    rc = kExitBudget;
  } catch (const CheckError& e) {
    std::cerr << "polisc: internal invariant failure: " << e.what() << "\n";
    rc = kExitInternal;
  } catch (const std::exception& e) {
    std::cerr << "polisc: " << e.what() << "\n";
  }
  if (scope.has_value()) governor.flush_stats_to_obs();
#ifndef POLIS_OBS_DISABLED
  // Stop the sampler and detach the sink before the stream closes; each
  // epoch line was already flushed, so the JSONL file is complete.
  obs::SeriesRecorder::global().stop_wall_sampler();
  obs::SeriesRecorder::global().set_sink(nullptr);
  obs::SeriesRecorder::global().set_enabled(false);
#endif
  write_obs_outputs(args);
  return rc;
}
