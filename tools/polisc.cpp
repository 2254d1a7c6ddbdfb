// polisc — the command-line front door of the synthesis flow.
//
//   polisc input.rsl --list
//   polisc input.rsl --module simple --report
//   polisc input.rsl --network dash --out gen/ --policy prio --preemptive
//
// For a module: prints (or writes) the synthesized C and a cost report.
// For a network: synthesizes every instance, emits polis_rt.h, the
// generated RTOS translation unit and one C file per task, plus a report
// table — the complete §I-H flow as a tool.
#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

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

struct Args {
  std::string input;
  bool help = false;
  bool list = false;
  std::string module;
  std::string network;
  sgraph::OrderingScheme scheme =
      sgraph::OrderingScheme::kSiftOutputsAfterSupport;
  std::string target = "hc11";
  std::string policy = "rr";
  bool preemptive = false;
  bool polling = false;
  bool care = false;
  bool verify = false;
  long long verify_threads = 1;  // 0 = one worker per hardware thread
  bool opt_copyin = false;
  bool report = false;
  bool dot = false;
  long long simulate = 0;   // horizon in cycles; 0 = no simulation
  std::string vcd;
  std::string out_dir;
  std::string trace_file;    // Chrome trace-event JSON (--trace)
  bool metrics = false;      // write a final metrics snapshot
  std::string metrics_file;  // --metrics destination ("" = stderr)
  std::string metrics_out;       // streaming JSONL epochs (--metrics-out)
  long long metrics_interval_ms = 0;  // wall-clock sampler cadence; 0 = off
  std::string metrics_prom;  // Prometheus text exposition (--metrics-prom)
  // Resource governor (see util/governor.hpp): 0 = unlimited.
  long long deadline_ms = 0;
  unsigned long long max_nodes = 0;
  long long max_arena_mb = 0;
  std::string on_budget = "fail";  // fail | degrade
};

void usage(std::ostream& os) {
  os <<
      "usage: polisc <input.rsl> [options]\n"
      "       polisc --help | -h\n"
      "  --list                 list modules and networks in the input\n"
      "  --module NAME          synthesize one module\n"
      "  --network NAME         synthesize a network (tasks + RTOS)\n"
      "  --scheme S             naive | sift (default) | sift-in | "
      "out-first | free\n"
      "  --care                 exploit the reachable care set (false paths)\n"
      "  --verify               symbolic reachability over the network:\n"
      "                         check the modules' assert clauses and the\n"
      "                         built-in lost-event property; with --care,\n"
      "                         feed the reached set into synthesis as a\n"
      "                         global don't-care set\n"
      "  --verify-threads N     image-computation workers for --verify:\n"
      "                         1 (default) runs serial, N shards the\n"
      "                         transition relation across N per-thread BDD\n"
      "                         managers (identical results, see DESIGN.md),\n"
      "                         0 uses one worker per hardware thread\n"
      "  --opt-copyin           data-flow copy-in optimization (§V-B)\n"
      "  --target T             hc11 (default) | risc32\n"
      "  --policy P             rr (default) | prio\n"
      "  --preemptive           preemptive scheduling\n"
      "  --polling              polled hw->sw event delivery\n"
      "  --report               print the cost/performance table\n"
      "  --simulate N           run the network for N cycles under the\n"
      "                         RTOS simulator with a periodic workload\n"
      "  --vcd FILE             write the simulation waveform as VCD\n"
      "  --dot                  also emit the s-graph in Graphviz form\n"
      "  --out DIR              write artifacts into DIR instead of stdout\n"
      "  --trace FILE           record spans across the whole run and write\n"
      "                         them as Chrome trace-event JSON (loadable in\n"
      "                         Perfetto / chrome://tracing); simulated-cycle\n"
      "                         lanes share the VCD timebase\n"
      "  --metrics [FILE]       write a JSON snapshot of all counters,\n"
      "                         gauges, histograms, quantiles and per-phase\n"
      "                         wall times at exit (to stderr without FILE)\n"
      "  --metrics-out FILE     stream metrics epochs to FILE as JSONL, one\n"
      "                         epoch per line, flushed per line (simulated-\n"
      "                         cycle epochs from the RTOS loop, per-layer\n"
      "                         epochs from --verify, wall epochs from\n"
      "                         --metrics-interval-ms)\n"
      "  --metrics-interval-ms N  sample a wall-clock metrics epoch every\n"
      "                         N ms on a background thread\n"
      "  --metrics-prom FILE    write the final snapshot in Prometheus text\n"
      "                         exposition format (the polisd /metrics body)\n"
      "  --deadline-ms N        wall-clock budget for the whole run\n"
      "  --max-nodes N          live BDD-node budget across the run\n"
      "  --max-arena-mb N       BDD arena cap in MiB\n"
      "  --on-budget M          what to do when a budget trips:\n"
      "                         fail (default) unwinds with exit code 4;\n"
      "                         degrade walks the degradation ladder and\n"
      "                         still emits correct (less optimized) code\n"
      "  (--trace=FILE / --metrics=FILE forms are also accepted)\n"
      "exit codes: 0 ok, 1 error, 2 usage, 3 parse error, 4 budget\n"
      "            exceeded, 5 cancelled, 6 internal invariant failure\n";
}

sgraph::OrderingScheme scheme_of(const std::string& name) {
  if (name == "naive") return sgraph::OrderingScheme::kNaive;
  if (name == "sift") return sgraph::OrderingScheme::kSiftOutputsAfterSupport;
  if (name == "sift-in") return sgraph::OrderingScheme::kSiftOutputsAfterInputs;
  if (name == "out-first") return sgraph::OrderingScheme::kOutputsBeforeInputs;
  if (name == "free") return sgraph::OrderingScheme::kFreeOrder;
  throw std::runtime_error("--scheme must be naive, sift, sift-in, out-first "
                           "or free (got '" + name + "')");
}

// `value` when it is one of `allowed`, else a usage error naming `flag`.
std::string one_of(const std::string& flag, const std::string& value,
                   std::initializer_list<const char*> allowed) {
  std::string list;
  for (const char* a : allowed) {
    if (value == a) return value;
    list += std::string(list.empty() ? "" : ", ") + a;
  }
  throw std::runtime_error(flag + " must be one of " + list + " (got '" +
                           value + "')");
}

// A non-negative integer option value: digits only (no sign, no trailing
// junk), at most 18 of them so that it fits a long long.
long long count_of(const std::string& flag, const std::string& value) {
  const bool digits =
      !value.empty() && value.size() <= 18 &&
      std::all_of(value.begin(), value.end(),
                  [](unsigned char c) { return std::isdigit(c) != 0; });
  if (!digits)
    throw std::runtime_error(flag + " needs a non-negative integer (got '" +
                             value + "')");
  return std::stoll(value);
}

bool parse_args(int argc, char** argv, Args& args) {
  if (argc < 2) return false;
  const std::string first = argv[1];
  if (first == "--help" || first == "-h") {
    args.help = true;
    return true;
  }
  args.input = first;
  // Accept both "--opt value" and "--opt=value". Each token remembers the
  // argv spelling it came from so diagnostics can echo what the user typed
  // ("--trce=out.json", not a half of it), and whether it is the value half
  // of an "=" form (a flag that takes no value must reject that half, not
  // silently re-parse it as the next option).
  struct Token {
    std::string text;  // flag or value after "=" splitting
    std::string raw;   // the original argv element
    bool eq_value;     // true for the value half of an "--opt=value"
  };
  std::vector<Token> tokens;
  for (int i = 2; i < argc; ++i) {
    const std::string raw = argv[i];
    const size_t eq = raw.find('=');
    if (raw.rfind("--", 0) == 0 && eq != std::string::npos) {
      tokens.push_back(Token{raw.substr(0, eq), raw, false});
      tokens.push_back(Token{raw.substr(eq + 1), raw, true});
    } else {
      tokens.push_back(Token{raw, raw, false});
    }
  }
  for (size_t i = 0; i < tokens.size(); ++i) {
    const std::string a = tokens[i].text;
    auto value = [&]() -> std::string {
      if (i + 1 >= tokens.size())
        throw std::runtime_error("missing value for " + a);
      return tokens[++i].text;
    };
    // A boolean flag given in "--flag=value" form is an error, not a flag
    // set plus a stray token.
    auto no_value = [&]() -> bool {
      if (i + 1 < tokens.size() && tokens[i + 1].eq_value &&
          tokens[i + 1].raw == tokens[i].raw) {
        std::cerr << "polisc: option '" << a << "' does not take a value (got '"
                  << tokens[i].raw << "')\n";
        return false;
      }
      return true;
    };
    if (a == "--help" || a == "-h") { args.help = true; return true; }
    else if (a == "--list") { if (!no_value()) return false; args.list = true; }
    else if (a == "--module") args.module = value();
    else if (a == "--network") args.network = value();
    else if (a == "--scheme") args.scheme = scheme_of(value());
    else if (a == "--target") args.target = one_of(a, value(), {"hc11", "risc32"});
    else if (a == "--policy") args.policy = one_of(a, value(), {"rr", "prio"});
    else if (a == "--preemptive") { if (!no_value()) return false; args.preemptive = true; }
    else if (a == "--polling") { if (!no_value()) return false; args.polling = true; }
    else if (a == "--care") { if (!no_value()) return false; args.care = true; }
    else if (a == "--verify") { if (!no_value()) return false; args.verify = true; }
    else if (a == "--verify-threads") args.verify_threads = count_of(a, value());
    else if (a == "--opt-copyin") { if (!no_value()) return false; args.opt_copyin = true; }
    else if (a == "--report") { if (!no_value()) return false; args.report = true; }
    else if (a == "--simulate") args.simulate = count_of(a, value());
    else if (a == "--vcd") args.vcd = value();
    else if (a == "--dot") { if (!no_value()) return false; args.dot = true; }
    else if (a == "--out") args.out_dir = value();
    else if (a == "--trace") args.trace_file = value();
    else if (a == "--metrics") {
      // Optional value: "--metrics=FILE" and "--metrics FILE" bind the file;
      // a following option (or nothing) leaves the snapshot on stderr.
      args.metrics = true;
      if (i + 1 < tokens.size() &&
          (tokens[i + 1].eq_value ? tokens[i + 1].raw == tokens[i].raw
                                  : tokens[i + 1].text.rfind("--", 0) != 0))
        args.metrics_file = value();
    }
    else if (a == "--metrics-out") args.metrics_out = value();
    else if (a == "--metrics-interval-ms")
      args.metrics_interval_ms = count_of(a, value());
    else if (a == "--metrics-prom") args.metrics_prom = value();
    else if (a == "--deadline-ms") args.deadline_ms = count_of(a, value());
    else if (a == "--max-nodes")
      args.max_nodes = static_cast<unsigned long long>(count_of(a, value()));
    else if (a == "--max-arena-mb") args.max_arena_mb = count_of(a, value());
    else if (a == "--on-budget")
      args.on_budget = one_of(a, value(), {"fail", "degrade"});
    else {
      std::cerr << "polisc: unknown option '" << tokens[i].raw << "'\n";
      return false;
    }
  }
  return true;
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

/// Prints the degradation-ladder rungs a synthesis run took; deterministic
/// for node/byte budgets, so degraded runs stay byte-for-byte comparable.
void report_degradations(const std::string& name, const SynthesisResult& r) {
  for (const std::string& d : r.degradations)
    std::cout << "degraded " << name << ": " << d << "\n";
  if (r.estimate_skipped)
    std::cout << "degraded " << name << ": estimates are placeholders\n";
}

/// The synthesis options the command line selects, shared by --module and
/// --network (the budget policy lives on the ambient governor).
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

  const vm::TargetProfile target =
      args.target == "risc32" ? vm::risc32_like() : vm::hc11_like();
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
    if (args.dot) {
      std::ostringstream dot;
      sgraph::to_dot(*r.graph, dot);
      write_artifact(args, c_identifier(args.module) + ".dot", dot.str());
    }
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
      care_filters = run_verify(net, static_cast<int>(args.verify_threads));

    rtos::RtosConfig config;
    if (args.policy == "prio")
      config.policy = rtos::RtosConfig::Policy::kStaticPriority;
    config.preemptive = args.preemptive;
    if (args.polling)
      config.delivery = rtos::RtosConfig::HwDelivery::kPolling;
    // ~50 simulated-cycle epochs over the horizon (same cadence as the
    // periodic workload below) — deterministic, so two identical runs emit
    // byte-identical "cycles" series.
    if (args.simulate > 0)
      config.metrics_epoch_cycles =
          std::max<long long>(args.simulate / 50, 1);

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
      if (args.dot) {
        std::ostringstream dot;
        sgraph::to_dot(*r.graph, dot);
        write_artifact(args, c_identifier(inst.name) + ".dot", dot.str());
      }
      if (args.report) add_report_row(report, inst.name, r, target);
    }
    if (args.report) report.print(std::cout);

    if (args.simulate > 0) try {
      // §I-H step 4: static schedulability of the periodic workload the
      // simulator runs below — estimator WCETs against the source period.
      {
        const long long period = std::max<long long>(args.simulate / 50, 1);
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
      // Periodic workload: every external input fires ~50 times over the
      // horizon, phases staggered, values random in the net's domain.
      Rng rng(1);
      std::vector<std::vector<rtos::ExternalEvent>> traces;
      long long phase = 0;
      const auto nets = net.nets();
      for (const std::string& in : net.external_inputs()) {
        rtos::PeriodicSource source;
        source.net = in;
        source.period = std::max<long long>(args.simulate / 50, 1);
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

  std::cerr << "polisc: pass --list, --module or --network\n";
  return 1;
}

}  // namespace

// Writes the trace / metrics files requested on the command line. Runs even
// when the flow failed part-way: a trace of a failing run is exactly what
// one wants to look at.
void write_obs_outputs(const Args& args) {
  if (!args.trace_file.empty()) {
    try {
      std::ostringstream out;
      obs::TraceRecorder::global().write_chrome_json(out);
      polis::write_file_atomic(args.trace_file, out.str());
      std::cout << "wrote " << args.trace_file << " (Chrome trace)\n";
    } catch (const std::exception& e) {
      std::cerr << "polisc: cannot write " << args.trace_file << ": "
                << e.what() << "\n";
    }
  }
  if (args.metrics) {
    if (args.metrics_file.empty()) {
      // No file: the final snapshot goes to stderr, as it always has.
      obs::write_metrics_json(std::cerr);
    } else {
      try {
        std::ostringstream out;
        obs::write_metrics_json(out);
        polis::write_file_atomic(args.metrics_file, out.str());
        std::cout << "wrote " << args.metrics_file << " (metrics snapshot)\n";
      } catch (const std::exception& e) {
        std::cerr << "polisc: cannot write " << args.metrics_file << ": "
                  << e.what() << "\n";
      }
    }
  }
  if (!args.metrics_prom.empty()) {
    try {
      std::ostringstream out;
      obs::write_prometheus(out);
      polis::write_file_atomic(args.metrics_prom, out.str());
      std::cout << "wrote " << args.metrics_prom << " (Prometheus text)\n";
    } catch (const std::exception& e) {
      std::cerr << "polisc: cannot write " << args.metrics_prom << ": "
                << e.what() << "\n";
    }
  }
}

int main(int argc, char** argv) {
  using namespace polis;
  Args args;
  bool args_ok = false;
  try {
    args_ok = parse_args(argc, argv, args);
  } catch (const std::exception& e) {
    std::cerr << "polisc: " << e.what() << "\n";
    args_ok = false;
  }
  if (!args_ok) {
    usage(std::cerr);
    return kExitUsage;
  }
  if (args.help) {
    usage(std::cout);
    return 0;
  }
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
                 "POLIS_OBS=OFF); ignoring --metrics-out / "
                 "--metrics-interval-ms\n";
#else
    obs::SeriesRecorder& series = obs::SeriesRecorder::global();
    if (!args.metrics_out.empty()) {
      // The sink opens before run() creates --out, so an in---out path needs
      // its directory brought into existence here.
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
  limits.on_budget =
      args.on_budget == "degrade" ? OnBudget::kDegrade : OnBudget::kFail;
  ResourceGovernor governor(limits);
  std::optional<ResourceGovernor::Scope> scope;
  if (limits.any() || limits.on_budget == OnBudget::kDegrade)
    scope.emplace(&governor);

  const auto finish = [&] {
    if (scope.has_value()) governor.flush_stats_to_obs();
#ifndef POLIS_OBS_DISABLED
    // Stop the sampler and detach the sink before the stream closes; each
    // epoch line was already flushed, so even this running on an error path
    // leaves a complete JSONL file behind.
    obs::SeriesRecorder::global().stop_wall_sampler();
    obs::SeriesRecorder::global().set_sink(nullptr);
    obs::SeriesRecorder::global().set_enabled(false);
#endif
    write_obs_outputs(args);
  };
  try {
    const int rc = run(args);
    finish();
    return rc;
  } catch (const frontend::ParseError& e) {
    std::cerr << "polisc: " << args.input << ": " << e.what() << "\n";
    finish();
    return kExitParse;
  } catch (const Cancelled& e) {
    std::cerr << "polisc: " << e.what() << "\n";
    finish();
    return kExitCancelled;
  } catch (const BudgetExceeded& e) {
    std::cerr << "polisc: budget exceeded ("
              << BudgetExceeded::kind_name(e.kind()) << "): " << e.what()
              << "\n";
    finish();
    return kExitBudget;
  } catch (const CheckError& e) {
    std::cerr << "polisc: internal invariant failure: " << e.what() << "\n";
    finish();
    return kExitInternal;
  } catch (const std::exception& e) {
    std::cerr << "polisc: " << e.what() << "\n";
    finish();
    return kExitError;
  }
}
