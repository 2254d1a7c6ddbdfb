// End-to-end benchmark of the POLIS reproduction: synthesis of a seeded
// CFSM batch, symbolic verification (serial and sharded image), and RTOS
// simulation with VM-backed tasks. Run from the repository root:
//
//   polis_perfbench --workload synth_random|verify_serial|verify_sharded|
//                   sim_dash [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//
// The last line of stdout is one JSON object with the operation counts and
// the metrics; --trace 1 prints the per-layer metrics instead of the
// end-to-end ones. See README.md in this directory.
#include <exception>
#include <iostream>
#include <string>

#include "harness.hpp"

namespace {

int usage(const char* why) {
  std::cerr << "polis_perfbench: " << why
            << "\nusage: polis_perfbench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--smoke]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  args.seed = perfbench::kDefaultSeed;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--smoke") {
        args.smoke = true;
        continue;
      }
      if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
      const std::string v = argv[++i];
      if (a == "--workload") args.workload = v;
      else if (a == "--seed") args.seed = std::stoull(v);
      else if (a == "--seconds") args.seconds = std::stod(v);
      else if (a == "--trace") args.trace = std::stoi(v) != 0;
      else return usage(("unknown flag " + a).c_str());
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (args.seconds <= 0) return usage("--seconds must be positive");

  perfbench::Report report;
  perfbench::Layers layers;
  try {
    if (args.workload == "synth_random")
      perfbench::run_synth_random(args, report, layers);
    else if (args.workload == "verify_serial")
      perfbench::run_verify(args, report, layers, /*sharded=*/false);
    else if (args.workload == "verify_sharded")
      perfbench::run_verify(args, report, layers, /*sharded=*/true);
    else if (args.workload == "sim_dash")
      perfbench::run_sim_dash(args, report, layers);
    else
      return usage(("unknown workload '" + args.workload + "'").c_str());
  } catch (const std::exception& e) {
    // Set-up failed (missing inputs, a library error outside any counted
    // operation): no result line.
    std::cerr << "polis_perfbench: " << e.what() << "\n";
    return 1;
  }

  if (args.trace) {
    for (const auto& [name, unit] : perfbench::layer_metric_units()) {
      const auto it = layers.find(name);
      report.metric(name, it == layers.end() ? 0.0 : it->second, unit);
    }
  }
  report.print();
  return 0;
}
