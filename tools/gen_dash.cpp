// Emits the RSL source of a generated N-channel dashboard (network
// `dash_gen`, see systems::generated_dash_source): N independent wheel-speed
// chains sharing one sampling timer. The family is the scaling axis for the
// parallel-verification benchmarks — cluster count grows linearly with N,
// the reachable state space multiplicatively — and the output feeds straight
// back into polisc:
//
//   gen_dash 3 > three.rsl
//   polisc three.rsl --network dash_gen --verify --verify-threads=4
#include <fstream>
#include <iostream>
#include <limits>
#include <string>

#include "cli.hpp"
#include "core/systems.hpp"

int main(int argc, char** argv) {
  int channels = 0;
  std::string out_file;
  namespace cli = polis::cli;
  cli::parse("gen_dash", {
      cli::count("", &channels, 1, std::numeric_limits<int>::max(), "N",
                 "number of wheel-speed channels"),
      cli::text("--out", &out_file, "FILE", "write to FILE, not stdout"),
  }, argc, argv);
  const std::string src = polis::systems::generated_dash_source(channels);
  if (out_file.empty()) {
    std::cout << src;
    return 0;
  }
  std::ofstream out(out_file);
  if (!out) {
    std::cerr << "gen_dash: cannot open " << out_file << "\n";
    return 1;
  }
  out << src;
  return 0;
}
