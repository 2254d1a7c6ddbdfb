// The example systems of the paper's evaluation (§V), reconstructed from
// the paper's description in the RSL frontend language:
//
//   * the car dashboard controller (§V-A): the computational chain from the
//     wheel and engine speed sensors to the PWM outputs controlling the
//     gauges, plus the classic seat-belt alarm CFSM;
//   * the shock absorber controller (§V-B): sampling, control law,
//     slew-limited actuator and a watchdog.
//
// The RSL sources live only in examples/rsl/ and are compiled in at
// configure time (see src/core/CMakeLists.txt); the functions below parse
// them on every call.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cfsm/network.hpp"
#include "frontend/parser.hpp"

namespace polis::systems {

/// The dashboard system (examples/rsl/dashboard.rsl): modules, the `dash`
/// network and the composable `dash_core` sub-network used for the
/// single-FSM baseline.
frontend::ParsedFile dashboard();
/// The shock absorber system (examples/rsl/shock_absorber.rsl): modules and
/// the `shock` network.
frontend::ParsedFile shock_absorber();

/// Dashboard modules in the stable row order used by the benches
/// (Table I / Table II rows).
std::vector<std::shared_ptr<const cfsm::Cfsm>> dashboard_modules();

std::shared_ptr<cfsm::Network> dash_network();
std::shared_ptr<cfsm::Network> dash_core_network();
std::shared_ptr<cfsm::Network> shock_network();
std::vector<std::shared_ptr<const cfsm::Cfsm>> shock_modules();

/// The level-meter network (examples/rsl/meter.rsl): a quantizer that only
/// ever emits levels 0..3 into an int[8] net feeding a bar display. The
/// display's overload branch (`value(level) >= 4`) is locally reachable but
/// globally dead — the showcase for symbolic reachability proving an
/// assertion the per-CFSM analysis cannot, and for the reached-set care
/// filter shrinking the display's s-graph.
std::shared_ptr<cfsm::Network> meter_network();

/// A third control-dominated system from the paper's motivating domain
/// (§I-A "from microwave ovens and watches to telecommunication"): a
/// microwave oven controller — keypad, cooking controller with door
/// interlock, magnetron driver and beeper (examples/rsl/microwave.rsl).
frontend::ParsedFile microwave();
std::shared_ptr<cfsm::Network> microwave_network();
std::vector<std::shared_ptr<const cfsm::Cfsm>> microwave_modules();

/// RSL source of a generated `channels`-channel dashboard: `channels`
/// independent wheel-speed chains (debounce → pulse counter → speedometer)
/// sharing one sampling timer, as network `dash_gen`. The state space grows
/// multiplicatively per channel while the cluster count grows linearly
/// (4 per channel + the timer), which makes the family the scaling axis for
/// the parallel-verification benchmarks (`bench_verif`) and the
/// `tools/gen_dash` generator. The three modules are sliced out of
/// examples/rsl/dashboard.rsl, their only copy. Requires `channels` >= 1.
std::string generated_dash_source(int channels);
/// Parsed `dash_gen` network of `generated_dash_source(channels)`.
std::shared_ptr<cfsm::Network> generated_dash_network(int channels);

}  // namespace polis::systems
