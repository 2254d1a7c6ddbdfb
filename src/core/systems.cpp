#include "core/systems.hpp"

#include <string_view>

#include "systems_rsl.hpp"
#include "util/check.hpp"

namespace polis::systems {

frontend::ParsedFile dashboard() { return frontend::parse(rsl::kDashboard); }

frontend::ParsedFile shock_absorber() {
  return frontend::parse(rsl::kShockAbsorber);
}

frontend::ParsedFile microwave() { return frontend::parse(rsl::kMicrowave); }

namespace {

std::shared_ptr<const cfsm::Cfsm> module_of(const frontend::ParsedFile& file,
                                            const std::string& name) {
  auto it = file.modules.find(name);
  POLIS_CHECK_MSG(it != file.modules.end(), "missing module " << name);
  return it->second;
}

std::shared_ptr<cfsm::Network> network_of(const frontend::ParsedFile& file,
                                          const std::string& name) {
  auto it = file.networks.find(name);
  POLIS_CHECK_MSG(it != file.networks.end(), "missing network " << name);
  return it->second;
}

// The text of `module <name> { ... }` in `source`, from its header line to
// the closing brace that starts a line.
std::string module_source(std::string_view source, const std::string& name) {
  const size_t begin = source.find("\nmodule " + name + " {");
  POLIS_CHECK_MSG(begin != std::string_view::npos, "missing module " << name);
  const size_t end = source.find("\n}\n", begin + 1);
  POLIS_CHECK_MSG(end != std::string_view::npos, "unterminated module " << name);
  return std::string(source.substr(begin + 1, end + 2 - begin));
}

}  // namespace

std::vector<std::shared_ptr<const cfsm::Cfsm>> dashboard_modules() {
  const frontend::ParsedFile file = dashboard();
  return {module_of(file, "belt"),        module_of(file, "debounce"),
          module_of(file, "pulse_counter"), module_of(file, "speedometer"),
          module_of(file, "odometer"),    module_of(file, "tachometer")};
}

std::shared_ptr<cfsm::Network> dash_network() {
  return network_of(dashboard(), "dash");
}

std::shared_ptr<cfsm::Network> dash_core_network() {
  return network_of(dashboard(), "dash_core");
}

std::shared_ptr<cfsm::Network> shock_network() {
  return network_of(shock_absorber(), "shock");
}

std::vector<std::shared_ptr<const cfsm::Cfsm>> shock_modules() {
  const frontend::ParsedFile file = shock_absorber();
  return {module_of(file, "sampler"), module_of(file, "control_law"),
          module_of(file, "actuator"), module_of(file, "watchdog")};
}

std::shared_ptr<cfsm::Network> meter_network() {
  return network_of(frontend::parse(rsl::kMeter), "meter");
}

std::shared_ptr<cfsm::Network> microwave_network() {
  return network_of(microwave(), "microwave");
}

std::vector<std::shared_ptr<const cfsm::Cfsm>> microwave_modules() {
  const frontend::ParsedFile file = microwave();
  return {module_of(file, "keypad"), module_of(file, "controller"),
          module_of(file, "magnetron"), module_of(file, "beeper")};
}

std::string generated_dash_source(int channels) {
  POLIS_CHECK_MSG(channels >= 1, "generated dashboard needs >= 1 channel");
  std::string out = R"rsl(
# --- Generated N-channel dashboard (scaling family) ---------------------------
# N independent wheel-speed chains sharing one sampling timer; emitted by
# systems::generated_dash_source / tools/gen_dash. The modules are those of
# examples/rsl/dashboard.rsl.

)rsl";
  for (const char* name : {"debounce", "pulse_counter", "speedometer"})
    out += module_source(rsl::kDashboard, name) + "\n";
  out += "network dash_gen {\n";
  for (int c = 0; c < channels; ++c) {
    const std::string i = std::to_string(c);
    out += "  instance deb" + i + " : debounce      (raw = raw" + i +
           ", tick = timer, clean = clean" + i + ");\n";
    out += "  instance cnt" + i + " : pulse_counter (pulse = clean" + i +
           ", tick = timer, count = count" + i + ");\n";
    out += "  instance spd" + i + " : speedometer   (count = count" + i +
           ", pwm = pwm" + i + ");\n";
  }
  out += "}\n";
  return out;
}

std::shared_ptr<cfsm::Network> generated_dash_network(int channels) {
  const frontend::ParsedFile file =
      frontend::parse(generated_dash_source(channels));
  return network_of(file, "dash_gen");
}

}  // namespace polis::systems
