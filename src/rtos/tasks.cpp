#include "rtos/tasks.hpp"

#include <algorithm>

#include "sgraph/build.hpp"
#include "util/check.hpp"
#include "vm/machine.hpp"

namespace polis::rtos {

namespace {

// A compiled routine bound to one task: operands are the port and state
// indices RoutineBuilder::finish() resolved, so a reaction only copies the
// task's flags and state into the reused frame and the results back.
class VmKernel final : public TaskKernel {
 public:
  VmKernel(std::shared_ptr<const vm::CompiledReaction> reaction,
           const vm::TargetProfile& profile, const cfsm::Cfsm& machine)
      : reaction_(std::move(reaction)), profile_(profile) {
    const vm::CompiledReaction& r = *reaction_;
    POLIS_CHECK_MSG(r.resolved, "vm_task: routine " << r.program.name
                                                      << " is not resolved");
    // The routine's port tables start with the machine's interface; extra
    // inputs (symbols outside it) are never present, an extra output could
    // not be routed.
    auto same_prefix = [](const std::vector<std::string>& table,
                          const std::vector<cfsm::Signal>& ports) {
      if (table.size() < ports.size()) return false;
      for (size_t i = 0; i < ports.size(); ++i)
        if (table[i] != ports[i].name) return false;
      return true;
    };
    bool same = same_prefix(r.inputs, machine.inputs()) &&
                same_prefix(r.outputs, machine.outputs()) &&
                r.outputs.size() == machine.outputs().size() &&
                r.state_slot.size() == machine.state().size();
    for (size_t v = 0; same && v < machine.state().size(); ++v)
      same = r.state_slot[v] >= 0 &&
             r.program.slot_names[static_cast<size_t>(r.state_slot[v])] ==
                 machine.state()[v].name;
    POLIS_CHECK_MSG(same, "vm_task: routine " << r.program.name
                                              << " was not compiled for the "
                                                 "interface of machine "
                                              << machine.name());
    num_inputs_ = machine.inputs().size();
    frame_.mem.assign(r.program.slot_names.size(), 0);
    frame_.present.assign(r.inputs.size(), 0);
  }

  bool react(const std::vector<PortFlag>& flags,
             std::vector<std::int64_t>& state,
             std::vector<PortEmission>& emissions,
             long long* cycles) override {
    const vm::CompiledReaction& r = *reaction_;
    std::fill(frame_.mem.begin(), frame_.mem.end(), 0);
    for (size_t p = 0; p < num_inputs_; ++p) {
      const PortFlag& f = flags[p];
      frame_.present[p] = f.present ? 1 : 0;
      const int slot = r.input_value_slot[p];
      if (slot >= 0)
        frame_.mem[static_cast<size_t>(slot)] = f.present ? f.value : 0;
    }
    for (size_t v = 0; v < state.size(); ++v)
      frame_.mem[static_cast<size_t>(r.state_slot[v])] = state[v];
    vm::execute(r, profile_, frame_);
    for (size_t v = 0; v < state.size(); ++v)
      state[v] = frame_.mem[static_cast<size_t>(r.state_slot[v])];
    emissions.insert(emissions.end(), frame_.emissions.begin(),
                     frame_.emissions.end());
    *cycles = frame_.cycles;
    return frame_.consumed;
  }

 private:
  std::shared_ptr<const vm::CompiledReaction> reaction_;
  vm::TargetProfile profile_;
  size_t num_inputs_ = 0;
  vm::Frame frame_;
};

}  // namespace

ReactFn vm_task(std::shared_ptr<const vm::CompiledReaction> reaction,
                vm::TargetProfile profile,
                std::shared_ptr<const cfsm::Cfsm> machine) {
  ReactFn::KernelFactory make_kernel =
      [reaction, profile](const cfsm::Cfsm& instance_machine) {
        return std::make_unique<VmKernel>(reaction, profile, instance_machine);
      };
  ReactFn::Callable call = [reaction = std::move(reaction),
                            profile = std::move(profile),
                            machine = std::move(machine)](
                               const cfsm::Snapshot& snap,
                               const std::map<std::string, std::int64_t>& state,
                               long long* cycles) {
    return vm::run_reaction(*reaction, profile, *machine, snap, state, cycles);
  };
  return ReactFn(std::move(make_kernel), std::move(call));
}

ReactFn sgraph_task(std::shared_ptr<const sgraph::Sgraph> graph,
                    std::shared_ptr<const cfsm::Cfsm> machine,
                    long long fixed_cycles) {
  return [graph = std::move(graph), machine = std::move(machine),
          fixed_cycles](const cfsm::Snapshot& snap,
                        const std::map<std::string, std::int64_t>& state,
                        long long* cycles) {
    *cycles = fixed_cycles;
    return sgraph::run_reaction(*graph, *machine, snap, state);
  };
}

}  // namespace polis::rtos
