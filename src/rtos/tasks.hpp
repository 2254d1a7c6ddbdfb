// Adapters turning synthesized artifacts into RTOS tasks:
//   * vm_task     — the compiled VM routine; per-reaction cycle counts are
//                   the actual executed cycles (our "measured" backend). It
//                   is a dense task: bound to a simulation, its kernel reads
//                   the frozen flags and state vectors in place, runs the VM
//                   loop on a reused frame and writes emissions by port
//                   index, so a reaction builds no map, string, Snapshot or
//                   Reaction. Called with the name-keyed signature, it runs
//                   vm::run_reaction instead.
//   * sgraph_task — the s-graph interpreter with a fixed cycle cost (useful
//                   when only functional behaviour matters); a name-keyed
//                   callable, so it runs behind the simulator's edge adapter.
#pragma once

#include <memory>

#include "rtos/rtos.hpp"
#include "sgraph/sgraph.hpp"
#include "vm/compile.hpp"
#include "vm/isa.hpp"

namespace polis::rtos {

/// `reaction` must be compiled for `machine` (vm::SymbolInfo::from), and
/// the task must be set on an instance with the same interface.
ReactFn vm_task(std::shared_ptr<const vm::CompiledReaction> reaction,
                vm::TargetProfile profile,
                std::shared_ptr<const cfsm::Cfsm> machine);

ReactFn sgraph_task(std::shared_ptr<const sgraph::Sgraph> graph,
                    std::shared_ptr<const cfsm::Cfsm> machine,
                    long long fixed_cycles);

}  // namespace polis::rtos
