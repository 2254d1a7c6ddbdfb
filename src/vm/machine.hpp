// Cycle-counted execution of compiled reaction routines, plus exhaustive
// timing measurement over a CFSM's concrete input space. This produces the
// "measured" columns of Table I (the paper measured with an INTROL-compiled
// binary and a 68HC11 cycle calculator; our VM plays both roles).
//
// There is one interpreter loop, `execute`, and it runs on flat operands
// only: memory by slot, presence by input port, emissions by output port
// (the indices RoutineBuilder::finish() resolved). `run` and `run_reaction`
// are name-keyed adapters over it for tests, calibration and timing
// measurement; the RTOS simulator calls `execute` directly (rtos::vm_task).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cfsm/cfsm.hpp"
#include "vm/compile.hpp"
#include "vm/isa.hpp"

namespace polis::vm {

struct RunResult {
  long long cycles = 0;
  int instructions = 0;
  bool consumed = false;
  std::vector<std::pair<std::string, std::int64_t>> emissions;
  std::map<std::string, std::int64_t> memory_out;  // by slot name
};

/// Reused buffers of one `execute` call. The caller seeds `mem` (one entry
/// per slot) and `present` (one per input port of the routine); `execute`
/// fills the rest.
struct Frame {
  std::vector<std::int64_t> mem;
  std::vector<std::uint8_t> present;
  std::vector<std::pair<int, std::int64_t>> emissions;  // (output port, value)
  long long cycles = 0;
  int instructions = 0;
  bool consumed = false;
};

/// The interpreter loop: executes one reaction of a resolved routine
/// (`reaction.resolved`) over `frame`. Every index an instruction carries
/// is checked before use, so corrupt bytecode traps with a CheckError.
void execute(const CompiledReaction& reaction, const TargetProfile& profile,
             Frame& frame);

/// Executes one reaction. `mem_init` seeds memory slots by name (unset
/// slots start at 0); `present` answers RTOS presence queries (asked once
/// per input port of the routine).
RunResult run(const CompiledReaction& reaction, const TargetProfile& profile,
              const std::map<std::string, std::int64_t>& mem_init,
              const std::function<bool(const std::string&)>& present);

/// Convenience wrapper: runs one reaction for a concrete snapshot + state
/// and decodes the result as a cfsm::Reaction (used by the equivalence
/// tests: reference semantics == s-graph eval == VM execution).
cfsm::Reaction run_reaction(const CompiledReaction& reaction,
                            const TargetProfile& profile,
                            const cfsm::Cfsm& machine,
                            const cfsm::Snapshot& snapshot,
                            const std::map<std::string, std::int64_t>& state,
                            long long* cycles_out = nullptr);

struct MeasuredTiming {
  long long min_cycles = 0;
  long long max_cycles = 0;
  std::uint64_t cases = 0;
};

/// Exhaustively measures min/max reaction cycles over the machine's concrete
/// space (nullopt if it exceeds `limit` combinations).
std::optional<MeasuredTiming> measure_timing(
    const CompiledReaction& reaction, const TargetProfile& profile,
    const cfsm::Cfsm& machine, std::uint64_t limit = 1u << 22);

}  // namespace polis::vm
