#include "vm/machine.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace polis::vm {

void execute(const CompiledReaction& reaction, const TargetProfile& profile,
             Frame& frame) {
  const Program& prog = reaction.program;
  POLIS_CHECK_MSG(reaction.resolved,
                  "routine " << prog.name << " has unresolved operands");
  std::vector<std::int64_t>& mem = frame.mem;
  POLIS_CHECK(mem.size() == prog.slot_names.size() &&
              reaction.slot_wrap_domain.size() == mem.size());
  POLIS_CHECK(frame.present.size() == reaction.inputs.size());
  std::int64_t reg[64] = {0};
  frame.emissions.clear();
  frame.cycles = 0;
  frame.instructions = 0;
  frame.consumed = false;

  size_t pc = 0;
  const size_t guard = prog.code.size() * 64 + 1024;  // runaway protection
  size_t steps = 0;

  // Corrupt or hand-altered bytecode must trap, not scribble: every index an
  // instruction carries is validated before use, with the offending pc and
  // operand in the diagnostic.
  auto regi = [&](int idx) -> std::int64_t& {
    POLIS_CHECK_MSG(idx >= 0 && idx < 64,
                    "pc " << pc << ": register r" << idx
                          << " out of range [0, 64)");
    return reg[idx];
  };
  auto slot = [&](int idx) -> std::int64_t& {
    POLIS_CHECK_MSG(idx >= 0 && static_cast<size_t>(idx) < mem.size(),
                    "pc " << pc << ": memory slot " << idx
                          << " out of range [0, " << mem.size() << ")");
    return mem[static_cast<size_t>(idx)];
  };
  auto jump_to = [&](std::int64_t target) {
    POLIS_CHECK_MSG(
        target >= 0 && static_cast<size_t>(target) < prog.code.size(),
        "pc " << pc << ": jump target " << target << " out of range [0, "
              << prog.code.size() << ")");
    pc = static_cast<size_t>(target);
  };
  auto port = [&](size_t table_size) {
    const int p = prog.code[pc].c;
    POLIS_CHECK_MSG(p >= 0 && static_cast<size_t>(p) < table_size,
                    "pc " << pc << ": port " << p << " out of range [0, "
                          << table_size << ")");
    return static_cast<size_t>(p);
  };

  while (pc < prog.code.size()) {
    POLIS_CHECK_MSG(++steps < guard, "VM runaway (bad control flow?)");
    const Instr& i = prog.code[pc];
    frame.instructions++;
    switch (i.op) {
      case Opcode::kLdi:
        regi(i.a) = i.imm;
        frame.cycles += profile.cyc_ldi;
        ++pc;
        break;
      case Opcode::kLd:
        regi(i.a) = slot(i.b);
        frame.cycles += profile.cyc_ld;
        ++pc;
        break;
      case Opcode::kSt: {
        std::int64_t v = regi(i.b);
        std::int64_t& dst = slot(i.a);
        const int domain = reaction.slot_wrap_domain[static_cast<size_t>(i.a)];
        if (domain != 0) v = cfsm::wrap_to_domain(v, domain);
        dst = v;
        frame.cycles += profile.cyc_st;
        ++pc;
        break;
      }
      case Opcode::kMov:
        regi(i.a) = regi(i.b);
        frame.cycles += profile.cyc_mov;
        ++pc;
        break;
      case Opcode::kAlu:
        regi(i.a) = expr::apply_op(i.alu, regi(i.b), regi(i.c));
        frame.cycles += profile.alu_cycles(i.alu);
        ++pc;
        break;
      case Opcode::kBrz:
        if (regi(i.a) == 0) {
          frame.cycles += profile.cyc_branch_taken;
          jump_to(i.b);
        } else {
          frame.cycles += profile.cyc_branch_fall;
          ++pc;
        }
        break;
      case Opcode::kBrnz:
        if (regi(i.a) != 0) {
          frame.cycles += profile.cyc_branch_taken;
          jump_to(i.b);
        } else {
          frame.cycles += profile.cyc_branch_fall;
          ++pc;
        }
        break;
      case Opcode::kJmp:
        frame.cycles += profile.cyc_jmp;
        jump_to(i.b);
        break;
      case Opcode::kJmpInd:
        frame.cycles += profile.cyc_jmpind;
        jump_to(static_cast<std::int64_t>(i.b) + regi(i.a));
        break;
      case Opcode::kDetect:
        regi(i.a) = frame.present[port(frame.present.size())] != 0 ? 1 : 0;
        frame.cycles += profile.cyc_detect;
        ++pc;
        break;
      case Opcode::kEmit: {
        const size_t out = port(reaction.outputs.size());
        std::int64_t v = 0;
        frame.cycles += profile.cyc_emit;
        if (i.b >= 0) {
          v = regi(i.b);
          const int domain = reaction.output_domain[out];
          if (domain != 0) v = cfsm::wrap_to_domain(v, domain);
          frame.cycles += profile.cyc_emit_value_extra;
        }
        frame.emissions.emplace_back(static_cast<int>(out), v);
        ++pc;
        break;
      }
      case Opcode::kConsume:
        frame.consumed = true;
        frame.cycles += profile.cyc_consume;
        ++pc;
        break;
      case Opcode::kEnter:
        frame.cycles += profile.cyc_enter + static_cast<long long>(i.a) *
                                                profile.cyc_enter_per_copy;
        for (const auto& [from, to] : reaction.copy_in) slot(to) = slot(from);
        ++pc;
        break;
      case Opcode::kRet:
        frame.cycles += profile.cyc_ret;
        return;
    }
  }
  POLIS_CHECK_MSG(false, "program fell off the end without kRet");
}

RunResult run(const CompiledReaction& reaction, const TargetProfile& profile,
              const std::map<std::string, std::int64_t>& mem_init,
              const std::function<bool(const std::string&)>& present) {
  CompiledReaction resolved_copy;
  const CompiledReaction* r = &reaction;
  if (!reaction.resolved) {
    resolved_copy = reaction;
    resolve_operands(resolved_copy, SymbolInfo{});
    r = &resolved_copy;
  }
  const Program& prog = r->program;
  Frame frame;
  frame.mem.assign(prog.slot_names.size(), 0);
  for (size_t i = 0; i < prog.slot_names.size(); ++i) {
    auto it = mem_init.find(prog.slot_names[i]);
    if (it != mem_init.end()) frame.mem[i] = it->second;
  }
  for (const std::string& sig : r->inputs)
    frame.present.push_back(present(sig) ? 1 : 0);
  execute(*r, profile, frame);

  RunResult out;
  out.cycles = frame.cycles;
  out.instructions = frame.instructions;
  out.consumed = frame.consumed;
  for (const auto& [port, value] : frame.emissions)
    out.emissions.emplace_back(r->outputs[static_cast<size_t>(port)], value);
  for (size_t s = 0; s < frame.mem.size(); ++s)
    out.memory_out[prog.slot_names[s]] = frame.mem[s];
  return out;
}

cfsm::Reaction run_reaction(const CompiledReaction& reaction,
                            const TargetProfile& profile,
                            const cfsm::Cfsm& machine,
                            const cfsm::Snapshot& snapshot,
                            const std::map<std::string, std::int64_t>& state,
                            long long* cycles_out) {
  std::map<std::string, std::int64_t> mem;
  for (const cfsm::Signal& s : machine.inputs())
    if (!s.is_pure()) mem[cfsm::value_name(s.name)] = snapshot.value_of(s.name);
  for (const auto& [name, v] : state) mem[name] = v;

  const RunResult r = run(reaction, profile, mem, [&](const std::string& sig) {
    return snapshot.is_present(sig);
  });
  if (cycles_out != nullptr) *cycles_out = r.cycles;

  cfsm::Reaction out;
  out.fired = r.consumed;
  out.emissions = r.emissions;
  out.next_state = state;
  for (auto& [name, v] : out.next_state) {
    auto it = r.memory_out.find(name);
    if (it != r.memory_out.end()) v = it->second;
  }
  return out;
}

std::optional<MeasuredTiming> measure_timing(
    const CompiledReaction& reaction, const TargetProfile& profile,
    const cfsm::Cfsm& machine, std::uint64_t limit) {
  MeasuredTiming t;
  bool first = true;
  const bool complete = cfsm::enumerate_concrete_space(
      machine, limit,
      [&](const cfsm::Snapshot& snap,
          const std::map<std::string, std::int64_t>& st) {
        long long cycles = 0;
        run_reaction(reaction, profile, machine, snap, st, &cycles);
        if (first) {
          t.min_cycles = t.max_cycles = cycles;
          first = false;
        } else {
          t.min_cycles = std::min(t.min_cycles, cycles);
          t.max_cycles = std::max(t.max_cycles, cycles);
        }
        t.cases++;
      });
  if (!complete) return std::nullopt;
  return t;
}

}  // namespace polis::vm
