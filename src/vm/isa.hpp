// A small cycle-counted virtual instruction set standing in for the paper's
// measurement targets (Motorola 68HC11 + INTROL compiler + cycle calculator,
// MIPS R3000 + pixie, §III-C1 / §V).
//
// The VM exists so that "measured" columns of Table I can be produced
// deterministically: the s-graph is compiled to VM code whose byte size is
// the measured code size and whose executed cycle count is the measured
// execution time. RTOS primitives (event detection, emission, consumption)
// are single instructions with target-specific call costs, mirroring the
// paper's treatment of presence tests and emissions as RTOS calls.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "expr/expr.hpp"

namespace polis::vm {

enum class Opcode {
  kLdi,     // r[a] <- imm
  kLd,      // r[a] <- mem[b]
  kSt,      // mem[a] <- r[b]
  kMov,     // r[a] <- r[b]
  kAlu,     // r[a] <- r[b] <alu> r[c]   (binary), or unary on r[b]
  kBrz,     // if r[a] == 0 jump to label b
  kBrnz,    // if r[a] != 0 jump to label b
  kJmp,     // jump to label a
  kJmpInd,  // pc <- b + r[a] (computed jump into a table of kJmp entries)
  kDetect,  // r[a] <- RTOS: presence flag of signal `sym` (input port c)
  kEmit,    // RTOS: emit signal `sym` (output port c); if b >= 0, value r[b]
  kConsume, // RTOS: mark snapshot consumed
  kEnter,   // function prologue (a = number of copied-in variables)
  kRet,     // function epilogue / return
};

struct Instr {
  Opcode op = Opcode::kRet;
  int a = 0;
  int b = 0;
  int c = 0;
  std::int64_t imm = 0;
  expr::Op alu = expr::Op::kAdd;  // for kAlu
  std::string sym;                // signal name for kDetect/kEmit
};

/// Per-target cost tables: cycles and bytes per instruction style. The two
/// shipped profiles are an 8-bit CISC microcontroller flavour ("hc11") and a
/// 32-bit RISC flavour ("risc32").
struct TargetProfile {
  std::string name;

  // Cycles.
  int cyc_ldi = 2;
  int cyc_ld = 3;
  int cyc_st = 3;
  int cyc_mov = 2;
  int cyc_alu = 2;         // add/sub/compare/logic
  int cyc_mul = 10;
  int cyc_div = 22;
  int cyc_branch_taken = 3;
  int cyc_branch_fall = 1;
  int cyc_jmp = 3;
  int cyc_jmpind = 5;      // computed (jump-table) dispatch
  int cyc_detect = 9;      // RTOS presence-check call
  int cyc_emit = 12;       // RTOS emission call
  int cyc_emit_value_extra = 4;
  int cyc_consume = 6;
  int cyc_enter = 5;
  int cyc_enter_per_copy = 4;  // copy-in of one state variable (§V-B)
  int cyc_ret = 5;

  // Bytes.
  int sz_ldi = 2;
  int sz_ld = 2;
  int sz_st = 2;
  int sz_mov = 1;
  int sz_alu = 1;
  int sz_mul = 1;
  int sz_div = 1;
  int sz_branch = 2;       // near conditional branch
  int sz_jmp = 3;
  int sz_jmpind = 3;
  int sz_detect = 3;       // call + argument
  int sz_emit = 3;
  int sz_emit_value_extra = 2;
  int sz_consume = 3;
  int sz_enter = 2;
  int sz_enter_per_copy = 4;
  int sz_ret = 1;

  // System parameters (paper: 4 system characterisation parameters).
  int pointer_size = 2;
  int int_size = 2;

  int alu_cycles(expr::Op op) const;
  int alu_bytes(expr::Op op) const;
  int instr_bytes(const Instr& i) const;
};

/// 68HC11-flavoured profile: byte-cheap CISC encodings, expensive multiply
/// and divide, slow RTOS calls.
TargetProfile hc11_like();

/// 32-bit RISC flavour: mostly single-cycle, 4-byte instructions.
TargetProfile risc32_like();

/// A compiled reaction routine.
struct Program {
  std::string name;
  std::vector<Instr> code;
  std::vector<std::string> slot_names;  // memory slot index -> variable name

  int slot_of(const std::string& name) const;  // -1 if absent
  /// Total code size in bytes under `profile`.
  long long size_bytes(const TargetProfile& profile) const;
};

}  // namespace polis::vm
