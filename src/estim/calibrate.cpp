#include "estim/calibrate.hpp"

#include "bdd/bdd.hpp"
#include "cfsm/random.hpp"
#include "cfsm/reactive.hpp"
#include "sgraph/build.hpp"
#include "util/rng.hpp"
#include "vm/compile.hpp"
#include "vm/machine.hpp"

namespace polis::estim {

namespace {

// Runs a micro-program (instructions followed by kRet) and returns its cycle
// count with the bare-return baseline subtracted.
long long measure_cycles(const std::vector<vm::Instr>& body,
                         const vm::TargetProfile& profile, bool flag = false) {
  vm::CompiledReaction r;
  r.program.name = "micro";
  r.program.slot_names = {"m0", "m1"};
  r.program.code = body;
  r.program.code.push_back(
      vm::Instr{vm::Opcode::kRet, 0, 0, 0, 0, expr::Op::kAdd, ""});
  const vm::RunResult res =
      vm::run(r, profile, {{"m0", 1}, {"m1", 2}},
              [flag](const std::string&) { return flag; });
  // Subtract the kRet epilogue measured separately.
  vm::CompiledReaction base;
  base.program.name = "base";
  base.program.code = {
      vm::Instr{vm::Opcode::kRet, 0, 0, 0, 0, expr::Op::kAdd, ""}};
  const vm::RunResult b =
      vm::run(base, profile, {}, [](const std::string&) { return false; });
  return res.cycles - b.cycles;
}

long long measure_bytes(vm::Instr i, const vm::TargetProfile& profile) {
  return profile.instr_bytes(i);
}

vm::Instr mk(vm::Opcode op, int a = 0, int b = 0, int c = 0,
             std::int64_t imm = 0, expr::Op alu = expr::Op::kAdd,
             std::string sym = "") {
  return vm::Instr{op, a, b, c, imm, alu, std::move(sym)};
}

}  // namespace

CostModel calibrate(const vm::TargetProfile& profile) {
  CostModel m;
  m.target_name = profile.name;

  using vm::Opcode;

  // --- Statement-style micro-measurements (cycles). ---------------------------
  const long long ret_cycles = [&] {
    vm::CompiledReaction base;
    base.program.code = {mk(Opcode::kRet)};
    return vm::run(base, profile, {}, [](const std::string&) { return false; })
        .cycles;
  }();
  m.cyc_func_return = static_cast<double>(ret_cycles);
  m.cyc_func_enter =
      static_cast<double>(measure_cycles({mk(Opcode::kEnter, 0)}, profile));
  m.cyc_copy_in_per_var = static_cast<double>(
      measure_cycles({mk(Opcode::kEnter, 1)}, profile) -
      measure_cycles({mk(Opcode::kEnter, 0)}, profile));

  const long long ldi = measure_cycles({mk(Opcode::kLdi, 0, 0, 0, 5)}, profile);
  const long long ld = measure_cycles({mk(Opcode::kLd, 0, 0)}, profile);
  m.cyc_leaf = 0.5 * static_cast<double>(ldi + ld);

  m.cyc_op_alu = static_cast<double>(
      measure_cycles({mk(Opcode::kAlu, 0, 0, 1, 0, expr::Op::kAdd)}, profile));
  m.cyc_op_mul = static_cast<double>(
      measure_cycles({mk(Opcode::kAlu, 0, 0, 1, 0, expr::Op::kMul)}, profile));
  m.cyc_op_div = static_cast<double>(
      measure_cycles({mk(Opcode::kAlu, 0, 0, 1, 0, expr::Op::kDiv)}, profile));

  m.cyc_test_presence = static_cast<double>(
      measure_cycles({mk(Opcode::kDetect, 0, 0, 0, 0, expr::Op::kAdd, "x")},
                     profile));

  // Branch edges: taken vs fall-through, measured with a seeded register.
  const long long taken = measure_cycles(
      {mk(Opcode::kLdi, 0, 0, 0, 0), mk(Opcode::kBrz, 0, 2)}, profile) - ldi;
  const long long fall = measure_cycles(
      {mk(Opcode::kLdi, 0, 0, 0, 1), mk(Opcode::kBrz, 0, 2)}, profile) - ldi;
  m.cyc_test_edge_true = static_cast<double>(fall);   // fall into then-branch
  m.cyc_test_edge_false = static_cast<double>(taken); // branch to else

  m.cyc_goto = static_cast<double>(
      measure_cycles({mk(Opcode::kJmp, 0, 1)}, profile));
  const long long jmpind = measure_cycles(
      {mk(Opcode::kLdi, 0, 0, 0, 0), mk(Opcode::kJmpInd, 0, 2)}, profile) - ldi;
  m.cyc_multiway_base = static_cast<double>(jmpind) + m.cyc_goto;
  m.cyc_multiway_per_edge = 0.0;

  m.cyc_assign_emit = static_cast<double>(measure_cycles(
      {mk(Opcode::kEmit, 0, -1, 0, 0, expr::Op::kAdd, "y")}, profile));
  m.cyc_assign_emit_value = static_cast<double>(measure_cycles(
      {mk(Opcode::kEmit, 0, 0, 0, 0, expr::Op::kAdd, "y")}, profile)) -
      m.cyc_assign_emit;
  m.cyc_assign_store =
      static_cast<double>(measure_cycles({mk(Opcode::kSt, 0, 0)}, profile));
  m.cyc_consume =
      static_cast<double>(measure_cycles({mk(Opcode::kConsume)}, profile));

  // --- Statement-style sizes (bytes). ------------------------------------------
  m.sz_func_return = static_cast<double>(measure_bytes(mk(Opcode::kRet), profile));
  m.sz_func_enter =
      static_cast<double>(measure_bytes(mk(Opcode::kEnter, 0), profile));
  m.sz_copy_in_per_var =
      static_cast<double>(measure_bytes(mk(Opcode::kEnter, 1), profile) -
                          measure_bytes(mk(Opcode::kEnter, 0), profile));
  m.sz_leaf = 0.5 * static_cast<double>(
                        measure_bytes(mk(Opcode::kLdi), profile) +
                        measure_bytes(mk(Opcode::kLd), profile));
  m.sz_op_alu = static_cast<double>(
      measure_bytes(mk(Opcode::kAlu, 0, 0, 1, 0, expr::Op::kAdd), profile));
  m.sz_op_mul = static_cast<double>(
      measure_bytes(mk(Opcode::kAlu, 0, 0, 1, 0, expr::Op::kMul), profile));
  m.sz_op_div = static_cast<double>(
      measure_bytes(mk(Opcode::kAlu, 0, 0, 1, 0, expr::Op::kDiv), profile));
  m.sz_test_presence =
      static_cast<double>(measure_bytes(mk(Opcode::kDetect), profile));
  m.sz_branch = static_cast<double>(measure_bytes(mk(Opcode::kBrz), profile));
  m.sz_goto = static_cast<double>(measure_bytes(mk(Opcode::kJmp), profile));
  m.sz_multiway_entry =
      static_cast<double>(measure_bytes(mk(Opcode::kJmp), profile));
  m.sz_assign_emit = static_cast<double>(
      measure_bytes(mk(Opcode::kEmit, 0, -1), profile));
  m.sz_assign_emit_value =
      static_cast<double>(measure_bytes(mk(Opcode::kEmit, 0, 0), profile)) -
      m.sz_assign_emit;
  m.sz_assign_store =
      static_cast<double>(measure_bytes(mk(Opcode::kSt), profile));
  m.sz_consume =
      static_cast<double>(measure_bytes(mk(Opcode::kConsume), profile));

  m.pointer_size = profile.pointer_size;
  m.int_size = profile.int_size;

  // --- Layout statistics fitted on a compiled corpus. ---------------------------
  constexpr int kCorpusSize = 20;          // sample programs for the fit
  constexpr std::uint64_t kCorpusSeed = 7;  // deterministic corpus
  Rng rng(kCorpusSeed);
  long long total_jmps = 0;
  long long total_vertices = 0;
  long long total_brnz = 0;
  long long total_tests = 0;
  for (int i = 0; i < kCorpusSize; ++i) {
    const cfsm::Cfsm machine =
        cfsm::random_cfsm(rng, {}, "cal" + std::to_string(i));
    bdd::BddManager mgr;
    cfsm::ReactiveFunction rf(machine, mgr);
    const sgraph::Sgraph g = sgraph::build_sgraph(
        rf, sgraph::OrderingScheme::kSiftOutputsAfterSupport);
    const vm::CompiledReaction cr =
        vm::compile(g, vm::SymbolInfo::from(machine));
    for (const vm::Instr& ins : cr.program.code) {
      if (ins.op == Opcode::kJmp) total_jmps++;
      if (ins.op == Opcode::kBrnz) total_brnz++;
      if (ins.op == Opcode::kBrz) total_tests++;
    }
    total_vertices += static_cast<long long>(g.num_reachable());
  }
  total_tests += total_brnz;
  m.goto_fraction =
      total_vertices > 0
          ? static_cast<double>(total_jmps) / static_cast<double>(total_vertices)
          : 0.0;
  m.inverted_branch_fraction =
      total_tests > 0
          ? static_cast<double>(total_brnz) / static_cast<double>(total_tests)
          : 0.0;
  return m;
}

}  // namespace polis::estim
