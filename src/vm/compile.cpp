#include "vm/compile.hpp"

#include <unordered_map>

#include "sgraph/dataflow.hpp"
#include "util/check.hpp"

namespace polis::vm {

SymbolInfo SymbolInfo::from(const cfsm::Cfsm& machine) {
  SymbolInfo s;
  s.machine = &machine;
  for (const cfsm::StateVar& v : machine.state()) {
    s.state_vars.insert(v.name);
    s.state_domain[v.name] = v.domain;
  }
  for (const cfsm::Signal& sig : machine.inputs()) {
    s.presence_to_signal[cfsm::presence_name(sig.name)] = sig.name;
    if (!sig.is_pure()) s.input_value_vars.insert(cfsm::value_name(sig.name));
  }
  for (const cfsm::Signal& sig : machine.outputs())
    s.signal_domain[sig.name] = sig.domain;
  return s;
}

void resolve_operands(CompiledReaction& r, const SymbolInfo& syms) {
  const Program& prog = r.program;
  r.inputs.clear();
  r.outputs.clear();
  r.state_slot.clear();
  if (syms.machine != nullptr) {
    for (const cfsm::Signal& in : syms.machine->inputs())
      r.inputs.push_back(in.name);
    for (const cfsm::Signal& out : syms.machine->outputs())
      r.outputs.push_back(out.name);
    for (const cfsm::StateVar& v : syms.machine->state())
      r.state_slot.push_back(prog.slot_of(v.name));
  }
  auto index_in = [](std::vector<std::string>& table, const std::string& sym) {
    for (size_t i = 0; i < table.size(); ++i)
      if (table[i] == sym) return static_cast<int>(i);
    table.push_back(sym);
    return static_cast<int>(table.size() - 1);
  };
  for (Instr& i : r.program.code) {
    if (i.op == Opcode::kDetect) i.c = index_in(r.inputs, i.sym);
    if (i.op == Opcode::kEmit) i.c = index_in(r.outputs, i.sym);
  }
  r.output_domain.assign(r.outputs.size(), 0);
  for (size_t o = 0; o < r.outputs.size(); ++o) {
    auto it = syms.signal_domain.find(r.outputs[o]);
    if (it != syms.signal_domain.end()) r.output_domain[o] = it->second;
  }
  r.input_value_slot.assign(r.inputs.size(), -1);
  for (size_t p = 0; p < r.inputs.size(); ++p)
    r.input_value_slot[p] = prog.slot_of(cfsm::value_name(r.inputs[p]));
  r.slot_wrap_domain.resize(prog.slot_names.size(), 0);
  r.resolved = true;
}

// --- RoutineBuilder ---------------------------------------------------------------

RoutineBuilder::RoutineBuilder(const SymbolInfo& syms, std::string name)
    : RoutineBuilder(syms, std::move(name), syms.state_vars) {}

RoutineBuilder::RoutineBuilder(const SymbolInfo& syms, std::string name,
                               std::set<std::string> buffered_state_vars)
    : syms_(&syms), buffered_(std::move(buffered_state_vars)) {
  out_.program.name = std::move(name);
  // Slot layout: one live slot per state variable, plus a copy-in shadow
  // for the buffered ones; one slot per valued input.
  for (const std::string& sv : syms.state_vars) {
    const int live = slot(sv);
    if (buffered_.count(sv) != 0) {
      const int shadow = slot(sv + "__in");
      out_.copy_in.emplace_back(live, shadow);
    }
    out_.slot_wrap_domain[static_cast<size_t>(live)] =
        syms.state_domain.at(sv);
  }
  for (const std::string& iv : syms.input_value_vars) slot(iv);
}

int RoutineBuilder::slot(const std::string& name) {
  auto it = slot_of_.find(name);
  if (it != slot_of_.end()) return it->second;
  const int s = static_cast<int>(out_.program.slot_names.size());
  out_.program.slot_names.push_back(name);
  out_.slot_wrap_domain.push_back(0);
  slot_of_.emplace(name, s);
  return s;
}

void RoutineBuilder::emit(Instr instr) {
  out_.program.code.push_back(std::move(instr));
}

void RoutineBuilder::emit_prologue() {
  POLIS_CHECK(!prologue_done_);
  prologue_done_ = true;
  emit(Instr{Opcode::kEnter, static_cast<int>(out_.copy_in.size()), 0, 0, 0,
             expr::Op::kAdd, ""});
}

int RoutineBuilder::compile_expr(const expr::Expr& e, int dest) {
  POLIS_CHECK_MSG(dest < 62, "expression too deep for the register file");
  switch (e.op()) {
    case expr::Op::kConst:
      emit(Instr{Opcode::kLdi, dest, 0, 0, e.value(), expr::Op::kAdd, ""});
      return dest;
    case expr::Op::kVar: {
      auto it = syms_->presence_to_signal.find(e.name());
      if (it != syms_->presence_to_signal.end()) {
        emit(Instr{Opcode::kDetect, dest, 0, 0, 0, expr::Op::kAdd,
                   it->second});
        return dest;
      }
      // Buffered state variables read their copy-in shadow (§V-B).
      const std::string name = buffered_.count(e.name()) != 0
                                   ? e.name() + "__in"
                                   : e.name();
      POLIS_CHECK_MSG(syms_->state_vars.count(e.name()) != 0 ||
                          syms_->input_value_vars.count(e.name()) != 0,
                      "unknown variable in expression: " << e.name());
      emit(Instr{Opcode::kLd, dest, slot(name), 0, 0, expr::Op::kAdd, ""});
      return dest;
    }
    case expr::Op::kNeg: {
      compile_expr(*e.args()[0], dest);
      emit(Instr{Opcode::kLdi, dest + 1, 0, 0, 0, expr::Op::kAdd, ""});
      emit(Instr{Opcode::kAlu, dest, dest + 1, dest, 0, expr::Op::kSub, ""});
      return dest;
    }
    case expr::Op::kNot: {
      compile_expr(*e.args()[0], dest);
      emit(Instr{Opcode::kLdi, dest + 1, 0, 0, 0, expr::Op::kAdd, ""});
      emit(Instr{Opcode::kAlu, dest, dest, dest + 1, 0, expr::Op::kEq, ""});
      return dest;
    }
    case expr::Op::kIte: {
      compile_expr(*e.args()[0], dest);
      const size_t brz_at = here();
      emit(Instr{Opcode::kBrz, dest, 0, 0, 0, expr::Op::kAdd, ""});
      compile_expr(*e.args()[1], dest);
      const size_t jmp_at = here();
      emit(Instr{Opcode::kJmp, 0, 0, 0, 0, expr::Op::kAdd, ""});
      at(brz_at).b = static_cast<int>(here());
      compile_expr(*e.args()[2], dest);
      at(jmp_at).b = static_cast<int>(here());
      return dest;
    }
    default: {  // binary operator
      compile_expr(*e.args()[0], dest);
      compile_expr(*e.args()[1], dest + 1);
      emit(Instr{Opcode::kAlu, dest, dest, dest + 1, 0, e.op(), ""});
      return dest;
    }
  }
}

void RoutineBuilder::compile_action(const sgraph::ActionOp& op) {
  switch (op.kind) {
    case sgraph::ActionOp::Kind::kConsume:
      emit(Instr{Opcode::kConsume, 0, 0, 0, 0, expr::Op::kAdd, ""});
      break;
    case sgraph::ActionOp::Kind::kEmitPure:
      emit(Instr{Opcode::kEmit, 0, -1, 0, 0, expr::Op::kAdd, op.target});
      break;
    case sgraph::ActionOp::Kind::kEmitValued: {
      const int r = compile_expr(*op.value, 0);
      emit(Instr{Opcode::kEmit, 0, r, 0, 0, expr::Op::kAdd, op.target});
      break;
    }
    case sgraph::ActionOp::Kind::kAssignVar: {
      const int r = compile_expr(*op.value, 0);
      emit(Instr{Opcode::kSt, slot(op.target), r, 0, 0, expr::Op::kAdd, ""});
      break;
    }
  }
}

CompiledReaction RoutineBuilder::finish() {
  resolve_operands(out_, *syms_);
  return std::move(out_);
}

// --- S-graph compiler ---------------------------------------------------------------

namespace {

class Compiler {
 public:
  Compiler(const sgraph::Sgraph& graph, const SymbolInfo& syms,
           std::set<std::string> buffered)
      : graph_(graph), builder_(syms, graph.name(), std::move(buffered)) {}

  CompiledReaction run() {
    builder_.emit_prologue();

    const std::vector<sgraph::NodeId> layout = graph_.topo_order();
    // layout[0] is BEGIN (skipped: kEnter falls through into the entry,
    // which is always layout[1]); END is emitted as the final kRet.
    POLIS_CHECK(layout.size() >= 2);
    POLIS_CHECK(graph_.node(layout[0]).kind == sgraph::Kind::kBegin);
    POLIS_CHECK(graph_.node(layout.back()).kind == sgraph::Kind::kEnd);
    if (layout.size() > 2) {
      POLIS_CHECK(layout[1] == graph_.node(graph_.begin()).next);
    }

    for (size_t i = 1; i < layout.size(); ++i) {
      const sgraph::NodeId id = layout[i];
      node_label_[id] = static_cast<int>(builder_.here());
      const sgraph::Node& n = graph_.node(id);
      const std::optional<sgraph::NodeId> fall =
          i + 1 < layout.size() ? std::optional<sgraph::NodeId>(layout[i + 1])
                                : std::nullopt;
      switch (n.kind) {
        case sgraph::Kind::kEnd:
          builder_.emit(Instr{Opcode::kRet, 0, 0, 0, 0, expr::Op::kAdd, ""});
          break;
        case sgraph::Kind::kTest: {
          const int r = builder_.compile_expr(*n.predicate, 0);
          if (fall.has_value() && *fall == n.when_false &&
              *fall != n.when_true) {
            // Fall through to the false target, branch to true.
            branch_to(Opcode::kBrnz, r, n.when_true);
          } else {
            // Branch to the false target; fall through (or jump) to true.
            branch_to(Opcode::kBrz, r, n.when_false);
            goto_unless_fallthrough(n.when_true, fall);
          }
          break;
        }
        case sgraph::Kind::kAssign: {
          size_t skip_fixup = 0;
          bool conditional = false;
          if (n.condition != nullptr) {
            const int r = builder_.compile_expr(*n.condition, 0);
            skip_fixup = builder_.here();
            conditional = true;
            builder_.emit(
                Instr{Opcode::kBrz, r, 0, 0, 0, expr::Op::kAdd, ""});
          }
          builder_.compile_action(n.action);
          if (conditional)
            builder_.at(skip_fixup).b = static_cast<int>(builder_.here());
          goto_unless_fallthrough(n.next, fall);
          break;
        }
        case sgraph::Kind::kBegin:
          POLIS_CHECK_MSG(false, "BEGIN must be first in topological order");
          break;
      }
    }

    // Resolve node-label fixups.
    for (const auto& [instr_idx, node] : node_fixups_) {
      auto it = node_label_.find(node);
      POLIS_CHECK(it != node_label_.end());
      builder_.at(static_cast<size_t>(instr_idx)).b = it->second;
    }
    return builder_.finish();
  }

 private:
  void branch_to(Opcode brop, int reg, sgraph::NodeId target) {
    node_fixups_.emplace_back(static_cast<int>(builder_.here()), target);
    builder_.emit(Instr{brop, reg, 0, 0, 0, expr::Op::kAdd, ""});
  }

  void goto_unless_fallthrough(sgraph::NodeId target,
                               std::optional<sgraph::NodeId> fall) {
    if (fall.has_value() && *fall == target) return;
    node_fixups_.emplace_back(static_cast<int>(builder_.here()), target);
    builder_.emit(Instr{Opcode::kJmp, 0, 0, 0, 0, expr::Op::kAdd, ""});
  }

  const sgraph::Sgraph& graph_;
  RoutineBuilder builder_;
  std::unordered_map<sgraph::NodeId, int> node_label_;
  std::vector<std::pair<int, sgraph::NodeId>> node_fixups_;
};

}  // namespace

CompiledReaction compile(const sgraph::Sgraph& graph, const SymbolInfo& syms,
                         const CompileOptions& options) {
  const std::set<std::string> buffered =
      options.optimize_copy_in
          ? sgraph::vars_needing_copy_in(graph, syms.state_vars)
          : syms.state_vars;
  Compiler compiler(graph, syms, buffered);
  return compiler.run();
}

}  // namespace polis::vm
