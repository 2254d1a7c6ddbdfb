// Compiles an s-graph into a VM reaction routine (the analogue of §III-B4's
// translation to C followed by cross-compilation for the target MCU).
//
// Layout follows the s-graph's topological order with fall-through where
// possible and near jumps otherwise — this is where DAG sharing pays off in
// bytes, exactly the mechanism the paper exploits by encoding the BDD
// branching structure in the instruction stream (§II-A3).
//
// Entry performs the copy-in of every state variable into a shadow slot
// (the safe next-state buffering described in §V-B); expression reads of a
// state variable go to the shadow, writes go to the live slot.
//
// RoutineBuilder::finish() also resolves every name the routine uses at run
// time to a dense index: each kDetect/kEmit symbol to the index of its port
// in the machine's inputs()/outputs() (stored in the instruction's unused
// `c` operand, so the encoding and its byte size are unchanged), each state
// variable and valued input to its memory slot, and each slot and output
// port to its wrap domain. The interpreter (vm/machine.hpp) then runs on
// flat arrays only; the symbols stay in the instructions for listings and
// the name-keyed adapters.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cfsm/cfsm.hpp"
#include "sgraph/sgraph.hpp"
#include "vm/isa.hpp"

namespace polis::vm {

/// Name-class information the compiler needs about a machine's interface.
struct SymbolInfo {
  std::set<std::string> state_vars;                      // copied in on entry
  std::map<std::string, std::string> presence_to_signal; // present_x -> x
  std::set<std::string> input_value_vars;                // v_x
  std::map<std::string, int> state_domain;               // state var -> domain
  std::map<std::string, int> signal_domain;              // output sig -> domain
  /// The machine whose inputs()/outputs()/state() indices the compiled
  /// operands resolve to (null: ports are numbered in order of use).
  const cfsm::Cfsm* machine = nullptr;

  static SymbolInfo from(const cfsm::Cfsm& machine);
};

/// Compiled program plus the copy-in plan and the operands resolved for the
/// flat interpreter. A wrap domain of 0 means "stored unwrapped".
struct CompiledReaction {
  Program program;
  std::vector<std::pair<int, int>> copy_in;  // (state slot, shadow slot)
  std::vector<int> slot_wrap_domain;         // per slot: kSt wrap domain

  // --- Resolved operands (resolve_operands) -------------------------------
  /// Port tables: the machine's inputs()/outputs() in order, then any
  /// symbol the code uses that is not part of the interface.
  std::vector<std::string> inputs;
  std::vector<std::string> outputs;
  std::vector<int> output_domain;     // per output port: emission wrap
  std::vector<int> state_slot;        // per machine state var: live slot
  std::vector<int> input_value_slot;  // per input port: value slot or -1
  /// Set by resolve_operands (hand-assembled routines are resolved on the
  /// fly by vm::run).
  bool resolved = false;
};

/// Resolves `r`'s symbols and slots against the interface of
/// `syms.machine` and `syms.signal_domain`; see the header comment. Slots
/// without a wrap domain get 0.
void resolve_operands(CompiledReaction& r, const SymbolInfo& syms);

struct CompileOptions {
  /// Run the §V-B data-flow analysis and buffer only the state variables
  /// with a write-before-read hazard (reduces RAM, copy-in time and code).
  bool optimize_copy_in = false;
};

CompiledReaction compile(const sgraph::Sgraph& graph, const SymbolInfo& syms,
                         const CompileOptions& options = {});

/// Low-level routine assembly shared by the s-graph compiler and the
/// baseline code generators (e.g. the two-level multiway jump of Table II):
/// slot interning, copy-in planning, expression compilation and the kEnter /
/// kRet frame.
class RoutineBuilder {
 public:
  /// Buffers (copies in) every state variable.
  RoutineBuilder(const SymbolInfo& syms, std::string name);
  /// Buffers only `buffered_state_vars`; other state variables are read
  /// directly from their live slot (§V-B data-flow optimization).
  RoutineBuilder(const SymbolInfo& syms, std::string name,
                 std::set<std::string> buffered_state_vars);

  /// Memory slot for a variable name (interned on first use).
  int slot(const std::string& name);

  void emit(Instr instr);
  size_t here() const { return out_.program.code.size(); }
  Instr& at(size_t index) { return out_.program.code[index]; }

  /// Emits the kEnter frame (call once, before any other code).
  void emit_prologue();

  /// Compiles `e` into register `dest` (appends instructions); presence
  /// variables become kDetect, state variables read their shadow slot.
  int compile_expr(const expr::Expr& e, int dest);

  /// Emits one action (emission / store / consume).
  void compile_action(const sgraph::ActionOp& op);

  const SymbolInfo& syms() const { return *syms_; }

  CompiledReaction finish();

 private:
  const SymbolInfo* syms_;
  std::set<std::string> buffered_;
  CompiledReaction out_;
  std::map<std::string, int> slot_of_;
  bool prologue_done_ = false;
};

}  // namespace polis::vm
