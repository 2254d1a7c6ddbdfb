// The top-level synthesis pipeline (§I-H): CFSM → characteristic function →
// optimized s-graph → C code + VM binary + cost/performance estimates.
// This is the "software synthesis system generating C code from FSM
// specifications" the paper describes, packaged as one call.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "cfsm/cfsm.hpp"
#include "cfsm/network.hpp"
#include "cfsm/reactive.hpp"
#include "codegen/c_codegen.hpp"
#include "estim/calibrate.hpp"
#include "estim/estimate.hpp"
#include "sgraph/build.hpp"
#include "util/governor.hpp"
#include "vm/compile.hpp"
#include "vm/isa.hpp"

namespace polis {

struct SynthesisOptions {
  sgraph::OrderingScheme scheme =
      sgraph::OrderingScheme::kSiftOutputsAfterSupport;
  sgraph::BuildOptions build;
  vm::TargetProfile target = vm::hc11_like();
  /// §V-B data-flow optimization: buffer only state variables with a
  /// write-before-read hazard.
  bool optimize_copy_in = false;
  /// Reuse a pre-calibrated cost model (calibration is deterministic but
  /// not free); when null, one is calibrated for `target`.
  const estim::CostModel* cost_model = nullptr;
  /// Worker threads for `synthesize_network`. Each distinct machine owns an
  /// independent BddManager, so per-machine synthesis is share-nothing and
  /// the parallel path is byte-identical to the serial one. 0 = one thread
  /// per hardware core; 1 = serial.
  int num_threads = 0;
  /// Global (network-level) care filters keyed by *machine* name, typically
  /// from verif::care_filters_by_machine. `synthesize_network` installs the
  /// matching filter as `build.care_filter` for each machine it synthesizes;
  /// machines without an entry keep the shared `build.care_filter` (usually
  /// none). Filters must be thread-safe — they run on the worker threads.
  std::map<std::string, cfsm::CareFilter> care_filter_by_machine;
};

struct SynthesisResult {
  std::shared_ptr<const cfsm::Cfsm> machine;
  std::shared_ptr<bdd::BddManager> manager;
  std::shared_ptr<cfsm::ReactiveFunction> reactive;
  std::shared_ptr<sgraph::Sgraph> graph;
  std::shared_ptr<vm::CompiledReaction> compiled;
  std::string c_code;
  estim::Estimate estimate;   // size + min/max cycles under the cost model
  long long vm_size_bytes = 0;  // measured code size on the VM target
  double synthesis_seconds = 0;
  /// Degradation ladder rungs taken for this machine (empty on a clean run).
  std::vector<std::string> degradations;
  /// True when the estimator was skipped on budget (kDegrade only); the
  /// estimate fields are then defaulted and max_cycles is not meaningful.
  bool estimate_skipped = false;
};

/// Runs the full flow for one CFSM.
SynthesisResult synthesize(std::shared_ptr<const cfsm::Cfsm> machine,
                           const SynthesisOptions& options = {});

/// The per-CFSM flow applied to every instance of a network, with the cost
/// model calibrated once and shared. `max_cycles` is the per-instance WCET
/// the estimator derives (PERT max path, §III-C1) — the input both to the
/// §I-H step-4 schedulability tests (sched::) and to the RTOS robustness
/// layer's latency cross-check (estim::network_latency_bounds +
/// rtos::sweep_faults). Instances sharing one machine are synthesized once.
struct NetworkSynthesis {
  std::map<std::string, SynthesisResult> per_instance;  // by instance name
  std::map<std::string, long long> max_cycles;          // estimator WCET
};

NetworkSynthesis synthesize_network(const cfsm::Network& network,
                                    const SynthesisOptions& options = {});

}  // namespace polis
