#include "core/synthesis.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/governor.hpp"
#include "util/thread_pool.hpp"

namespace polis {

SynthesisResult synthesize(std::shared_ptr<const cfsm::Cfsm> machine,
                           const SynthesisOptions& options) {
  POLIS_CHECK(machine != nullptr);
  const auto t0 = std::chrono::steady_clock::now();

  OBS_SPAN(span, "synthesize", "pipeline");
  if (span.armed()) span.arg("machine", machine->name());

  SynthesisResult result;
  result.machine = machine;
  {
    OBS_SPAN(stage, "cfsm.reactive_function", "pipeline");
    // χ is not optional; in degrade mode rebuild it ungoverned in a fresh
    // manager (the half-built one refunds its charges on destruction).
    static constexpr const char* kChiRung =
        "characteristic function over budget; ungoverned rebuild";
    ResourceGovernor::retry_ungoverned(kChiRung, [&](bool retry) {
      if (retry) result.degradations.emplace_back(kChiRung);
      result.manager = std::make_shared<bdd::BddManager>();
      result.reactive =
          std::make_shared<cfsm::ReactiveFunction>(*machine, *result.manager);
    });
  }
  result.graph = std::make_shared<sgraph::Sgraph>(
      sgraph::build_sgraph(*result.reactive, options.scheme, options.build));
  {
    // Once an s-graph exists, compile and codegen always complete: in
    // degrade mode they run with the governor suspended so an already-blown
    // deadline cannot interrupt the final (cheap, BDD-free) stages.
    std::optional<ResourceGovernor::Suspend> grace;
    if (ResourceGovernor::degrading()) grace.emplace();
    {
      OBS_SPAN(stage, "vm.compile", "pipeline");
      vm::CompileOptions compile_options;
      compile_options.optimize_copy_in = options.optimize_copy_in;
      result.compiled = std::make_shared<vm::CompiledReaction>(vm::compile(
          *result.graph, vm::SymbolInfo::from(*machine), compile_options));
    }
    {
      OBS_SPAN(stage, "codegen.generate_c", "pipeline");
      codegen::CCodegenOptions c_options;
      c_options.optimize_copy_in = options.optimize_copy_in;
      result.c_code = codegen::generate_c(*result.graph, *machine, c_options);
      result.vm_size_bytes =
          result.compiled->program.size_bytes(options.target);
    }
  }

  {
    OBS_SPAN(stage, "estim.estimate", "pipeline");
    try {
      estim::CostModel local_model;
      const estim::CostModel* model = options.cost_model;
      if (model == nullptr) {
        local_model = estim::calibrate(options.target);
        model = &local_model;
      }
      result.estimate =
          estim::estimate(*result.graph, *model, estim::context_for(*machine));
    } catch (const BudgetExceeded&) {
      // The estimate is advisory (schedulability inputs); the ladder drops
      // it rather than the synthesized code.
      static constexpr const char* kEstimateRung =
          "estimator skipped on budget";
      ResourceGovernor::degrade_or_rethrow(kEstimateRung);
      result.degradations.emplace_back(kEstimateRung);
      result.estimate_skipped = true;
      result.estimate = {};
    }
  }

  // Fold this machine's kernel counters into the global registry now rather
  // than waiting for the manager's destructor: the result (and its manager)
  // may outlive any metrics snapshot the caller takes next.
  result.manager->flush_stats_to_obs();
  obs::MetricsRegistry::global().add(
      obs::MetricsRegistry::global().counter("synthesis.machines"), 1);

  result.synthesis_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (span.armed()) {
    span.arg("sgraph_nodes", result.graph->num_nodes());
    span.arg("vm_size_bytes", result.vm_size_bytes);
  }
  return result;
}

NetworkSynthesis synthesize_network(const cfsm::Network& network,
                                    const SynthesisOptions& options) {
  OBS_SPAN(span, "synthesize_network", "pipeline");
  if (span.armed()) span.arg("network", network.name());

  SynthesisOptions shared = options;
  estim::CostModel local_model;
  if (shared.cost_model == nullptr) {
    // Calibration compiles sample programs through the governed BDD kernel.
    // The model feeds every machine's estimate, so in degrade mode a budget
    // trip here recalibrates ungoverned (small, deterministic) rather than
    // aborting the whole fan-out.
    local_model = ResourceGovernor::retry_ungoverned(
        "calibration over budget; ungoverned rerun",
        [&](bool) { return estim::calibrate(shared.target); });
    shared.cost_model = &local_model;
  }

  // Distinct machines in first-appearance order (instances sharing one
  // machine are synthesized once). Each machine's flow owns a private
  // BddManager, so the per-machine jobs below share only the read-only cost
  // model and write to disjoint result slots — the parallel path is
  // byte-identical to the serial one.
  std::vector<std::shared_ptr<const cfsm::Cfsm>> machines;
  std::map<const cfsm::Cfsm*, size_t> slot_of;
  for (const cfsm::Instance& inst : network.instances()) {
    if (slot_of.emplace(inst.machine.get(), machines.size()).second)
      machines.push_back(inst.machine);
  }

  // Per-machine options: identical to `shared` except for the global care
  // filter looked up by machine name (value captured by the jobs below).
  std::vector<SynthesisOptions> per_machine(machines.size(), shared);
  for (size_t i = 0; i < machines.size(); ++i) {
    auto it = shared.care_filter_by_machine.find(machines[i]->name());
    if (it != shared.care_filter_by_machine.end())
      per_machine[i].build.care_filter = it->second;
  }

  std::vector<SynthesisResult> results(machines.size());
  std::vector<std::exception_ptr> errors(machines.size());
  const size_t want =
      shared.num_threads > 0 ? static_cast<size_t>(shared.num_threads)
                             : ThreadPool::default_threads();
  const size_t threads = std::min(want, machines.size());
  // The ambient governor is thread-local: re-install the caller's instance
  // inside each pool job so budgets/deadline/cancellation span the whole
  // parallel fan-out (they all charge the same shared atomics).
  ResourceGovernor* const gov = ResourceGovernor::current();
  if (threads > 1) {
    ThreadPool pool(threads);
    for (size_t i = 0; i < machines.size(); ++i) {
      pool.submit([&, i] {
        // Sticky label for this worker's wall-clock trace lane; first job on
        // each pool thread wins, later calls are idempotent re-inserts.
        obs::TraceRecorder::global().name_this_thread(
            "synthesis worker #" + std::to_string(obs::this_thread_id()));
        ResourceGovernor::Scope scope(gov);
        try {
          results[i] = synthesize(machines[i], per_machine[i]);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
    }
    pool.wait_idle();
  } else {
    for (size_t i = 0; i < machines.size(); ++i) {
      try {
        results[i] = synthesize(machines[i], per_machine[i]);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  NetworkSynthesis out;
  for (const cfsm::Instance& inst : network.instances()) {
    const SynthesisResult& r = results[slot_of.at(inst.machine.get())];
    out.per_instance[inst.name] = r;
    out.max_cycles[inst.name] = r.estimate.max_cycles;
  }
  return out;
}

}  // namespace polis
