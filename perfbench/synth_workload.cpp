// synth_random: per-CFSM synthesis of a seeded batch of random machines plus
// the example machines, one synthesize() call at a time on one thread.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bdd/reorder.hpp"
#include "cfsm/random.hpp"
#include "cfsm/reactive.hpp"
#include "codegen/c_codegen.hpp"
#include "core/synthesis.hpp"
#include "estim/calibrate.hpp"
#include "estim/estimate.hpp"
#include "frontend/parser.hpp"
#include "harness.hpp"
#include "sgraph/build.hpp"
#include "util/rng.hpp"
#include "vm/compile.hpp"
#include "vm/machine.hpp"

namespace perfbench {
namespace {

using polis::cfsm::Cfsm;
using MachinePtr = std::shared_ptr<const Cfsm>;

/// Random machines per batch (the example machines come on top).
constexpr int kBatch = 768;

struct SynthState {
  polis::estim::CostModel model;
  std::vector<MachinePtr> machines;
};

/// What one synthesize() call produced, compared across passes.
struct Digest {
  long long code_bytes = 0;
  long long max_cycles = 0;
  std::size_t c_hash = 0;

  bool operator==(const Digest&) const = default;
};

Digest digest_of(long long bytes, long long max_cycles,
                 const std::string& c_code) {
  return {bytes, max_cycles, std::hash<std::string>{}(c_code)};
}

SynthState make_state(const Args& args, Layers& layers) {
  SynthState st;
  layers["estim.calibrate_s"] = 0;
  layers["frontend.parse_s"] = 0;
  st.model = timed(layers["estim.calibrate_s"],
                   [] { return polis::estim::calibrate(polis::vm::hc11_like()); });
  timed(layers["frontend.parse_s"], [&] {
    for (const char* file :
         {"dashboard", "microwave", "shock_absorber", "meter", "blinker"})
      for (const auto& [name, m] : parse_example(file).modules)
        st.machines.push_back(m);
  });
  polis::cfsm::RandomCfsmOptions options;
  options.num_inputs = 12;
  options.num_outputs = 4;
  options.num_state_vars = 6;
  options.max_domain = 16;
  options.num_rules = 32;
  polis::Rng rng(args.seed);
  const int batch = args.smoke ? 8 : kBatch;
  for (int i = 0; i < batch; ++i) {
    st.machines.push_back(std::make_shared<const Cfsm>(polis::cfsm::random_cfsm(
        rng, options, "rand" + std::to_string(i))));
  }
  return st;
}

polis::SynthesisOptions synthesis_options(const SynthState& st) {
  polis::SynthesisOptions options;
  options.cost_model = &st.model;
  options.num_threads = 1;
  return options;
}

bool same_reaction(polis::cfsm::Reaction a, polis::cfsm::Reaction b) {
  std::sort(a.emissions.begin(), a.emissions.end());
  std::sort(b.emissions.begin(), b.emissions.end());
  return a.fired == b.fired && a.emissions == b.emissions &&
         a.next_state == b.next_state;
}

/// Theorem 1 on seeded snapshots: the VM routine and the s-graph must react
/// exactly like the reference interpreter. Returns the first mismatch.
std::optional<std::string> reference_mismatch(const Cfsm& m,
                                              const polis::SynthesisResult& r,
                                              std::uint64_t seed, int samples) {
  polis::Rng rng(seed);
  const polis::vm::TargetProfile target = polis::vm::hc11_like();
  for (int k = 0; k < samples; ++k) {
    polis::cfsm::Snapshot snap;
    for (const polis::cfsm::Signal& s : m.inputs()) {
      snap.present[s.name] = rng.flip();
      if (!s.is_pure()) snap.value[s.name] = rng.uniform(0, s.domain - 1);
    }
    std::map<std::string, std::int64_t> state;
    for (const polis::cfsm::StateVar& v : m.state())
      state[v.name] = rng.uniform(0, v.domain - 1);
    const polis::cfsm::Reaction want = m.react(snap, state);
    if (!same_reaction(polis::vm::run_reaction(*r.compiled, target, m, snap,
                                               state),
                       want))
      return "vm reaction differs from the interpreter";
    if (!same_reaction(polis::sgraph::run_reaction(*r.graph, m, snap, state),
                       want))
      return "s-graph reaction differs from the interpreter";
  }
  return std::nullopt;
}

/// One untimed-overhead pass: every machine through synthesize(). The first
/// pass (`reference` set) records digests and runs the Theorem-1 check; later
/// passes must reproduce the digests. Returns the summed synthesize() time.
double synth_pass(const SynthState& st, const Args& args, Report& report,
                  std::vector<std::optional<Digest>>& digests, bool reference,
                  std::vector<double>* item_ms) {
  const polis::SynthesisOptions options = synthesis_options(st);
  double total = 0;
  for (std::size_t i = 0; i < st.machines.size(); ++i) {
    const MachinePtr& m = st.machines[i];
    report.attempt();
    try {
      const double t0 = now_s();
      const polis::SynthesisResult r = polis::synthesize(m, options);
      const double dt = now_s() - t0;
      total += dt;
      if (item_ms != nullptr) item_ms->push_back(dt * 1e3);
      const Digest d = digest_of(r.vm_size_bytes, r.estimate.max_cycles,
                                 r.c_code);
      if (reference) {
        digests[i] = d;
        if (auto bad = reference_mismatch(*m, r, args.seed * 1000003 + i,
                                          args.smoke ? 8 : 32))
          report.fail(m->name() + ": " + *bad);
      } else {
        report.check(digests[i] && *digests[i] == d,
                     m->name() + ": synthesis output changed between passes");
      }
    } catch (const std::exception& e) {
      report.fail(m->name() + ": " + e.what());
    }
  }
  return total;
}

/// synthesize()'s stages called one by one through their public functions,
/// each timed. The result must equal synthesize()'s.
void traced_synth_pass(const SynthState& st, Report& report,
                       const std::vector<std::optional<Digest>>& digests,
                       Layers& layers, double& wall) {
  const polis::vm::TargetProfile target = polis::vm::hc11_like();
  for (std::size_t i = 0; i < st.machines.size(); ++i) {
    const Cfsm& m = *st.machines[i];
    report.attempt();
    try {
      const double t0 = now_s();
      auto mgr = std::make_shared<polis::bdd::BddManager>();
      auto rf = timed(layers["cfsm.chi_s"], [&] {
        return std::make_shared<polis::cfsm::ReactiveFunction>(m, *mgr);
      });
      polis::bdd::SiftTelemetry sift;
      timed(layers["bdd.sift_s"], [&] {
        // build_sgraph's sift scheme: naive start order, then sift under
        // the outputs-after-support precedence.
        std::vector<int> start;
        for (const polis::cfsm::TestVariable& t : rf->tests())
          start.push_back(t.bdd_var);
        for (const polis::cfsm::ActionVariable& a : rf->actions())
          start.push_back(a.bdd_var);
        mgr->set_order(start);
        polis::bdd::SiftOptions options;
        options.telemetry = &sift;
        polis::bdd::sift(*mgr, rf->precedence_outputs_after_support(), options);
      });
      const polis::sgraph::Sgraph graph = timed(layers["sgraph.build_s"], [&] {
        return polis::sgraph::build_sgraph(
            *rf, polis::sgraph::OrderingScheme::kCurrent);
      });
      const polis::vm::CompiledReaction compiled =
          timed(layers["vm.compile_s"], [&] {
            return polis::vm::compile(graph, polis::vm::SymbolInfo::from(m),
                                      polis::vm::CompileOptions{});
          });
      long long bytes = 0;
      const std::string c_code = timed(layers["codegen.generate_c_s"], [&] {
        bytes = compiled.program.size_bytes(target);
        return polis::codegen::generate_c(graph, m);
      });
      const polis::estim::Estimate est =
          timed(layers["estim.estimate_s"], [&] {
            return polis::estim::estimate(graph, st.model,
                                          polis::estim::context_for(m));
          });
      wall += now_s() - t0;

      const polis::bdd::KernelStats k = mgr->stats();
      layers["bdd.sift.swaps"] += static_cast<double>(sift.swaps);
      layers["bdd.sift.size_evals"] +=
          static_cast<double>(sift.size_evaluations);
      layers["bdd.apply_calls"] += static_cast<double>(
          k.ite_calls + k.and_apply_calls + k.xor_apply_calls);
      layers["bdd.cache_lookups"] += static_cast<double>(k.cache_lookups);
      layers["bdd.cache_hits"] += static_cast<double>(k.cache_hits);
      layers["bdd.peak_nodes"] += static_cast<double>(k.peak_nodes);
      layers["sgraph.nodes"] += static_cast<double>(graph.num_nodes());
      report.check(digests[i] &&
                       *digests[i] == digest_of(bytes, est.max_cycles, c_code),
                   m.name() + ": staged synthesis differs from synthesize()");
    } catch (const std::exception& e) {
      report.fail(m.name() + ": " + e.what());
    }
  }
}

}  // namespace

void run_synth_random(const Args& args, Report& report, Layers& layers) {
  double setup_s = 0;
  const SynthState st = timed_setup<SynthState>(
      [&] { return make_state(args, layers); }, &setup_s);

  // Warm-up, untimed: the 17 example machines and the first 16 random ones.
  {
    const polis::SynthesisOptions options = synthesis_options(st);
    for (std::size_t i = 0; i < std::min<std::size_t>(33, st.machines.size());
         ++i)
      polis::synthesize(st.machines[i], options);
  }
  // The first measured pass records each machine's outputs and checks them
  // against the interpreter (outside the timed calls); later passes must
  // reproduce them.
  std::vector<std::optional<Digest>> digests(st.machines.size());
  bool reference = true;
  const auto pass = [&](std::vector<double>* item_ms) {
    const double t = synth_pass(st, args, report, digests, reference, item_ms);
    reference = false;
    return t;
  };
  std::vector<double> item_ms;
  if (!args.trace) {
    const std::vector<double> passes =
        closed_loop(args.seconds, [&] { return pass(&item_ms); });
    long long code_bytes = 0, max_cycles = 0;
    for (const auto& d : digests) {
      if (!d) continue;
      code_bytes += d->code_bytes;
      max_cycles += d->max_cycles;
    }
    const int tail = tail_percentile(item_ms.size());
    std::printf(
        "synth_random: %zu machines/pass, %zu passes, %.1f machines/s, "
        "per machine p50 %.2f ms, p%d %.2f ms, max %.2f ms (n=%zu)\n",
        st.machines.size(), passes.size(),
        static_cast<double>(st.machines.size()) / median(passes),
        median(item_ms), tail, quantile(item_ms, tail / 100.0),
        quantile(item_ms, 1.0), item_ms.size());
    report_end_to_end(report, setup_s, passes, code_bytes, max_cycles);
    return;
  }

  Layers sums;
  double traced_wall = 0;
  const int n = traced_loop(
      args.seconds, [&] { pass(&item_ms); },
      [&] {
        RecordSpans spans;
        traced_synth_pass(st, report, digests, sums, traced_wall);
        SpanSummary summary = spans.finish();
        sums["bdd.gc_s"] += summary.total_s["bdd.gc"];
        sums["bdd.cache_resize_s"] += summary.total_s["bdd.cache_resize"];
      },
      layers);
  double attributed = 0;
  for (const char* stage : {"cfsm.chi_s", "bdd.sift_s", "sgraph.build_s",
                            "vm.compile_s", "codegen.generate_c_s",
                            "estim.estimate_s"})
    attributed += sums[stage];
  for (auto& [name, v] : sums) layers[name] = v / n;
  layers["bdd.cache_hit_rate"] =
      sums["bdd.cache_lookups"] > 0
          ? sums["bdd.cache_hits"] / sums["bdd.cache_lookups"]
          : 0;
  layers["unattributed_frac"] = 1 - attributed / traced_wall;
  const int tail = tail_percentile(item_ms.size());
  layers["synth.item_ms_p50"] = median(item_ms);
  layers["synth.item_ms_tail"] = quantile(item_ms, tail / 100.0);
}

}  // namespace perfbench
