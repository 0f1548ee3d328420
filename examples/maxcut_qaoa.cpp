// Full workflow demo: compare all three abstraction layers (gate-level,
// hybrid gate-pulse, pulse-level) on one Max-Cut task, with and without the
// Step II/III optimizations, and run the Step I duration search.
//
//   build/example_maxcut_qaoa [backend] [task] [engine]
//
// `engine` selects the executor noise engine: "auto" (default) | "trajectory" |
// "density".
#include <cstdio>
#include <string>

#include "backend/presets.hpp"
#include "common/table.hpp"
#include "core/workflow.hpp"
#include "graph/instances.hpp"
#include "graph/maxcut.hpp"

int main(int argc, char** argv) {
  using namespace hgp;

  const std::string backend_name = argc > 1 ? argv[1] : "ibmq_toronto";
  const int task = argc > 2 ? std::stoi(argv[2]) : 1;
  const std::string engine = argc > 3 ? argv[3] : "auto";

  const graph::Instance instance = task == 1   ? graph::paper_task1()
                                   : task == 2 ? graph::paper_task2()
                                               : graph::paper_task3();
  const backend::FakeBackend dev = backend::make_backend(backend_name);

  std::printf("== %s on %s ==\n", instance.name.c_str(), dev.name().c_str());

  // Classical context: what a non-quantum heuristic achieves.
  Rng rng(1);
  const auto classical = graph::max_cut_local_search(instance.graph, rng);
  std::printf("classical local search: cut %.0f / %.0f\n\n", classical.value,
              instance.max_cut);

  Table table({"model", "raw AR", "GO+M3 AR", "GO+M3+CVaR AR", "mixer (dt)"});
  for (const auto kind :
       {core::ModelKind::GateLevel, core::ModelKind::Hybrid, core::ModelKind::PulseLevel}) {
    core::RunConfig raw_cfg;
    raw_cfg.engine = engine;
    raw_cfg.max_evaluations = kind == core::ModelKind::PulseLevel ? 200 : 50;
    const auto raw = core::run_qaoa(instance, dev, kind, raw_cfg);

    core::RunConfig go_cfg = raw_cfg;
    go_cfg.gate_optimization = true;
    go_cfg.m3 = true;
    const auto go = core::run_qaoa(instance, dev, kind, go_cfg);

    core::RunConfig cvar_cfg = go_cfg;
    cvar_cfg.cvar = true;
    const auto cvar = core::run_qaoa(instance, dev, kind, cvar_cfg);

    table.add_row({core::model_name(kind), Table::pct(raw.ar), Table::pct(go.ar),
                   Table::pct(cvar.ar), std::to_string(raw.mixer_layer_duration_dt)});
  }
  std::printf("%s\n", table.str().c_str());

  // Step I: binary search for the shortest mixer pulse (hybrid model).
  std::printf("Step I duration search (hybrid, GO+M3):\n");
  core::RunConfig search_cfg;
  search_cfg.engine = engine;
  search_cfg.gate_optimization = true;
  search_cfg.m3 = true;
  const auto outcome = core::optimize_mixer_duration(instance, dev, search_cfg);
  for (const auto& [dur, score] : outcome.search.trace)
    std::printf("  duration %4d dt -> AR %.1f%%\n", dur, 100.0 * score);
  std::printf("  selected %d dt (baseline 320 dt): %.0f%% shorter\n",
              outcome.search.best_duration,
              100.0 * (1.0 - outcome.search.best_duration / 320.0));
  return 0;
}
