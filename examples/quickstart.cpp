// Quickstart: solve a Max-Cut instance with the hybrid gate-pulse QAOA on a
// simulated IBM backend, in a dozen lines of library calls.
//
//   build/example_quickstart [engine] [threads]
//
// `engine` picks the executor's noise engine by name: "auto" (the default:
// density at <= 7 active qubits, trajectories above), "trajectory" (sampled
// shots, multi-threaded) or "density" (one exact density-matrix pass per
// evaluation, no shot loop).
#include <cstdio>
#include <string>

#include "backend/presets.hpp"
#include "core/workflow.hpp"
#include "graph/instances.hpp"

int main(int argc, char** argv) {
  using namespace hgp;

  // The paper's task 1: 3-regular graph on 6 nodes (Max-Cut = 9).
  const graph::Instance instance = graph::paper_task1();
  std::printf("instance: %s\n%s\n", instance.name.c_str(), instance.graph.str().c_str());

  // A simulated ibmq_toronto with the paper's Table I calibration data.
  const backend::FakeBackend dev = backend::make_toronto();

  // Train the hybrid gate-pulse model: Hamiltonian layer stays at gate
  // level, the mixer is one trainable pulse per qubit (amp/phase/freq).
  core::RunConfig config;
  config.shots = 1024;
  config.max_evaluations = 50;  // COBYLA budget, as in the paper
  config.gate_optimization = true;
  config.engine = argc > 1 ? argv[1] : "auto";
  config.executor_threads = argc > 2 ? std::stoul(argv[2]) : 0;

  const core::RunResult result =
      core::run_qaoa(instance, dev, core::ModelKind::Hybrid, config);

  std::printf("\nhybrid gate-pulse QAOA on %s (engine: %s)\n", dev.name().c_str(),
              config.engine.c_str());
  std::printf("  approximation ratio : %.1f%%\n", 100.0 * result.ar);
  std::printf("  expected cut value  : %.2f / %.0f\n", result.final_cost, instance.max_cut);
  std::printf("  trainable parameters: %zu\n", result.num_parameters);
  std::printf("  mixer layer duration: %d dt\n", result.mixer_layer_duration_dt);
  std::printf("  circuit makespan    : %d dt (%.2f us)\n", result.makespan_dt,
              result.makespan_dt * pulse::kDtNs * 1e-3);
  return 0;
}
