#pragma once

#include <memory>
#include <string>

#include "backend/backend.hpp"
#include "core/executor.hpp"
#include "core/models.hpp"
#include "graph/instances.hpp"
#include "optimize/duration_search.hpp"
#include "optimize/optimizer.hpp"

namespace hgp::core {

/// One experiment configuration (a cell of Table II / a bar of Figs. 5-6).
struct RunConfig {
  std::size_t shots = 1024;
  /// COBYLA evaluation budget: the paper uses 50, and up to 200 for the
  /// pulse-level model.
  int max_evaluations = 50;
  /// Step II: SABRE + commutative cancellation.
  bool gate_optimization = false;
  /// Step III: M3 measurement mitigation on every evaluation's counts.
  bool m3 = false;
  /// Step III: CVaR aggregation of the cost (paper coefficient 0.3).
  bool cvar = false;
  double cvar_alpha = 0.3;
  /// Classical optimizer driving the machine-in-loop training, one of
  /// opt::minimize's names: "cobyla" (paper default) | "spsa" | "neldermead".
  std::string optimizer = "cobyla";
  /// Master noise switch of the run's executors. false = ideal simulation
  /// (exact gate matrices, no decoherence or readout error) — the regime
  /// where lane-native objectives and candidate-lane batching shine.
  bool noise = true;
  /// What each objective evaluation computes: "sample" (legacy counts +
  /// scored_cost — the only mode M3 supports), "expectation" (exact ⟨H_C⟩
  /// over the terminal state / per-trajectory distributions — no terminal
  /// sampling at all), or "cvar" (sorted-tail CVaR_α of the exact outcome
  /// distribution, α = cvar_alpha). For the non-sample modes the `cvar` and
  /// `m3` booleans do not apply: the mode string is authoritative.
  std::string objective = "sample";
  /// Noise engine of the executor: "trajectory" (sampled shots, scales to
  /// ~14 active qubits), "density" (one exact density-matrix pass per
  /// evaluation, <= 10 active qubits, no trajectory sampling noise) or
  /// "auto" (the default: density at <= kAutoDensityQubits active qubits,
  /// where it is the faster engine, trajectories above). Noiseless runs
  /// ignore it.
  std::string engine = "auto";
  /// Worker threads of the trajectory shot loop (0 = hardware concurrency).
  /// Counts are bit-identical for every value. serve::JobService ignores it
  /// and runs every job's shot loop on the worker thread.
  std::size_t executor_threads = 0;
  /// Lockstep width of the trajectory engine (0 and 1 both run one-lane
  /// groups; see ExecutorOptions::shot_batch_lanes). Counts are
  /// bit-identical for every value.
  std::size_t shot_batch_lanes = core::kDefaultShotBatchLanes;
  /// Widest support of the post-compile timeline fusion pass (see
  /// ExecutorOptions::fusion_max_qubits): 2 fuses 1q runs and 1q-into-2q
  /// neighborhoods, 3 also fuses 2q neighborhoods through the dense 3q
  /// kernels, 0/1 disables. Only affects deterministic-unitary paths; noisy
  /// engines always run the unfused timeline.
  std::size_t fusion = 2;
  /// Shots for the M3 readout-calibration programs.
  std::size_t calibration_shots = 4096;
  /// Cooperative cancellation + soft deadline for the whole run, on one
  /// path: opt::minimize polls it before every optimizer batch and the
  /// executor at shot-batch/lane-group boundaries (the in-flight evaluation
  /// unwinds). Either way the run returns the record of the batches that
  /// completed, with RunResult::cancelled set. Null = never cancelled.
  /// Cancellation never perturbs the results of runs that complete
  /// normally.
  std::shared_ptr<const CancelToken> cancel;
  ModelConfig model;
  std::uint64_t seed = 2023;
};

/// Outcome of one trained run.
struct RunResult {
  std::string model;
  double ar = 0.0;                 // approximation ratio of the final cost
  double final_cost = 0.0;         // cut value under the configured metric
  opt::OptimizeResult optimizer;   // training record
  int iterations_to_converge = 0;
  int mixer_layer_duration_dt = 0;
  int makespan_dt = 0;             // full program duration
  std::size_t swap_count = 0;
  std::size_t num_parameters = 0;
  /// True when RunConfig::cancel stopped the run early: ar/final_cost come
  /// from the best completed evaluation (no fresh final sampling pass), and
  /// optimizer holds the partial training record.
  bool cancelled = false;
  /// Why ("cancelled" | "deadline_expired"); empty for a completed run.
  std::string cancel_reason;
};

/// Train one model variant on one backend and report the paper's metrics.
/// The cost metric used during training matches the reported one (plain
/// expectation, M3-mitigated, and/or CVaR).
///
/// The optimizer's independent candidates (SPSA perturbation pairs, simplex
/// vertices, COBYLA trial points) are evaluated through a BatchObjective:
/// each batch draws one parent RNG value and candidate i samples from
/// Rng::child(base, i), so the result is bit-identical whether the batch
/// runs inline (dispatcher == nullptr), or on a serve::EvalService pool of
/// any worker count. All of the run's executors compile into one
/// compiled-block cache — pass a service's cache to share blocks across
/// concurrent runs; null creates a run-private cache.
RunResult run_qaoa(const graph::Instance& instance, const backend::FakeBackend& dev,
                   ModelKind kind, const RunConfig& config,
                   opt::BatchDispatcher* dispatcher = nullptr,
                   std::shared_ptr<serve::BlockCache> block_cache = nullptr);

/// Step I (paper §IV-B): binary-search the minimum mixer pulse duration that
/// keeps the trained AR within `keep_fraction` of the 320dt baseline.
/// Returns the search trace plus the run at the selected duration.
struct DurationSearchOutcome {
  opt::DurationSearchResult search;
  RunResult final_run;
};
DurationSearchOutcome optimize_mixer_duration(const graph::Instance& instance,
                                              const backend::FakeBackend& dev,
                                              const RunConfig& config,
                                              double keep_fraction = 0.97);

}  // namespace hgp::core
