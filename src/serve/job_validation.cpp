#include "serve/job_validation.hpp"

#include <cmath>

#include "common/error.hpp"

namespace hgp::serve {

namespace {

JobError fail(JobErrorCode code, std::string message) {
  return JobError{code, std::move(message)};
}

std::string label_of(const SweepJob& job) {
  return job.label.empty() ? std::string("<unnamed>") : job.label;
}

}  // namespace

JobError validate_job(const SweepJob& job) {
  const std::string label = label_of(job);
  const core::RunConfig& cfg = job.config;

  // Scheduling metadata first: a malformed tenant tag would corrupt the
  // fair-share accounting before the run itself is even looked at.
  if (job.tenant.empty())
    return fail(JobErrorCode::BadTenant, label + ": empty tenant tag");
  if (!(job.weight > 0.0) || !std::isfinite(job.weight))
    return fail(JobErrorCode::BadTenant,
                label + ": fair-share weight must be positive and finite");

  if (job.dev == nullptr)
    return fail(JobErrorCode::NullBackend, label + ": job has no backend");

  const std::size_t n = job.instance.graph.num_vertices();
  if (n == 0)
    return fail(JobErrorCode::EmptyInstance, label + ": zero-vertex instance");
  if (job.instance.graph.num_edges() == 0)
    return fail(JobErrorCode::EmptyInstance, label + ": instance has no edges");
  // The approximation ratio divides by max_cut, and every cut value sums
  // the edge weights: a bad value fails, or turns into NaNs, only after the
  // whole training run.
  if (!(job.instance.max_cut > 0.0) || !std::isfinite(job.instance.max_cut))
    return fail(JobErrorCode::EmptyInstance,
                label + ": max_cut must be positive and finite");
  for (const graph::Edge& e : job.instance.graph.edges())
    if (!std::isfinite(e.weight))
      return fail(JobErrorCode::EmptyInstance, label + ": non-finite edge weight");

  // Engine and objective names go through the parsers the run itself uses,
  // so the validator accepts exactly the names run_qaoa accepts. The engine
  // comes before the engine-dependent register cap; "auto" has the
  // trajectory cap, as it runs trajectories above kAutoDensityQubits.
  core::Engine engine = core::Engine::Trajectory;
  try {
    engine = core::engine_from_name(cfg.engine);
  } catch (const Error&) {
    return fail(JobErrorCode::BadEngine, label + ": unknown engine '" + cfg.engine + "'");
  }
  const std::size_t cap = engine == core::Engine::ExactDensity ? core::kMaxDensityQubits
                                                               : core::kMaxTrajectoryQubits;
  if (n > cap)
    return fail(JobErrorCode::TooManyQubits,
                label + ": " + std::to_string(n) + "-vertex instance exceeds the " +
                    cfg.engine + " engine's " + std::to_string(cap) + "-qubit register cap");
  if (job.dev->num_qubits() < n)
    return fail(JobErrorCode::BackendTooSmall,
                label + ": instance needs " + std::to_string(n) + " qubits but backend '" +
                    job.dev->name() + "' has " + std::to_string(job.dev->num_qubits()));

  core::ObjectiveKind objective = core::ObjectiveKind::Sample;
  try {
    objective = core::objective_from_name(cfg.objective);
  } catch (const Error&) {
    return fail(JobErrorCode::BadObjective,
                label + ": unknown objective '" + cfg.objective + "'");
  }
  if (cfg.m3 && objective != core::ObjectiveKind::Sample)
    return fail(JobErrorCode::IncompatibleM3,
                label + ": M3 mitigation operates on sampled counts — use the 'sample' "
                        "objective");

  if (!opt::is_optimizer_name(cfg.optimizer))
    return fail(JobErrorCode::BadOptimizer,
                label + ": unknown optimizer '" + cfg.optimizer + "'");

  if (cfg.shots == 0 || cfg.shots > kMaxShots)
    return fail(JobErrorCode::BadShots,
                label + ": shot count " + std::to_string(cfg.shots) + " outside [1, " +
                    std::to_string(kMaxShots) + "]");
  if (cfg.m3 && (cfg.calibration_shots == 0 || cfg.calibration_shots > kMaxShots))
    return fail(JobErrorCode::BadShots,
                label + ": calibration shot count " + std::to_string(cfg.calibration_shots) +
                    " outside [1, " + std::to_string(kMaxShots) + "]");

  if (cfg.max_evaluations < 1 || cfg.max_evaluations > kMaxEvaluations)
    return fail(JobErrorCode::BadEvaluations,
                label + ": optimizer budget " + std::to_string(cfg.max_evaluations) +
                    " outside [1, " + std::to_string(kMaxEvaluations) + "]");

  if (cfg.shot_batch_lanes > kMaxLanes)
    return fail(JobErrorCode::BadLanes,
                label + ": lane width exceeds " + std::to_string(kMaxLanes));
  if (cfg.executor_threads > kMaxLanes)
    return fail(JobErrorCode::BadLanes,
                label + ": executor thread count exceeds " + std::to_string(kMaxLanes));

  const bool uses_cvar = cfg.cvar || objective == core::ObjectiveKind::CVaR;
  if (uses_cvar && !(cfg.cvar_alpha > 0.0 && cfg.cvar_alpha <= 1.0))
    return fail(JobErrorCode::BadCvarAlpha,
                label + ": cvar_alpha must lie in (0, 1]");

  if (cfg.model.p < 1 || cfg.model.p > kMaxDepth)
    return fail(JobErrorCode::BadModel,
                label + ": model depth p " + std::to_string(cfg.model.p) + " outside [1, " +
                    std::to_string(kMaxDepth) + "]");
  if (job.kind != core::ModelKind::GateLevel &&
      (cfg.model.mixer_duration_dt < 1 || cfg.model.mixer_duration_dt > kMaxMixerDurationDt))
    return fail(JobErrorCode::BadModel,
                label + ": mixer pulse duration " + std::to_string(cfg.model.mixer_duration_dt) +
                    " dt outside [1, " + std::to_string(kMaxMixerDurationDt) + "]");
  if (!std::isfinite(cfg.model.init_gamma) || !std::isfinite(cfg.model.init_beta))
    return fail(JobErrorCode::BadModel, label + ": initial angles must be finite");
  // The layout goes through the check QaoaModel::build itself runs, so the
  // validator accepts exactly the layouts a model can be built on.
  try {
    core::check_initial_layout(cfg.model.initial_layout, n, *job.dev);
  } catch (const Error& e) {
    return fail(JobErrorCode::BadModel, label + ": " + e.what());
  }

  return {};
}

}  // namespace hgp::serve
