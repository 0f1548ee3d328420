#pragma once

#include "serve/job.hpp"

namespace hgp::serve {

/// Hard caps the validator enforces before any executor is constructed,
/// beside the executor's own register caps (core::kMaxTrajectoryQubits,
/// core::kMaxDensityQubits): they bound the work a single job may claim so
/// an absurd request cannot occupy a worker for hours.
inline constexpr std::size_t kMaxShots = std::size_t{1} << 26;  // 67M
inline constexpr int kMaxEvaluations = 1 << 20;
inline constexpr std::size_t kMaxLanes = 4096;
/// Model-size caps. A QAOA model is built (p layers transpiled) and its mixer
/// walked through the pulse ODE before run_qaoa first polls the cancel
/// token, so neither a cancel nor a deadline bounds that work: the size
/// itself must. Every caller runs p <= 2 and mixers of <= 320 dt.
inline constexpr int kMaxDepth = 64;
inline constexpr int kMaxMixerDurationDt = 1 << 14;

/// Validate a run request without touching a backend, model, or executor.
/// Returns {None, ""} when the job is well-formed; otherwise the first
/// failed check's structured code and a human-readable message. Checks are
/// ordered cheapest-first and stop at the first failure, so the verdict for
/// a given request is deterministic.
JobError validate_job(const SweepJob& job);

}  // namespace hgp::serve
