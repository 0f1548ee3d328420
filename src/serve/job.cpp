#include "serve/job.hpp"

#include <iterator>

namespace hgp::serve {

const std::string& job_state_name(JobState state) {
  static const std::string names[] = {"queued",    "running", "completed", "failed",
                                      "cancelled", "expired", "rejected"};
  static_assert(std::size(names) == static_cast<std::size_t>(JobState::Rejected) + 1);
  static const std::string unknown = "unknown";
  const auto i = static_cast<std::size_t>(state);
  return i < std::size(names) ? names[i] : unknown;
}

bool job_state_from_wire(std::uint8_t raw, JobState& out) {
  if (raw > static_cast<std::uint8_t>(JobState::Rejected)) return false;
  out = static_cast<JobState>(raw);
  return true;
}

bool job_state_terminal(JobState state) {
  return state != JobState::Queued && state != JobState::Running;
}

bool job_transition_allowed(JobState from, JobState to) {
  switch (from) {
    case JobState::Queued:
      // Running, or a terminal verdict reached before any executor existed
      // (cancel while queued, deadline passed in the queue).
      return to == JobState::Running || to == JobState::Cancelled ||
             to == JobState::Expired;
    case JobState::Running:
      return to == JobState::Completed || to == JobState::Failed ||
             to == JobState::Cancelled || to == JobState::Expired;
    default:
      return false;  // terminal states are final
  }
}

const std::string& job_error_code_name(JobErrorCode code) {
  static const std::string names[] = {
      "none",          "null_backend",     "backend_too_small", "empty_instance",
      "too_many_qubits", "bad_shots",      "bad_evaluations",   "bad_engine",
      "bad_objective", "bad_optimizer",    "bad_lanes",         "bad_cvar_alpha",
      "bad_model",     "incompatible_m3",  "bad_tenant",        "queue_full",
      "deadline_expired", "cancel_requested", "execution_failed"};
  static_assert(std::size(names) == static_cast<std::size_t>(JobErrorCode::ExecutionFailed) + 1);
  static const std::string unknown = "unknown";
  const auto i = static_cast<std::size_t>(code);
  return i < std::size(names) ? names[i] : unknown;
}

bool job_error_code_from_wire(std::int32_t raw, JobErrorCode& out) {
  if (raw < 0 || raw > static_cast<std::int32_t>(JobErrorCode::ExecutionFailed)) return false;
  out = static_cast<JobErrorCode>(raw);
  return true;
}

Job::Job(JobId id, JobRequest request)
    : submitted_at(std::chrono::steady_clock::now()),
      id_(id),
      request_(std::move(request)),
      token_(std::make_shared<CancelToken>()),
      future_(promise_.get_future().share()) {
  if (request_.deadline.count() > 0) token_->set_deadline(submitted_at + request_.deadline);
}

bool Job::try_transition(JobState from, JobState to) {
  if (!job_transition_allowed(from, to)) return false;
  return state_.compare_exchange_strong(from, to, std::memory_order_acq_rel);
}

void Job::resolve(JobOutcome outcome) { promise_.set_value(std::move(outcome)); }

}  // namespace hgp::serve
