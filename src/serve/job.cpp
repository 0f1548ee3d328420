#include "serve/job.hpp"

namespace hgp::serve {

const std::string& job_state_name(JobState state) {
  static const std::string names[] = {"queued",    "running", "completed", "failed",
                                      "cancelled", "expired", "rejected"};
  return names[static_cast<int>(state)];
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
  return names[static_cast<int>(code)];
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
