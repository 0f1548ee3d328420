#include "serve/job_service.hpp"

#include <algorithm>

namespace hgp::serve {

namespace {

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t ns_since(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - start)
                                        .count());
}

/// A handle whose outcome is already decided at submit time (rejection,
/// pre-expired deadline): no Job object, no queue traffic — just a resolved
/// future carrying the structured verdict.
JobHandle settled_handle(JobId id, JobState state, JobError error) {
  JobHandle handle;
  handle.id = id;
  handle.submit_state = state;
  handle.submit_error = error;
  JobOutcome outcome;
  outcome.state = state;
  outcome.error = std::move(error);
  std::promise<JobOutcome> promise;
  promise.set_value(std::move(outcome));
  handle.outcome = promise.get_future().share();
  return handle;
}

}  // namespace

JobService::JobService(Options options) : options_(options), service_(std::move(options)) {
  obs::Registry& reg = obs::Registry::global();
  metrics_.accepted = &reg.counter("service.jobs_accepted");
  metrics_.rejected = &reg.counter("service.jobs_rejected");
  metrics_.completed = &reg.counter("service.jobs_completed");
  metrics_.failed = &reg.counter("service.jobs_failed");
  metrics_.cancelled = &reg.counter("service.jobs_cancelled");
  metrics_.expired = &reg.counter("service.jobs_expired");
  metrics_.queued = &reg.gauge("service.jobs_queued");
  metrics_.queue_ns = &reg.histogram("service.job_queue_ns");
  metrics_.run_ns = &reg.histogram("service.job_run_ns");
  metrics_.cancel_ns = &reg.histogram("service.job_cancel_ns");
}

JobService::~JobService() = default;

std::shared_ptr<Job> JobService::find(JobId id) const {
  const std::lock_guard<std::mutex> lock(jobs_mutex_);
  const auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : it->second;
}

void JobService::note_queued_delta(long delta) {
  const std::lock_guard<std::mutex> lock(jobs_mutex_);
  queued_count_ = static_cast<std::size_t>(static_cast<long>(queued_count_) + delta);
  metrics_.queued->set(static_cast<std::int64_t>(queued_count_));
}

std::size_t JobService::queued() const {
  const std::lock_guard<std::mutex> lock(jobs_mutex_);
  return queued_count_;
}

JobHandle JobService::submit(JobRequest request) {
  const std::string tenant =
      request.run.tenant.empty() ? std::string("<invalid>") : request.run.tenant;
  obs::Registry& reg = obs::Registry::global();
  reg.counter("service.tenant." + tenant + ".submitted").inc();

  // Validation first: a malformed request is rejected before a Job object,
  // an executor, or a queue slot exists.
  if (JobError error = validate_job(request.run)) {
    metrics_.rejected->inc();
    reg.counter("service.tenant." + tenant + ".rejected").inc();
    JobId id;
    {
      const std::lock_guard<std::mutex> lock(jobs_mutex_);
      id = next_id_++;
    }
    return settled_handle(id, JobState::Rejected, std::move(error));
  }

  // A deadline already in the past expires at submit — the request was
  // well-formed, it just arrived too late to be worth queueing.
  if (request.deadline.count() < 0) {
    metrics_.expired->inc();
    JobId id;
    {
      const std::lock_guard<std::mutex> lock(jobs_mutex_);
      id = next_id_++;
    }
    return settled_handle(id, JobState::Expired,
                          JobError{JobErrorCode::DeadlineExpired,
                                   request.run.label + ": deadline precedes submission"});
  }

  // Admission control under the registry lock, so the verdict at the limit
  // is exact: the (max_queued_jobs + 1)-th concurrent submit is rejected, not
  // raced in.
  std::shared_ptr<Job> job;
  {
    const std::lock_guard<std::mutex> lock(jobs_mutex_);
    if (options_.max_queued_jobs > 0 && queued_count_ >= options_.max_queued_jobs) {
      metrics_.rejected->inc();
      reg.counter("service.tenant." + tenant + ".rejected").inc();
      return settled_handle(
          next_id_++, JobState::Rejected,
          JobError{JobErrorCode::QueueFull,
                   request.run.label + ": " + std::to_string(queued_count_) +
                       " jobs queued (limit " + std::to_string(options_.max_queued_jobs) +
                       ") — retry later"});
    }
    job = std::make_shared<Job>(next_id_++, std::move(request));
    jobs_.emplace(job->id(), job);
    ++queued_count_;
    metrics_.queued->set(static_cast<std::int64_t>(queued_count_));
  }
  metrics_.accepted->inc();

  EvalService::SubmitOptions sopt;
  sopt.tenant = job->request().run.tenant;
  sopt.weight = job->request().run.weight;
  sopt.priority = job->request().run.priority;
  service_.post(sopt, [this, job] { run_job(job); });

  JobHandle handle;
  handle.id = job->id();
  handle.submit_state = JobState::Queued;
  handle.outcome = job->outcome();
  return handle;
}

bool JobService::finish(const std::shared_ptr<Job>& job, JobState from, JobOutcome outcome) {
  const JobState to = outcome.state;
  if (!job->try_transition(from, to)) return false;
  if (from == JobState::Queued) note_queued_delta(-1);

  switch (to) {
    case JobState::Completed: metrics_.completed->inc(); break;
    case JobState::Failed: metrics_.failed->inc(); break;
    case JobState::Cancelled: metrics_.cancelled->inc(); break;
    case JobState::Expired: metrics_.expired->inc(); break;
    default: break;
  }
  if (to == JobState::Completed)
    obs::Registry::global()
        .counter("service.tenant." + job->tenant() + ".completed")
        .inc();
  metrics_.queue_ns->record(outcome.wait_ns);
  if (outcome.run_ns != 0) metrics_.run_ns->record(outcome.run_ns);
  const std::int64_t cancel_at = job->cancel_requested_ns.load(std::memory_order_acquire);
  if (cancel_at != 0)
    metrics_.cancel_ns->record(static_cast<std::uint64_t>(
        std::max<std::int64_t>(0, steady_now_ns() - cancel_at)));

  job->resolve(std::move(outcome));
  return true;
}

void JobService::run_job(const std::shared_ptr<Job>& job) {
  const std::uint64_t wait_ns = ns_since(job->submitted_at);
  const CancelToken& token = *job->token();

  // Dequeue-time deadline check, independent of the token poll below: a job
  // whose deadline expired while it sat in the queue — even between
  // expire_overdue() sweeps — must never construct an executor. The explicit
  // clock comparison keeps that guarantee even if the token's deadline arm
  // and this dequeue race on the same tick.
  const std::chrono::milliseconds deadline = job->request().deadline;
  if (deadline.count() > 0 &&
      std::chrono::steady_clock::now() >= job->submitted_at + deadline)
    token.cancel(CancelReason::DeadlineExpired);

  // Pre-run checkpoint: a job whose deadline passed (or that was cancelled)
  // while it waited in the queue terminates here — no executor, no model, no
  // shot is ever constructed for it.
  if (token.cancelled()) {
    JobOutcome outcome;
    outcome.wait_ns = wait_ns;
    if (token.reason() == CancelReason::DeadlineExpired) {
      outcome.state = JobState::Expired;
      outcome.error = JobError{JobErrorCode::DeadlineExpired,
                               job->request().run.label + ": deadline passed while queued"};
    } else {
      outcome.state = JobState::Cancelled;
      outcome.error = JobError{JobErrorCode::CancelRequested,
                               job->request().run.label + ": cancelled while queued"};
    }
    finish(job, JobState::Queued, std::move(outcome));
    return;
  }

  if (!job->try_transition(JobState::Queued, JobState::Running)) return;
  note_queued_delta(-1);

  const SweepJob& run = job->request().run;
  core::RunConfig cfg = run.config;
  // The pool provides the parallelism: any other thread count would start
  // that many shot-loop threads per evaluation inside every worker and
  // oversubscribe the machine. Counts are bit-identical for any thread
  // count, so this changes scheduling only, never results.
  cfg.executor_threads = 1;
  cfg.cancel = job->token();

  const auto started = std::chrono::steady_clock::now();
  JobOutcome outcome;
  outcome.wait_ns = wait_ns;
  try {
    core::RunResult result =
        core::run_qaoa(run.instance, *run.dev, run.kind, cfg, &service_, service_.block_cache());
    if (result.cancelled) {
      // run_qaoa assembled a partial result up to the last completed batch.
      const bool expired = token.reason() == CancelReason::DeadlineExpired;
      outcome.state = expired ? JobState::Expired : JobState::Cancelled;
      outcome.error =
          expired ? JobError{JobErrorCode::DeadlineExpired,
                             run.label + ": deadline expired mid-run (partial result attached)"}
                  : JobError{JobErrorCode::CancelRequested,
                             run.label + ": cancelled mid-run (partial result attached)"};
    } else {
      outcome.state = JobState::Completed;
    }
    outcome.result = std::move(result);
    outcome.has_result = true;
  } catch (const CancelledError& e) {
    // The token fired outside run_qaoa's partial-result net (e.g. during M3
    // calibration): terminal state only, no result.
    const bool expired = e.reason() == CancelReason::DeadlineExpired;
    outcome.state = expired ? JobState::Expired : JobState::Cancelled;
    outcome.error = expired ? JobError{JobErrorCode::DeadlineExpired,
                                       run.label + ": deadline expired mid-run"}
                            : JobError{JobErrorCode::CancelRequested,
                                       run.label + ": cancelled mid-run"};
  } catch (const std::exception& e) {
    // The run threw: the job fails, the worker (and the shared cache) stay
    // healthy for the next job.
    outcome.state = JobState::Failed;
    outcome.error = JobError{JobErrorCode::ExecutionFailed, e.what()};
  }
  outcome.run_ns = ns_since(started);
  finish(job, JobState::Running, std::move(outcome));
}

bool JobService::cancel(JobId id) {
  const std::shared_ptr<Job> job = find(id);
  if (!job) return false;
  if (job_state_terminal(job->state())) return false;

  // Stamp the first request (feeds the time-to-cancel histogram), then fire
  // the token: a running job observes it at its next checkpoint.
  std::int64_t expected = 0;
  job->cancel_requested_ns.compare_exchange_strong(expected, steady_now_ns(),
                                                   std::memory_order_acq_rel);
  job->token()->cancel(CancelReason::Cancelled);

  // Still queued? Resolve right now — the queued lambda will see the
  // terminal state (or the fired token) and back off.
  JobOutcome outcome;
  outcome.state = JobState::Cancelled;
  outcome.error = JobError{JobErrorCode::CancelRequested,
                           job->request().run.label + ": cancelled while queued"};
  outcome.wait_ns = ns_since(job->submitted_at);
  finish(job, JobState::Queued, std::move(outcome));
  return true;
}

std::optional<JobState> JobService::state(JobId id) const {
  const std::shared_ptr<Job> job = find(id);
  if (!job) return std::nullopt;
  return job->state();
}

std::optional<std::shared_future<JobOutcome>> JobService::outcome(JobId id) const {
  const std::shared_ptr<Job> job = find(id);
  if (!job) return std::nullopt;
  return job->outcome();
}

std::size_t JobService::expire_overdue() {
  // Snapshot under the lock, resolve outside it: finish() takes jobs_mutex_
  // through note_queued_delta.
  std::vector<std::shared_ptr<Job>> overdue;
  const auto now = std::chrono::steady_clock::now();
  {
    const std::lock_guard<std::mutex> lock(jobs_mutex_);
    for (const auto& [id, job] : jobs_) {
      const std::chrono::milliseconds deadline = job->request().deadline;
      if (deadline.count() > 0 && job->state() == JobState::Queued &&
          now >= job->submitted_at + deadline)
        overdue.push_back(job);
    }
  }
  std::size_t expired = 0;
  for (const std::shared_ptr<Job>& job : overdue) {
    job->token()->cancel(CancelReason::DeadlineExpired);
    JobOutcome outcome;
    outcome.state = JobState::Expired;
    outcome.error = JobError{JobErrorCode::DeadlineExpired,
                             job->request().run.label + ": deadline passed while queued"};
    outcome.wait_ns = ns_since(job->submitted_at);
    if (finish(job, JobState::Queued, std::move(outcome))) ++expired;
    // Lost the race to a worker dequeuing it: run_job's own deadline check
    // (which saw the token we just fired) resolves it Expired instead.
  }
  return expired;
}

std::size_t JobService::prune_finished() {
  expire_overdue();
  const std::lock_guard<std::mutex> lock(jobs_mutex_);
  std::size_t dropped = 0;
  for (auto it = jobs_.begin(); it != jobs_.end();) {
    if (job_state_terminal(it->second->state())) {
      it = jobs_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  return dropped;
}

}  // namespace hgp::serve
