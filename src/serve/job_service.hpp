#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "serve/eval_service.hpp"
#include "serve/job.hpp"
#include "serve/job_validation.hpp"

namespace hgp::serve {

/// The serve subsystem's front door: every run, in process or from the
/// net::Server wire front end, is a *job* — validated before any executor
/// exists, admitted against queue and backlog limits, scheduled weighted-fair
/// across tenants, cancellable mid-run, and expired when a soft deadline
/// passes while it waits. Every outcome is a terminal JobState plus a
/// structured JobError delivered through a future that always resolves with
/// a value; the job layer never throws at a client.
///
/// Scheduling rides on EvalService's deficit-round-robin job queue, and the
/// runs themselves are ordinary run_qaoa calls on the shared worker pool and
/// compiled-block cache — so every job of a grid shares compiled blocks, and
/// jobs that complete normally are bit-identical to the same SweepJob run
/// alone, for any worker count. The pool is the parallelism: a job's
/// RunConfig::executor_threads is ignored, and its shot loop runs on the
/// worker thread that runs the job.
class JobService {
 public:
  /// The pool and shared-cache fields of EvalService::Options (worker count,
  /// adaptive bounds, cache capacity), plus admission control.
  struct Options : EvalService::Options {
    /// Admission control: maximum jobs waiting in the queue. A submit that
    /// finds the queue at the limit is rejected with QueueFull —
    /// deterministically, the limit is exact, not advisory. 0 = unbounded.
    std::size_t max_queued_jobs = 0;
    /// Admission control: reject with BacklogFull when the estimated time to
    /// drain the queue (EWMA of recent job run times × queued jobs / worker
    /// count) exceeds this bound. 0 = unbounded. The estimate warms up from
    /// completed jobs, so an empty service always admits.
    std::chrono::milliseconds max_backlog{0};
  };

  /// Backoff schedule for submit_with_retry: only transient rejections
  /// (QueueFull/BacklogFull — see job_error_transient) are retried.
  struct RetryPolicy {
    int max_attempts = 4;
    std::chrono::milliseconds initial_delay{5};
    double multiplier = 2.0;
    std::chrono::milliseconds max_delay{500};
  };

  JobService() : JobService(Options{}) {}
  explicit JobService(Options options);
  ~JobService();

  JobService(const JobService&) = delete;
  JobService& operator=(const JobService&) = delete;

  /// Validate, admit, and queue one job. The handle reports the submit-time
  /// verdict: accepted() means Queued (watch `outcome`); otherwise
  /// submit_state is Rejected (validation / admission) or Expired (deadline
  /// already in the past) and `outcome` is already resolved.
  JobHandle submit(JobRequest request);

  /// submit(), retrying transient rejections (queue pressure) with
  /// exponential backoff. Permanent rejections return immediately.
  JobHandle submit_with_retry(const JobRequest& request, const RetryPolicy& policy);
  JobHandle submit_with_retry(const JobRequest& request) {
    return submit_with_retry(request, RetryPolicy{});
  }

  /// Request cooperative cancellation. A still-queued job resolves Cancelled
  /// immediately (no executor is ever constructed); a running job observes
  /// its token at the next optimizer-iteration or shot-batch/lane-group
  /// checkpoint and resolves with its partial result. False when the id is
  /// unknown or the job already reached a terminal state.
  bool cancel(JobId id);

  /// Current lifecycle state (nullopt for unknown or pruned ids).
  std::optional<JobState> state(JobId id) const;

  /// The job's outcome future by id (nullopt for unknown or pruned ids).
  /// This is how a party that did not submit the job — a reconnected wire
  /// client whose original session died mid-run — waits for or fetches the
  /// terminal outcome: the job keeps running when its submitter vanishes,
  /// and the outcome is retained here until prune_finished() drops it.
  std::optional<std::shared_future<JobOutcome>> outcome(JobId id) const;

  /// Expire every queued job whose soft deadline has passed, without waiting
  /// for a worker to dequeue it: the queue slot frees immediately (admission
  /// control stops counting it) and the future resolves Expired. run_job
  /// performs the same check at dequeue time, so even between sweeps an
  /// overdue job never constructs an executor. Returns how many expired.
  std::size_t expire_overdue();

  /// Jobs currently in the Queued state (admission control's view).
  std::size_t queued() const;

  /// Estimated nanoseconds to drain the current queue (the BacklogFull
  /// signal): EWMA job run time × queued / workers. 0 until a job finishes.
  std::uint64_t estimated_backlog_ns() const;

  /// Drop terminal jobs from the registry (their futures stay valid — the
  /// shared state lives in the handle), after first expiring any queued job
  /// whose deadline passed. Returns how many were dropped.
  std::size_t prune_finished();

  EvalService& service() { return service_; }
  BlockCache::Stats cache_stats() const { return service_.cache_stats(); }

 private:
  std::shared_ptr<Job> find(JobId id) const;
  /// The queued lambda: deadline/cancel pre-check (terminal without an
  /// executor), Queued→Running, run_qaoa with the job's token, map the
  /// outcome, resolve.
  void run_job(const std::shared_ptr<Job>& job);
  /// Win `from`→terminal, resolve the promise, and account metrics. No-op
  /// (false) when another thread already moved the job.
  bool finish(const std::shared_ptr<Job>& job, JobState from, JobOutcome outcome);
  void note_queued_delta(long delta);

  Options options_;

  mutable std::mutex jobs_mutex_;
  std::unordered_map<JobId, std::shared_ptr<Job>> jobs_;
  JobId next_id_ = 1;
  /// Jobs in the Queued state; decremented exactly once per job by whichever
  /// thread wins the transition out of Queued.
  std::size_t queued_count_ = 0;
  /// EWMA of completed-job run time, the backlog estimator's rate input.
  double ewma_run_ns_ = 0.0;

  /// "service.*" job-lifecycle series (resolved once at construction); the
  /// per-tenant "service.tenant.<t>.*" counters resolve lazily per tenant.
  struct Metrics {
    obs::Counter* accepted;
    obs::Counter* rejected;
    obs::Counter* completed;
    obs::Counter* failed;
    obs::Counter* cancelled;
    obs::Counter* expired;
    obs::Gauge* queued;
    obs::Gauge* backlog_ns;
    obs::Histogram* queue_ns;
    obs::Histogram* run_ns;
    /// Cancel-request to future-resolution latency — the "how fast does a
    /// cancelled run free its worker" series the tests pin.
    obs::Histogram* cancel_ns;
  };
  Metrics metrics_;

  /// Declared last on purpose: EvalService's destructor drains the queued
  /// run_job lambdas, which touch every member above — so the pool must be
  /// torn down first.
  EvalService service_;
};

}  // namespace hgp::serve
