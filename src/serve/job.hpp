#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <string>

#include "backend/backend.hpp"
#include "common/binio.hpp"
#include "common/cancel.hpp"
#include "core/models.hpp"
#include "core/workflow.hpp"
#include "graph/instances.hpp"

namespace hgp::serve {

/// One cell of a sweep grid (a Table II cell, a Fig. 5/6 ablation bar): a
/// full machine-in-loop training run. `dev` is non-owning — keep the backend
/// alive until the sweep finishes.
struct SweepJob {
  std::string label;
  graph::Instance instance;
  const backend::FakeBackend* dev = nullptr;
  core::ModelKind kind = core::ModelKind::Hybrid;
  core::RunConfig config;
  /// Fair-share scheduling metadata (see FairJobQueue): jobs of one tenant
  /// share that tenant's deficit-round-robin budget, scaled by `weight`;
  /// `priority` orders jobs within the tenant (higher first).
  std::string tenant = "default";
  int priority = 0;
  double weight = 1.0;
};

/// Unique per-service job identifier (monotonically increasing from 1).
using JobId = std::uint64_t;

/// Job lifecycle. Queued and Running are transient; everything else is
/// terminal and resolves the job's future exactly once:
///
///                    ┌────────────▶ Completed
///   submit ─▶ Queued ─▶ Running ──┼─▶ Failed
///     │          │                └─▶ Cancelled / Expired   (via CancelToken)
///     │          └─────▶ Cancelled / Expired    (before any executor exists)
///     └─▶ Rejected                              (validation / admission)
enum class JobState : int {
  Queued = 0,
  Running,
  Completed,
  Failed,
  Cancelled,
  Expired,
  Rejected,
};

/// "unknown" for a value that names no state.
const std::string& job_state_name(JobState state);
/// Checked decode of a state byte from the wire: false (out untouched) when
/// it names no state. JobOutcome::deserialize and net::Client decode every
/// state a peer sends through it.
bool job_state_from_wire(std::uint8_t raw, JobState& out);
bool job_state_terminal(JobState state);
/// The edges of the diagram above — anything else is a state-machine bug.
bool job_transition_allowed(JobState from, JobState to);

/// Structured error codes for every non-Completed outcome. Validation codes
/// are produced by validate_job() before any executor is constructed;
/// QueueFull by admission control; the rest by the lifecycle.
enum class JobErrorCode : int {
  None = 0,
  // -- validation (request never queued) --------------------------------
  NullBackend,        ///< SweepJob::dev is null
  BackendTooSmall,    ///< instance needs more qubits than the backend has
  EmptyInstance,      ///< no vertices or edges, max_cut not positive and finite,
                      ///< or a non-finite edge weight
  TooManyQubits,      ///< instance exceeds the engine's register cap
  BadShots,           ///< zero or absurd shot / calibration-shot count
  BadEvaluations,     ///< non-positive or absurd optimizer budget
  BadEngine,          ///< unknown RunConfig::engine string
  BadObjective,       ///< unknown RunConfig::objective string
  BadOptimizer,       ///< unknown RunConfig::optimizer string
  BadLanes,           ///< absurd shot_batch_lanes / executor_threads
  BadCvarAlpha,       ///< cvar_alpha outside (0, 1]
  BadModel,           ///< nonsensical model config (p < 1, non-finite angles, ...)
  IncompatibleM3,     ///< m3 requires the "sample" objective
  BadTenant,          ///< empty tenant tag or non-positive fair-share weight
  // -- admission control ------------------------------------------------
  QueueFull,          ///< queued-job limit reached — retry later
  // -- lifecycle --------------------------------------------------------
  DeadlineExpired,    ///< soft deadline passed (queued or running)
  CancelRequested,    ///< client cancelled the job
  ExecutionFailed,    ///< the run threw; message carries what()
};

/// "unknown" for a value that names no code.
const std::string& job_error_code_name(JobErrorCode code);
/// Checked decode of an error-code i32 from the wire, as job_state_from_wire.
bool job_error_code_from_wire(std::int32_t raw, JobErrorCode& out);

struct JobError {
  JobErrorCode code = JobErrorCode::None;
  std::string message;

  explicit operator bool() const { return code != JobErrorCode::None; }
};

/// What a client submits: the run itself plus job-layer metadata. Tenant,
/// priority, and fair-share weight ride on the SweepJob.
///
/// This struct is *the* submission API — JobService::submit and the
/// net::Server wire front end both accept it — and it is the unit of the
/// versioned wire schema: serialize() emits a
/// kSchemaVersion-stamped binio payload a peer deserializes bit-exactly
/// (doubles travel as IEEE-754 bit patterns), so a request submitted over a
/// socket trains the same run, to the bit, as the same request submitted
/// in process. validate_job runs identically on both sides of the wire.
struct JobRequest {
  SweepJob run;
  /// Soft deadline measured from submission (0 = none). A queued job whose
  /// deadline passes is expired without ever constructing an executor; a
  /// running job observes it through its CancelToken at the next
  /// batch/lane-group checkpoint.
  std::chrono::milliseconds deadline{0};
  /// Backend preset name for transport: SweepJob::dev is a non-owning
  /// pointer that cannot cross a socket, so serialize() writes
  /// `run.dev->name()` (or this field when dev is null) and deserialize()
  /// leaves dev null with the name here — the receiving side resolves it
  /// against its own preset registry (see net::Server) before submitting.
  std::string backend;

  /// Version stamp leading every serialized request/outcome. Bump on any
  /// layout change, a renumbered JobErrorCode included; deserialize()
  /// rejects versions it does not speak, so a newer peer degrades to a
  /// structured error instead of misparsing.
  static constexpr std::uint32_t kSchemaVersion = 4;

  void serialize(io::Writer& w) const;
  std::string serialize() const;
  /// False (out untouched beyond partial writes) on truncation, a version
  /// mismatch, or any malformed field. Never throws.
  static bool deserialize(io::Reader& r, JobRequest& out);
};

/// Terminal report of one job, delivered through JobHandle::outcome. The
/// future always resolves with a value — job-layer failures are states and
/// error codes, never exceptions thrown at the client.
struct JobOutcome {
  JobState state = JobState::Queued;
  JobError error;
  /// Completed: the full run. Cancelled/Expired mid-run: the partial run up
  /// to the last completed optimizer batch (result.cancelled == true).
  core::RunResult result;
  bool has_result = false;
  /// Submit-to-dequeue and dequeue-to-terminal wall time.
  std::uint64_t wait_ns = 0;
  std::uint64_t run_ns = 0;

  /// Wire schema counterpart of JobRequest::serialize — same version stamp,
  /// same bit-exactness contract (a RunResult round-trips with every double
  /// preserved bit for bit).
  void serialize(io::Writer& w) const;
  std::string serialize() const;
  static bool deserialize(io::Reader& r, JobOutcome& out);
};

/// The job record: identity, scheduling metadata, lifecycle state, and the
/// cancellation token threaded through the run. State changes go through
/// try_transition (a CAS over the lifecycle edges), so exactly one thread
/// wins each terminal transition and resolves the promise.
class Job {
 public:
  Job(JobId id, JobRequest request);

  JobId id() const { return id_; }
  const JobRequest& request() const { return request_; }
  JobRequest& request() { return request_; }
  const std::string& tenant() const { return request_.run.tenant; }
  JobState state() const { return state_.load(std::memory_order_acquire); }
  const std::shared_ptr<CancelToken>& token() const { return token_; }
  std::shared_future<JobOutcome> outcome() const { return future_; }

  /// CAS `from`-> `to` along an allowed edge; false when another thread moved
  /// the state first (or the edge is illegal).
  bool try_transition(JobState from, JobState to);
  /// Resolve the job's future. Call at most once, by the thread that won the
  /// terminal transition.
  void resolve(JobOutcome outcome);

  std::chrono::steady_clock::time_point submitted_at;
  /// Steady time of the first cancel() request (0 = never) — feeds the
  /// time-to-cancel histogram.
  std::atomic<std::int64_t> cancel_requested_ns{0};

 private:
  JobId id_;
  JobRequest request_;
  std::atomic<JobState> state_{JobState::Queued};
  std::shared_ptr<CancelToken> token_;
  std::promise<JobOutcome> promise_;
  std::shared_future<JobOutcome> future_;
};

/// What submit() hands back: the id, the submit-time verdict (Queued, or a
/// terminal Rejected/Expired whose outcome is already resolved), and the
/// shared future every interested party can wait on.
struct JobHandle {
  JobId id = 0;
  JobState submit_state = JobState::Queued;
  JobError submit_error;
  std::shared_future<JobOutcome> outcome;

  bool accepted() const { return submit_state == JobState::Queued; }
};

}  // namespace hgp::serve
