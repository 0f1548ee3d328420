// The job layer: request validation (structured codes before any executor
// exists), the lifecycle state machine, cooperative cancellation through the
// optimizer and trajectory shot loops, deadline expiry of queued jobs,
// deficit-round-robin fair sharing across tenants, deterministic admission
// control at the queue limit, and the contract that jobs completing normally
// are bit-identical to plain run_qaoa for any worker count.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "backend/presets.hpp"
#include "common/cancel.hpp"
#include "core/executor.hpp"
#include "core/models.hpp"
#include "core/workflow.hpp"
#include "graph/instances.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "serve/eval_service.hpp"
#include "serve/job.hpp"
#include "serve/job_service.hpp"
#include "serve/job_validation.hpp"

using namespace hgp;
using serve::FairJobQueue;
using serve::Job;
using serve::JobErrorCode;
using serve::JobHandle;
using serve::JobId;
using serve::JobOutcome;
using serve::JobRequest;
using serve::JobService;
using serve::JobState;
using serve::SweepJob;

namespace {

const backend::FakeBackend& toronto() {
  static const backend::FakeBackend dev = backend::make_toronto();
  return dev;
}

core::RunConfig tiny_config(const std::string& optimizer) {
  core::RunConfig cfg;
  cfg.shots = 64;
  cfg.max_evaluations = 6;
  cfg.optimizer = optimizer;
  cfg.executor_threads = 1;  // keep the nested shot loop serial in tests
  return cfg;
}

SweepJob good_job(const std::string& label, const std::string& optimizer = "cobyla") {
  return {label, graph::paper_task1(), &toronto(), core::ModelKind::GateLevel,
          tiny_config(optimizer)};
}

/// The 12 physical qubits of toronto's heavy-hex lattice that form a line —
/// the default device layout stops at 8 qubits, so 12-qubit jobs pin this
/// placement explicitly.
const std::vector<std::size_t> kLine12 = {0, 1, 4, 7, 10, 12, 13, 14, 16, 19, 22, 25};

/// A 12-vertex path whose edges are all nearest neighbours on kLine12, so
/// routing inserts no SWAPs and the compiled program touches exactly 12
/// physical qubits — big enough that one noisy evaluation takes real wall
/// time, so a cancel request reliably lands mid-shot-loop.
graph::Instance line12() {
  graph::Graph g(12);
  for (std::size_t i = 0; i + 1 < 12; ++i) g.add_edge(i, i + 1);
  return graph::Instance{"line12", g, 11.0};
}

/// A 12-vertex ring with chords: passes validation (12 <= the 14-qubit
/// trajectory cap) but the closure edge and chords route through heavy-hex
/// qubits outside the line, blowing the executor's active-qubit bound at
/// run time — a genuine mid-run throw inside a worker.
graph::Instance ring12() {
  graph::Graph g(12);
  for (std::size_t i = 0; i < 12; ++i) g.add_edge(i, (i + 1) % 12);
  g.add_edge(0, 6);
  g.add_edge(3, 9);
  return graph::Instance{"ring12", g, 14.0};
}

SweepJob big_job(const std::string& label) {
  SweepJob job = good_job(label);
  job.instance = line12();
  job.config.shots = std::size_t{1} << 16;
  job.config.max_evaluations = 8;
  job.config.model.initial_layout = kLine12;
  return job;
}

void expect_same_result(const core::RunResult& a, const core::RunResult& b) {
  EXPECT_EQ(a.optimizer.x, b.optimizer.x);
  EXPECT_EQ(a.optimizer.value, b.optimizer.value);
  EXPECT_EQ(a.optimizer.history, b.optimizer.history);
  EXPECT_EQ(a.optimizer.evaluations, b.optimizer.evaluations);
  EXPECT_EQ(a.ar, b.ar);
  EXPECT_EQ(a.final_cost, b.final_cost);
}

/// Park the single worker on a sleep task so subsequent submits all land in
/// the queue before anything is dequeued (deterministic scheduling tests).
void block_worker(JobService& svc, std::chrono::milliseconds for_ms) {
  svc.service().post(serve::EvalService::SubmitOptions{},
                     [for_ms] { std::this_thread::sleep_for(for_ms); });
}

bool wait_for_state(JobService& svc, JobId id, JobState want,
                    std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (svc.state(id) == want) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

JobErrorCode code_of(const SweepJob& job) { return serve::validate_job(job).code; }

}  // namespace

// ---------------------------------------------------------------------------
// Validation

TEST(JobValidation, WellFormedJobPasses) {
  EXPECT_EQ(code_of(good_job("ok")), JobErrorCode::None);
  EXPECT_FALSE(serve::validate_job(good_job("ok")));
}

TEST(JobValidation, RejectsEachMalformation) {
  SweepJob j = good_job("bad");
  j.dev = nullptr;
  EXPECT_EQ(code_of(j), JobErrorCode::NullBackend);

  j = good_job("bad");
  j.instance.graph = graph::Graph(0);
  EXPECT_EQ(code_of(j), JobErrorCode::EmptyInstance);

  j = good_job("bad");
  j.instance.graph = graph::Graph(4);  // vertices but no edges
  EXPECT_EQ(code_of(j), JobErrorCode::EmptyInstance);

  // The run divides by max_cut and sums edge weights into every cut value.
  for (const double max_cut : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity()}) {
    j = good_job("bad");
    j.instance.max_cut = max_cut;
    EXPECT_EQ(code_of(j), JobErrorCode::EmptyInstance) << max_cut;
  }
  for (const double weight : {std::numeric_limits<double>::quiet_NaN(),
                              -std::numeric_limits<double>::infinity()}) {
    j = good_job("bad");
    j.instance.graph.add_edge(0, 1, weight);  // 0 and 1 share a side of K3,3
    EXPECT_EQ(code_of(j), JobErrorCode::EmptyInstance) << weight;
  }

  j = good_job("bad");
  j.config.engine = "teleport";
  EXPECT_EQ(code_of(j), JobErrorCode::BadEngine);

  // 12 vertices: fine for trajectories (cap 14) and for "auto", which runs
  // a 12-qubit program on trajectories, over the density cap (10) under
  // either of the density engine's names.
  for (const char* engine : {"trajectory", "auto"}) {
    j = big_job("bad");
    j.config.engine = engine;
    EXPECT_EQ(code_of(j), JobErrorCode::None) << engine;
  }
  for (const char* density : {"density", "exact_density"}) {
    j = big_job("bad");
    j.config.engine = density;
    EXPECT_EQ(code_of(j), JobErrorCode::TooManyQubits) << density;
    j = good_job("bad");
    j.config.engine = density;
    EXPECT_EQ(code_of(j), JobErrorCode::None) << density;
  }

  j = good_job("bad");
  j.config.objective = "fidelity";
  EXPECT_EQ(code_of(j), JobErrorCode::BadObjective);

  j = good_job("bad");
  j.config.m3 = true;
  j.config.objective = "expectation";
  EXPECT_EQ(code_of(j), JobErrorCode::IncompatibleM3);

  j = good_job("bad");
  j.config.optimizer = "gradient_descent";
  EXPECT_EQ(code_of(j), JobErrorCode::BadOptimizer);

  j = good_job("bad");
  j.config.shots = 0;
  EXPECT_EQ(code_of(j), JobErrorCode::BadShots);

  j = good_job("bad");
  j.config.max_evaluations = 0;
  EXPECT_EQ(code_of(j), JobErrorCode::BadEvaluations);

  j = good_job("bad");
  j.config.shot_batch_lanes = serve::kMaxLanes + 1;
  EXPECT_EQ(code_of(j), JobErrorCode::BadLanes);

  j = good_job("bad");
  j.config.objective = "cvar";
  j.config.cvar_alpha = 0.0;
  EXPECT_EQ(code_of(j), JobErrorCode::BadCvarAlpha);

  j = good_job("bad");
  j.config.model.p = 0;
  EXPECT_EQ(code_of(j), JobErrorCode::BadModel);

  // Unbounded model sizes: p layers are transpiled and the mixer is walked
  // through the pulse ODE before the run first polls its cancel token.
  j = good_job("bad");
  j.config.model.p = std::numeric_limits<int>::max();
  EXPECT_EQ(code_of(j), JobErrorCode::BadModel);
  j.config.model.p = serve::kMaxDepth;
  EXPECT_EQ(code_of(j), JobErrorCode::None);

  for (const int duration : {0, serve::kMaxMixerDurationDt + 1, std::numeric_limits<int>::max()}) {
    j = good_job("bad");
    j.kind = core::ModelKind::Hybrid;
    j.config.model.mixer_duration_dt = duration;
    EXPECT_EQ(code_of(j), JobErrorCode::BadModel) << duration;
  }
  j.config.model.mixer_duration_dt = serve::kMaxMixerDurationDt;
  EXPECT_EQ(code_of(j), JobErrorCode::None);

  // Initial angles seed every model's parameters, so a NaN trains to AR 0.
  for (const double angle : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
    j = good_job("bad");
    j.kind = core::ModelKind::Hybrid;
    j.config.model.init_gamma = angle;
    EXPECT_EQ(code_of(j), JobErrorCode::BadModel) << angle;
    j = good_job("bad");
    j.config.model.init_beta = angle;
    EXPECT_EQ(code_of(j), JobErrorCode::BadModel) << angle;
  }

  // Initial layouts for the 6-vertex task on 27-qubit toronto: a physical
  // qubit off the device, two virtual qubits on one physical qubit, and too
  // few entries.
  for (const std::vector<std::size_t>& layout :
       {std::vector<std::size_t>{0, 1, 4, 7, 10, 4000},
        std::vector<std::size_t>{0, 0, 4, 7, 10, 12}, std::vector<std::size_t>{0, 1}}) {
    j = good_job("bad");
    j.config.model.initial_layout = layout;
    EXPECT_EQ(code_of(j), JobErrorCode::BadModel) << layout.size() << " entries";
  }

  j = good_job("bad");
  j.tenant = "";
  EXPECT_EQ(code_of(j), JobErrorCode::BadTenant);

  j = good_job("bad");
  j.weight = -1.0;
  EXPECT_EQ(code_of(j), JobErrorCode::BadTenant);
}

TEST(JobValidation, BackendTooSmallForInstance) {
  // falcon_16's 16 qubits cannot host a 12-qubit line placed past qubit 15 —
  // use a graph bigger than the device instead.
  graph::Graph g(20);
  for (std::size_t i = 0; i + 1 < 20; ++i) g.add_edge(i, i + 1);
  SweepJob j = good_job("bad");
  j.instance = graph::Instance{"line20", g, 19.0};
  EXPECT_EQ(code_of(j), JobErrorCode::TooManyQubits);  // register cap first
}

TEST(JobValidation, ErrorCodeNames) {
  EXPECT_EQ(serve::job_error_code_name(JobErrorCode::None), "none");
  EXPECT_EQ(serve::job_error_code_name(JobErrorCode::QueueFull), "queue_full");
  EXPECT_EQ(serve::job_error_code_name(JobErrorCode::DeadlineExpired), "deadline_expired");
  EXPECT_EQ(serve::job_error_code_name(JobErrorCode::CancelRequested), "cancel_requested");
  EXPECT_EQ(serve::job_error_code_name(JobErrorCode::ExecutionFailed), "execution_failed");
}

// ---------------------------------------------------------------------------
// Lifecycle state machine

TEST(JobStateMachine, TransitionEdges) {
  using serve::job_transition_allowed;
  EXPECT_TRUE(job_transition_allowed(JobState::Queued, JobState::Running));
  EXPECT_TRUE(job_transition_allowed(JobState::Queued, JobState::Cancelled));
  EXPECT_TRUE(job_transition_allowed(JobState::Queued, JobState::Expired));
  EXPECT_TRUE(job_transition_allowed(JobState::Running, JobState::Completed));
  EXPECT_TRUE(job_transition_allowed(JobState::Running, JobState::Failed));
  EXPECT_TRUE(job_transition_allowed(JobState::Running, JobState::Cancelled));
  EXPECT_TRUE(job_transition_allowed(JobState::Running, JobState::Expired));

  EXPECT_FALSE(job_transition_allowed(JobState::Queued, JobState::Completed));
  EXPECT_FALSE(job_transition_allowed(JobState::Queued, JobState::Failed));
  EXPECT_FALSE(job_transition_allowed(JobState::Completed, JobState::Running));
  EXPECT_FALSE(job_transition_allowed(JobState::Cancelled, JobState::Queued));
  EXPECT_FALSE(job_transition_allowed(JobState::Running, JobState::Queued));
  EXPECT_FALSE(job_transition_allowed(JobState::Rejected, JobState::Queued));
}

TEST(JobStateMachine, TerminalStatesAndNames) {
  EXPECT_FALSE(serve::job_state_terminal(JobState::Queued));
  EXPECT_FALSE(serve::job_state_terminal(JobState::Running));
  EXPECT_TRUE(serve::job_state_terminal(JobState::Completed));
  EXPECT_TRUE(serve::job_state_terminal(JobState::Failed));
  EXPECT_TRUE(serve::job_state_terminal(JobState::Cancelled));
  EXPECT_TRUE(serve::job_state_terminal(JobState::Expired));
  EXPECT_TRUE(serve::job_state_terminal(JobState::Rejected));
  EXPECT_EQ(serve::job_state_name(JobState::Queued), "queued");
  EXPECT_EQ(serve::job_state_name(JobState::Expired), "expired");
}

TEST(JobStateMachine, OutOfRangeValuesAreUnknownAndFailTheWireDecode) {
  EXPECT_EQ(serve::job_state_name(static_cast<JobState>(250)), "unknown");
  EXPECT_EQ(serve::job_error_code_name(static_cast<JobErrorCode>(100000)), "unknown");
  EXPECT_EQ(serve::job_error_code_name(static_cast<JobErrorCode>(-1)), "unknown");

  JobState state = JobState::Queued;
  EXPECT_TRUE(serve::job_state_from_wire(6, state));
  EXPECT_EQ(state, JobState::Rejected);
  EXPECT_FALSE(serve::job_state_from_wire(7, state));
  EXPECT_FALSE(serve::job_state_from_wire(250, state));
  EXPECT_EQ(state, JobState::Rejected);  // untouched by a failed decode

  JobErrorCode code = JobErrorCode::None;
  EXPECT_TRUE(serve::job_error_code_from_wire(18, code));
  EXPECT_EQ(code, JobErrorCode::ExecutionFailed);
  EXPECT_FALSE(serve::job_error_code_from_wire(19, code));
  EXPECT_FALSE(serve::job_error_code_from_wire(-1, code));
  EXPECT_FALSE(serve::job_error_code_from_wire(100000, code));
  EXPECT_EQ(code, JobErrorCode::ExecutionFailed);
}

TEST(JobStateMachine, CasAllowsExactlyOneWinner) {
  Job job(1, JobRequest{good_job("cas")});
  EXPECT_EQ(job.state(), JobState::Queued);
  EXPECT_TRUE(job.try_transition(JobState::Queued, JobState::Running));
  // Second claimant of the same edge loses.
  EXPECT_FALSE(job.try_transition(JobState::Queued, JobState::Cancelled));
  // Illegal edge never succeeds.
  EXPECT_FALSE(job.try_transition(JobState::Running, JobState::Queued));
  EXPECT_TRUE(job.try_transition(JobState::Running, JobState::Completed));
  EXPECT_FALSE(job.try_transition(JobState::Running, JobState::Failed));
  EXPECT_EQ(job.state(), JobState::Completed);
}

// ---------------------------------------------------------------------------
// CancelToken

TEST(JobCancelToken, LatchesFirstReason) {
  CancelToken tok;
  EXPECT_FALSE(tok.cancelled());
  EXPECT_EQ(tok.reason(), CancelReason::None);
  tok.cancel();
  EXPECT_TRUE(tok.cancelled());
  EXPECT_EQ(tok.reason(), CancelReason::Cancelled);
  // Later causes never overwrite the first.
  tok.cancel(CancelReason::DeadlineExpired);
  EXPECT_EQ(tok.reason(), CancelReason::Cancelled);
  EXPECT_THROW(tok.check(), CancelledError);
}

TEST(JobCancelToken, DeadlineLatchesDeadlineExpired) {
  CancelToken tok;
  tok.set_deadline(std::chrono::steady_clock::now() - std::chrono::milliseconds(1));
  EXPECT_TRUE(tok.has_deadline());
  EXPECT_TRUE(tok.cancelled());
  EXPECT_EQ(tok.reason(), CancelReason::DeadlineExpired);
  try {
    tok.check();
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.reason(), CancelReason::DeadlineExpired);
    EXPECT_NE(std::string(e.what()).find("deadline_expired"), std::string::npos);
  }
}

TEST(JobCancelToken, FutureDeadlineDoesNotFire) {
  CancelToken tok;
  tok.set_deadline(std::chrono::steady_clock::now() + std::chrono::hours(1));
  EXPECT_FALSE(tok.cancelled());
  EXPECT_NO_THROW(tok.check());
}

// ---------------------------------------------------------------------------
// FairJobQueue (the DRR scheduler, isolated)

TEST(JobQueue, EqualWeightsInterleaveRoundRobin) {
  FairJobQueue q;
  std::vector<std::string> served;
  auto task = [&served](std::string tag) { return [&served, tag] { served.push_back(tag); }; };
  for (int i = 0; i < 4; ++i) q.push("A", 1.0, 0, task("A" + std::to_string(i)));
  q.push("B", 1.0, 0, task("B0"));
  EXPECT_EQ(q.size(), 5u);
  EXPECT_EQ(q.tenant_count(), 2u);

  std::function<void()> t;
  while (q.pop(t)) t();
  // One credit each per ring pass: A0, then B's only job, then A drains.
  EXPECT_EQ(served, (std::vector<std::string>{"A0", "B0", "A1", "A2", "A3"}));
  EXPECT_TRUE(q.empty());
}

TEST(JobQueue, WeightsScaleServiceShare) {
  FairJobQueue q;
  std::vector<std::string> served;
  auto task = [&served](std::string tag) { return [&served, tag] { served.push_back(tag); }; };
  for (int i = 0; i < 4; ++i) q.push("A", 2.0, 0, task("A"));
  for (int i = 0; i < 2; ++i) q.push("B", 1.0, 0, task("B"));

  std::function<void()> t;
  while (q.pop(t)) t();
  // Weight 2 tenant serves two jobs per ring stop, weight 1 serves one.
  EXPECT_EQ(served, (std::vector<std::string>{"A", "A", "B", "A", "A", "B"}));
}

TEST(JobQueue, PriorityOrdersWithinTenant) {
  FairJobQueue q;
  std::vector<int> served;
  q.push("A", 1.0, 0, [&served] { served.push_back(1); });
  q.push("A", 1.0, 5, [&served] { served.push_back(2); });
  q.push("A", 1.0, 0, [&served] { served.push_back(3); });
  std::function<void()> t;
  while (q.pop(t)) t();
  // Higher priority first; FIFO within a priority.
  EXPECT_EQ(served, (std::vector<int>{2, 1, 3}));
}

TEST(JobQueue, DrainedTenantForfeitsDeficit) {
  FairJobQueue q;
  std::vector<std::string> served;
  auto task = [&served](std::string tag) { return [&served, tag] { served.push_back(tag); }; };
  // B drains with banked weight; when it comes back it must start from zero
  // credit, not burst ahead of A.
  q.push("A", 1.0, 0, task("A0"));
  q.push("B", 5.0, 0, task("B0"));
  std::function<void()> t;
  while (q.pop(t)) t();
  served.clear();
  q.push("A", 1.0, 0, task("A1"));
  q.push("B", 1.0, 0, task("B1"));
  q.push("B", 1.0, 0, task("B2"));
  while (q.pop(t)) t();
  EXPECT_EQ(served, (std::vector<std::string>{"A1", "B1", "B2"}));
}

TEST(JobQueue, PopOnEmptyReturnsFalse) {
  FairJobQueue q;
  std::function<void()> t;
  EXPECT_FALSE(q.pop(t));
  q.push("A", 1.0, 0, [] {});
  EXPECT_TRUE(q.pop(t));
  EXPECT_FALSE(q.pop(t));
}

// ---------------------------------------------------------------------------
// JobService: the happy path and determinism

TEST(JobService, SubmitRunsToCompletion) {
  JobService svc(JobService::Options{2, 1024});
  JobHandle h = svc.submit(JobRequest{good_job("happy")});
  ASSERT_TRUE(h.accepted());
  EXPECT_GT(h.id, 0u);

  const JobOutcome outcome = h.outcome.get();
  EXPECT_EQ(outcome.state, JobState::Completed);
  EXPECT_FALSE(outcome.error);
  ASSERT_TRUE(outcome.has_result);
  EXPECT_FALSE(outcome.result.cancelled);
  EXPECT_GT(outcome.result.ar, 0.0);
  EXPECT_GT(outcome.run_ns, 0u);
  EXPECT_EQ(svc.state(h.id), JobState::Completed);
  EXPECT_EQ(svc.queued(), 0u);
}

TEST(JobService, UnknownIdsAreHandled) {
  JobService svc(JobService::Options{1, 64});
  EXPECT_FALSE(svc.state(42).has_value());
  EXPECT_FALSE(svc.cancel(42));
}

TEST(JobService, CancelOfTerminalJobIsFalse) {
  JobService svc(JobService::Options{1, 1024});
  JobHandle h = svc.submit(JobRequest{good_job("done")});
  h.outcome.wait();
  EXPECT_FALSE(svc.cancel(h.id));
}

TEST(JobService, PruneDropsTerminalJobs) {
  JobService svc(JobService::Options{1, 1024});
  JobHandle h = svc.submit(JobRequest{good_job("prune")});
  h.outcome.wait();
  EXPECT_EQ(svc.prune_finished(), 1u);
  EXPECT_FALSE(svc.state(h.id).has_value());
  // The handle's future stays valid after pruning.
  EXPECT_EQ(h.outcome.get().state, JobState::Completed);
}

TEST(JobService, RejectedSubmitResolvesImmediately) {
  JobService svc(JobService::Options{1, 64});
  SweepJob bad_optimizer = good_job("reject-me");
  bad_optimizer.config.optimizer = "bogus";
  SweepJob null_dev = good_job("null-dev");
  null_dev.dev = nullptr;  // used to be a hard HGP_REQUIRE (or worse, a segfault)
  SweepJob off_device = good_job("off-device");
  off_device.config.model.initial_layout = {0, 1, 4, 7, 10, 4000};  // once a heap overflow
  const std::pair<SweepJob, JobErrorCode> cases[] = {
      {bad_optimizer, JobErrorCode::BadOptimizer},
      {null_dev, JobErrorCode::NullBackend},
      {off_device, JobErrorCode::BadModel}};
  for (const auto& [job, code] : cases) {
    SCOPED_TRACE(job.label);
    JobHandle h = svc.submit(JobRequest{job});
    EXPECT_FALSE(h.accepted());
    EXPECT_EQ(h.submit_state, JobState::Rejected);
    EXPECT_EQ(h.submit_error.code, code);
    const JobOutcome outcome = h.outcome.get();  // already resolved
    EXPECT_EQ(outcome.state, JobState::Rejected);
    EXPECT_EQ(outcome.error.code, code);
    EXPECT_FALSE(outcome.has_result);
  }
}

TEST(JobService, CompletedJobsBitIdenticalToPlainRunForAnyWorkerCount) {
  // SPSA fans 2-candidate batches through the pool every iteration.
  const SweepJob job = good_job("determinism", "spsa");
  const core::RunResult inline_result =
      core::run_qaoa(job.instance, *job.dev, job.kind, job.config);

  for (std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    JobService svc(JobService::Options{workers, 1024});
    JobHandle h = svc.submit(JobRequest{job});
    const JobOutcome outcome = h.outcome.get();
    ASSERT_EQ(outcome.state, JobState::Completed);
    expect_same_result(outcome.result, inline_result);
  }
}

TEST(JobService, ShotLoopRunsOnTheWorkerThread) {
  // The pool is the parallelism: a job asking for 4 shot-loop threads must
  // still evolve every lane group on its worker, inside the executor.run
  // span open there. A spawned shot thread has no open span, so its
  // lane-group spans would record as roots. The 6-qubit job names the
  // trajectory engine: under "auto" it runs on the density engine, which
  // has no shot loop.
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::Tracer::global().clear();
  SweepJob job = good_job("threads");
  job.config.engine = "trajectory";
  job.config.shots = 1024;  // 4 shot batches: enough for 4 threads
  job.config.executor_threads = 4;
  JobService svc(JobService::Options{1, 1024});
  const JobOutcome outcome = svc.submit(JobRequest{job}).outcome.get();
  obs::set_enabled(was_enabled);
  ASSERT_EQ(outcome.state, JobState::Completed);

  std::size_t lane_spans = 0, roots = 0;
  for (const obs::SpanRecord& r : obs::Tracer::global().snapshot()) {
    if (std::string(r.name) != "executor.lane_evolve") continue;
    ++lane_spans;
    if (r.parent == 0) ++roots;
  }
  EXPECT_GT(lane_spans, 0u);
  EXPECT_EQ(roots, 0u) << roots << " of " << lane_spans
                       << " lane groups evolved off the worker thread";
}

// ---------------------------------------------------------------------------
// Cancellation

TEST(JobCancellation, RunningJobFreesWorkerQuickly) {
  JobService svc(JobService::Options{1, 4096});
  JobHandle h = svc.submit(JobRequest{big_job("cancel-me")});
  ASSERT_TRUE(h.accepted());
  ASSERT_TRUE(wait_for_state(svc, h.id, JobState::Running, std::chrono::seconds(30)));
  // Let it get well into the first evaluation's shot loop.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(svc.cancel(h.id));
  const JobOutcome outcome = h.outcome.get();
  const auto elapsed = std::chrono::steady_clock::now() - t0;

  EXPECT_EQ(outcome.state, JobState::Cancelled);
  EXPECT_EQ(outcome.error.code, JobErrorCode::CancelRequested);
  // The checkpoint granularity is one shot batch / lane group — resolution
  // must come orders of magnitude sooner than the run's natural end. The
  // bound is generous for CI noise; an uncancelled run takes tens of seconds.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 5000);
  // Partial-result annotation survives the unwind.
  ASSERT_TRUE(outcome.has_result);
  EXPECT_TRUE(outcome.result.cancelled);
  EXPECT_EQ(outcome.result.cancel_reason, "cancelled");

  // The worker is healthy and free: a follow-up job completes.
  JobHandle next = svc.submit(JobRequest{good_job("after-cancel")});
  EXPECT_EQ(next.outcome.get().state, JobState::Completed);
}

TEST(JobCancellation, QueuedJobCancelsWithoutRunning) {
  JobService svc(JobService::Options{1, 1024});
  block_worker(svc, std::chrono::milliseconds(300));
  JobHandle h = svc.submit(JobRequest{good_job("queued-cancel")});
  ASSERT_TRUE(h.accepted());
  EXPECT_TRUE(svc.cancel(h.id));
  // Resolved by the canceller, not the worker: immediate.
  const JobOutcome outcome = h.outcome.get();
  EXPECT_EQ(outcome.state, JobState::Cancelled);
  EXPECT_EQ(outcome.error.code, JobErrorCode::CancelRequested);
  EXPECT_FALSE(outcome.has_result);
  EXPECT_EQ(svc.queued(), 0u);
}

TEST(JobCancellation, TimeToCancelHistogramRecords) {
  obs::set_enabled(true);
  obs::Histogram& h_ns = obs::Registry::global().histogram("service.job_cancel_ns");
  const std::uint64_t before = h_ns.count();
  JobService svc(JobService::Options{1, 1024});
  block_worker(svc, std::chrono::milliseconds(50));
  JobHandle h = svc.submit(JobRequest{good_job("timed-cancel")});
  svc.cancel(h.id);
  h.outcome.wait();
  EXPECT_EQ(h_ns.count(), before + 1);
}

TEST(JobCancellation, DeadlineStopsEveryShotGridMidRun) {
  // Every trajectory shot grid polls the token at batch and lane-group
  // boundaries. The deadline is armed a little ahead, so the entry check
  // passes on a warm block cache and only the grid can observe it; the shot
  // budget would take minutes uncancelled.
  const graph::Instance inst = graph::paper_task1();
  const core::QaoaModel model = core::QaoaModel::build(
      inst.graph, toronto(), core::ModelKind::GateLevel, core::ModelConfig{});
  const core::Program prog = model.instantiate(model.initial_parameters());
  constexpr std::size_t kShots = std::size_t{1} << 22;
  constexpr auto kArm = std::chrono::milliseconds(50);

  const struct {
    const char* name;
    std::size_t lanes;
    core::ObjectiveKind kind;  // Sample = Executor::run
  } cases[] = {{"run lanes=1", 1, core::ObjectiveKind::Sample},
               {"run lanes=16", 16, core::ObjectiveKind::Sample},
               {"expectation", 16, core::ObjectiveKind::Expectation},
               {"cvar", 16, core::ObjectiveKind::CVaR}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const auto token = std::make_shared<CancelToken>();
    core::ExecutorOptions opts;
    opts.num_threads = 1;
    opts.shot_batch_lanes = c.lanes;
    opts.cancel = token;
    core::Executor ex(toronto(), opts);
    Rng rng(1);
    ex.run(prog, 16, rng);  // compile every block before the clock starts
    core::ObjectiveSpec spec;
    spec.kind = c.kind;
    spec.value = [&inst](std::uint64_t bits) { return inst.graph.cut_value(bits); };

    const auto start = std::chrono::steady_clock::now();
    token->set_deadline(start + kArm);
    try {
      if (c.kind == core::ObjectiveKind::Sample)
        ex.run(prog, kShots, rng);
      else
        ex.run_expectation(prog, kShots, rng, spec);
      ADD_FAILURE() << "expected CancelledError";
    } catch (const CancelledError& e) {
      EXPECT_EQ(e.reason(), CancelReason::DeadlineExpired);
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_GE(elapsed, kArm);
    EXPECT_LT(elapsed, std::chrono::seconds(2));
  }
}

// ---------------------------------------------------------------------------
// Deadlines

TEST(JobDeadline, QueuedJobExpiresWithoutConstructingAnExecutor) {
  JobService svc(JobService::Options{1, 1024});
  const serve::BlockCache::Stats before = svc.cache_stats();
  // The single worker is busy long past the deadline.
  block_worker(svc, std::chrono::milliseconds(250));

  JobRequest req{good_job("too-late")};
  req.deadline = std::chrono::milliseconds(50);
  JobHandle h = svc.submit(std::move(req));
  ASSERT_TRUE(h.accepted());

  const JobOutcome outcome = h.outcome.get();
  EXPECT_EQ(outcome.state, JobState::Expired);
  EXPECT_EQ(outcome.error.code, JobErrorCode::DeadlineExpired);
  EXPECT_FALSE(outcome.has_result);
  EXPECT_EQ(svc.state(h.id), JobState::Expired);
  // No executor, no model, no compilation: the shared cache saw no traffic.
  const serve::BlockCache::Stats after = svc.cache_stats();
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.hits, before.hits);
}

TEST(JobDeadline, NegativeDeadlineExpiresAtSubmit) {
  JobService svc(JobService::Options{1, 64});
  JobRequest req{good_job("pre-expired")};
  req.deadline = std::chrono::milliseconds(-5);
  JobHandle h = svc.submit(std::move(req));
  EXPECT_FALSE(h.accepted());
  EXPECT_EQ(h.submit_state, JobState::Expired);
  EXPECT_EQ(h.outcome.get().error.code, JobErrorCode::DeadlineExpired);
}

TEST(JobDeadline, GenerousDeadlineDoesNotDisturbTheRun) {
  JobService svc(JobService::Options{1, 1024});
  JobRequest req{good_job("plenty-of-time")};
  req.deadline = std::chrono::minutes(10);
  JobHandle h = svc.submit(std::move(req));
  const JobOutcome outcome = h.outcome.get();
  EXPECT_EQ(outcome.state, JobState::Completed);
  ASSERT_TRUE(outcome.has_result);
  EXPECT_FALSE(outcome.result.cancelled);
}

TEST(JobDeadline, ExpireOverdueSweepsQueuedJobsWithoutAWorker) {
  // Even with every worker pinned (so nothing ever dequeues), a sweep must
  // expire overdue queued jobs: the future resolves, the queue count drops,
  // and admission control stops charging for the corpse.
  JobService svc(JobService::Options{1, 1024});
  block_worker(svc, std::chrono::milliseconds(300));

  JobRequest req{good_job("swept")};
  req.deadline = std::chrono::milliseconds(20);
  JobHandle h = svc.submit(std::move(req));
  ASSERT_TRUE(h.accepted());
  EXPECT_EQ(svc.queued(), 1u);

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(svc.state(h.id), JobState::Queued);  // nothing swept it yet
  EXPECT_EQ(svc.expire_overdue(), 1u);
  EXPECT_EQ(svc.state(h.id), JobState::Expired);
  EXPECT_EQ(svc.queued(), 0u);
  const JobOutcome outcome = h.outcome.get();
  EXPECT_EQ(outcome.state, JobState::Expired);
  EXPECT_EQ(outcome.error.code, JobErrorCode::DeadlineExpired);
  EXPECT_EQ(svc.expire_overdue(), 0u);  // idempotent: already terminal
}

TEST(JobDeadline, PruneFinishedExpiresOverdueQueuedJobsFirst) {
  JobService svc(JobService::Options{1, 1024});
  block_worker(svc, std::chrono::milliseconds(300));
  JobRequest req{good_job("pruned")};
  req.deadline = std::chrono::milliseconds(20);
  JobHandle h = svc.submit(std::move(req));
  ASSERT_TRUE(h.accepted());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // prune_finished sweeps the overdue job to Expired, then drops it (it is
  // terminal now) — the handle's future stays valid.
  EXPECT_GE(svc.prune_finished(), 1u);
  EXPECT_FALSE(svc.state(h.id).has_value());
  EXPECT_EQ(h.outcome.get().state, JobState::Expired);
}

// ---------------------------------------------------------------------------
// Outcome retention for parties that did not submit

TEST(JobOutcomeAccessor, OutcomeByIdServesNonSubmittingClients) {
  JobService svc(JobService::Options{1, 1024});
  JobHandle h = svc.submit(JobRequest{good_job("retained")});
  ASSERT_TRUE(h.accepted());

  // A party that only knows the id (a reconnected wire session) can fetch
  // the same shared future and see the same terminal outcome.
  const auto future = svc.outcome(h.id);
  ASSERT_TRUE(future.has_value());
  const JobOutcome via_accessor = future->get();
  const JobOutcome via_handle = h.outcome.get();
  EXPECT_EQ(via_accessor.state, JobState::Completed);
  EXPECT_EQ(via_accessor.state, via_handle.state);
  EXPECT_EQ(via_accessor.result.optimizer.value, via_handle.result.optimizer.value);

  EXPECT_FALSE(svc.outcome(999999).has_value());
  svc.prune_finished();
  EXPECT_FALSE(svc.outcome(h.id).has_value());  // pruned ids are gone
}

// ---------------------------------------------------------------------------
// Fair sharing across tenants

TEST(JobFairShare, LightTenantIsNotStarvedByHeavyTenant) {
  JobService svc(JobService::Options{1, 4096});
  block_worker(svc, std::chrono::milliseconds(150));

  // Tenant A floods 4 jobs, then tenant B submits one. Under the old FIFO
  // deque B would wait behind all of A; under DRR it runs second.
  std::vector<JobHandle> a_handles;
  for (int i = 0; i < 4; ++i) {
    SweepJob job = good_job("a" + std::to_string(i));
    job.tenant = "tenant-a";
    a_handles.push_back(svc.submit(JobRequest{std::move(job)}));
  }
  SweepJob bjob = good_job("b0");
  bjob.tenant = "tenant-b";
  JobHandle b = svc.submit(JobRequest{std::move(bjob)});

  b.outcome.wait();
  // The single worker dequeues A0, B0, A1, A2, A3 — when B resolves, A's
  // last two jobs cannot even have been dequeued yet.
  const auto ready = [](const JobHandle& h) {
    return h.outcome.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
  };
  EXPECT_FALSE(ready(a_handles[2]) && ready(a_handles[3]));
  for (JobHandle& h : a_handles) EXPECT_EQ(h.outcome.get().state, JobState::Completed);
}

// ---------------------------------------------------------------------------
// Admission control

TEST(JobAdmission, QueueLimitIsExactAndDeterministic) {
  JobService::Options opt;
  opt.num_workers = 1;
  opt.cache_capacity = 1024;
  opt.max_queued_jobs = 2;
  JobService svc(opt);
  block_worker(svc, std::chrono::milliseconds(200));

  JobHandle h1 = svc.submit(JobRequest{good_job("fits-1")});
  JobHandle h2 = svc.submit(JobRequest{good_job("fits-2")});
  EXPECT_TRUE(h1.accepted());
  EXPECT_TRUE(h2.accepted());
  EXPECT_EQ(svc.queued(), 2u);

  // The third submit finds the queue at the limit — rejected, every time.
  for (int i = 0; i < 3; ++i) {
    JobHandle h3 = svc.submit(JobRequest{good_job("over")});
    EXPECT_FALSE(h3.accepted());
    EXPECT_EQ(h3.submit_state, JobState::Rejected);
    EXPECT_EQ(h3.submit_error.code, JobErrorCode::QueueFull);
  }

  EXPECT_EQ(h1.outcome.get().state, JobState::Completed);
  EXPECT_EQ(h2.outcome.get().state, JobState::Completed);
  // With the queue drained, admission opens again.
  JobHandle h4 = svc.submit(JobRequest{good_job("fits-again")});
  EXPECT_TRUE(h4.accepted());
  EXPECT_EQ(h4.outcome.get().state, JobState::Completed);
}

// ---------------------------------------------------------------------------
// Failure isolation

TEST(JobFailure, ThrowingRunFailsTheJobAndLeavesThePoolHealthy) {
  JobService svc(JobService::Options{1, 1024});
  // Passes validation (12 vertices, under the 14-qubit trajectory cap) but
  // the ring's closure edge and chords route through physical qubits outside
  // the pinned line, so the executor rejects the compiled program mid-run.
  SweepJob bad = good_job("throws");
  bad.instance = ring12();
  bad.config.model.initial_layout = kLine12;
  JobHandle h = svc.submit(JobRequest{std::move(bad)});
  ASSERT_TRUE(h.accepted());

  const JobOutcome outcome = h.outcome.get();
  EXPECT_EQ(outcome.state, JobState::Failed);
  EXPECT_EQ(outcome.error.code, JobErrorCode::ExecutionFailed);
  EXPECT_NE(outcome.error.message.find("too many active qubits"), std::string::npos);
  EXPECT_FALSE(outcome.has_result);

  // The worker survived and the shared block cache is not poisoned: a good
  // job (including pulse compilation) completes right after.
  SweepJob good = good_job("healthy");
  good.kind = core::ModelKind::Hybrid;
  JobHandle next = svc.submit(JobRequest{std::move(good)});
  const JobOutcome ok = next.outcome.get();
  EXPECT_EQ(ok.state, JobState::Completed);
  ASSERT_TRUE(ok.has_result);
  EXPECT_GT(ok.result.ar, 0.0);
}

// ---------------------------------------------------------------------------
// Telemetry (satellite: the queue-depth gauge stays correct on dequeue)

TEST(JobQueueDepthGauge, ReturnsToZeroAfterDrain) {
  obs::set_enabled(true);
  obs::Gauge& depth = obs::Registry::global().gauge("service.queue_depth");
  obs::Gauge& queued = obs::Registry::global().gauge("service.jobs_queued");

  JobService svc(JobService::Options{1, 1024});
  block_worker(svc, std::chrono::milliseconds(100));
  std::vector<JobHandle> handles;
  for (int i = 0; i < 3; ++i)
    handles.push_back(svc.submit(JobRequest{good_job("g" + std::to_string(i))}));
  EXPECT_EQ(queued.value(), 3);
  EXPECT_GE(depth.value(), 3);

  for (JobHandle& h : handles) EXPECT_EQ(h.outcome.get().state, JobState::Completed);
  EXPECT_EQ(queued.value(), 0);
  // The gauge is updated on every dequeue (not just submit), so a drained
  // service reports zero depth.
  EXPECT_EQ(depth.value(), 0);
}

// ---------------------------------------------------------------------------
// Concurrency stress (exercised under TSan in CI)

TEST(JobStress, ConcurrentCancelsAndQueriesResolveEveryFuture) {
  JobService svc(JobService::Options{4, 4096});
  std::vector<JobHandle> handles;
  const char* tenants[] = {"red", "green", "blue"};
  for (int i = 0; i < 12; ++i) {
    SweepJob job = good_job("s" + std::to_string(i));
    job.tenant = tenants[i % 3];
    job.weight = 1.0 + (i % 2);
    JobRequest req{std::move(job)};
    if (i % 4 == 3) req.deadline = std::chrono::milliseconds(1 + i);
    handles.push_back(svc.submit(std::move(req)));
  }

  std::atomic<bool> stop{false};
  std::thread canceller([&] {
    for (std::size_t i = 0; i < handles.size(); i += 2) svc.cancel(handles[i].id);
  });
  std::thread prober([&] {
    while (!stop.load()) {
      for (const JobHandle& h : handles) (void)svc.state(h.id);
      (void)svc.queued();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  for (JobHandle& h : handles) {
    const JobOutcome outcome = h.outcome.get();  // every future resolves
    EXPECT_TRUE(serve::job_state_terminal(outcome.state));
  }
  stop.store(true);
  canceller.join();
  prober.join();
  svc.prune_finished();
}
