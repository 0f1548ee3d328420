// The serve subsystem: the shared compiled-block cache (LRU semantics,
// structure keys, calibration invalidation), the EvalService worker pool
// (its fixed size, nested batches, error propagation, draining on
// destruction), and the determinism contract —
// batched runs are bit-identical for any worker count, and a grid of jobs
// through one JobService matches sequential execution exactly.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "backend/presets.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/executor.hpp"
#include "core/qaoa.hpp"
#include "core/vqe.hpp"
#include "core/workflow.hpp"
#include "graph/instances.hpp"
#include "serve/block_cache.hpp"
#include "serve/eval_service.hpp"
#include "serve/job.hpp"
#include "serve/job_service.hpp"

using namespace hgp;
using core::ExecOp;
using core::Executor;
using core::ExecutorOptions;
using core::Program;

namespace {

const backend::FakeBackend& toronto() {
  static const backend::FakeBackend dev = backend::make_toronto();
  return dev;
}

Program bell_program() {
  Program prog;
  prog.ops.push_back(
      ExecOp::from_gate(qc::Op{qc::GateKind::RZ, {0}, {qc::Param::constant(la::kPi / 2)}}));
  prog.ops.push_back(ExecOp::from_gate(qc::Op{qc::GateKind::SX, {0}, {}}));
  prog.ops.push_back(
      ExecOp::from_gate(qc::Op{qc::GateKind::RZ, {0}, {qc::Param::constant(la::kPi / 2)}}));
  prog.ops.push_back(ExecOp::from_gate(qc::Op{qc::GateKind::CX, {0, 1}, {}}));
  prog.measure_qubits = {0, 1};
  return prog;
}

Program rzz_program(double theta) {
  Program prog;
  prog.ops.push_back(
      ExecOp::from_gate(qc::Op{qc::GateKind::RZZ, {0, 1}, {qc::Param::constant(theta)}}));
  prog.measure_qubits = {0, 1};
  return prog;
}

core::RunConfig tiny_config(const std::string& optimizer) {
  core::RunConfig cfg;
  cfg.shots = 64;
  cfg.max_evaluations = 6;
  cfg.optimizer = optimizer;
  cfg.executor_threads = 1;  // keep the nested shot loop serial in tests
  return cfg;
}

void expect_same_result(const core::RunResult& a, const core::RunResult& b) {
  EXPECT_EQ(a.optimizer.x, b.optimizer.x);
  EXPECT_EQ(a.optimizer.value, b.optimizer.value);
  EXPECT_EQ(a.optimizer.history, b.optimizer.history);
  EXPECT_EQ(a.optimizer.evaluations, b.optimizer.evaluations);
  EXPECT_EQ(a.ar, b.ar);
  EXPECT_EQ(a.final_cost, b.final_cost);
}

/// Submit every request, then await each outcome in submission order.
std::vector<core::RunResult> run_all(serve::JobService& svc,
                                     const std::vector<serve::JobRequest>& requests) {
  std::vector<serve::JobHandle> handles;
  for (const serve::JobRequest& request : requests) handles.push_back(svc.submit(request));
  std::vector<core::RunResult> results;
  for (const serve::JobHandle& handle : handles) {
    const serve::JobOutcome outcome = handle.outcome.get();
    EXPECT_EQ(outcome.state, serve::JobState::Completed) << outcome.error.message;
    results.push_back(outcome.result);
  }
  return results;
}

}  // namespace

TEST(BlockCache, LruEvictsOldestAndCountsStats) {
  serve::BlockCache cache(2);
  core::CompiledBlock block;
  EXPECT_EQ(cache.find("a"), nullptr);  // miss
  cache.insert("a", block);
  cache.insert("b", block);
  EXPECT_NE(cache.find("a"), nullptr);  // hit — "a" becomes most recent
  cache.insert("c", block);             // evicts the LRU entry "b"
  EXPECT_EQ(cache.find("b"), nullptr);
  EXPECT_NE(cache.find("a"), nullptr);
  EXPECT_NE(cache.find("c"), nullptr);

  const serve::BlockCache::Stats s = cache.stats();
  EXPECT_EQ(s.size, 2u);
  EXPECT_EQ(s.capacity, 2u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.hits, 3u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_NEAR(s.hit_rate(), 0.6, 1e-12);
}

TEST(BlockCache, ReinsertReplacesBlockAndRefreshesLru) {
  serve::BlockCache cache(2);
  core::CompiledBlock block;
  block.duration_dt = 1;
  cache.insert("a", block);
  cache.insert("b", block);
  // Re-inserting a resident key (two workers raced to compile it) replaces
  // the block in place and makes it the most recent: no growth, no eviction.
  block.duration_dt = 2;
  cache.insert("a", block);
  const auto a = cache.find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->duration_dt, 2);
  EXPECT_EQ(cache.stats().size, 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);

  cache.insert("c", block);  // evicts the LRU entry "b", not the re-inserted "a"
  EXPECT_EQ(cache.find("b"), nullptr);
  EXPECT_NE(cache.find("a"), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(BlockCache, ExecutorHitsOnReboundBlocksAndSharesAcrossExecutors) {
  auto cache = std::make_shared<serve::BlockCache>(256);
  ExecutorOptions opts;
  opts.block_cache = cache;
  Executor ex(toronto(), opts);
  Rng rng(5);

  ex.run(bell_program(), 32, rng);
  const serve::BlockCache::Stats first = ex.cache_stats();
  EXPECT_EQ(first.hits, 0u);
  EXPECT_EQ(first.misses, 2u);  // SX(0) + CX(0,1); virtual RZ blocks bypass

  ex.run(bell_program(), 32, rng);  // second evaluation: everything hits
  EXPECT_EQ(ex.cache_stats().hits, 2u);
  EXPECT_EQ(ex.cache_stats().misses, 2u);

  Executor other(toronto(), opts);  // concurrent-run sharing: same cache
  other.run(bell_program(), 32, rng);
  EXPECT_EQ(cache->stats().hits, 4u);
  EXPECT_EQ(cache->stats().misses, 2u);
}

TEST(BlockCache, KeyDiscriminatesParametersAndCalibration) {
  auto cache = std::make_shared<serve::BlockCache>(256);
  ExecutorOptions opts;
  opts.block_cache = cache;
  const backend::FakeBackend dev = backend::make_toronto();
  Executor ex(dev, opts);
  Rng rng(7);

  ex.run(rzz_program(0.3), 16, rng);
  EXPECT_EQ(cache->stats().misses, 1u);
  ex.run(rzz_program(0.3), 16, rng);  // re-bound identical parameter: hit
  EXPECT_EQ(cache->stats().hits, 1u);
  ex.run(rzz_program(0.3000001), 16, rng);  // nearby angle: its own slot
  EXPECT_EQ(cache->stats().misses, 2u);

  ex.run(bell_program(), 16, rng);  // SX(0) + CX(0,1)
  EXPECT_EQ(cache->stats().misses, 4u);

  // Recalibration: a drifted device must not replay blocks compiled for the
  // original calibration out of the same shared cache. The SX and CX keys
  // carry no parameter and no schedule duration, so only the calibration
  // fingerprint prefix tells the two devices' blocks apart.
  backend::FakeBackend drifted = backend::make_toronto();
  drifted.mutable_noise_model().qubits[0].freq_drift_ghz += 1e-4;
  EXPECT_NE(dev.fingerprint(), drifted.fingerprint());
  Executor ex2(drifted, opts);
  const serve::BlockCache::Stats before = cache->stats();
  ex2.run(rzz_program(0.3), 16, rng);
  ex2.run(bell_program(), 16, rng);
  EXPECT_EQ(cache->stats().hits, before.hits);
  EXPECT_EQ(cache->stats().misses, before.misses + 3);

  // The original calibration still hits its own entries.
  ex.run(bell_program(), 16, rng);
  EXPECT_EQ(cache->stats().hits, before.hits + 2);
  EXPECT_EQ(cache->stats().misses, before.misses + 3);
}

TEST(BlockCache, ConcurrentEvictionKeepsKeysValid) {
  // 64 keys through a capacity-8 cache from 4 threads: nearly every insert
  // evicts, so the LRU list's pointers into the map's keys are exercised
  // under contention (ASan/TSan run this in the sanitizer jobs).
  constexpr int kKeys = 64;
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 5000;
  serve::BlockCache cache(8);
  auto key_of = [](int i) { return "calibration-prefix#coh;SX," + std::to_string(i); };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int op = 0; op < kOpsPerThread; ++op) {
        const int i = (op * 7 + t * 13) % kKeys;
        if (const auto hit = cache.find(key_of(i))) {
          EXPECT_EQ(hit->duration_dt, i);
        } else {
          core::CompiledBlock block;
          block.duration_dt = i;
          cache.insert(key_of(i), block);
        }
      }
    });
  for (std::thread& th : threads) th.join();

  const serve::BlockCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.size, 8u);
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_GT(stats.evictions, 0u);

  std::vector<int> resident;
  for (int i = 0; i < kKeys; ++i)
    if (cache.find(key_of(i)) != nullptr) resident.push_back(i);
  ASSERT_EQ(resident.size(), 8u);
}

namespace {

/// A hybrid-model-style pulse step: frame knobs around one Gaussian play on
/// qubit 0's drive channel (what QaoaModel::mixer_pulse emits).
Program mixer_program(double amp) {
  pulse::Schedule s("mixer");
  const pulse::Channel d = pulse::Channel::drive(0);
  s.append(pulse::ShiftPhase{0.3, d});
  s.append(pulse::Play{pulse::PulseShape::gaussian(64, amp, 16.0), d});
  s.append(pulse::ShiftPhase{-0.3, d});
  Program prog;
  prog.ops.push_back(ExecOp::from_pulse({0}, s));
  prog.measure_qubits = {0};
  return prog;
}

}  // namespace

TEST(BlockCachePulse, ExecutorServesRepeatedPulseBlocksFromCache) {
  auto cache = std::make_shared<serve::BlockCache>(256);
  ExecutorOptions opts;
  opts.block_cache = cache;
  Executor ex(toronto(), opts);
  Rng rng(3);

  ex.run(mixer_program(0.2), 32, rng);
  serve::BlockCache::Stats s = ex.cache_stats();
  EXPECT_EQ(s.pulse_misses, 1u);
  EXPECT_EQ(s.pulse_hits, 0u);

  ex.run(mixer_program(0.2), 32, rng);  // repeated candidate angle: hit
  s = ex.cache_stats();
  EXPECT_EQ(s.pulse_hits, 1u);
  EXPECT_EQ(s.pulse_misses, 1u);
  // Totals fold both kinds; this program has no cacheable gate blocks.
  EXPECT_EQ(s.hits, s.gate_hits + s.pulse_hits);

  ex.run(mixer_program(0.2 + 1e-9), 32, rng);  // nearby amplitude: own slot
  EXPECT_EQ(ex.cache_stats().pulse_misses, 2u);
}

TEST(BlockCachePulse, CountsBitIdenticalCacheOnVsOff) {
  // A cached pulse block must replay the exact unitary a fresh compilation
  // produces: same seeds, warm shared cache vs. cold private caches.
  const Program prog = mixer_program(0.37);
  auto shared = std::make_shared<serve::BlockCache>(256);
  ExecutorOptions warm_opts;
  warm_opts.block_cache = shared;
  warm_opts.num_threads = 1;
  Executor warm(toronto(), warm_opts);
  Rng w1(11);
  const sim::Counts warm_first = warm.run(prog, 512, w1);
  const sim::Counts warm_second = warm.run(prog, 512, w1);  // all pulse hits
  EXPECT_GT(warm.cache_stats().pulse_hits, 0u);

  ExecutorOptions cold_opts;
  cold_opts.num_threads = 1;
  Rng c1(11);
  Executor cold_a(toronto(), cold_opts);  // private cache, compiles fresh
  const sim::Counts cold_first = cold_a.run(prog, 512, c1);
  Executor cold_b(toronto(), cold_opts);
  const sim::Counts cold_second = cold_b.run(prog, 512, c1);

  EXPECT_EQ(warm_first, cold_first);
  EXPECT_EQ(warm_second, cold_second);
}

TEST(BlockCachePulse, CalibrationChangeInvalidatesPulseEntries) {
  auto cache = std::make_shared<serve::BlockCache>(256);
  ExecutorOptions opts;
  opts.block_cache = cache;
  const backend::FakeBackend dev = backend::make_toronto();
  Executor ex(dev, opts);
  Rng rng(9);
  ex.run(mixer_program(0.2), 16, rng);
  ex.run(mixer_program(0.2), 16, rng);
  EXPECT_EQ(cache->stats().pulse_hits, 1u);

  backend::FakeBackend drifted = backend::make_toronto();
  drifted.mutable_noise_model().qubits[0].freq_drift_ghz += 1e-4;
  ASSERT_NE(dev.fingerprint(), drifted.fingerprint());
  Executor ex2(drifted, opts);
  const serve::BlockCache::Stats before = cache->stats();
  ex2.run(mixer_program(0.2), 16, rng);  // same schedule, drifted device
  EXPECT_EQ(cache->stats().pulse_hits, before.pulse_hits);
  EXPECT_EQ(cache->stats().pulse_misses, before.pulse_misses + 1);
}

TEST(BlockCachePulse, HybridQaoaRunHitsAcrossOptimizerIterations) {
  // The acceptance criterion of the unified pipeline: a hybrid QAOA run's
  // trainable pulse mixers are served from the cache when the optimizer
  // revisits candidate angles (at minimum the final best-point evaluation).
  // On trajectories: under "auto" this 6-qubit run takes the density
  // engine, whose 6-evaluation run ends on x0, and x0's final evaluation
  // dirties no pulse slot, so no pulse block is probed.
  const graph::Instance inst = graph::paper_task1();
  core::RunConfig cfg = tiny_config("cobyla");
  cfg.engine = "trajectory";
  auto cache = std::make_shared<serve::BlockCache>(4096);
  core::run_qaoa(inst, toronto(), core::ModelKind::Hybrid, cfg, nullptr, cache);
  const serve::BlockCache::Stats s = cache->stats();
  EXPECT_GT(s.pulse_hits, 0u);

  // The fixed gate layer is probed once per run, by the run's one compile:
  // the run's gate traffic is exactly one walk over the program's gate
  // blocks, and each distinct gate block misses once on the fresh cache.
  core::ModelConfig mcfg = cfg.model;
  mcfg.gate_optimization = cfg.gate_optimization;
  const core::QaoaModel model =
      core::QaoaModel::build(inst.graph, toronto(), core::ModelKind::Hybrid, mcfg);
  const core::Program prog = model.instantiate(model.initial_parameters());
  std::size_t gate_blocks = 0;
  std::set<std::pair<qc::GateKind, std::vector<std::size_t>>> distinct;
  for (const core::ExecOp& op : prog.ops) {
    if (op.is_pulse) continue;
    const qc::GateKind k = op.gate.kind;
    if (k != qc::GateKind::SX && k != qc::GateKind::X && k != qc::GateKind::CX) continue;
    ++gate_blocks;
    distinct.emplace(k, op.gate.qubits);
  }
  ASSERT_GT(gate_blocks, 0u);
  EXPECT_EQ(s.gate_hits + s.gate_misses, gate_blocks);
  EXPECT_EQ(s.gate_misses, distinct.size());
}

TEST(EvalService, FixedPoolRunsAtMostNumWorkersTasksAtOnce) {
  constexpr std::size_t kWorkers = 3;
  constexpr int kTasks = 16;
  serve::EvalService svc(serve::EvalService::Options{kWorkers, 64});
  EXPECT_EQ(svc.num_workers(), kWorkers);

  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  std::mutex ids_mutex;
  std::set<std::thread::id> ids;
  std::vector<std::future<void>> finished;
  for (int i = 0; i < kTasks; ++i) {
    auto done = std::make_shared<std::promise<void>>();
    finished.push_back(done->get_future());
    svc.post({}, [&, done] {
      const int now = running.fetch_add(1) + 1;
      int seen = peak.load();
      while (now > seen && !peak.compare_exchange_weak(seen, now)) {
      }
      {
        const std::lock_guard<std::mutex> lock(ids_mutex);
        ids.insert(std::this_thread::get_id());
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      running.fetch_sub(1);
      done->set_value();
    });
  }
  for (std::future<void>& f : finished) f.get();  // all 16 ran
  EXPECT_GE(peak.load(), 1);
  EXPECT_LE(peak.load(), static_cast<int>(kWorkers));
  EXPECT_LE(ids.size(), kWorkers);  // no thread beyond the pool ran a task
  EXPECT_EQ(svc.num_workers(), kWorkers);
}

TEST(EvalService, DestructorRunsEveryQueuedTask) {
  // JobService relies on this: its queued run_job lambdas resolve their
  // futures before the pool is gone.
  constexpr int kQueued = 8;
  std::atomic<int> ran{0};
  std::promise<void> held;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::thread releaser;
  {
    serve::EvalService svc(serve::EvalService::Options{1, 64});
    svc.post({}, [&held, released] {
      held.set_value();
      released.wait();
    });
    held.get_future().wait();  // the only worker is busy from here on
    for (int i = 0; i < kQueued; ++i) svc.post({}, [&ran] { ran.fetch_add(1); });
    // Free the worker once the destructor below has begun to shut down.
    releaser = std::thread([&release] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      release.set_value();
    });
    EXPECT_EQ(ran.load(), 0);
  }
  EXPECT_EQ(ran.load(), kQueued);
  releaser.join();
}

TEST(EvalService, NestedBatchesCompleteWithoutDeadlock) {
  // More jobs than workers, each dispatching its own candidate batches onto
  // the same pool — progress relies on the submitting thread helping drain.
  serve::EvalService svc(serve::EvalService::Options{2, 64});
  std::vector<std::future<double>> futures;
  for (int j = 0; j < 4; ++j) {
    auto sum_of = std::make_shared<std::promise<double>>();
    futures.push_back(sum_of->get_future());
    svc.post({}, [&svc, sum_of, j] {
      std::vector<double> vals(8, 0.0);
      std::vector<std::function<void()>> tasks;
      for (int i = 0; i < 8; ++i)
        tasks.push_back([&vals, i, j] { vals[i] = 100.0 * j + i; });
      svc.run(tasks);
      double sum = 0.0;
      for (double v : vals) sum += v;
      sum_of->set_value(sum);
    });
  }
  for (int j = 0; j < 4; ++j) EXPECT_DOUBLE_EQ(futures[j].get(), 800.0 * j + 28.0);
}

TEST(EvalService, BatchErrorsPropagateToSubmitter) {
  serve::EvalService svc(serve::EvalService::Options{2, 64});
  std::vector<std::function<void()>> tasks(3, [] {});
  tasks[1] = [] { throw Error("candidate failed"); };
  EXPECT_THROW(svc.run(tasks), Error);
}

TEST(Serve, RunQaoaBitIdenticalForAnyWorkerCount) {
  const graph::Instance inst = graph::paper_task1();
  const backend::FakeBackend& dev = toronto();
  // SPSA submits 2-candidate batches every iteration — real fan-out.
  const core::RunConfig cfg = tiny_config("spsa");
  const core::RunResult inline_result =
      core::run_qaoa(inst, dev, core::ModelKind::GateLevel, cfg);

  for (std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    serve::EvalService svc(serve::EvalService::Options{workers, 1024});
    const core::RunResult r = core::run_qaoa(inst, dev, core::ModelKind::GateLevel, cfg,
                                             &svc, svc.block_cache());
    expect_same_result(r, inline_result);
  }
}

TEST(Serve, SweepMatchesSequentialExecutionBitExactly) {
  // Two tenants, so the fair-share scheduler rotates between them; the
  // dispatch order must not reach any job's result.
  const backend::FakeBackend& dev = toronto();
  std::vector<serve::JobRequest> jobs;
  jobs.push_back({{"t1-gate-cobyla", graph::paper_task1(), &dev,
                   core::ModelKind::GateLevel, tiny_config("cobyla"), "tenant-a"}});
  jobs.push_back({{"t1-hybrid-spsa", graph::paper_task1(), &dev, core::ModelKind::Hybrid,
                   tiny_config("spsa"), "tenant-b"}});
  jobs.push_back({{"t2-gate-nm", graph::paper_task2(), &dev, core::ModelKind::GateLevel,
                   tiny_config("neldermead"), "tenant-a"}});

  std::vector<core::RunResult> sequential;
  for (const serve::JobRequest& request : jobs)
    sequential.push_back(core::run_qaoa(request.run.instance, *request.run.dev,
                                        request.run.kind, request.run.config));

  serve::JobService svc(serve::JobService::Options{4, 4096});
  const std::vector<core::RunResult> parallel = run_all(svc, jobs);

  ASSERT_EQ(parallel.size(), sequential.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SCOPED_TRACE(jobs[i].run.label);
    expect_same_result(parallel[i], sequential[i]);
  }
  // The whole grid shares one compiled-block cache: re-bound blocks across
  // iterations and runs must hit.
  const serve::BlockCache::Stats stats = svc.cache_stats();
  EXPECT_GT(stats.hits, stats.misses);
}

TEST(Serve, ConcurrentSweepSharesCompiledPulseMixers) {
  // Two identical hybrid runs through one JobService: the second run's
  // pulse mixer blocks (every candidate angle) must be served from the
  // shared cache compiled by the first — the cross-run sharing the per-kind
  // stats exist to make visible.
  const backend::FakeBackend& dev = toronto();
  std::vector<serve::JobRequest> jobs;
  jobs.push_back({{"hybrid-a", graph::paper_task1(), &dev, core::ModelKind::Hybrid,
                   tiny_config("cobyla")}});
  jobs.push_back({{"hybrid-b", graph::paper_task1(), &dev, core::ModelKind::Hybrid,
                   tiny_config("cobyla")}});

  serve::JobService svc(serve::JobService::Options{2, 4096});
  const std::vector<core::RunResult> results = run_all(svc, jobs);
  expect_same_result(results[0], results[1]);

  // Each run's final best-point evaluation re-binds angles its own
  // optimizer already compiled, so pulse hits are guaranteed even if the
  // two runs race in lockstep (concurrent first-touch lookups of one key
  // may legitimately both miss — the cache lets racing workers
  // double-compile rather than block).
  const serve::BlockCache::Stats stats = svc.cache_stats();
  EXPECT_GT(stats.pulse_hits, 0u);
}

TEST(Serve, VqeDispatcherMatchesInline) {
  const la::PauliSum ham = core::tfim_hamiltonian(3, 1.0, 0.7);
  const qc::Circuit ansatz = core::hardware_efficient_pqc(3, 1, "linear");
  core::VqeConfig cfg;
  cfg.max_evaluations = 40;
  cfg.optimizer = "neldermead";
  const core::VqeResult inline_result = core::run_vqe(ham, ansatz, cfg);
  serve::EvalService svc(serve::EvalService::Options{4, 64});
  const core::VqeResult pooled = core::run_vqe(ham, ansatz, cfg, &svc);
  EXPECT_EQ(pooled.optimizer.x, inline_result.optimizer.x);
  EXPECT_EQ(pooled.energy, inline_result.energy);
  EXPECT_EQ(pooled.optimizer.history, inline_result.optimizer.history);
}
