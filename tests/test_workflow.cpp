// Workflow-level unit tests with tiny budgets: metric plumbing (M3/CVaR in
// the training objective), config propagation, and result bookkeeping.
#include <gtest/gtest.h>

#include <cmath>

#include "backend/presets.hpp"
#include "common/cancel.hpp"
#include "common/error.hpp"
#include "core/calibration_run.hpp"
#include "core/qaoa.hpp"
#include "core/vqe.hpp"
#include "core/workflow.hpp"
#include "graph/instances.hpp"

using namespace hgp;

namespace {
core::RunConfig tiny() {
  core::RunConfig cfg;
  cfg.shots = 128;
  cfg.max_evaluations = 5;
  return cfg;
}

/// Runs each batch inline, then fires the token: the cancel lands between
/// the optimizer's first and second batches.
class CancelAfterFirstBatch : public opt::BatchDispatcher {
 public:
  void run(std::vector<std::function<void()>>& tasks) override {
    opt::BatchDispatcher::run(tasks);
    ++batches;
    tasks_run += static_cast<int>(tasks.size());
    token->cancel();
  }

  std::shared_ptr<CancelToken> token = std::make_shared<CancelToken>();
  int batches = 0;
  int tasks_run = 0;  // one task per candidate on the drivers' sampled paths
};

/// The record opt::minimize returns for a run stopped after one batch.
void expect_first_batch_record(const opt::OptimizeResult& r,
                               const CancelAfterFirstBatch& dispatcher) {
  EXPECT_EQ(dispatcher.batches, 1);
  EXPECT_TRUE(r.stopped_early);
  EXPECT_EQ(r.evaluations, dispatcher.tasks_run);
  // ASSERT: a record without history would make back() read past the end.
  ASSERT_EQ(r.history.size(), 1u);
  EXPECT_EQ(r.iterations, 1);
  EXPECT_EQ(r.history.back(), r.value);
}
}  // namespace

TEST(Workflow, ResultRecordsModelName) {
  const auto inst = graph::paper_task1();
  const auto dev = backend::make_toronto();
  EXPECT_EQ(core::run_qaoa(inst, dev, core::ModelKind::GateLevel, tiny()).model,
            "gate-level");
  EXPECT_EQ(core::run_qaoa(inst, dev, core::ModelKind::Hybrid, tiny()).model,
            "hybrid gate-pulse");
}

TEST(Workflow, HistoryLengthTracksBudget) {
  const auto inst = graph::paper_task1();
  const auto dev = backend::make_toronto();
  core::RunConfig cfg = tiny();
  cfg.max_evaluations = 10;
  const auto res = core::run_qaoa(inst, dev, core::ModelKind::GateLevel, cfg);
  EXPECT_LE(res.optimizer.evaluations, 10);
  EXPECT_FALSE(res.optimizer.history.empty());
}

TEST(Workflow, MixerDurationConfigPropagates) {
  const auto inst = graph::paper_task1();
  const auto dev = backend::make_toronto();
  core::RunConfig cfg = tiny();
  cfg.model.mixer_duration_dt = 128;
  const auto res = core::run_qaoa(inst, dev, core::ModelKind::Hybrid, cfg);
  EXPECT_EQ(res.mixer_layer_duration_dt, 128);
  // The gate model ignores the knob: its mixer is two SX pulses.
  const auto gate = core::run_qaoa(inst, dev, core::ModelKind::GateLevel, cfg);
  EXPECT_EQ(gate.mixer_layer_duration_dt, 320);
}

TEST(Workflow, ShorterMixerShortensMakespan) {
  const auto inst = graph::paper_task1();
  const auto dev = backend::make_toronto();
  core::RunConfig long_cfg = tiny();
  long_cfg.model.mixer_duration_dt = 320;
  core::RunConfig short_cfg = tiny();
  short_cfg.model.mixer_duration_dt = 64;
  const auto l = core::run_qaoa(inst, dev, core::ModelKind::Hybrid, long_cfg);
  const auto s = core::run_qaoa(inst, dev, core::ModelKind::Hybrid, short_cfg);
  EXPECT_EQ(l.makespan_dt - s.makespan_dt, 320 - 64);
}

TEST(Workflow, GateOptimizationReducesSwaps) {
  const auto inst = graph::paper_task1();
  const auto dev = backend::make_toronto();
  core::RunConfig raw_cfg = tiny();
  core::RunConfig go_cfg = tiny();
  go_cfg.gate_optimization = true;
  const auto raw = core::run_qaoa(inst, dev, core::ModelKind::GateLevel, raw_cfg);
  const auto go = core::run_qaoa(inst, dev, core::ModelKind::GateLevel, go_cfg);
  EXPECT_LE(go.swap_count, raw.swap_count);
}

TEST(Workflow, FixedLayoutIsUsed) {
  const auto inst = graph::paper_task1();
  const auto dev = backend::make_guadalupe();
  core::RunConfig cfg = tiny();
  cfg.model.initial_layout = {0, 1, 4, 7, 10, 12};
  const auto res = core::run_qaoa(inst, dev, core::ModelKind::GateLevel, cfg);
  EXPECT_GT(res.ar, 0.2);
}

TEST(Workflow, PTwoLayersWork) {
  const auto inst = graph::paper_task1();
  const auto dev = backend::make_toronto();
  core::RunConfig cfg = tiny();
  cfg.model.p = 2;
  const auto gate = core::run_qaoa(inst, dev, core::ModelKind::GateLevel, cfg);
  EXPECT_EQ(gate.optimizer.x.size(), 4u);  // gamma_0 beta_0 gamma_1 beta_1
  const auto hybrid = core::run_qaoa(inst, dev, core::ModelKind::Hybrid, cfg);
  EXPECT_EQ(hybrid.optimizer.x.size(), 2u * (1u + 18u));
  EXPECT_GT(hybrid.ar, 0.2);
}

TEST(Workflow, ReadoutCalibrationEstimatesConfusion) {
  const auto dev = backend::make_toronto();
  core::Executor ex(dev);
  Rng rng(9);
  const std::vector<std::size_t> qubits = {0, 1, 4};
  const auto est = core::calibrate_readout(ex, qubits, 20000, rng);
  ASSERT_EQ(est.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto& truth = dev.noise_model().qubits[qubits[i]].readout;
    EXPECT_NEAR(est[i].p1_given_0, truth.p1_given_0, 0.01);
    // The |1> calibration sees the *effective* 1->0 error: bare confusion
    // plus T1 decay across the ~6 us readout window (~5% on toronto). This
    // is exactly what hardware M3 calibration measures — and corrects.
    const double t1 = dev.noise_model().qubits[qubits[i]].t1_us;
    const double decay = 1.0 - std::exp(-(dev.readout_duration_dt() * pulse::kDtNs * 1e-3) / t1);
    EXPECT_NEAR(est[i].p0_given_1, truth.p0_given_1 + decay, 0.02);
    EXPECT_GT(est[i].p0_given_1, truth.p0_given_1);
  }
}

TEST(Workflow, OptimizerSelection) {
  const auto inst = graph::paper_task1();
  const auto dev = backend::make_toronto();
  core::RunConfig cfg = tiny();
  for (const char* name : {"cobyla", "spsa", "neldermead"}) {
    cfg.optimizer = name;
    const auto res = core::run_qaoa(inst, dev, core::ModelKind::GateLevel, cfg);
    EXPECT_GT(res.ar, 0.2) << name;
  }
  cfg.optimizer = "bogus";
  EXPECT_THROW(core::run_qaoa(inst, dev, core::ModelKind::GateLevel, cfg), Error);
}

TEST(RunQaoa, DefaultEngineIsAuto) {
  // Table II's 6-qubit programs train on the exact density engine unless a
  // run names another: the default run is, bit for bit, the density run.
  EXPECT_EQ(core::RunConfig{}.engine, "auto");
  const auto inst = graph::paper_task1();
  const auto dev = backend::make_toronto();
  core::RunConfig density = tiny();
  density.engine = "density";
  const auto a = core::run_qaoa(inst, dev, core::ModelKind::Hybrid, tiny());
  const auto b = core::run_qaoa(inst, dev, core::ModelKind::Hybrid, density);
  EXPECT_EQ(a.optimizer.x, b.optimizer.x);
  EXPECT_EQ(a.optimizer.history, b.optimizer.history);
  EXPECT_EQ(a.final_cost, b.final_cost);
  EXPECT_EQ(a.ar, b.ar);
}

// ---- one cancellation path: opt::minimize ------------------------------------

TEST(OptimizerCancellation, RunQaoaCancelledBetweenBatchesReturnsCompletedBatches) {
  const auto inst = graph::paper_task1();
  const auto dev = backend::make_toronto();
  for (const char* name : {"cobyla", "spsa", "neldermead"}) {
    SCOPED_TRACE(name);
    CancelAfterFirstBatch dispatcher;
    core::RunConfig cfg = tiny();
    cfg.optimizer = name;
    cfg.cancel = dispatcher.token;
    const auto res = core::run_qaoa(inst, dev, core::ModelKind::GateLevel, cfg, &dispatcher);
    EXPECT_TRUE(res.cancelled);
    EXPECT_EQ(res.cancel_reason, "cancelled");
    EXPECT_EQ(res.final_cost, -res.optimizer.value);  // no final evaluation
    expect_first_batch_record(res.optimizer, dispatcher);
  }
}

TEST(OptimizerCancellation, RunVqeCancelledBetweenBatchesReturnsCompletedBatches) {
  const la::PauliSum h = core::tfim_hamiltonian(3, 1.0, 0.6);
  const qc::Circuit ansatz = core::hardware_efficient_pqc(3, 1, "linear");
  for (const char* name : {"cobyla", "spsa", "neldermead"}) {
    SCOPED_TRACE(name);
    CancelAfterFirstBatch dispatcher;
    core::VqeConfig cfg;
    cfg.optimizer = name;
    cfg.cancel = dispatcher.token;
    const core::VqeResult res = core::run_vqe(h, ansatz, cfg, &dispatcher);
    EXPECT_EQ(res.energy, res.optimizer.value);
    expect_first_batch_record(res.optimizer, dispatcher);
  }
}
