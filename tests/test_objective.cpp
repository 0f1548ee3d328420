// Lane-native objectives and candidate-lane batching: exact expectation /
// CVaR evaluation without terminal sampling, bit-identity of the batched
// candidate path against per-candidate scalar evaluation, batched
// parameter-shift gradients, and the workflow-level objective modes.
#include <gtest/gtest.h>

#include <cmath>

#include "backend/presets.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/executor.hpp"
#include "core/models.hpp"
#include "core/qaoa.hpp"
#include "core/workflow.hpp"
#include "graph/instances.hpp"
#include "linalg/types.hpp"
#include "mitigation/cvar.hpp"
#include "optimize/batch.hpp"
#include "optimize/gradient.hpp"
#include "serve/eval_service.hpp"

using namespace hgp;
using core::ExecOp;
using core::Executor;
using core::ExecutorOptions;
using core::ObjectiveKind;
using core::ObjectiveSpec;
using core::Program;

namespace {

const backend::FakeBackend& toronto() {
  static const backend::FakeBackend dev = backend::make_toronto();
  return dev;
}

/// Objective over the K3,3 paper instance's cut values.
ObjectiveSpec cut_spec(const graph::Graph& g, ObjectiveKind kind, double alpha = 0.3) {
  ObjectiveSpec spec;
  spec.kind = kind;
  spec.value = [&g](std::uint64_t bits) { return g.cut_value(bits); };
  spec.cvar_alpha = alpha;
  return spec;
}

/// K candidate parameter vectors spread around the model's initial point.
std::vector<std::vector<double>> spread_candidates(const std::vector<double>& x0,
                                                   std::size_t k) {
  std::vector<std::vector<double>> xs(k, x0);
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < x0.size(); ++j)
      xs[i][j] += 0.07 * static_cast<double>(i) - 0.03 * static_cast<double>(j % 3);
  return xs;
}

core::RunConfig tiny() {
  core::RunConfig cfg;
  cfg.shots = 128;
  cfg.max_evaluations = 5;
  return cfg;
}

}  // namespace

// ---- lane-native objectives vs exact references -----------------------------

TEST(LaneObjective, NoiselessExpectationMatchesIdealQaoa) {
  const auto inst = graph::paper_task1();
  const auto dev = toronto();
  core::ModelConfig mcfg;
  const core::QaoaModel model =
      core::QaoaModel::build(inst.graph, dev, core::ModelKind::GateLevel, mcfg);

  ExecutorOptions opts;
  opts.noise = false;
  Executor ex(dev, opts);
  Rng rng(1);

  // The model's theta is in units of pi; ideal_qaoa_expectation takes radians.
  const std::vector<double> angles = {0.65, 0.40};
  const std::vector<double> theta = {angles[0] / la::kPi, angles[1] / la::kPi};
  const double got = ex.run_expectation(model.instantiate(theta), 128, rng,
                                        cut_spec(inst.graph, ObjectiveKind::Expectation));
  const double want = core::ideal_qaoa_expectation(inst.graph, 1, angles);
  EXPECT_NEAR(got, want, 1e-12);
}

TEST(LaneObjective, NoiselessEvaluationIgnoresRngAndShots) {
  const auto inst = graph::paper_task1();
  core::ModelConfig mcfg;
  const core::QaoaModel model =
      core::QaoaModel::build(inst.graph, toronto(), core::ModelKind::GateLevel, mcfg);
  const Program prog = model.instantiate(model.initial_parameters());

  ExecutorOptions opts;
  opts.noise = false;
  Executor ex(toronto(), opts);
  const ObjectiveSpec spec = cut_spec(inst.graph, ObjectiveKind::Expectation);

  Rng r1(7), r2(7);
  const double a = ex.run_expectation(prog, 16, r1, spec);
  const double b = ex.run_expectation(prog, 4096, r2, spec);
  EXPECT_EQ(a, b);
  // No sampling happened: the caller streams never advanced.
  EXPECT_EQ(r1.next_u64(), r2.next_u64());
}

TEST(LaneObjective, TrajectoryExpectationDeterministicAcrossLanesAndThreads) {
  const auto inst = graph::paper_task1();
  core::ModelConfig mcfg;
  const core::QaoaModel model =
      core::QaoaModel::build(inst.graph, toronto(), core::ModelKind::GateLevel, mcfg);
  const Program prog = model.instantiate(model.initial_parameters());

  auto eval = [&](std::size_t lanes, std::size_t threads, ObjectiveKind kind) {
    ExecutorOptions opts;
    opts.shot_batch_lanes = lanes;
    opts.num_threads = threads;
    Executor ex(toronto(), opts);
    Rng rng(99);
    return ex.run_expectation(prog, 600, rng, cut_spec(inst.graph, kind));
  };
  for (const ObjectiveKind kind : {ObjectiveKind::Expectation, ObjectiveKind::CVaR}) {
    const double reference = eval(1, 1, kind);
    EXPECT_TRUE(std::isfinite(reference));
    for (std::size_t lanes : {4u, 7u, 32u})
      for (std::size_t threads : {1u, 4u})
        EXPECT_EQ(eval(lanes, threads, kind), reference)
            << "lanes=" << lanes << " threads=" << threads;
  }
}

TEST(LaneObjective, TrajectoryExpectationNearSampledAggregate) {
  // The lane-native objective replaces sample-and-aggregate: over many shots
  // both estimate the same noisy expectation, the lane-native one with the
  // per-shot sampling noise removed.
  const auto inst = graph::paper_task1();
  core::ModelConfig mcfg;
  const core::QaoaModel model =
      core::QaoaModel::build(inst.graph, toronto(), core::ModelKind::GateLevel, mcfg);
  const Program prog = model.instantiate(model.initial_parameters());

  Executor ex(toronto(), {});
  Rng r1(5), r2(5);
  const double exact =
      ex.run_expectation(prog, 4096, r1, cut_spec(inst.graph, ObjectiveKind::Expectation));
  const sim::Counts counts = ex.run(prog, 4096, r2);
  const double sampled = core::cut_expectation(inst.graph, counts);
  EXPECT_NEAR(exact, sampled, 0.25);
}

TEST(LaneObjective, DensityEngineExpectationMatchesTrajectoryLimit) {
  // The density path reduces the exact folded distribution; the trajectory
  // path must approach it as shots grow (unbiased unraveling). Between them
  // the two objectives exercise every readout fold: the density
  // distribution, the trajectory value table (Expectation), and the
  // trajectory shot-averaged distribution (CVaR). The bound sits below the
  // whole readout effect on this instance (0.07 Expectation, 0.09 CVaR), so
  // a dropped or transposed fold fails; the trajectory spread over seeds at
  // 8192 shots is 0.004-0.005 rms.
  const auto inst = graph::paper_task1();
  core::ModelConfig mcfg;
  const core::QaoaModel model =
      core::QaoaModel::build(inst.graph, toronto(), core::ModelKind::GateLevel, mcfg);
  const Program prog = model.instantiate(model.initial_parameters());

  for (const ObjectiveKind kind : {ObjectiveKind::Expectation, ObjectiveKind::CVaR}) {
    SCOPED_TRACE(core::objective_name(kind));
    const ObjectiveSpec spec = cut_spec(inst.graph, kind);
    ExecutorOptions dopt;
    dopt.engine = core::Engine::ExactDensity;
    Executor dex(toronto(), dopt);
    Rng r1(3);
    const double exact = dex.run_expectation(prog, 1, r1, spec);

    Executor tex(toronto(), {});
    Rng r2(3);
    const double traj = tex.run_expectation(prog, 8192, r2, spec);
    EXPECT_NEAR(traj, exact, 0.03);
  }
}

TEST(LaneObjective, ObjectiveNamesRoundTrip) {
  EXPECT_EQ(core::objective_from_name("sample"), ObjectiveKind::Sample);
  EXPECT_EQ(core::objective_from_name("expectation"), ObjectiveKind::Expectation);
  EXPECT_EQ(core::objective_from_name("cvar"), ObjectiveKind::CVaR);
  EXPECT_EQ(core::objective_name(ObjectiveKind::CVaR), "cvar");
  EXPECT_THROW(core::objective_from_name("bogus"), Error);
}

// ---- CVaR over exact distributions ------------------------------------------

TEST(CvarLanes, NoiselessCvarMatchesCountsOnDyadicDistribution) {
  // SX on three qubits: every outcome mass is exactly 1/8, so counts at a
  // power-of-two shot budget are an exact power-of-two rescale of the exact
  // distribution — and CVaR's tail budget scales with total weight, making
  // the two evaluations bitwise comparable.
  graph::Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);

  Program prog;
  for (std::size_t q : {0u, 1u, 2u}) {
    prog.ops.push_back(ExecOp::from_gate(qc::Op{qc::GateKind::SX, {q}, {}}));
    prog.measure_qubits.push_back(q);
  }

  ExecutorOptions opts;
  opts.noise = false;
  Executor ex(toronto(), opts);
  Rng rng(11);
  const double got = ex.run_expectation(prog, 16, rng, cut_spec(g, ObjectiveKind::CVaR));

  sim::Counts counts;
  for (std::uint64_t j = 0; j < 8; ++j) counts[j] = 1024 / 8;
  const double want = mit::cvar_from_counts(
      counts, [&](std::uint64_t bits) { return g.cut_value(bits); }, 0.3);
  EXPECT_DOUBLE_EQ(got, want);
}

TEST(CvarLanes, AlphaOneReducesToExpectation) {
  const auto inst = graph::paper_task1();
  core::ModelConfig mcfg;
  const core::QaoaModel model =
      core::QaoaModel::build(inst.graph, toronto(), core::ModelKind::GateLevel, mcfg);
  const Program prog = model.instantiate(model.initial_parameters());

  ExecutorOptions opts;
  opts.noise = false;
  Executor ex(toronto(), opts);
  Rng rng(2);
  const double cvar =
      ex.run_expectation(prog, 16, rng, cut_spec(inst.graph, ObjectiveKind::CVaR, 1.0));
  const double expectation =
      ex.run_expectation(prog, 16, rng, cut_spec(inst.graph, ObjectiveKind::Expectation));
  EXPECT_NEAR(cvar, expectation, 1e-12);
}

TEST(CvarLanes, CvarFocusesTheGoodTail) {
  const auto inst = graph::paper_task1();
  core::ModelConfig mcfg;
  const core::QaoaModel model =
      core::QaoaModel::build(inst.graph, toronto(), core::ModelKind::GateLevel, mcfg);
  const Program prog = model.instantiate(model.initial_parameters());

  ExecutorOptions opts;
  opts.noise = false;
  Executor ex(toronto(), opts);
  Rng rng(2);
  const double cvar =
      ex.run_expectation(prog, 16, rng, cut_spec(inst.graph, ObjectiveKind::CVaR, 0.3));
  const double expectation =
      ex.run_expectation(prog, 16, rng, cut_spec(inst.graph, ObjectiveKind::Expectation));
  EXPECT_GT(cvar, expectation);  // the best 30% of a maximizing objective
}

// ---- candidate-lane batching ------------------------------------------------

TEST(CandidateLanes, BatchBitIdenticalToScalarPerCandidate) {
  const auto inst = graph::paper_task1();
  core::ModelConfig mcfg;
  const core::QaoaModel model =
      core::QaoaModel::build(inst.graph, toronto(), core::ModelKind::GateLevel, mcfg);

  ExecutorOptions opts;
  opts.noise = false;
  Executor ex(toronto(), opts);
  Rng rng(1);

  for (const ObjectiveKind kind : {ObjectiveKind::Expectation, ObjectiveKind::CVaR}) {
    const ObjectiveSpec spec = cut_spec(inst.graph, kind);
    for (std::size_t lanes : {1u, 4u, 7u, 32u}) {
      const auto xs = spread_candidates(model.initial_parameters(), lanes);
      const std::vector<double> batched =
          ex.run_expectation_batch(*ex.compile(model, xs.front()), xs, spec);
      ASSERT_EQ(batched.size(), lanes);
      for (std::size_t l = 0; l < lanes; ++l) {
        const double scalar = ex.run_expectation(model.instantiate(xs[l]), 16, rng, spec);
        EXPECT_EQ(batched[l], scalar) << "lanes=" << lanes << " l=" << l;
      }
    }
  }
}

TEST(CandidateLanes, HybridModelParameterizedPulseBlocksDivergePerLane) {
  // The hybrid model's mixer is a parametric pulse block — per-lane unitaries
  // on the same timeline slot, the main dispatch the per-lane kernels exist
  // for.
  const auto inst = graph::paper_task1();
  core::ModelConfig mcfg;
  const core::QaoaModel model =
      core::QaoaModel::build(inst.graph, toronto(), core::ModelKind::Hybrid, mcfg);

  ExecutorOptions opts;
  opts.noise = false;
  Executor ex(toronto(), opts);
  Rng rng(1);
  const ObjectiveSpec spec = cut_spec(inst.graph, ObjectiveKind::Expectation);

  const auto xs = spread_candidates(model.initial_parameters(), 5);
  const std::vector<double> batched =
      ex.run_expectation_batch(*ex.compile(model, xs.front()), xs, spec);
  for (std::size_t l = 0; l < xs.size(); ++l)
    EXPECT_EQ(batched[l], ex.run_expectation(model.instantiate(xs[l]), 16, rng, spec))
        << "l=" << l;
  // The candidates genuinely differ.
  EXPECT_NE(batched.front(), batched.back());
}

TEST(CandidateLanes, BatchRequiresStructuralIdentity) {
  const auto inst = graph::paper_task1();
  core::ModelConfig mcfg;
  const core::QaoaModel model =
      core::QaoaModel::build(inst.graph, toronto(), core::ModelKind::GateLevel, mcfg);
  ExecutorOptions opts;
  opts.noise = false;
  Executor ex(toronto(), opts);
  const ObjectiveSpec spec = cut_spec(inst.graph, ObjectiveKind::Expectation);

  // Every candidate is a θ of the template's model.
  const std::vector<double> x0 = model.initial_parameters();
  const std::vector<std::vector<double>> mixed = {x0, {0.1}};
  EXPECT_THROW(ex.run_expectation_batch(*ex.compile(model, x0), mixed, spec), Error);
  EXPECT_THROW(ex.run_expectation_batch(*ex.compile(model, x0), {}, spec), Error);

  ExecutorOptions noisy;
  Executor nex(toronto(), noisy);
  EXPECT_THROW(nex.run_expectation_batch(*nex.compile(model, x0), {x0}, spec), Error);
}

// ---- workflow objective modes -----------------------------------------------

TEST(CandidateLanes, WorkflowTraceUnchangedByWorkerCount) {
  const auto inst = graph::paper_task1();
  const auto dev = toronto();

  auto run = [&](opt::BatchDispatcher* dispatcher, std::shared_ptr<serve::BlockCache> cache) {
    core::RunConfig cfg = tiny();
    cfg.noise = false;
    cfg.objective = "expectation";
    cfg.optimizer = "neldermead";
    cfg.max_evaluations = 12;
    return core::run_qaoa(inst, dev, core::ModelKind::GateLevel, cfg, dispatcher,
                          std::move(cache));
  };

  const auto reference = run(nullptr, nullptr);
  for (std::size_t workers : {2u, 4u}) {
    serve::EvalService::Options sopt;
    sopt.num_workers = workers;
    serve::EvalService svc(sopt);
    const auto r = run(&svc, svc.block_cache());
    EXPECT_EQ(r.optimizer.x, reference.optimizer.x) << "workers=" << workers;
    EXPECT_EQ(r.optimizer.history, reference.optimizer.history) << "workers=" << workers;
    EXPECT_EQ(r.final_cost, reference.final_cost) << "workers=" << workers;
  }
}

TEST(LaneObjective, WorkflowObjectiveModesConverge) {
  const auto inst = graph::paper_task1();
  const auto dev = toronto();
  for (const char* objective : {"expectation", "cvar"}) {
    core::RunConfig cfg = tiny();
    cfg.noise = false;
    cfg.objective = objective;
    cfg.max_evaluations = 20;
    const auto res = core::run_qaoa(inst, dev, core::ModelKind::GateLevel, cfg);
    EXPECT_GT(res.ar, 0.3) << objective;
  }
  // Noisy expectation mode trains through the trajectory engine.
  core::RunConfig cfg = tiny();
  cfg.objective = "expectation";
  const auto res = core::run_qaoa(inst, dev, core::ModelKind::GateLevel, cfg);
  EXPECT_GT(res.ar, 0.2);
}

TEST(LaneObjective, M3RequiresSampleObjective) {
  const auto inst = graph::paper_task1();
  core::RunConfig cfg = tiny();
  cfg.objective = "expectation";
  cfg.m3 = true;
  EXPECT_THROW(core::run_qaoa(inst, toronto(), core::ModelKind::GateLevel, cfg), Error);
}

// ---- batched central-difference gradients ------------------------------------

constexpr double kHalfPi = 1.5707963267948966;

TEST(GradientBatch, MatchesSerialParameterShiftExactly) {
  // The stencil computes the textbook shift rule (f(x+s·e_i) − f(x−s·e_i)) /
  // (2·sin s), evaluated point by point, bit for bit.
  const opt::Objective f = [](const std::vector<double>& x) {
    double acc = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i)
      acc += std::sin(x[i] + 0.3 * static_cast<double>(i)) * (1.0 + 0.5 * std::cos(x[0]));
    return acc;
  };
  const std::vector<double> x = {0.4, -1.2, 2.7, 0.05};
  const std::vector<double> batched = opt::central_difference_gradient(
      opt::serial_batch(f), x, kHalfPi, 2.0 * std::sin(kHalfPi));
  ASSERT_EQ(batched.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    std::vector<double> xp = x, xm = x;
    xp[i] += kHalfPi;
    xm[i] -= kHalfPi;
    EXPECT_EQ(batched[i], (f(xp) - f(xm)) / (2.0 * std::sin(kHalfPi))) << i;
  }
}

TEST(GradientBatch, BatchOrderIsSerialEvaluationOrder) {
  // The batch submits x±s·e_i in the serial rule's order, so a trace of the
  // evaluated points must interleave plus/minus per parameter.
  std::vector<std::vector<double>> seen;
  const opt::BatchObjective f = [&](const std::vector<std::vector<double>>& xs) {
    seen = xs;
    return std::vector<double>(xs.size(), 0.0);
  };
  const std::vector<double> x = {1.0, 2.0};
  opt::central_difference_gradient(f, x, 0.5, 1.0);
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_DOUBLE_EQ(seen[0][0], 1.5);
  EXPECT_DOUBLE_EQ(seen[1][0], 0.5);
  EXPECT_DOUBLE_EQ(seen[2][1], 2.5);
  EXPECT_DOUBLE_EQ(seen[3][1], 1.5);
}

TEST(GradientBatch, AdamParameterShiftConvergesOnTrigonometricBowl) {
  // Frequency-1 trigonometric bowl: the pi/2 shift rule is exact for it
  // (sin^2 would alias to a zero gradient — its frequency is 2).
  const opt::Objective bowl = [](const std::vector<double>& x) {
    double acc = 0.0;
    for (double v : x) acc += 1.0 - std::cos(v);
    return acc;
  };
  opt::Adam::Options o;
  o.max_iterations = 60;
  o.mode = opt::Adam::GradientMode::ParameterShift;
  const auto r = opt::Adam(o).minimize(opt::serial_batch(bowl), {0.9, -0.7, 0.3});
  EXPECT_EQ(r.evaluations, 1 + 60 * (6 + 1));
  EXPECT_LT(r.value, 1e-2);
}

TEST(GradientBatch, AdamBatchedGradientOnLaneBatchedObjective) {
  // End-to-end: Adam's parameter-shift stencil feeding the candidate-lane
  // executor — every gradient's 2·n shift points evolve as lanes of one
  // batched statevector, and the result matches the run that evaluates each
  // point alone through run_expectation.
  const auto inst = graph::paper_task1();
  core::ModelConfig mcfg;
  const core::QaoaModel model =
      core::QaoaModel::build(inst.graph, toronto(), core::ModelKind::GateLevel, mcfg);
  const ObjectiveSpec spec = cut_spec(inst.graph, ObjectiveKind::Expectation);

  ExecutorOptions opts;
  opts.noise = false;
  const Executor lane_ex(toronto(), opts);
  const auto tmpl = lane_ex.compile(model, model.initial_parameters());
  const opt::BatchObjective lane_objective =
      [&](const std::vector<std::vector<double>>& xs) {
        std::vector<double> vals = lane_ex.run_expectation_batch(*tmpl, xs, spec);
        for (double& v : vals) v = -v;
        return vals;
      };

  const Executor scalar_ex(toronto(), opts);
  const opt::Objective scalar_objective = [&](const std::vector<double>& x) {
    Rng unused(0);  // the noiseless objective draws nothing
    return -scalar_ex.run_expectation(model.instantiate(x), 1, unused, spec);
  };

  opt::Adam::Options aopt;
  aopt.max_iterations = 10;
  aopt.mode = opt::Adam::GradientMode::ParameterShift;
  const auto lane_run =
      opt::Adam(aopt).minimize(lane_objective, model.initial_parameters());
  const auto scalar_run =
      opt::Adam(aopt).minimize(opt::serial_batch(scalar_objective), model.initial_parameters());
  EXPECT_EQ(lane_run.x, scalar_run.x);
  EXPECT_EQ(lane_run.history, scalar_run.history);
  EXPECT_LT(lane_run.value, 0.0);  // found a positive expected cut
}
