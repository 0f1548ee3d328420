// Microbenchmarks (google-benchmark) for the performance-critical kernels:
// statevector gate application (specialized vs dense reference), the
// executor's trajectory/density engines and candidate-lane batches,
// pulse-propagator stepping, SABRE routing, M3 mitigation solves, and the
// Hermitian eigensolver.
#include <benchmark/benchmark.h>

#include "backend/presets.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "core/executor.hpp"
#include "core/fusion.hpp"
#include "core/models.hpp"
#include "core/qaoa.hpp"
#include "graph/instances.hpp"
#include "linalg/eig.hpp"
#include "mitigation/m3.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "pulsesim/simulator.hpp"
#include "sim/batched_statevector.hpp"
#include "sim/statevector.hpp"
#include "transpile/sabre.hpp"

using namespace hgp;

namespace {

/// The seed's generic dense 2-qubit apply (pre-specialization): the baseline
/// the diagonal/permutation kernels are measured against.
void dense_apply_2q(sim::Statevector& sv, const la::CMat& u, std::size_t q0, std::size_t q1) {
  la::CVec& amp = sv.data();
  const std::uint64_t b0 = std::uint64_t{1} << q0;
  const std::uint64_t b1 = std::uint64_t{1} << q1;
  for (std::uint64_t i = 0; i < amp.size(); ++i) {
    if ((i & b0) || (i & b1)) continue;
    const std::uint64_t i0 = i, i1 = i | b0, i2 = i | b1, i3 = i | b0 | b1;
    const la::cxd a0 = amp[i0], a1 = amp[i1], a2 = amp[i2], a3 = amp[i3];
    amp[i0] = u(0, 0) * a0 + u(0, 1) * a1 + u(0, 2) * a2 + u(0, 3) * a3;
    amp[i1] = u(1, 0) * a0 + u(1, 1) * a1 + u(1, 2) * a2 + u(1, 3) * a3;
    amp[i2] = u(2, 0) * a0 + u(2, 1) * a1 + u(2, 2) * a2 + u(2, 3) * a3;
    amp[i3] = u(3, 0) * a0 + u(3, 1) * a1 + u(3, 2) * a2 + u(3, 3) * a3;
  }
}

using benchutil::toronto_ladder_program;

}  // namespace

// ---- specialized statevector kernels vs the dense baseline -----------------

static void BM_KernelRzzDense(benchmark::State& state) {
  sim::Statevector sv(static_cast<std::size_t>(state.range(0)));
  const la::CMat rzz = qc::gate_matrix(qc::GateKind::RZZ, {0.37});
  for (auto _ : state) {
    dense_apply_2q(sv, rzz, 0, 1);
    benchmark::DoNotOptimize(sv.data().data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KernelRzzDense)->Arg(12)->Arg(16);

static void BM_KernelRzzDiagonal(benchmark::State& state) {
  sim::Statevector sv(static_cast<std::size_t>(state.range(0)));
  const la::CMat rzz = qc::gate_matrix(qc::GateKind::RZZ, {0.37});
  for (auto _ : state) {
    sv.apply_matrix(rzz, {0, 1});  // auto-dispatches to the diagonal kernel
    benchmark::DoNotOptimize(sv.data().data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KernelRzzDiagonal)->Arg(12)->Arg(16);

static void BM_KernelCxDense(benchmark::State& state) {
  sim::Statevector sv(static_cast<std::size_t>(state.range(0)));
  const la::CMat cx = qc::gate_matrix(qc::GateKind::CX);
  for (auto _ : state) {
    dense_apply_2q(sv, cx, 0, 1);
    benchmark::DoNotOptimize(sv.data().data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KernelCxDense)->Arg(12)->Arg(16);

static void BM_KernelCxPermutation(benchmark::State& state) {
  sim::Statevector sv(static_cast<std::size_t>(state.range(0)));
  const la::CMat cx = qc::gate_matrix(qc::GateKind::CX);
  for (auto _ : state) {
    sv.apply_matrix(cx, {0, 1});  // auto-dispatches to the permutation kernel
    benchmark::DoNotOptimize(sv.data().data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KernelCxPermutation)->Arg(12)->Arg(16);

// ---- width-3 fusion kernels ------------------------------------------------
//
// The fusion pass's currency is the dense 3-qubit block: a run of 1q/2q
// gates composed into one 8x8. The first pair measures the dense 3q apply
// itself, scalar vs lane-batched per-lane (the delta-compile batch path);
// the second pair measures a fused run against applying its constituent
// sequence gate by gate — the per-shot win the pass buys.

namespace {

/// An 8-gate dense run on qubits {0,1,2}: the RZZ/RX alternation a QAOA
/// layer produces, composed with the fusion pass's own composition.
std::vector<std::pair<la::CMat, std::vector<std::size_t>>> fused_run_parts(double theta) {
  std::vector<std::pair<la::CMat, std::vector<std::size_t>>> parts;
  parts.emplace_back(qc::gate_matrix(qc::GateKind::RZZ, {theta}), std::vector<std::size_t>{0, 1});
  parts.emplace_back(qc::gate_matrix(qc::GateKind::RX, {0.5 * theta}), std::vector<std::size_t>{0});
  parts.emplace_back(qc::gate_matrix(qc::GateKind::RZZ, {1.3 * theta}), std::vector<std::size_t>{1, 2});
  parts.emplace_back(qc::gate_matrix(qc::GateKind::RX, {0.7 * theta}), std::vector<std::size_t>{1});
  parts.emplace_back(qc::gate_matrix(qc::GateKind::CX), std::vector<std::size_t>{0, 2});
  parts.emplace_back(qc::gate_matrix(qc::GateKind::RZ, {0.9 * theta}), std::vector<std::size_t>{2});
  parts.emplace_back(qc::gate_matrix(qc::GateKind::RZZ, {0.4 * theta}), std::vector<std::size_t>{0, 1});
  parts.emplace_back(qc::gate_matrix(qc::GateKind::RX, {1.1 * theta}), std::vector<std::size_t>{2});
  return parts;
}

la::CMat dense_3q_unitary(double theta) {
  const auto parts = fused_run_parts(theta);
  std::vector<core::FusePartView> views(parts.size());
  for (std::size_t i = 0; i < parts.size(); ++i)
    views[i] = core::FusePartView{&parts[i].first, &parts[i].second};
  return core::compose_fused(views.data(), views.size(), {0, 1, 2});
}

}  // namespace

static void BM_Kernel3qDenseScalar(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto lanes = static_cast<std::size_t>(state.range(1));
  const la::CMat u = dense_3q_unitary(0.37);
  std::vector<sim::Statevector> svs(lanes, sim::Statevector(n));
  for (auto _ : state) {
    for (auto& sv : svs) sv.apply_matrix(u, {0, 1, 2});
    benchmark::DoNotOptimize(svs[0].data().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(lanes));
}
BENCHMARK(BM_Kernel3qDenseScalar)->Args({12, 16});

static void BM_Kernel3qDenseBatched(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto lanes = static_cast<std::size_t>(state.range(1));
  std::vector<la::CMat> us;
  us.reserve(lanes);
  for (std::size_t l = 0; l < lanes; ++l)
    us.push_back(dense_3q_unitary(0.37 + 0.01 * static_cast<double>(l)));
  std::vector<const la::CMat*> lane_ops;
  for (const la::CMat& u : us) lane_ops.push_back(&u);
  sim::BatchedStatevector bsv(n, lanes);
  for (auto _ : state) {
    bsv.apply_matrix_per_lane(lane_ops, {0, 1, 2});
    benchmark::DoNotOptimize(&bsv);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(lanes));
}
BENCHMARK(BM_Kernel3qDenseBatched)->Args({12, 16});

static void BM_KernelUnfusedSequence(benchmark::State& state) {
  sim::Statevector sv(static_cast<std::size_t>(state.range(0)));
  const auto parts = fused_run_parts(0.37);
  for (auto _ : state) {
    for (const auto& [u, qubits] : parts) sv.apply_matrix(u, qubits);
    benchmark::DoNotOptimize(sv.data().data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KernelUnfusedSequence)->Arg(12)->Arg(16);

static void BM_KernelFusedRun(benchmark::State& state) {
  sim::Statevector sv(static_cast<std::size_t>(state.range(0)));
  const la::CMat u = dense_3q_unitary(0.37);
  for (auto _ : state) {
    sv.apply_matrix(u, {0, 1, 2});
    benchmark::DoNotOptimize(sv.data().data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KernelFusedRun)->Arg(12)->Arg(16);

// ---- lane-batched kernels vs a per-shot scalar loop ------------------------
//
// Each pair applies the same operator to L independent trajectories: the
// scalar row loops over L separate statevectors (the pre-batching per-shot
// cost), the batched row applies once across the L lanes of a
// BatchedStatevector. items/sec counts trajectories, so the ratio of a pair
// is the per-kernel lane-batching speedup — regressions here are
// attributable to a single kernel.

static void scalar_lanes_loop(benchmark::State& state, const la::CMat& u,
                              const std::vector<std::size_t>& qubits) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto lanes = static_cast<std::size_t>(state.range(1));
  std::vector<sim::Statevector> svs(lanes, sim::Statevector(n));
  for (auto _ : state) {
    for (auto& sv : svs) sv.apply_matrix(u, qubits);
    benchmark::DoNotOptimize(svs[0].data().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(lanes));
  state.SetLabel(std::to_string(n) + "q x" + std::to_string(lanes) + " lanes");
}

static void batched_lanes_apply(benchmark::State& state, const la::CMat& u,
                                const std::vector<std::size_t>& qubits) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto lanes = static_cast<std::size_t>(state.range(1));
  sim::BatchedStatevector bsv(n, lanes);
  for (auto _ : state) {
    bsv.apply_matrix(u, qubits);
    benchmark::DoNotOptimize(&bsv);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(lanes));
  state.SetLabel(std::to_string(n) + "q x" + std::to_string(lanes) + " lanes");
}

static void BM_Lanes1qDiagonalScalar(benchmark::State& state) {
  scalar_lanes_loop(state, qc::gate_matrix(qc::GateKind::RZ, {0.37}), {0});
}
static void BM_Lanes1qDiagonalBatched(benchmark::State& state) {
  batched_lanes_apply(state, qc::gate_matrix(qc::GateKind::RZ, {0.37}), {0});
}
static void BM_Lanes1qDenseScalar(benchmark::State& state) {
  scalar_lanes_loop(state, qc::gate_matrix(qc::GateKind::SX), {0});
}
static void BM_Lanes1qDenseBatched(benchmark::State& state) {
  batched_lanes_apply(state, qc::gate_matrix(qc::GateKind::SX), {0});
}
static void BM_Lanes2qRzzDiagonalScalar(benchmark::State& state) {
  scalar_lanes_loop(state, qc::gate_matrix(qc::GateKind::RZZ, {0.37}), {0, 1});
}
static void BM_Lanes2qRzzDiagonalBatched(benchmark::State& state) {
  batched_lanes_apply(state, qc::gate_matrix(qc::GateKind::RZZ, {0.37}), {0, 1});
}
static void BM_Lanes2qDenseScalar(benchmark::State& state) {
  scalar_lanes_loop(
      state, la::kron(qc::gate_matrix(qc::GateKind::SX), qc::gate_matrix(qc::GateKind::SX)),
      {0, 1});
}
static void BM_Lanes2qDenseBatched(benchmark::State& state) {
  batched_lanes_apply(
      state, la::kron(qc::gate_matrix(qc::GateKind::SX), qc::gate_matrix(qc::GateKind::SX)),
      {0, 1});
}
BENCHMARK(BM_Lanes1qDiagonalScalar)->Args({12, 16});
BENCHMARK(BM_Lanes1qDiagonalBatched)->Args({12, 16});
BENCHMARK(BM_Lanes1qDenseScalar)->Args({12, 16});
BENCHMARK(BM_Lanes1qDenseBatched)->Args({12, 16});
BENCHMARK(BM_Lanes2qRzzDiagonalScalar)->Args({12, 16});
BENCHMARK(BM_Lanes2qRzzDiagonalBatched)->Args({12, 16});
BENCHMARK(BM_Lanes2qDenseScalar)->Args({12, 16});
BENCHMARK(BM_Lanes2qDenseBatched)->Args({12, 16});

// ---- candidate-lane kernels: each lane carries its own parameters ----------
//
// Candidate-lane batching (run_expectation_batch) evolves K parameter
// candidates as lanes, so parameterized blocks apply a *different* unitary
// per lane. The per-lane-theta RZZ pair isolates that kernel: scalar row =
// K statevectors each applying its own RZZ(theta_k), batched row = one
// apply_matrix_per_lane over the K lanes.

static void BM_LanesPerLaneThetaRzzScalar(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto lanes = static_cast<std::size_t>(state.range(1));
  std::vector<sim::Statevector> svs(lanes, sim::Statevector(n));
  std::vector<la::CMat> us;
  for (std::size_t l = 0; l < lanes; ++l)
    us.push_back(qc::gate_matrix(qc::GateKind::RZZ, {0.37 + 0.01 * static_cast<double>(l)}));
  for (auto _ : state) {
    for (std::size_t l = 0; l < lanes; ++l) svs[l].apply_matrix(us[l], {0, 1});
    benchmark::DoNotOptimize(svs[0].data().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(lanes));
  state.SetLabel(std::to_string(n) + "q x" + std::to_string(lanes) + " lanes");
}
static void BM_LanesPerLaneThetaRzzBatched(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto lanes = static_cast<std::size_t>(state.range(1));
  sim::BatchedStatevector bsv(n, lanes);
  std::vector<la::CMat> us;
  for (std::size_t l = 0; l < lanes; ++l)
    us.push_back(qc::gate_matrix(qc::GateKind::RZZ, {0.37 + 0.01 * static_cast<double>(l)}));
  std::vector<const la::CMat*> lane_ops;
  for (const la::CMat& u : us) lane_ops.push_back(&u);
  for (auto _ : state) {
    bsv.apply_matrix_per_lane(lane_ops, {0, 1});
    benchmark::DoNotOptimize(&bsv);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(lanes));
  state.SetLabel(std::to_string(n) + "q x" + std::to_string(lanes) + " lanes");
}
BENCHMARK(BM_LanesPerLaneThetaRzzScalar)->Args({12, 16});
BENCHMARK(BM_LanesPerLaneThetaRzzBatched)->Args({12, 16});

// The lane expectation pass: the sampling-free objective reduction
// sum_i v[i]*|amp_i|^2 per lane. Scalar row = per-statevector amplitude
// walk, batched row = one weighted_masses sweep over the lane-major layout.

static void BM_LanesExpectationScalar(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto lanes = static_cast<std::size_t>(state.range(1));
  const std::size_t dim = std::size_t{1} << n;
  std::vector<sim::Statevector> svs(lanes, sim::Statevector(n));
  for (auto& sv : svs) sv.apply_matrix(qc::gate_matrix(qc::GateKind::SX), {0});
  std::vector<double> values(dim);
  for (std::size_t i = 0; i < dim; ++i) values[i] = static_cast<double>(i % 7);
  double sink = 0.0;
  for (auto _ : state) {
    for (auto& sv : svs) {
      double num = 0.0, den = 0.0;
      for (std::size_t i = 0; i < dim; ++i) {
        const double m = std::norm(sv.data()[i]);
        num += values[i] * m;
        den += m;
      }
      sink += num / den;
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(lanes));
  state.SetLabel(std::to_string(n) + "q x" + std::to_string(lanes) + " lanes");
}
static void BM_LanesExpectationBatched(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto lanes = static_cast<std::size_t>(state.range(1));
  const std::size_t dim = std::size_t{1} << n;
  sim::BatchedStatevector bsv(n, lanes);
  bsv.apply_matrix(qc::gate_matrix(qc::GateKind::SX), {0});
  std::vector<double> values(dim);
  for (std::size_t i = 0; i < dim; ++i) values[i] = static_cast<double>(i % 7);
  std::vector<double> num(lanes), den(lanes);
  for (auto _ : state) {
    bsv.weighted_masses(values.data(), num.data(), den.data());
    benchmark::DoNotOptimize(num.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(lanes));
  state.SetLabel(std::to_string(n) + "q x" + std::to_string(lanes) + " lanes");
}
BENCHMARK(BM_LanesExpectationScalar)->Args({12, 16});
BENCHMARK(BM_LanesExpectationBatched)->Args({12, 16});

// ---- executor engines: the per-evaluation hot path --------------------------

static void BM_ExecutorTrajectory(benchmark::State& state) {
  // Args: qubits, threads (0 = hardware concurrency), lanes per group. The
  // 12q one-thread pair at lanes 1 and 16 is the lockstep engine's speedup
  // over one-lane groups; the counts are bit-identical at every width. The
  // 6q, 7q and 8q one-thread rows pair with BM_ExecutorExactDensity/6, /7
  // and /8 on the same program: where the exact engine stops beating 1024
  // shots. The /7 pair backs core::kAutoDensityQubits, Engine::Auto's
  // crossover.
  const backend::FakeBackend dev = backend::make_toronto();
  core::ExecutorOptions opts;
  opts.num_threads = static_cast<std::size_t>(state.range(1));
  opts.shot_batch_lanes = static_cast<std::size_t>(state.range(2));
  core::Executor ex(dev, opts);
  const core::Program prog = toronto_ladder_program(static_cast<std::size_t>(state.range(0)));
  Rng rng(17);
  ex.run(prog, 1, rng);  // warm the unitary cache outside the timed region
  // 1024 shots = 4 batches of the parallel grid, so the threads=0 rows
  // actually exercise multi-threaded batch scheduling.
  for (auto _ : state) benchmark::DoNotOptimize(ex.run(prog, 1024, rng));
  state.SetLabel(std::to_string(state.range(0)) + "q, threads=" +
                 std::to_string(state.range(1)) + ", lanes=" + std::to_string(state.range(2)));
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_ExecutorTrajectory)
    ->Args({6, 1, 16})
    ->Args({7, 1, 16})
    ->Args({8, 1, 16})
    ->Args({12, 1, 1})
    ->Args({12, 1, 16})
    ->Args({12, 0, 16})
    ->Args({14, 1, 16})
    ->Args({14, 0, 16})
    ->Unit(benchmark::kMillisecond);

static void BM_ExecutorExactDensity(benchmark::State& state) {
  const backend::FakeBackend dev = backend::make_toronto();
  core::ExecutorOptions opts;
  opts.engine = core::Engine::ExactDensity;
  core::Executor ex(dev, opts);
  const core::Program prog = toronto_ladder_program(static_cast<std::size_t>(state.range(0)));
  Rng rng(19);
  ex.run(prog, 1, rng);
  for (auto _ : state) benchmark::DoNotOptimize(ex.run(prog, 256, rng));
  state.SetLabel(std::to_string(state.range(0)) + "q exact");
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_ExecutorExactDensity)
    ->Arg(4)
    ->Arg(6)
    ->Arg(7)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

static void BM_ExecutorExactDensityTask1(benchmark::State& state) {
  // One exact evaluation of a real Table II program: run_expectation of the
  // toronto task-1 gate-level (/0) or hybrid (/1) program, GO off, bound to
  // its template at x0 on one thread. Both have 6 active qubits like the
  // /6 ladder row above, but several times its slots and channels.
  const backend::FakeBackend dev = backend::make_toronto();
  const graph::Instance inst = graph::paper_task1();
  const core::ModelKind kind =
      state.range(0) == 0 ? core::ModelKind::GateLevel : core::ModelKind::Hybrid;
  const core::QaoaModel model =
      core::QaoaModel::build(inst.graph, dev, kind, core::ModelConfig{});
  const core::Program prog = model.instantiate(model.initial_parameters());
  core::ExecutorOptions opts;
  opts.engine = core::Engine::ExactDensity;
  opts.num_threads = 1;
  core::Executor ex(dev, opts);
  const auto tmpl = ex.compile(prog);
  core::ObjectiveSpec spec;
  spec.value = [&g = inst.graph](std::uint64_t bits) { return g.cut_value(bits); };
  Rng rng(31);
  for (auto _ : state)
    benchmark::DoNotOptimize(ex.run_expectation(*tmpl, prog, 1024, rng, spec));
  state.SetLabel(core::model_name(kind) + ", " + std::to_string(prog.ops.size()) + " ops");
}
BENCHMARK(BM_ExecutorExactDensityTask1)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

static void BM_ExecutorWarmRun6q(benchmark::State& state) {
  // A noiseless 1-shot run of the task-1 gate-level program on a warm
  // shared cache, through the Program overload: every block hits, so this
  // is mostly the per-call compile (one key and one cache probe per block,
  // then composing the fused groups) plus a 6-qubit fused evolve.
  const backend::FakeBackend dev = backend::make_toronto();
  const graph::Instance inst = graph::paper_task1();
  const core::QaoaModel model = core::QaoaModel::build(
      inst.graph, dev, core::ModelKind::GateLevel, core::ModelConfig{});
  const core::Program prog = model.instantiate(model.initial_parameters());
  core::ExecutorOptions opts;
  opts.noise = false;
  opts.block_cache = std::make_shared<serve::BlockCache>();
  core::Executor ex(dev, opts);
  Rng rng(23);
  ex.run(prog, 1, rng);  // compile every block into the shared cache
  for (auto _ : state) benchmark::DoNotOptimize(ex.run(prog, 1, rng));
  state.SetLabel(std::to_string(prog.ops.size()) + " ops");
}
BENCHMARK(BM_ExecutorWarmRun6q)->Unit(benchmark::kMicrosecond);

static void BM_ExecutorBoundRun6q(benchmark::State& state) {
  // The optimizer-loop form of the run above: one template of the task-1
  // gate-level program, bound each iteration to one of 8 moved-θ programs
  // and run noiseless with 1 shot. A bind recomputes only the γ/β phase
  // folds and the fused groups holding them, then evolves and samples.
  const backend::FakeBackend dev = backend::make_toronto();
  const graph::Instance inst = graph::paper_task1();
  const core::QaoaModel model = core::QaoaModel::build(
      inst.graph, dev, core::ModelKind::GateLevel, core::ModelConfig{});
  const std::vector<double> x0 = model.initial_parameters();
  std::vector<core::Program> moved;
  for (std::size_t k = 0; k < 8; ++k) {
    std::vector<double> x = x0;
    for (std::size_t j = 0; j < x.size(); ++j) x[j] += 0.01 * static_cast<double>(k + j + 1);
    moved.push_back(model.instantiate(x));
  }
  core::ExecutorOptions opts;
  opts.noise = false;
  opts.block_cache = std::make_shared<serve::BlockCache>();
  core::Executor ex(dev, opts);
  const auto tmpl = ex.compile(model.instantiate(x0));
  Rng rng(29);
  std::size_t k = 0;
  for (auto _ : state) benchmark::DoNotOptimize(ex.run(*tmpl, moved[k++ % moved.size()], 1, rng));
  state.SetLabel(std::to_string(moved.front().ops.size()) + " ops");
}
BENCHMARK(BM_ExecutorBoundRun6q)->Unit(benchmark::kMicrosecond);

// ---- candidate lanes: an optimizer batch bound to one template -------------
//
// K moved-θ candidates of a 12-node weighted path at p = 2, placed along
// kTorontoChain, bound to the template of the initial point and evaluated
// noiseless on one thread. The scalar row runs K run_expectation calls, the
// lanes row one run_expectation_batch that evolves the K candidates as lanes
// of one batched statevector; both return the same values bit for bit.

namespace {

template <typename Evaluate>
void candidates_bench(benchmark::State& state, Evaluate evaluate) {
  const auto k = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kNodes = 12;
  const backend::FakeBackend dev = backend::make_toronto();
  graph::Graph g(kNodes);
  for (std::size_t i = 0; i + 1 < kNodes; ++i)
    g.add_edge(i, i + 1, 1.0 + 0.1 * static_cast<double>(i % 3));
  core::ModelConfig mcfg;
  mcfg.p = 2;
  mcfg.initial_layout.assign(benchutil::kTorontoChain.begin(),
                             benchutil::kTorontoChain.begin() + kNodes);
  const core::QaoaModel model =
      core::QaoaModel::build(g, dev, core::ModelKind::GateLevel, mcfg);
  const std::vector<double> x0 = model.initial_parameters();
  std::vector<core::Program> candidates;
  for (std::size_t c = 0; c < k; ++c) {
    std::vector<double> x = x0;
    for (std::size_t j = 0; j < x.size(); ++j)
      x[j] += 0.01 * static_cast<double>(c) - 0.005 * static_cast<double>(j);
    candidates.push_back(model.instantiate(x));
  }
  core::ObjectiveSpec spec;
  spec.value = [&g](std::uint64_t bits) { return g.cut_value(bits); };
  core::ExecutorOptions opts;
  opts.noise = false;
  opts.num_threads = 1;
  core::Executor ex(dev, opts);
  const auto tmpl = ex.compile(model.instantiate(x0));
  evaluate(ex, *tmpl, candidates, spec);  // warm the block cache outside the timed region
  for (auto _ : state) evaluate(ex, *tmpl, candidates, spec);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(k));
  state.SetLabel(std::to_string(k) + " candidates");
}

}  // namespace

static void BM_CandidatesScalar(benchmark::State& state) {
  candidates_bench(state, [](core::Executor& ex, const core::ProgramTemplate& tmpl,
                             const std::vector<core::Program>& candidates,
                             const core::ObjectiveSpec& spec) {
    Rng rng(31);  // untouched by noiseless run_expectation
    for (const core::Program& p : candidates)
      benchmark::DoNotOptimize(ex.run_expectation(tmpl, p, 1, rng, spec));
  });
}
BENCHMARK(BM_CandidatesScalar)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

static void BM_CandidatesLanes(benchmark::State& state) {
  candidates_bench(state, [](core::Executor& ex, const core::ProgramTemplate& tmpl,
                             const std::vector<core::Program>& candidates,
                             const core::ObjectiveSpec& spec) {
    benchmark::DoNotOptimize(ex.run_expectation_batch(tmpl, candidates, spec));
  });
}
BENCHMARK(BM_CandidatesLanes)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

static void BM_StatevectorCx(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  sim::Statevector sv(n);
  const la::CMat cx = qc::gate_matrix(qc::GateKind::CX);
  std::size_t q = 0;
  for (auto _ : state) {
    sv.apply_matrix(cx, {q, (q + 1) % n});
    q = (q + 1) % (n - 1);
    benchmark::DoNotOptimize(sv.data().data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StatevectorCx)->Arg(6)->Arg(10)->Arg(14)->Arg(18);

static void BM_StatevectorSample(benchmark::State& state) {
  sim::Statevector sv(static_cast<std::size_t>(state.range(0)));
  qc::Circuit c(sv.num_qubits());
  for (std::size_t q = 0; q < sv.num_qubits(); ++q) c.h(q);
  sv.run(c);
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(sv.sample(1024, rng));
}
BENCHMARK(BM_StatevectorSample)->Arg(6)->Arg(10);

static void BM_PulsePropagatorCx(benchmark::State& state) {
  const backend::FakeBackend dev = backend::make_toronto();
  const auto sub = dev.subsystem({0, 1}, true);
  const pulse::Schedule sched =
      backend::FakeBackend::remap_schedule(dev.calibrations().cx(0, 1), sub.remap);
  for (auto _ : state) {
    psim::PulseSystem sys = dev.subsystem({0, 1}, true).system;
    const psim::PulseSimulator sim(std::move(sys), psim::Integrator::Exact, 1,
                                   static_cast<int>(state.range(0)));
    benchmark::DoNotOptimize(sim.unitary(sched));
  }
  state.SetLabel("stride=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_PulsePropagatorCx)->Arg(1)->Arg(4);

static void BM_PulsePropagatorMixer(benchmark::State& state) {
  // The hybrid model's trainable mixer, the block every new candidate
  // recompiles: a 320-dt Gaussian between its phase and frequency knobs, on
  // a toronto qubit with coherent noise on.
  const backend::FakeBackend dev = backend::make_toronto();
  auto sub = dev.subsystem({0}, true);
  const pulse::Channel d = pulse::Channel::drive(0);
  pulse::Schedule mixer("mixer");
  mixer.append(pulse::ShiftPhase{0.4, d});
  mixer.append(pulse::ShiftFrequency{0.02, d});
  mixer.append(pulse::Play{pulse::PulseShape::gaussian(320, 0.2, 80.0), d});
  mixer.append(pulse::ShiftFrequency{-0.02, d});
  mixer.append(pulse::ShiftPhase{-0.4, d});
  const pulse::Schedule local = backend::FakeBackend::remap_schedule(mixer, sub.remap);
  const psim::PulseSimulator sim(std::move(sub.system));
  for (auto _ : state) benchmark::DoNotOptimize(sim.propagator(local));
}
BENCHMARK(BM_PulsePropagatorMixer)->Unit(benchmark::kMicrosecond);

static void BM_SabreRouting(benchmark::State& state) {
  const auto inst = graph::paper_task1();
  const qc::Circuit qaoa = core::qaoa_circuit(inst.graph, 1).bound({0.6, 0.4});
  const auto coupling = backend::heavy_hex_27();
  Rng rng(7);
  for (auto _ : state)
    benchmark::DoNotOptimize(transpile::sabre_route(qaoa, coupling, rng, 1, {0, 1, 4, 7, 10, 12}));
}
BENCHMARK(BM_SabreRouting);

static void BM_M3Mitigate(benchmark::State& state) {
  Rng rng(11);
  std::vector<noise::ReadoutError> errors(6, {0.02, 0.04});
  sim::Counts counts;
  for (int i = 0; i < state.range(0); ++i)
    counts[static_cast<std::uint64_t>(rng.uniform_int(0, 63))] += 16;
  const mit::M3Mitigator m3(errors);
  for (auto _ : state) benchmark::DoNotOptimize(m3.mitigate(counts));
  state.SetLabel(std::to_string(counts.size()) + " strings");
}
BENCHMARK(BM_M3Mitigate)->Arg(16)->Arg(48);

// ---- hgp::obs instruments: the telemetry-on vs -off cost per call ----------
//
// Each pair measures one instrument in both gate states. The Off rows are
// the price every uninstrumented run pays (one relaxed flag load); the On
// rows are the live cost (sharded fetch_add for a counter; two clock reads,
// an id, and a ring write for a span). The Off rows should be within noise
// of an empty loop.

static void BM_ObsCounterIncOn(benchmark::State& state) {
  obs::set_enabled(true);
  obs::Counter c;
  for (auto _ : state) {
    c.inc();
    benchmark::DoNotOptimize(&c);
  }
  obs::set_enabled(false);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounterIncOn);

static void BM_ObsCounterIncOff(benchmark::State& state) {
  obs::set_enabled(false);
  obs::Counter c;
  for (auto _ : state) {
    c.inc();
    benchmark::DoNotOptimize(&c);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounterIncOff);

static void BM_ObsSpanOn(benchmark::State& state) {
  obs::set_enabled(true);
  obs::Histogram h(obs::default_latency_bounds_ns());
  for (auto _ : state) {
    obs::Span span("perf_micro.span", &h);
    benchmark::DoNotOptimize(&span);
  }
  obs::set_enabled(false);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsSpanOn);

static void BM_ObsSpanOff(benchmark::State& state) {
  obs::set_enabled(false);
  for (auto _ : state) {
    obs::Span span("perf_micro.span");
    benchmark::DoNotOptimize(&span);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsSpanOff);

static void BM_Eigh(benchmark::State& state) {
  Rng rng(3);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  la::CMat a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = rng.normal();
    for (std::size_t j = i + 1; j < n; ++j) {
      a(i, j) = la::cxd{rng.normal(), rng.normal()};
      a(j, i) = std::conj(a(i, j));
    }
  }
  for (auto _ : state) benchmark::DoNotOptimize(la::eigh(a));
}
BENCHMARK(BM_Eigh)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

BENCHMARK_MAIN();
