// The timeline block-fusion pass: composition algebra, fused vs
// unfused parity on every deterministic-unitary engine path, the noisy
// engines' knob-is-a-no-op guarantee (bit-identical counts), bit-identity of
// the bound candidate lanes against scalar fused runs, repeated runs through
// a shared block cache, and the shared transpile::PassStats reporting of the
// cancellation pass.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "backend/presets.hpp"
#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "core/executor.hpp"
#include "core/fusion.hpp"
#include "core/models.hpp"
#include "core/qaoa.hpp"
#include "graph/instances.hpp"
#include "serve/block_cache.hpp"
#include "sim/statevector.hpp"
#include "transpile/cancellation.hpp"

using namespace hgp;
using core::CompiledProgram;
using core::ExecOp;
using core::Executor;
using core::ExecutorOptions;
using core::FusionOptions;
using core::FusionResult;
using core::ObjectiveKind;
using core::ObjectiveSpec;
using core::Program;
using core::Scheduled;

namespace {

const backend::FakeBackend& toronto() {
  static const backend::FakeBackend dev = backend::make_toronto();
  return dev;
}

ObjectiveSpec cut_spec(const graph::Graph& g, ObjectiveKind kind) {
  ObjectiveSpec spec;
  spec.kind = kind;
  spec.value = [&g](std::uint64_t bits) { return g.cut_value(bits); };
  spec.cvar_alpha = 0.3;
  return spec;
}

/// The paper's K3,3 instance, static because QaoaModel keeps a pointer to
/// the graph it was built over.
const graph::Instance& paper_instance() {
  static const graph::Instance inst = graph::paper_task1();
  return inst;
}

/// p=2 gate-level QAOA on the paper's K3,3 instance — deep enough that the
/// greedy pass finds multi-block runs at every width.
core::QaoaModel paper_model() {
  core::ModelConfig mcfg;
  mcfg.p = 2;
  return core::QaoaModel::build(paper_instance().graph, toronto(),
                                core::ModelKind::GateLevel, mcfg);
}

std::vector<std::vector<double>> spread_candidates(const std::vector<double>& x0,
                                                   std::size_t k) {
  std::vector<std::vector<double>> xs(k, x0);
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < x0.size(); ++j)
      xs[i][j] += 0.07 * static_cast<double>(i) - 0.03 * static_cast<double>(j % 3);
  return xs;
}

Executor make_executor(std::size_t fusion_width, bool noise = false,
                       std::shared_ptr<serve::BlockCache> cache = nullptr) {
  ExecutorOptions opts;
  opts.noise = noise;
  opts.num_threads = 1;
  opts.fusion_max_qubits = fusion_width;
  if (cache) opts.block_cache = std::move(cache);
  return Executor(toronto(), opts);
}

double total_variation(const sim::Counts& a, const sim::Counts& b, std::size_t shots) {
  double tv = 0.0;
  auto count = [](const sim::Counts& c, std::uint64_t k) {
    const auto it = c.find(k);
    return it == c.end() ? 0.0 : static_cast<double>(it->second);
  };
  for (const auto& [bits, n] : a) tv += std::abs(static_cast<double>(n) - count(b, bits));
  for (const auto& [bits, n] : b)
    if (a.find(bits) == a.end()) tv += static_cast<double>(n);
  return tv / (2.0 * static_cast<double>(shots));
}

}  // namespace

// ---- composition algebra -----------------------------------------------------

TEST(FusionEmbed, EmbeddedOperatorActsLikeOriginal) {
  // A lone part composed on the full support must act like the original on
  // its own qubits, for every support position and qubit order.
  const la::CMat u1 = qc::gate_matrix(qc::GateKind::SX);
  const la::CMat u2 = qc::gate_matrix(qc::GateKind::RZZ, {0.7});
  const std::vector<std::size_t> support = {0, 1, 2};
  struct Case {
    const la::CMat* u;
    std::vector<std::size_t> local;
  };
  for (const Case& c : {Case{&u1, {0}}, Case{&u1, {1}}, Case{&u1, {2}},
                        Case{&u2, {0, 2}}, Case{&u2, {2, 0}}, Case{&u2, {1, 2}}}) {
    sim::Statevector direct(3), embedded(3);
    // A non-trivial input state.
    for (std::size_t q = 0; q < 3; ++q)
      direct.apply_matrix(qc::gate_matrix(qc::GateKind::SX), {q});
    for (std::size_t q = 0; q < 3; ++q)
      embedded.apply_matrix(qc::gate_matrix(qc::GateKind::SX), {q});
    direct.apply_matrix(*c.u, c.local);
    const core::FusePartView part{c.u, &c.local};
    embedded.apply_matrix(core::compose_fused(&part, 1, support), support);
    for (std::size_t i = 0; i < 8; ++i)
      EXPECT_LT(std::abs(direct.data()[i] - embedded.data()[i]), 1e-12);
  }
}

TEST(FusionEmbed, ComposeMatchesSequentialApply) {
  const la::CMat sx = qc::gate_matrix(qc::GateKind::SX);
  const la::CMat cx = qc::gate_matrix(qc::GateKind::CX);
  const la::CMat rzz = qc::gate_matrix(qc::GateKind::RZZ, {1.1});
  const std::vector<std::size_t> l0 = {1}, l1 = {2, 0}, l2 = {0, 1};
  const std::vector<std::size_t> support = {0, 1, 2};
  const std::vector<core::FusePartView> parts = {{&sx, &l0}, {&cx, &l1}, {&rzz, &l2}};
  const la::CMat fused = core::compose_fused(parts.data(), parts.size(), support);

  sim::Statevector seq(3), one(3);
  for (std::size_t q = 0; q < 3; ++q) seq.apply_matrix(sx, {q});
  for (std::size_t q = 0; q < 3; ++q) one.apply_matrix(sx, {q});
  seq.apply_matrix(sx, l0);
  seq.apply_matrix(cx, l1);
  seq.apply_matrix(rzz, l2);
  one.apply_matrix(fused, support);
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_LT(std::abs(seq.data()[i] - one.data()[i]), 1e-12);
}

TEST(FusionPass, MergesAdjacentRunsAndRemapsSlots) {
  // Two 1q blocks on qubit 0 then one on qubit 1: width 2 fuses all three.
  CompiledProgram cp;
  cp.touched = {3, 5};  // physical qubits; local 0 and 1
  cp.measure_phys = {3, 5};
  cp.measure_local = {0, 1};
  cp.clock = {0, 0};
  auto push = [&](const la::CMat& u, std::vector<std::size_t> local) {
    Scheduled s;
    s.block.unitary = u;
    s.local = std::move(local);
    s.idle_before_dt.assign(s.local.size(), 0);
    cp.timeline.push_back(std::move(s));
  };
  push(qc::gate_matrix(qc::GateKind::SX), {0});
  push(qc::gate_matrix(qc::GateKind::RZ, {0.4}), {0});
  push(qc::gate_matrix(qc::GateKind::SX), {1});

  FusionOptions opt;
  opt.max_qubits = 2;
  const FusionResult fr = core::fuse_program(cp, opt);
  ASSERT_EQ(fr.timeline.size(), 1u);
  EXPECT_EQ(fr.slots[0].sources, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(fr.stats.ops_in, 3u);
  EXPECT_EQ(fr.stats.ops_out, 1u);
  EXPECT_EQ(fr.stats.merged_runs, 1u);
  EXPECT_EQ(fr.stats.max_run_len, 3u);
  EXPECT_EQ(fr.stats.removed(), 2u);
  EXPECT_EQ(fr.timeline[0].local, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(fr.timeline[0].block.qubits, (std::vector<std::size_t>{3, 5}));

  // Disabled widths pass through 1:1.
  opt.max_qubits = 0;
  const FusionResult off = core::fuse_program(cp, opt);
  EXPECT_EQ(off.timeline.size(), 3u);
  EXPECT_EQ(off.stats.merged_runs, 0u);
  EXPECT_EQ(off.slots[2].sources, (std::vector<std::size_t>{2}));
}

// ---- fused vs unfused parity on the deterministic paths ---------------------

TEST(FusionParity, NoiselessExpectationAcrossWidths) {
  const graph::Instance& inst = paper_instance();
  const core::QaoaModel model = paper_model();
  const Program prog = model.instantiate(model.initial_parameters());

  for (const ObjectiveKind kind : {ObjectiveKind::Expectation, ObjectiveKind::CVaR}) {
    const ObjectiveSpec spec = cut_spec(inst.graph, kind);
    Executor unfused = make_executor(0);
    Rng r0(5);
    const double reference = unfused.run_expectation(prog, 64, r0, spec);
    for (const std::size_t width : {std::size_t{2}, std::size_t{3}}) {
      Executor fused = make_executor(width);
      Rng r1(5);
      const double got = fused.run_expectation(prog, 64, r1, spec);
      EXPECT_NEAR(got, reference, 1e-9) << "width=" << width;
      const auto tmpl = fused.compile(prog);
      EXPECT_LT(tmpl->fusion.timeline.size(), tmpl->program.timeline.size())
          << "width=" << width;
    }
    const auto tmpl = unfused.compile(prog);
    EXPECT_EQ(tmpl->fusion.timeline.size(), tmpl->program.timeline.size());
  }
}

TEST(FusionParity, NoiselessCountsDistribution) {
  const core::QaoaModel model = paper_model();
  const Program prog = model.instantiate(model.initial_parameters());
  const std::size_t shots = 4096;

  Executor unfused = make_executor(0);
  Rng r0(11);
  const sim::Counts base = unfused.run(prog, shots, r0);
  for (const std::size_t width : {std::size_t{2}, std::size_t{3}}) {
    Executor fused = make_executor(width);
    Rng r1(11);
    const sim::Counts got = fused.run(prog, shots, r1);
    // The fused amplitudes agree to ~1e-12, so with the same RNG draws the
    // sampled counts are overwhelmingly identical — but a draw landing on a
    // CDF boundary may legally flip one sample, so gate on TV distance.
    EXPECT_LE(total_variation(base, got, shots), 0.01) << "width=" << width;
  }
}

TEST(FusionParity, WidthAboveThreeClampsToThree) {
  const core::QaoaModel model = paper_model();
  const Program prog = model.instantiate(model.initial_parameters());
  Executor w3 = make_executor(3), w9 = make_executor(9);
  Rng r0(3), r1(3);
  const sim::Counts a = w3.run(prog, 512, r0);
  const sim::Counts b = w9.run(prog, 512, r1);
  EXPECT_EQ(a, b);  // same pass, bit-identical
  EXPECT_EQ(w3.compile(prog)->fusion.timeline.size(), w9.compile(prog)->fusion.timeline.size());
}

// ---- noisy engines: the knob is a semantic no-op ----------------------------

TEST(FusionNoisy, TrajectoryCountsBitIdenticalAcrossKnob) {
  const core::QaoaModel model = paper_model();
  const Program prog = model.instantiate(model.initial_parameters());
  for (const std::size_t width : {std::size_t{2}, std::size_t{3}}) {
    Executor off = make_executor(0, /*noise=*/true);
    Executor on = make_executor(width, /*noise=*/true);
    Rng r0(21), r1(21);
    EXPECT_EQ(off.run(prog, 512, r0), on.run(prog, 512, r1)) << "width=" << width;
  }
}

TEST(FusionNoisy, DensityCountsBitIdenticalAcrossKnob) {
  const graph::Instance& inst = paper_instance();
  core::ModelConfig mcfg;
  const core::QaoaModel model =
      core::QaoaModel::build(inst.graph, toronto(), core::ModelKind::GateLevel, mcfg);
  const Program prog = model.instantiate(model.initial_parameters());
  ExecutorOptions opts;
  opts.noise = true;
  opts.engine = core::Engine::ExactDensity;
  opts.fusion_max_qubits = 0;
  Executor off(toronto(), opts);
  opts.fusion_max_qubits = 3;
  Executor on(toronto(), opts);
  Rng r0(33), r1(33);
  EXPECT_EQ(off.run(prog, 256, r0), on.run(prog, 256, r1));
}

TEST(FusionNoisy, TrajectoryExpectationBitIdenticalAcrossKnobLanesThreads) {
  const graph::Instance& inst = paper_instance();
  const core::QaoaModel model = paper_model();
  const Program prog = model.instantiate(model.initial_parameters());
  const ObjectiveSpec spec = cut_spec(inst.graph, ObjectiveKind::Expectation);

  auto eval = [&](std::size_t width, std::size_t lanes, std::size_t threads) {
    ExecutorOptions opts;
    opts.noise = true;
    opts.fusion_max_qubits = width;
    opts.shot_batch_lanes = lanes;
    opts.num_threads = threads;
    Executor ex(toronto(), opts);
    Rng rng(44);
    return ex.run_expectation(prog, 600, rng, spec);
  };
  const double reference = eval(0, 1, 1);
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{4}, std::size_t{7},
                                  std::size_t{32}})
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}})
      EXPECT_EQ(eval(3, lanes, threads), reference)
          << "lanes=" << lanes << " threads=" << threads;
}

// ---- determinism of the fused noiseless path --------------------------------

TEST(FusionDeterminism, NoiselessCountsStableAcrossLanesAndThreads) {
  // Lane/thread knobs must not leak into the fused deterministic evolve.
  const core::QaoaModel model = paper_model();
  const Program prog = model.instantiate(model.initial_parameters());
  auto sample = [&](std::size_t lanes, std::size_t threads) {
    ExecutorOptions opts;
    opts.noise = false;
    opts.fusion_max_qubits = 2;
    opts.shot_batch_lanes = lanes;
    opts.num_threads = threads;
    Executor ex(toronto(), opts);
    Rng rng(9);
    return ex.run(prog, 1024, rng);
  };
  const sim::Counts reference = sample(1, 1);
  for (const std::size_t lanes : {std::size_t{4}, std::size_t{7}, std::size_t{32}})
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}})
      EXPECT_EQ(sample(lanes, threads), reference)
          << "lanes=" << lanes << " threads=" << threads;
}

// ---- delta-compiled candidate lanes through fused slots ---------------------

TEST(FusionDelta, BatchedCandidatesBitIdenticalToScalarFusedRuns) {
  const graph::Instance& inst = paper_instance();
  const core::QaoaModel model = paper_model();
  const auto xs = spread_candidates(model.initial_parameters(), 5);

  for (const std::size_t width : {std::size_t{0}, std::size_t{2}, std::size_t{3}}) {
    for (const ObjectiveKind kind : {ObjectiveKind::Expectation, ObjectiveKind::CVaR}) {
      const ObjectiveSpec spec = cut_spec(inst.graph, kind);
      Executor batch_ex = make_executor(width);
      const std::vector<double> batched =
          batch_ex.run_expectation_batch(*batch_ex.compile(model, xs.front()), xs, spec);
      Executor scalar_ex = make_executor(width);
      std::vector<double> scalar(xs.size());
      for (std::size_t c = 0; c < xs.size(); ++c) {
        Rng rng(1);
        scalar[c] = scalar_ex.run_expectation(model.instantiate(xs[c]), 8, rng, spec);
      }
      EXPECT_EQ(batched, scalar) << "width=" << width;
    }
  }
}

TEST(FusionDelta, RepeatedBatchesReuseFusedBlocks) {
  const graph::Instance& inst = paper_instance();
  const core::QaoaModel model = paper_model();
  const auto xs = spread_candidates(model.initial_parameters(), 4);
  const ObjectiveSpec spec = cut_spec(inst.graph, ObjectiveKind::Expectation);

  auto cache = std::make_shared<serve::BlockCache>(4096);
  Executor ex = make_executor(2, false, cache);
  const std::vector<double> first =
      ex.run_expectation_batch(*ex.compile(model, xs.front()), xs, spec);
  const std::vector<double> second =
      ex.run_expectation_batch(*ex.compile(model, xs.front()), xs, spec);
  EXPECT_EQ(first, second);
}

// ---- repeated runs ------------------------------------------------------------

TEST(FusionCache, SecondRunServesFusedBlocksFromCache) {
  const graph::Instance& inst = paper_instance();
  const core::QaoaModel model = paper_model();
  const Program prog = model.instantiate(model.initial_parameters());
  const ObjectiveSpec spec = cut_spec(inst.graph, ObjectiveKind::Expectation);

  auto cache = std::make_shared<serve::BlockCache>(4096);
  Executor ex = make_executor(2, false, cache);
  Rng r0(2), r1(2);
  const double a = ex.run_expectation(prog, 8, r0, spec);
  const double b = ex.run_expectation(prog, 8, r1, spec);
  EXPECT_EQ(a, b);
}

// ---- shared pass-report plumbing (cancellation dedupe) ----------------------

TEST(FusionStats, CancellationReportsThroughSharedStruct) {
  qc::Circuit c(2);
  c.append(qc::Op{qc::GateKind::RZ, {0}, {qc::Param::constant(0.3)}});
  c.append(qc::Op{qc::GateKind::RZ, {0}, {qc::Param::constant(0.4)}});
  c.append(qc::Op{qc::GateKind::X, {1}, {}});
  c.append(qc::Op{qc::GateKind::X, {1}, {}});
  c.append(qc::Op{qc::GateKind::CX, {0, 1}, {}});

  transpile::PassStats stats;
  const qc::Circuit out = transpile::cancel_gates(c, &stats);
  EXPECT_EQ(stats.ops_in, 5u);
  EXPECT_EQ(stats.ops_out, out.size());
  EXPECT_EQ(stats.removed(), 5u - out.size());
  EXPECT_GE(stats.merged_runs, 1u);  // the RZ pair merged
  // The overload defaults to the old signature.
  const qc::Circuit same = transpile::cancel_gates(c);
  EXPECT_EQ(same.size(), out.size());
}
