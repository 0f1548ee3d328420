// The executor's two noise engines: deterministic threaded trajectory
// sampling and the exact density-matrix pass, their statistical agreement on
// whole programs and channel by channel, and the virtual-RZ folding.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "backend/presets.hpp"
#include "common/rng.hpp"
#include "core/executor.hpp"
#include "core/models.hpp"
#include "graph/instances.hpp"
#include "sim/density.hpp"
#include "sim/state.hpp"

using namespace hgp;
using core::Engine;
using core::ExecOp;
using core::Executor;
using core::ExecutorOptions;
using core::ObjectiveKind;
using core::Program;

namespace {

const backend::FakeBackend& toronto() {
  static const backend::FakeBackend dev = backend::make_toronto();
  return dev;
}

/// H (native basis) on `q`.
void push_h(Program& prog, std::size_t q) {
  prog.ops.push_back(
      ExecOp::from_gate(qc::Op{qc::GateKind::RZ, {q}, {qc::Param::constant(la::kPi / 2)}}));
  prog.ops.push_back(ExecOp::from_gate(qc::Op{qc::GateKind::SX, {q}, {}}));
  prog.ops.push_back(
      ExecOp::from_gate(qc::Op{qc::GateKind::RZ, {q}, {qc::Param::constant(la::kPi / 2)}}));
}

Program bell_program() {
  Program prog;
  push_h(prog, 0);
  prog.ops.push_back(ExecOp::from_gate(qc::Op{qc::GateKind::CX, {0, 1}, {}}));
  prog.measure_qubits = {0, 1};
  return prog;
}

double total_shots(const sim::Counts& counts) {
  double t = 0.0;
  for (const auto& [bits, n] : counts) t += static_cast<double>(n);
  return t;
}

}  // namespace

TEST(ExecutorCompile, RejectsQubitsOffTheDeviceAndRepeatedMeasures) {
  // The noise walks index the device's per-qubit model by physical qubit, so
  // a qubit off the device must fail compile on both engines — whether it is
  // measured, rotated by a virtual gate or idled by a delay. A qubit measured
  // twice would read one local bit twice, and the engines disagree on it.
  auto rz = [](std::size_t q) {
    return ExecOp::from_gate(qc::Op{qc::GateKind::RZ, {q}, {qc::Param::constant(0.3)}});
  };
  auto delay = [](std::size_t q) {
    return ExecOp::from_gate(qc::Op{qc::GateKind::Delay, {q}, {qc::Param::constant(160.0)}});
  };
  const ExecOp x0 = ExecOp::from_gate(qc::Op{qc::GateKind::X, {0}, {}});
  const std::size_t off = toronto().num_qubits() + 13;  // qubit 40 on toronto
  std::vector<Program> rows(4);
  rows[0].ops = {x0};
  rows[0].measure_qubits = {0, off};
  rows[1].ops = {x0, rz(off)};
  rows[1].measure_qubits = {0};
  rows[2].ops = {x0, delay(off)};
  rows[2].measure_qubits = {0};
  rows[3].ops = {x0};
  rows[3].measure_qubits = {0, 0};
  for (const Engine engine : {Engine::Trajectory, Engine::ExactDensity}) {
    ExecutorOptions opts;
    opts.engine = engine;
    opts.num_threads = 1;
    const Executor ex(toronto(), opts);
    for (std::size_t r = 0; r < rows.size(); ++r)
      EXPECT_THROW(ex.compile(rows[r]), Error)
          << core::engine_name(engine) << " row " << r;
    // The valid neighbours still compile.
    Program ok;
    ok.ops = {x0, rz(1), delay(1)};
    ok.measure_qubits = {0, 1};
    EXPECT_NO_THROW(ex.compile(ok)) << core::engine_name(engine);
  }
}

TEST(EngineNames, RoundTrip) {
  EXPECT_EQ(core::engine_from_name("trajectory"), Engine::Trajectory);
  EXPECT_EQ(core::engine_from_name("density"), Engine::ExactDensity);
  EXPECT_EQ(core::engine_from_name("auto"), Engine::Auto);
  EXPECT_THROW(core::engine_from_name("mps"), Error);
  EXPECT_EQ(core::engine_name(Engine::ExactDensity), "density");
  EXPECT_EQ(core::engine_name(Engine::Auto), "auto");
}

TEST(ExecutorAuto, ResolvesByActiveQubits) {
  // Auto resolves per template by its active qubits: the exact density
  // engine up to kAutoDensityQubits, trajectories above — bit for bit the
  // engine it resolves to, in counts, objectives and the caller's stream.
  // Past the density cap it still compiles, under the trajectory cap.
  const std::vector<std::size_t> chain = {6, 7, 4, 1, 2, 3, 5, 8, 11, 14, 13, 12};
  auto ladder = [&](std::size_t n) {
    Program prog;
    for (std::size_t i = 0; i < n; ++i) push_h(prog, chain[i]);
    for (std::size_t i = 0; i + 1 < n; ++i)
      prog.ops.push_back(ExecOp::from_gate(qc::Op{qc::GateKind::CX, {chain[i], chain[i + 1]}, {}}));
    prog.measure_qubits.assign(chain.begin(), chain.begin() + static_cast<long>(n));
    return prog;
  };
  auto executor = [](Engine engine) {
    ExecutorOptions opts;
    opts.engine = engine;
    opts.num_threads = 1;
    return Executor(toronto(), opts);
  };
  core::ObjectiveSpec spec;
  spec.value = [](std::uint64_t bits) { return static_cast<double>(bits % 5); };
  const Executor autox = executor(Engine::Auto);
  const std::pair<std::size_t, Engine> rows[] = {{6, Engine::ExactDensity},
                                                 {core::kAutoDensityQubits, Engine::ExactDensity},
                                                 {core::kAutoDensityQubits + 1, Engine::Trajectory}};
  for (const auto& [n, resolved] : rows) {
    SCOPED_TRACE(std::to_string(n) + " qubits");
    const Program prog = ladder(n);
    const Executor ref = executor(resolved);
    Rng a(31), b(31);
    EXPECT_EQ(autox.run(prog, 64, a), ref.run(prog, 64, b));
    for (const ObjectiveKind kind : {ObjectiveKind::Expectation, ObjectiveKind::CVaR}) {
      spec.kind = kind;
      EXPECT_EQ(autox.run_expectation(prog, 64, a, spec), ref.run_expectation(prog, 64, b, spec))
          << core::objective_name(kind);
    }
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
  const Program wide = ladder(12);
  EXPECT_NO_THROW(autox.compile(wide));
  EXPECT_THROW(executor(Engine::ExactDensity).compile(wide), Error);
}

TEST(ThreadedTrajectories, BitIdenticalAcrossThreadCounts) {
  const Program prog = bell_program();
  sim::Counts reference;
  for (std::size_t threads : {1u, 2u, 4u, 7u}) {
    ExecutorOptions opts;
    opts.num_threads = threads;
    Executor ex(toronto(), opts);
    Rng rng(99);
    const sim::Counts counts = ex.run(prog, 1500, rng);  // spans several batches
    EXPECT_NEAR(total_shots(counts), 1500.0, 0.0);
    if (threads == 1)
      reference = counts;
    else
      EXPECT_EQ(counts, reference) << "threads=" << threads;
  }
}

TEST(ThreadedTrajectories, CallerRngAdvanceIsShotIndependent) {
  // The parallel engine draws exactly one value from the caller's Rng, so
  // downstream consumers see the same stream no matter the shot count.
  const Program prog = bell_program();
  Executor ex(toronto());
  Rng r1(3), r2(3);
  ex.run(prog, 100, r1);
  ex.run(prog, 2000, r2);
  EXPECT_EQ(r1.next_u64(), r2.next_u64());
}

TEST(ExactDensity, MatchesTrajectoryStatistics) {
  // Same noisy Bell program through both engines: the trajectory frequencies
  // must converge to the exact density-matrix distribution.
  const Program prog = bell_program();

  ExecutorOptions dopts;
  dopts.engine = Engine::ExactDensity;
  Executor exact(toronto(), dopts);
  Rng drng(11);
  const std::size_t shots = 40000;
  const sim::Counts dc = exact.run(prog, shots, drng);

  Executor traj(toronto());
  Rng trng(13);
  const sim::Counts tc = traj.run(prog, shots, trng);

  for (std::uint64_t bits = 0; bits < 4; ++bits) {
    const double fd = dc.count(bits) ? dc.at(bits) / double(shots) : 0.0;
    const double ft = tc.count(bits) ? tc.at(bits) / double(shots) : 0.0;
    EXPECT_NEAR(fd, ft, 0.015) << "bits=" << bits;
  }
}

TEST(ExactDensity, NoiseVisibleAndDeterministicGivenSeed) {
  const Program prog = bell_program();
  ExecutorOptions opts;
  opts.engine = Engine::ExactDensity;
  Executor ex(toronto(), opts);
  Rng r1(21), r2(21);
  const sim::Counts a = ex.run(prog, 4000, r1);
  const sim::Counts b = ex.run(prog, 4000, r2);
  EXPECT_EQ(a, b);
  // Noise leaks probability out of the Bell pair.
  const double good = (a.count(0b00) ? a.at(0b00) : 0) + (a.count(0b11) ? a.at(0b11) : 0);
  EXPECT_LT(good / 4000.0, 0.999);
  EXPECT_GT(good / 4000.0, 0.80);
}

TEST(ExactDensity, RejectsLargeRegisters) {
  Program prog;
  // 12 active qubits exceed the density engine's dense-rho budget.
  for (std::size_t q : {0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u, 11u})
    prog.ops.push_back(ExecOp::from_gate(qc::Op{qc::GateKind::SX, {q}, {}}));
  prog.measure_qubits = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
  ExecutorOptions opts;
  opts.engine = Engine::ExactDensity;
  Executor ex(toronto(), opts);
  Rng rng(1);
  EXPECT_THROW(ex.run(prog, 16, rng), Error);
}

// ---- trajectory vs exact density on the paper's programs ------------------

TEST(ExactDensity, AgreesWithTrajectoriesOnTableIIPrograms) {
  // The task-1 gate-level and hybrid programs at x0, GO off and on, under
  // the full toronto noise model. Per program:
  //  - the trajectory Expectation, swept over kSeeds seeds, lies within
  //    kStdErrs standard errors of its seed spread from the density
  //    engine's exact value;
  //  - the trajectory run() counts pooled over the seeds lie within a
  //    total-variation bound of the density engine's counts: the
  //    multinomial mean of TV between two samples of the same distribution,
  //    plus a McDiarmid tail at 1e-6.
  constexpr std::size_t kSeeds = 16;
  constexpr std::size_t kShots = 256;
  constexpr double kStdErrs = 6.0;
  constexpr std::size_t kExactShots = std::size_t{1} << 22;
  const graph::Instance task1 = graph::paper_task1();
  core::ObjectiveSpec cut;
  cut.kind = ObjectiveKind::Expectation;
  cut.value = [&](std::uint64_t bits) { return task1.graph.cut_value(bits); };

  for (const core::ModelKind kind : {core::ModelKind::GateLevel, core::ModelKind::Hybrid})
    for (const bool go : {false, true}) {
      core::ModelConfig cfg;
      cfg.gate_optimization = go;
      const core::QaoaModel model = core::QaoaModel::build(task1.graph, toronto(), kind, cfg);
      const std::vector<double> x0 = model.initial_parameters();
      const Program prog = model.instantiate(x0);
      const std::string where = core::model_name(kind) + (go ? " GO" : " raw");

      ExecutorOptions dopts;
      dopts.engine = Engine::ExactDensity;
      Executor exact(toronto(), dopts);
      Rng drng(5);
      const double e_exact = exact.run_expectation(prog, kShots, drng, cut);
      const sim::Counts dc = exact.run(prog, kExactShots, drng);

      Executor traj(toronto());
      const auto tmpl = traj.compile(model, x0);
      std::vector<double> e;
      sim::Counts tc;
      for (std::size_t s = 0; s < kSeeds; ++s) {
        Rng rng(100 + s);
        e.push_back(traj.run_expectation(*tmpl, x0, kShots, rng, cut));
        for (const auto& [bits, n] : traj.run(*tmpl, x0, kShots, rng)) tc[bits] += n;
      }
      double mean = 0.0, var = 0.0;
      for (double v : e) mean += v / kSeeds;
      for (double v : e) var += (v - mean) * (v - mean) / (kSeeds - 1);
      const double stderr_e = std::sqrt(var / kSeeds);
      EXPECT_GT(stderr_e, 0.0) << where;
      EXPECT_LE(std::abs(mean - e_exact), kStdErrs * stderr_e)
          << where << ": trajectory " << mean << " exact " << e_exact;

      const double nt = static_cast<double>(kSeeds * kShots);
      const double nd = static_cast<double>(kExactShots);
      const double spread = 1.0 / nt + 1.0 / nd;
      double tv = 0.0, mean_tv = 0.0;
      for (std::uint64_t bits = 0; bits < (std::uint64_t{1} << prog.measure_qubits.size());
           ++bits) {
        const double pd = dc.count(bits) ? dc.at(bits) / nd : 0.0;
        const double pt = tc.count(bits) ? tc.at(bits) / nt : 0.0;
        tv += 0.5 * std::abs(pt - pd);
        mean_tv += 0.5 * std::sqrt(pd * (1.0 - pd) * spread);
      }
      const double bound = mean_tv + std::sqrt(std::log(1e6) / 2.0 * spread);
      EXPECT_LE(tv, bound) << where;
    }
}

// ---- trajectory vs exact density, one channel per program -----------------

namespace {

constexpr std::size_t kChannelShots = 20000;
/// Every channel check allows a trajectory frequency this many binomial
/// standard deviations from the exact probability (two-sided 5 sigma: about
/// one spurious failure in 1.7 million checks at a fresh seed).
constexpr double kSigmas = 5.0;

/// ibmq_toronto with every noise source off (T1 and T2 pushed to 1e9 us);
/// each channel test turns one back on.
backend::FakeBackend quiet_toronto() {
  backend::FakeBackend dev = backend::make_toronto();
  noise::NoiseModel& nm = dev.mutable_noise_model();
  for (noise::QubitNoise& q : nm.qubits) {
    q.t1_us = 1e9;
    q.t2_us = 1e9;
    q.readout = {};
    q.freq_drift_ghz = 0.0;
  }
  nm.dep_per_1q_pulse = 0.0;
  nm.dep_per_2q_block = 0.0;
  return dev;
}

ExecOp gate(qc::GateKind kind, std::vector<std::size_t> qubits, std::vector<double> params = {}) {
  qc::Op op{kind, std::move(qubits), {}};
  for (double v : params) op.params.push_back(qc::Param::constant(v));
  return ExecOp::from_gate(op);
}

/// The outcome distribution of `prog` over its measured bits on both engines:
/// the trajectory engine's frequencies over kChannelShots sampled shots, and
/// the density engine's exact probabilities. Gates are exact matrices
/// (coherent miscalibration off), so the two see the same unitaries and the
/// analytic checks below hold exactly.
struct EngineOutcomes {
  std::vector<double> trajectory;
  std::vector<double> exact;
  /// The program's makespan and the device's readout window.
  int makespan_dt = 0;
  int readout_dt = 0;
};

EngineOutcomes run_both_engines(const backend::FakeBackend& dev, const Program& prog,
                                bool readout_error, std::uint64_t seed) {
  ExecutorOptions opts;
  opts.coherent_noise = false;
  opts.readout_error = readout_error;
  opts.num_threads = 2;
  const std::size_t outcomes = std::size_t{1} << prog.measure_qubits.size();
  EngineOutcomes out;
  out.trajectory.assign(outcomes, 0.0);
  Executor traj(dev, opts);
  Rng rng(seed);
  for (const auto& [bits, n] : traj.run(prog, kChannelShots, rng))
    out.trajectory[bits] = static_cast<double>(n) / static_cast<double>(kChannelShots);

  opts.engine = Engine::ExactDensity;
  Executor exact(dev, opts);
  for (std::uint64_t j = 0; j < outcomes; ++j) {
    core::ObjectiveSpec indicator;
    indicator.kind = ObjectiveKind::Expectation;
    indicator.value = [j](std::uint64_t bits) { return bits == j ? 1.0 : 0.0; };
    Rng unused(0);  // the density objective draws nothing
    out.exact.push_back(exact.run_expectation(prog, 1, unused, indicator));
  }
  out.makespan_dt = exact.compile(prog)->program.makespan_dt;
  out.readout_dt = dev.readout_duration_dt();
  return out;
}

void expect_engines_agree(const EngineOutcomes& o, const std::string& where) {
  for (std::size_t j = 0; j < o.exact.size(); ++j) {
    const double p = o.exact[j];
    const double sigma = std::sqrt(std::max(0.0, p * (1.0 - p)) / kChannelShots);
    EXPECT_LE(std::abs(o.trajectory[j] - p), kSigmas * sigma)
        << where << ": outcome " << j << " trajectory " << o.trajectory[j] << " exact " << p;
  }
}

double dt_us(int dt) { return dt * pulse::kDtNs * 1e-3; }

}  // namespace

TEST(ChannelVsDensity, T1DecayFollowsExpT1) {
  // X, Delay(d), measure: |1> decays through the X pulse, the delay and the
  // readout window, P(1) = exp(-t/T1) over their sum. Qubit 1 idles in |0>
  // under its own T1 and must never read 1 (the ground state is a fixed
  // point of amplitude damping).
  backend::FakeBackend dev = quiet_toronto();
  dev.mutable_noise_model().qubits[0].t1_us = 60.0;
  dev.mutable_noise_model().qubits[0].t2_us = 80.0;
  dev.mutable_noise_model().qubits[1].t1_us = 30.0;
  dev.mutable_noise_model().qubits[1].t2_us = 40.0;
  Program prog;
  prog.ops = {gate(qc::GateKind::X, {0}), gate(qc::GateKind::Delay, {0}, {90000.0})};
  prog.measure_qubits = {0, 1};

  const EngineOutcomes o = run_both_engines(dev, prog, false, 101);
  expect_engines_agree(o, "T1");
  const double t_us = dt_us(o.makespan_dt + o.readout_dt);
  EXPECT_NEAR(o.exact[0b01], std::exp(-t_us / 60.0), 1e-9);
  EXPECT_EQ(o.exact[0b10] + o.exact[0b11], 0.0);
  EXPECT_EQ(o.trajectory[0b10] + o.trajectory[0b11], 0.0);
}

TEST(ChannelVsDensity, RamseyContrastFollowsExpT2) {
  // H, Delay(d), H with H = RZ(pi/2) SX RZ(pi/2): the coherence the first SX
  // makes decays over that SX and the delay, t = s + d, and the second H
  // turns it into P(1) = (1 - exp(-t/T2)) / 2 — whatever the populations,
  // which T1 only shifts afterwards, through the second SX and the readout
  // window: P(1) *= exp(-(s + r)/T1).
  backend::FakeBackend dev = quiet_toronto();
  const double t1_us = 100.0, t2_us = 60.0;
  dev.mutable_noise_model().qubits[0].t1_us = t1_us;
  dev.mutable_noise_model().qubits[0].t2_us = t2_us;
  const int delay_dt = 180000;
  Program prog;
  prog.ops = {gate(qc::GateKind::RZ, {0}, {la::kPi / 2}), gate(qc::GateKind::SX, {0}),
              gate(qc::GateKind::RZ, {0}, {la::kPi / 2}),
              gate(qc::GateKind::Delay, {0}, {static_cast<double>(delay_dt)}),
              gate(qc::GateKind::RZ, {0}, {la::kPi / 2}), gate(qc::GateKind::SX, {0}),
              gate(qc::GateKind::RZ, {0}, {la::kPi / 2})};
  prog.measure_qubits = {0};

  const EngineOutcomes o = run_both_engines(dev, prog, false, 102);
  expect_engines_agree(o, "T2");
  const int sx_dt = (o.makespan_dt - delay_dt) / 2;
  const double after_us = dt_us(sx_dt + o.readout_dt);
  const double contrast = 1.0 - 2.0 * o.exact[1] / std::exp(-after_us / t1_us);
  EXPECT_NEAR(contrast, std::exp(-dt_us(sx_dt + delay_dt) / t2_us), 1e-9);
}

class DepolarizingVsDensity : public ::testing::TestWithParam<double> {};

TEST_P(DepolarizingVsDensity, OneQubitPulseCharge) {
  // SX RZ(0.9) SX: two drive pulses, each charged dep_per_1q_pulse.
  backend::FakeBackend dev = quiet_toronto();
  dev.mutable_noise_model().dep_per_1q_pulse = GetParam();
  Program prog;
  prog.ops = {gate(qc::GateKind::SX, {0}), gate(qc::GateKind::RZ, {0}, {0.9}),
              gate(qc::GateKind::SX, {0})};
  prog.measure_qubits = {0};
  expect_engines_agree(run_both_engines(dev, prog, false, 103),
                       "1q p=" + std::to_string(GetParam()));
}

TEST_P(DepolarizingVsDensity, TwoQubitBlockCharge) {
  // X then CX prepares |11>; the CX block is charged dep_per_2q_block.
  backend::FakeBackend dev = quiet_toronto();
  dev.mutable_noise_model().dep_per_2q_block = GetParam();
  Program prog;
  prog.ops = {gate(qc::GateKind::X, {0}), gate(qc::GateKind::CX, {0, 1})};
  prog.measure_qubits = {0, 1};
  const EngineOutcomes o = run_both_engines(dev, prog, false, 104);
  expect_engines_agree(o, "2q p=" + std::to_string(GetParam()));
  EXPECT_LT(o.exact[0b11], 1.0 - 0.5 * GetParam());  // the charge is visible
}

INSTANTIATE_TEST_SUITE_P(Strengths, DepolarizingVsDensity, ::testing::Values(0.1, 0.4, 0.8));

TEST(ChannelVsDensity, ReadoutConfusionAlone) {
  // X on qubit 0, qubit 1 left in |0>: each measured bit flips with its own
  // confusion, independently.
  backend::FakeBackend dev = quiet_toronto();
  dev.mutable_noise_model().qubits[0].readout = {0.07, 0.18};
  dev.mutable_noise_model().qubits[1].readout = {0.12, 0.03};
  Program prog;
  prog.ops = {gate(qc::GateKind::X, {0})};
  prog.measure_qubits = {0, 1};

  const EngineOutcomes o = run_both_engines(dev, prog, true, 105);
  expect_engines_agree(o, "readout");
  const double q0_one = 1.0 - 0.18, q1_one = 0.12;
  EXPECT_NEAR(o.exact[0b00], (1.0 - q0_one) * (1.0 - q1_one), 1e-6);
  EXPECT_NEAR(o.exact[0b01], q0_one * (1.0 - q1_one), 1e-6);
  EXPECT_NEAR(o.exact[0b10], (1.0 - q0_one) * q1_one, 1e-6);
  EXPECT_NEAR(o.exact[0b11], q0_one * q1_one, 1e-6);
}

TEST(ChannelVsDensity, BothEnginesRejectZeroT1) {
  // Both engines take their relaxation constants from
  // noise::relaxation_constants, so a zero T1 is an error on each, never a
  // silent full decay.
  backend::FakeBackend dev = backend::make_toronto();
  dev.mutable_noise_model().qubits[0].t1_us = 0.0;
  for (const Engine engine : {Engine::Trajectory, Engine::ExactDensity}) {
    ExecutorOptions opts;
    opts.engine = engine;
    opts.coherent_noise = false;
    Executor ex(dev, opts);
    Rng rng(1);
    EXPECT_THROW(ex.run(bell_program(), 16, rng), Error) << core::engine_name(engine);
  }
  sim::DensityMatrix dm(1);
  EXPECT_THROW(dm.apply_thermal_relaxation(0, 0.0, 50.0, 100.0), Error);
}

TEST(VirtualFolding, FoldedRzRunMatchesSingleRz) {
  // RZ(a) RZ(b) ... folded into one diagonal block must act exactly like
  // RZ(a+b): compare deterministic noiseless sampling under a shared seed.
  ExecutorOptions noiseless;
  noiseless.noise = false;
  noiseless.readout_error = false;
  noiseless.coherent_noise = false;

  auto ramsey = [&](std::vector<double> angles) {
    Program prog;
    push_h(prog, 0);
    for (double a : angles)
      prog.ops.push_back(
          ExecOp::from_gate(qc::Op{qc::GateKind::RZ, {0}, {qc::Param::constant(a)}}));
    push_h(prog, 0);
    prog.measure_qubits = {0};
    Executor ex(toronto(), noiseless);
    Rng rng(31);
    return ex.run(prog, 2000, rng);
  };

  const sim::Counts split = ramsey({0.3, 0.5, 0.4});
  const sim::Counts merged = ramsey({1.2});
  EXPECT_EQ(split, merged);
}

TEST(VirtualFolding, ReportCountsFoldedBlocksOnce) {
  Program prog;
  prog.ops.push_back(
      ExecOp::from_gate(qc::Op{qc::GateKind::RZ, {0}, {qc::Param::constant(0.2)}}));
  prog.ops.push_back(
      ExecOp::from_gate(qc::Op{qc::GateKind::RZ, {0}, {qc::Param::constant(0.3)}}));
  prog.ops.push_back(ExecOp::from_gate(qc::Op{qc::GateKind::SX, {0}, {}}));
  prog.measure_qubits = {0};
  ExecutorOptions noiseless;
  noiseless.noise = false;
  noiseless.readout_error = false;
  noiseless.coherent_noise = false;
  const Executor ex(toronto(), noiseless);
  EXPECT_EQ(ex.compile(prog)->program.timeline.size(), 2u);  // folded RZ + SX
}

TEST(RngChild, StreamsAreDeterministicAndDecorrelated) {
  Rng a = Rng::child(123, 0);
  Rng b = Rng::child(123, 0);
  Rng c = Rng::child(123, 1);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  bool differs = false;
  for (int i = 0; i < 4; ++i) differs |= (a.next_u64() != c.next_u64());
  EXPECT_TRUE(differs);
}
