#include <gtest/gtest.h>

#include <cmath>

#include "backend/presets.hpp"
#include "common/rng.hpp"
#include "core/executor.hpp"
#include "core/models.hpp"
#include "core/qaoa.hpp"
#include "graph/generators.hpp"
#include "graph/instances.hpp"
#include "sim/statevector.hpp"

using namespace hgp;
using core::ExecOp;
using core::Executor;
using core::ExecutorOptions;
using core::ModelKind;
using core::Program;
using core::QaoaModel;

namespace {

const backend::FakeBackend& toronto() {
  static const backend::FakeBackend dev = backend::make_toronto();
  return dev;
}

ExecutorOptions noiseless() {
  ExecutorOptions o;
  o.noise = false;
  o.readout_error = false;
  o.coherent_noise = false;
  return o;
}

}  // namespace

TEST(Qaoa, HamiltonianExpectationEqualsCut) {
  const auto inst = graph::paper_task1();
  const la::PauliSum h = core::maxcut_hamiltonian(inst.graph);
  EXPECT_TRUE(h.is_diagonal());
  // Energy of each basis state equals its cut value.
  for (std::uint64_t bits = 0; bits < 64; ++bits)
    EXPECT_NEAR(h.energy(bits), inst.graph.cut_value(bits), 1e-12) << bits;
  EXPECT_NEAR(h.max_energy(), 9.0, 1e-12);
}

TEST(Qaoa, CircuitStructure) {
  const auto inst = graph::paper_task1();
  const qc::Circuit c = core::qaoa_circuit(inst.graph, 2);
  EXPECT_EQ(c.count(qc::GateKind::H), 6u);
  EXPECT_EQ(c.count(qc::GateKind::RZZ), 18u);
  EXPECT_EQ(c.count(qc::GateKind::RX), 12u);
  EXPECT_EQ(c.num_parameters(), 4u);
}

TEST(Qaoa, IdealP1LandscapeIsSensible) {
  const auto inst = graph::paper_task1();
  // At theta = 0 the state stays |+>^n: expected cut = m/2 = 4.5.
  EXPECT_NEAR(core::ideal_qaoa_expectation(inst.graph, 1, {0.0, 0.0}), 4.5, 1e-9);
  // Known good p=1 angles beat random guessing comfortably.
  const double at_init = core::ideal_qaoa_expectation(inst.graph, 1, {0.65, 0.40});
  EXPECT_GT(at_init / inst.max_cut, 0.65);
}

TEST(Qaoa, CutExpectationFromCounts) {
  const auto inst = graph::paper_task1();
  sim::Counts counts;
  counts[0b000111] = 500;  // K3,3 optimal side split: cut 9
  counts[0b000000] = 500;  // cut 0
  EXPECT_NEAR(core::cut_expectation(inst.graph, counts), 4.5, 1e-12);
  EXPECT_NEAR(core::approximation_ratio(4.5, inst.max_cut), 0.5, 1e-12);
}

TEST(Qaoa, HardwareEfficientPqcShape) {
  const qc::Circuit c = core::hardware_efficient_pqc(4, 2, "linear");
  EXPECT_EQ(c.count(qc::GateKind::U3), 8u);
  EXPECT_EQ(c.count(qc::GateKind::CX), 6u);
  EXPECT_EQ(c.num_parameters(), 24u);
  EXPECT_EQ(core::hardware_efficient_pqc(4, 1, "full").count(qc::GateKind::CX), 6u);
  EXPECT_EQ(core::hardware_efficient_pqc(4, 1, "circular").count(qc::GateKind::CX), 4u);
  EXPECT_THROW(core::hardware_efficient_pqc(4, 1, "star"), Error);
}

TEST(Executor, NoiselessBellProgram) {
  Program prog;
  // H = RZ(pi/2) SX RZ(pi/2) on physical qubit 0, then CX(0,1).
  prog.ops.push_back(ExecOp::from_gate(qc::Op{qc::GateKind::RZ, {0}, {qc::Param::constant(la::kPi / 2)}}));
  prog.ops.push_back(ExecOp::from_gate(qc::Op{qc::GateKind::SX, {0}, {}}));
  prog.ops.push_back(ExecOp::from_gate(qc::Op{qc::GateKind::RZ, {0}, {qc::Param::constant(la::kPi / 2)}}));
  prog.ops.push_back(ExecOp::from_gate(qc::Op{qc::GateKind::CX, {0, 1}, {}}));
  prog.measure_qubits = {0, 1};

  Executor ex(toronto(), noiseless());
  Rng rng(1);
  const sim::Counts counts = ex.run(prog, 4000, rng);
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_NEAR(double(counts.at(0b00)) / 4000.0, 0.5, 0.05);
  EXPECT_NEAR(double(counts.at(0b11)) / 4000.0, 0.5, 0.05);
}

TEST(Executor, CoherentPulsePathMatchesIdealGatesClosely) {
  // With coherent noise off... on a clean device the pulse-lowered CX path
  // should agree with the exact-matrix path to sampling accuracy.
  Program prog;
  prog.ops.push_back(ExecOp::from_gate(qc::Op{qc::GateKind::SX, {0}, {}}));
  prog.ops.push_back(ExecOp::from_gate(qc::Op{qc::GateKind::CX, {0, 1}, {}}));
  prog.measure_qubits = {0, 1};

  ExecutorOptions pulse_path = noiseless();
  pulse_path.noise = true;  // enables the pulse-simulation path...
  pulse_path.coherent_noise = true;
  // ...but strip all stochastic noise by zeroing the model.
  backend::FakeBackend dev = backend::make_toronto();
  for (auto& q : dev.mutable_noise_model().qubits) {
    q.t1_us = 1e9;
    q.t2_us = 1e9;
    q.readout = {};
    q.freq_drift_ghz = 0.0;
    q.drive_gain = 1.0;
  }
  dev.mutable_noise_model().dep_per_1q_pulse = 0.0;
  dev.mutable_noise_model().dep_per_2q_block = 0.0;

  Executor ex(dev, pulse_path);
  Rng rng(2);
  const sim::Counts counts = ex.run(prog, 8000, rng);
  // Ideal: SX then CX -> (|00> + |11>)/... amplitudes give 50/50 on 00 and 11.
  EXPECT_NEAR(double(counts.at(0b00)) / 8000.0, 0.5, 0.03);
  EXPECT_NEAR(double(counts.at(0b11)) / 8000.0, 0.5, 0.03);
}

TEST(Executor, MeasureMapReordersBits) {
  Program prog;
  prog.ops.push_back(ExecOp::from_gate(qc::Op{qc::GateKind::X, {5}, {}}));
  prog.measure_qubits = {5, 6};  // virtual bit 0 = physical 5
  Executor ex(toronto(), noiseless());
  Rng rng(3);
  const sim::Counts counts = ex.run(prog, 100, rng);
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_EQ(counts.begin()->first, 0b01u);
}

TEST(Executor, NoiseReducesGhzFidelity) {
  Program prog;
  prog.ops.push_back(ExecOp::from_gate(qc::Op{qc::GateKind::RZ, {0}, {qc::Param::constant(la::kPi / 2)}}));
  prog.ops.push_back(ExecOp::from_gate(qc::Op{qc::GateKind::SX, {0}, {}}));
  prog.ops.push_back(ExecOp::from_gate(qc::Op{qc::GateKind::RZ, {0}, {qc::Param::constant(la::kPi / 2)}}));
  prog.ops.push_back(ExecOp::from_gate(qc::Op{qc::GateKind::CX, {0, 1}, {}}));
  prog.ops.push_back(ExecOp::from_gate(qc::Op{qc::GateKind::CX, {1, 4}, {}}));
  prog.measure_qubits = {0, 1, 4};

  Rng rng(4);
  Executor noisy(toronto());
  const sim::Counts counts = noisy.run(prog, 4000, rng);
  double good = 0.0, total = 0.0;
  for (const auto& [bits, n] : counts) {
    total += double(n);
    if (bits == 0b000 || bits == 0b111) good += double(n);
  }
  const double fidelity = good / total;
  EXPECT_LT(fidelity, 0.995);  // noise visible
  EXPECT_GT(fidelity, 0.80);   // but not catastrophic
}

TEST(Executor, ReportsTimeline) {
  Program prog;
  prog.ops.push_back(ExecOp::from_gate(qc::Op{qc::GateKind::SX, {0}, {}}));
  prog.ops.push_back(ExecOp::from_gate(qc::Op{qc::GateKind::SX, {0}, {}}));
  prog.measure_qubits = {0};
  const Executor ex(toronto(), noiseless());
  const auto tmpl = ex.compile(prog);
  EXPECT_EQ(tmpl->program.makespan_dt, 320);
  EXPECT_EQ(tmpl->program.timeline.size(), 2u);
}

TEST(Models, GateLevelParameterSpace) {
  const auto inst = graph::paper_task1();
  core::ModelConfig cfg;
  const QaoaModel m = QaoaModel::build(inst.graph, toronto(), ModelKind::GateLevel, cfg);
  EXPECT_EQ(m.num_parameters(), 2u);
  EXPECT_EQ(m.parameters()[0].name, "gamma_0");
  EXPECT_EQ(m.parameters()[1].name, "beta_0");
  EXPECT_EQ(m.mixer_layer_duration_dt(), 320);  // two SX pulses
}

TEST(Models, HybridParameterSpace) {
  const auto inst = graph::paper_task1();
  core::ModelConfig cfg;
  const QaoaModel m = QaoaModel::build(inst.graph, toronto(), ModelKind::Hybrid, cfg);
  EXPECT_EQ(m.num_parameters(), 1u + 3u * 6u);
  EXPECT_EQ(m.mixer_layer_duration_dt(), 320);
  // Mixer duration is the Step-I knob: each probe builds its own model.
  cfg.mixer_duration_dt = 128;
  const QaoaModel m2 = QaoaModel::build(inst.graph, toronto(), ModelKind::Hybrid, cfg);
  EXPECT_EQ(m2.mixer_layer_duration_dt(), 128);
  EXPECT_EQ(m2.instantiate(m2.initial_parameters()).ops.back().schedule.duration(), 128);
}

TEST(Models, PulseLevelHasLargerParameterSpace) {
  const auto inst = graph::paper_task1();
  core::ModelConfig cfg;
  const QaoaModel hybrid = QaoaModel::build(inst.graph, toronto(), ModelKind::Hybrid, cfg);
  const QaoaModel pulse = QaoaModel::build(inst.graph, toronto(), ModelKind::PulseLevel, cfg);
  // The paper's scalability point: the pulse-level model's search space is
  // much larger than the hybrid's.
  EXPECT_GT(pulse.num_parameters(), 3 * hybrid.num_parameters());
}

TEST(Models, NoiselessHybridMatchesGateAtEquivalentInit) {
  // At the initial parameters (mixer pulse ≡ RX(2β0)) and without noise,
  // gate and hybrid programs must sample (nearly) the same distribution.
  const auto inst = graph::paper_task1();
  core::ModelConfig cfg;
  const QaoaModel gate = QaoaModel::build(inst.graph, toronto(), ModelKind::GateLevel, cfg);
  const QaoaModel hybrid = QaoaModel::build(inst.graph, toronto(), ModelKind::Hybrid, cfg);

  Executor ex(toronto(), noiseless());
  Rng rng1(6), rng2(6);
  const sim::Counts cg = ex.run(gate.instantiate(gate.initial_parameters()), 20000, rng1);
  const sim::Counts ch = ex.run(hybrid.instantiate(hybrid.initial_parameters()), 20000, rng2);
  const double eg = core::cut_expectation(inst.graph, cg);
  const double eh = core::cut_expectation(inst.graph, ch);
  EXPECT_NEAR(eg, eh, 0.12);
  // And both match the ideal statevector value.
  const double ideal = core::ideal_qaoa_expectation(inst.graph, 1, {cfg.init_gamma, cfg.init_beta});
  EXPECT_NEAR(eg, ideal, 0.12);
}

TEST(Models, MixerAblationFlagsShrinkParameterSpace) {
  const auto inst = graph::paper_task1();
  core::ModelConfig cfg;
  cfg.train_phase = false;
  cfg.train_freq = false;
  const QaoaModel m = QaoaModel::build(inst.graph, toronto(), ModelKind::Hybrid, cfg);
  EXPECT_EQ(m.num_parameters(), 1u + 6u);  // gamma + per-qubit amplitude only
}

TEST(Models, InstantiateRejectsWrongParameterCount) {
  const auto inst = graph::paper_task1();
  core::ModelConfig cfg;
  const QaoaModel m = QaoaModel::build(inst.graph, toronto(), ModelKind::GateLevel, cfg);
  EXPECT_THROW(m.instantiate({0.1}), Error);
}

TEST(Models, BuildRejectsMalformedInitialLayout) {
  const auto inst = graph::paper_task1();  // 6 qubits
  core::ModelConfig cfg;
  for (const std::vector<std::size_t>& layout :
       {std::vector<std::size_t>{0, 1, 4, 7, 10, 4000},   // off the 27-qubit device
        std::vector<std::size_t>{0, 0, 4, 7, 10, 12},     // physical qubit 0 twice
        std::vector<std::size_t>{0, 1}}) {                // too few entries
    cfg.initial_layout = layout;
    // Both routers index the layout: greedy, and SABRE under Step II.
    for (const bool sabre : {false, true}) {
      cfg.gate_optimization = sabre;
      EXPECT_THROW(QaoaModel::build(inst.graph, toronto(), ModelKind::Hybrid, cfg), Error);
    }
  }
}

TEST(Models, WorksOnGuadalupe16) {
  const auto inst = graph::paper_task3();  // 8 qubits
  const backend::FakeBackend dev = backend::make_guadalupe();
  core::ModelConfig cfg;
  const QaoaModel m = QaoaModel::build(inst.graph, dev, ModelKind::Hybrid, cfg);
  const Program prog = m.instantiate(m.initial_parameters());
  EXPECT_EQ(prog.measure_qubits.size(), 8u);
  for (std::size_t q : prog.measure_qubits) EXPECT_LT(q, 16u);
}

TEST(Executor, DdEchoRefocusesStaticDrift) {
  // Pure frame-drift device: a Ramsey sequence H - idle - H loses contrast,
  // but splitting the idle with a time-separated X-X echo restores it.
  backend::FakeBackend dev = backend::make_toronto();
  for (auto& q : dev.mutable_noise_model().qubits) {
    q.t1_us = 1e9;
    q.t2_us = 1e9;
    q.readout = {};
    q.drive_gain = 1.0;
    q.freq_drift_ghz = 2e-4;  // strong, so the Ramsey phase is O(1)
  }
  dev.mutable_noise_model().dep_per_1q_pulse = 0.0;
  dev.mutable_noise_model().dep_per_2q_block = 0.0;

  const int idle = 6400;  // dt; drift phase 2*pi*2e-4*6400*(2/9) = 1.8 rad
  auto ramsey = [&](bool dd) {
    Program prog;
    auto h_gate = [&](std::size_t q) {
      prog.ops.push_back(ExecOp::from_gate(
          qc::Op{qc::GateKind::RZ, {q}, {qc::Param::constant(la::kPi / 2)}}));
      prog.ops.push_back(ExecOp::from_gate(qc::Op{qc::GateKind::SX, {q}, {}}));
      prog.ops.push_back(ExecOp::from_gate(
          qc::Op{qc::GateKind::RZ, {q}, {qc::Param::constant(la::kPi / 2)}}));
    };
    h_gate(0);
    if (dd) {
      prog.ops.push_back(ExecOp::from_gate(
          qc::Op{qc::GateKind::Delay, {0}, {qc::Param::constant(idle / 2)}}));
      prog.ops.push_back(ExecOp::from_gate(qc::Op{qc::GateKind::X, {0}, {}}));
      prog.ops.push_back(ExecOp::from_gate(
          qc::Op{qc::GateKind::Delay, {0}, {qc::Param::constant(idle / 2)}}));
      prog.ops.push_back(ExecOp::from_gate(qc::Op{qc::GateKind::X, {0}, {}}));
    } else {
      prog.ops.push_back(ExecOp::from_gate(
          qc::Op{qc::GateKind::Delay, {0}, {qc::Param::constant(idle)}}));
    }
    h_gate(0);
    prog.measure_qubits = {0};
    Executor ex(dev);
    Rng rng(5);
    const sim::Counts counts = ex.run(prog, 4000, rng);
    double zeros = 0.0, total = 0.0;
    for (const auto& [bits, n] : counts) {
      total += double(n);
      if (bits == 0) zeros += double(n);
    }
    return zeros / total;
  };

  const double plain = ramsey(false);
  const double echoed = ramsey(true);
  EXPECT_LT(plain, 0.90);   // Ramsey contrast lost to the drift phase
  EXPECT_GT(echoed, 0.97);  // echo refocuses it
}
