#include <gtest/gtest.h>

#include "backend/presets.hpp"
#include "backend/topology.hpp"
#include "common/error.hpp"
#include "pulsesim/simulator.hpp"

using namespace hgp;
using backend::CouplingMap;
using backend::FakeBackend;

TEST(Topology, HeavyHex27Shape) {
  const CouplingMap m = backend::heavy_hex_27();
  EXPECT_EQ(m.num_qubits(), 27u);
  EXPECT_EQ(m.edges().size(), 28u);
  EXPECT_TRUE(m.connected(0, 1));
  EXPECT_FALSE(m.connected(0, 2));
  // Distances: symmetric, triangle inequality spot checks.
  EXPECT_EQ(m.distance(0, 0), 0u);
  EXPECT_EQ(m.distance(0, 1), 1u);
  EXPECT_EQ(m.distance(0, 2), 2u);
  EXPECT_EQ(m.distance(2, 0), 2u);
  EXPECT_LE(m.distance(0, 26), m.distance(0, 12) + m.distance(12, 26));
}

TEST(Topology, Falcon16Shape) {
  const CouplingMap m = backend::falcon_16();
  EXPECT_EQ(m.num_qubits(), 16u);
  EXPECT_EQ(m.edges().size(), 16u);
}

TEST(Topology, LineDistances) {
  const CouplingMap m = backend::line(5);
  EXPECT_EQ(m.distance(0, 4), 4u);
  EXPECT_EQ(m.neighbors(2).size(), 2u);
}

TEST(Presets, TableOneParameters) {
  const FakeBackend auckland = backend::make_auckland();
  EXPECT_EQ(auckland.num_qubits(), 27u);
  EXPECT_DOUBLE_EQ(auckland.info().cx_error, 1.164e-2);
  EXPECT_DOUBLE_EQ(auckland.info().readout_error, 0.011);
  EXPECT_DOUBLE_EQ(auckland.info().t1_us, 166.220);

  const FakeBackend guadalupe = backend::make_guadalupe();
  EXPECT_EQ(guadalupe.num_qubits(), 16u);
  EXPECT_DOUBLE_EQ(guadalupe.info().readout_ns, 7111.111);

  EXPECT_EQ(backend::make_backend("ibmq_toronto").name(), "ibmq_toronto");
  EXPECT_THROW(backend::make_backend("ibmq_nowhere"), Error);
}

TEST(Presets, SeededVariationIsDeterministic) {
  const FakeBackend a = backend::make_toronto();
  const FakeBackend b = backend::make_toronto();
  for (std::size_t q = 0; q < 27; ++q) {
    EXPECT_DOUBLE_EQ(a.noise_model().qubits[q].freq_drift_ghz,
                     b.noise_model().qubits[q].freq_drift_ghz);
    EXPECT_DOUBLE_EQ(a.calibrations().qubit(q).drive_rate_ghz,
                     b.calibrations().qubit(q).drive_rate_ghz);
  }
}

TEST(Presets, NoiseDerivedFromTableOne) {
  const FakeBackend t = backend::make_toronto();
  // In-circuit 2q error = 1.5x the Table I RB number (crosstalk inflation).
  EXPECT_DOUBLE_EQ(t.noise_model().dep_per_2q_block, 1.5 * 9.677e-3);
  EXPECT_DOUBLE_EQ(t.noise_model().dep_per_1q_pulse, 2.774e-4);
  for (std::size_t q = 0; q < t.num_qubits(); ++q) {
    const auto& qn = t.noise_model().qubits[q];
    EXPECT_GT(qn.t1_us, 50.0);
    EXPECT_LE(qn.t2_us, 2.0 * qn.t1_us + 1e-9);
    EXPECT_NEAR(qn.readout.p1_given_0, 0.8 * 0.031, 1e-12);
    EXPECT_NEAR(qn.readout.p0_given_1, 1.2 * 0.031, 1e-12);
  }
}

TEST(Backend, GateDurations) {
  const FakeBackend t = backend::make_toronto();
  const int sx = t.gate_duration_dt(qc::Op{qc::GateKind::SX, {0}, {}});
  EXPECT_EQ(sx, 160);
  EXPECT_EQ(t.gate_duration_dt(qc::Op{qc::GateKind::RZ, {0}, {qc::Param::constant(1.0)}}), 0);
  const int cx = t.gate_duration_dt(qc::Op{qc::GateKind::CX, {0, 1}, {}});
  EXPECT_EQ(cx, 2 * 704 + 3 * 160);
  // RX lowers to two SX pulses: the paper's 320dt gate-level mixer cost.
  EXPECT_EQ(t.gate_duration_dt(qc::Op{qc::GateKind::RX, {0}, {qc::Param::constant(0.5)}}),
            320);
  // Readout length from Table I, rounded to the granularity.
  EXPECT_NEAR(t.readout_duration_dt() * pulse::kDtNs, 5962.667, 16 * pulse::kDtNs);
}

TEST(Backend, SubsystemWiring) {
  const FakeBackend t = backend::make_toronto();
  const auto sub = t.subsystem({0, 1}, /*with_coherent_noise=*/false);
  EXPECT_EQ(sub.system.num_qubits(), 2u);
  // Drive channels remapped, CR channels in both directions.
  EXPECT_TRUE(sub.remap.count(pulse::Channel::drive(0)) == 1);
  EXPECT_TRUE(sub.remap.count(pulse::Channel::drive(1)) == 1);
  int cr_channels = 0;
  for (const auto& [phys, local] : sub.remap)
    if (phys.type == pulse::ChannelType::Control) ++cr_channels;
  EXPECT_EQ(cr_channels, 2);
}

TEST(Backend, SubsystemCxIsAccurateWithoutNoise) {
  const FakeBackend t = backend::make_toronto();
  auto sub = t.subsystem({1, 4}, false);
  const pulse::Schedule phys = t.calibrations().cx(1, 4);
  const pulse::Schedule local = FakeBackend::remap_schedule(phys, sub.remap);
  const psim::PulseSimulator sim(std::move(sub.system));
  la::CMat u = sim.unitary(local);
  // Undo the virtual-Z frame on the control.
  const double shift = pulse::CalibrationSet::drive_phase_shift(phys, 1);
  u = la::kron(la::CMat::identity(2), qc::gate_matrix(qc::GateKind::RZ, {-shift})) * u;
  EXPECT_TRUE(u.is_unitary(1e-6));
  // |<CX, U>| / 4 close to 1 (global-phase-insensitive fidelity).
  const la::CMat cx = qc::gate_matrix(qc::GateKind::CX);
  const std::complex<double> tr = (cx.dagger() * u).trace();
  EXPECT_GT(std::abs(tr) / 4.0, 0.999);
}

TEST(Backend, ZzCrosstalkSymmetricLookup) {
  const FakeBackend t = backend::make_toronto();
  EXPECT_DOUBLE_EQ(t.zz_crosstalk(0, 1), t.zz_crosstalk(1, 0));
  EXPECT_DOUBLE_EQ(t.zz_crosstalk(0, 26), 0.0);  // uncoupled pair
}
