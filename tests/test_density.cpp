// Density-matrix simulator tests: pure-state parity with the statevector and
// the exact channels against their analytic values. The trajectory engine is
// compared with this one channel by channel in test_engine.cpp.
#include <gtest/gtest.h>

#include <cmath>

#include "circuit/circuit.hpp"
#include "sim/density.hpp"
#include "sim/statevector.hpp"

using namespace hgp;
using sim::DensityMatrix;
using sim::Statevector;

TEST(Density, PureStateEvolutionMatchesStatevector) {
  qc::Circuit c(3);
  c.h(0).cx(0, 1).ry(2, 0.8).rzz(1, 2, -0.6).sx(0);
  Statevector sv(3);
  sv.run(c);
  DensityMatrix dm(3);
  dm.run(c);
  const auto pv = sv.probabilities();
  const auto pd = dm.probabilities();
  for (std::size_t i = 0; i < pv.size(); ++i) EXPECT_NEAR(pv[i], pd[i], 1e-12);
  EXPECT_NEAR(dm.purity(), 1.0, 1e-12);
  EXPECT_NEAR(dm.trace(), 1.0, 1e-12);
}

TEST(Density, DepolarizingReducesPurity) {
  DensityMatrix dm(1);
  dm.apply_matrix(qc::gate_matrix(qc::GateKind::H), {0});
  EXPECT_NEAR(dm.purity(), 1.0, 1e-12);
  dm.apply_depolarizing({0}, 0.75);  // full depolarizing: maximally mixed
  EXPECT_NEAR(dm.purity(), 0.5, 1e-12);
  EXPECT_NEAR(dm.trace(), 1.0, 1e-12);
}

TEST(Density, TwoQubitDepolarizingIsTracePreserving) {
  DensityMatrix dm(2);
  dm.apply_matrix(qc::gate_matrix(qc::GateKind::H), {0});
  dm.apply_matrix(qc::gate_matrix(qc::GateKind::CX), {0, 1});
  dm.apply_depolarizing({0, 1}, 0.3);
  EXPECT_NEAR(dm.trace(), 1.0, 1e-12);
  EXPECT_LT(dm.purity(), 1.0);
}

TEST(Density, AmplitudeDampingAnalytic) {
  DensityMatrix dm(1);
  dm.apply_matrix(qc::gate_matrix(qc::GateKind::X), {0});
  dm.apply_amplitude_damping(0, 0.4);
  EXPECT_NEAR(dm.probabilities()[1], 0.6, 1e-12);
  EXPECT_NEAR(dm.probabilities()[0], 0.4, 1e-12);
}

TEST(Density, ThermalRelaxationCoherenceDecay) {
  DensityMatrix dm(1);
  dm.apply_matrix(qc::gate_matrix(qc::GateKind::H), {0});
  la::PauliSum x(1);
  x.add(1.0, "X");
  dm.apply_thermal_relaxation(0, 100.0, 80.0, 40000.0);
  EXPECT_NEAR(dm.expectation(x), std::exp(-40.0 / 80.0), 1e-9);
}

TEST(Density, KrausCompletenessGuard) {
  DensityMatrix dm(1);
  // A deliberately non-CPTP "channel" (single non-unitary Kraus op) breaks
  // the trace; the class exposes trace() so callers can assert CPTP-ness.
  dm.apply_kraus({la::CMat{{0.5, 0}, {0, 0.5}}}, {0});
  EXPECT_LT(dm.trace(), 1.0);
}

TEST(Density, LiftRespectsQubitOrder) {
  // CX with control = qubit 1, target = qubit 0 on |10> (qubit1 = 1): flips
  // qubit 0.
  DensityMatrix dm(2);
  dm.apply_matrix(qc::gate_matrix(qc::GateKind::X), {1});
  dm.apply_matrix(qc::gate_matrix(qc::GateKind::CX), {1, 0});
  EXPECT_NEAR(dm.probabilities()[0b11], 1.0, 1e-12);
}

TEST(Density, InPlaceKrausMatchesExplicitLift) {
  // The block-partitioned in-place channel application against the textbook
  // formulation rho' = Σ_k (K_k ⊗ I) rho (K_k ⊗ I)†, with the operator
  // lifted explicitly in the test. Unsorted qubit order {2, 0} exercises the
  // sub-index spreading.
  la::CVec amps = {{0.1, 0.2}, {0.3, -0.1}, {0.0, 0.4}, {0.2, 0.0},
                   {-0.3, 0.1}, {0.1, 0.1}, {0.4, -0.2}, {0.2, 0.3}};
  double norm2 = 0.0;
  for (const la::cxd& a : amps) norm2 += std::norm(a);
  for (la::cxd& a : amps) a /= std::sqrt(norm2);
  DensityMatrix dm = DensityMatrix::from_amplitudes(amps);
  dm.apply_amplitude_damping(1, 0.3);  // make it genuinely mixed
  const la::CMat rho_before = dm.data();

  // A two-branch (non-trivial, trace-preserving) Kraus pair on 2 qubits.
  const double p = 0.2;
  const la::CMat k0 = qc::gate_matrix(qc::GateKind::CX) * la::cxd{std::sqrt(1.0 - p), 0.0};
  const la::CMat k1 = la::kron(qc::gate_matrix(qc::GateKind::H),
                               qc::gate_matrix(qc::GateKind::X)) *
                      la::cxd{std::sqrt(p), 0.0};
  const std::vector<std::size_t> qubits = {2, 0};
  dm.apply_kraus({k0, k1}, qubits);

  auto lift = [&](const la::CMat& op) {
    la::CMat full(8, 8);
    std::uint64_t mask = 0;
    for (std::size_t q : qubits) mask |= std::uint64_t{1} << q;
    auto sub = [&](std::uint64_t idx) {
      std::uint64_t s = 0;
      for (std::size_t j = 0; j < qubits.size(); ++j)
        if ((idx >> qubits[j]) & 1) s |= std::uint64_t{1} << j;
      return s;
    };
    for (std::uint64_t r = 0; r < 8; ++r)
      for (std::uint64_t c = 0; c < 8; ++c)
        if ((r & ~mask) == (c & ~mask)) full(r, c) = op(sub(r), sub(c));
    return full;
  };
  const la::CMat f0 = lift(k0), f1 = lift(k1);
  const la::CMat expected =
      f0 * rho_before * f0.dagger() + f1 * rho_before * f1.dagger();

  for (std::uint64_t r = 0; r < 8; ++r)
    for (std::uint64_t c = 0; c < 8; ++c)
      EXPECT_NEAR(std::abs(dm.data()(r, c) - expected(r, c)), 0.0, 1e-12)
          << "entry (" << r << "," << c << ")";
  EXPECT_NEAR(dm.trace(), 1.0, 1e-12);
}
