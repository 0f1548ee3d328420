#include <gtest/gtest.h>

#include <cmath>

#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "linalg/pauli.hpp"
#include "linalg/vec.hpp"
#include "sim/statevector.hpp"

using namespace hgp;
using qc::Circuit;
using qc::GateKind;
using sim::Statevector;

TEST(Statevector, InitialState) {
  Statevector sv(2);
  EXPECT_EQ(sv.data().size(), 4u);
  EXPECT_EQ(sv.data()[0], la::cxd(1, 0));
  EXPECT_NEAR(la::norm(sv.data()), 1.0, 1e-15);
}

TEST(Statevector, BellState) {
  Statevector sv(2);
  Circuit c(2);
  c.h(0).cx(0, 1);
  sv.run(c);
  EXPECT_NEAR(std::norm(sv.data()[0]), 0.5, 1e-12);
  EXPECT_NEAR(std::norm(sv.data()[3]), 0.5, 1e-12);
  EXPECT_NEAR(std::norm(sv.data()[1]) + std::norm(sv.data()[2]), 0.0, 1e-12);
}

TEST(Statevector, GhzOnFiveQubits) {
  Statevector sv(5);
  Circuit c(5);
  c.h(0);
  for (std::size_t q = 0; q + 1 < 5; ++q) c.cx(q, q + 1);
  sv.run(c);
  EXPECT_NEAR(std::norm(sv.data()[0]), 0.5, 1e-12);
  EXPECT_NEAR(std::norm(sv.data()[31]), 0.5, 1e-12);
}

TEST(Statevector, CxDirectionMatters) {
  // |10> (qubit0 = 1): CX(0 -> 1) flips qubit 1; CX(1 -> 0) does nothing.
  Statevector sv(2);
  Circuit flip(2);
  flip.x(0).cx(0, 1);
  sv.run(flip);
  EXPECT_NEAR(std::norm(sv.data()[0b11]), 1.0, 1e-12);

  Statevector sv2(2);
  Circuit noflip(2);
  noflip.x(0).cx(1, 0);
  sv2.run(noflip);
  EXPECT_NEAR(std::norm(sv2.data()[0b01]), 1.0, 1e-12);
}

TEST(Statevector, GenericThreeQubitPathMatchesTwoQubitFastPath) {
  Statevector a(3), b(3);
  Circuit prep(3);
  prep.h(0).ry(1, 0.7).cx(0, 2).rz(2, -0.3);
  a.run(prep);
  b.run(prep);

  // kron(cx, I) listed on {0,1,2} puts cx's control on sub-index bit 1 (= q1)
  // and target on bit 2 (= q2): identical to the 2-qubit fast path on {1,2}.
  const auto cx = qc::gate_matrix(GateKind::CX);
  b.apply_matrix(cx, {1, 2});
  a.apply_matrix(la::kron(cx, la::CMat::identity(2)), {0, 1, 2});
  EXPECT_LT(la::max_abs_diff(a.data(), b.data()), 1e-12);
}

TEST(Statevector, GenericPathScatteredQubitsMatchesFactoredApplication) {
  // The generic k-qubit path's block enumeration must hit exactly the
  // indices with all target bits clear even when the targets are scattered
  // (and listed out of ascending order): A⊗B⊗C on {5, 0, 3} equals the
  // factors applied separately (C on sub-bit 0 = qubit 5, per the
  // first-listed-is-least-significant convention).
  Statevector a(6), b(6);
  Circuit prep(6);
  prep.h(0).ry(3, 0.7).cx(0, 5).rz(5, -0.3).ry(1, 0.4).cx(3, 4);
  a.run(prep);
  b.run(prep);

  const auto sx = qc::gate_matrix(GateKind::SX);
  const auto rz = qc::gate_matrix(GateKind::RZ, {0.9});
  const auto ry = qc::gate_matrix(GateKind::RY, {1.3});
  a.apply_matrix(la::kron(ry, la::kron(rz, sx)), {5, 0, 3});
  b.apply_matrix(sx, {5});
  b.apply_matrix(rz, {0});
  b.apply_matrix(ry, {3});
  EXPECT_LT(la::max_abs_diff(a.data(), b.data()), 1e-12);
}

TEST(Statevector, SamplingMatchesProbabilities) {
  Statevector sv(2);
  Circuit c(2);
  c.h(0).h(1);
  sv.run(c);
  Rng rng(99);
  const sim::Counts counts = sv.sample(40000, rng);
  for (const auto& [bits, n] : counts) EXPECT_NEAR(double(n) / 40000.0, 0.25, 0.02) << bits;
}

TEST(Statevector, SamplingDeterministicUnderSeed) {
  Statevector sv(3);
  Circuit c(3);
  c.h(0).cx(0, 1).ry(2, 1.2);
  sv.run(c);
  Rng r1(5), r2(5);
  EXPECT_EQ(sv.sample(500, r1), sv.sample(500, r2));
}

TEST(Statevector, ExpectationMatchesAnalytic) {
  Statevector sv(2);
  Circuit c(2);
  c.h(0).cx(0, 1);  // Bell
  sv.run(c);
  la::PauliSum obs(2);
  obs.add(1.0, "ZZ");
  obs.add(0.5, "XX");
  EXPECT_NEAR(sv.expectation(obs), 1.5, 1e-12);
}

TEST(Statevector, RotationExpectationSweep) {
  // <Z> after RY(t) = cos(t); <X> = sin(t).
  for (double t : {0.0, 0.4, 1.1, 2.2, 3.0}) {
    Statevector sv(1);
    Circuit c(1);
    c.ry(0, t);
    sv.run(c);
    la::PauliSum z(1), x(1);
    z.add(1.0, "Z");
    x.add(1.0, "X");
    EXPECT_NEAR(sv.expectation(z), std::cos(t), 1e-12);
    EXPECT_NEAR(sv.expectation(x), std::sin(t), 1e-12);
  }
}

TEST(Statevector, RzzPhasesOnBasisStates) {
  for (std::uint64_t basis : {0b00ull, 0b01ull, 0b10ull, 0b11ull}) {
    Statevector sv(2);
    Circuit prep(2);
    if (basis & 1) prep.x(0);
    if (basis & 2) prep.x(1);
    prep.rzz(0, 1, 0.8);
    sv.run(prep);
    const double zz = ((basis & 1) != 0) == ((basis & 2) != 0) ? 1.0 : -1.0;
    EXPECT_NEAR(std::arg(sv.data()[basis]), -0.4 * zz, 1e-12);
  }
}
