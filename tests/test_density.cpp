// Density-matrix simulator tests: pure-state parity with the statevector,
// the exact channels against their analytic values and against an explicit
// Kraus-sum lift, and the qubit-list check all three states share. The
// trajectory engine is compared with this one channel by channel in
// test_engine.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/error.hpp"
#include "sim/batched_statevector.hpp"
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

TEST(Density, LiftRespectsQubitOrder) {
  // CX with control = qubit 1, target = qubit 0 on |10> (qubit1 = 1): flips
  // qubit 0.
  DensityMatrix dm(2);
  dm.apply_matrix(qc::gate_matrix(qc::GateKind::X), {1});
  dm.apply_matrix(qc::gate_matrix(qc::GateKind::CX), {1, 0});
  EXPECT_NEAR(dm.probabilities()[0b11], 1.0, 1e-12);
}

TEST(Density, RejectsBadRegistersAndQubitLists) {
  EXPECT_THROW(DensityMatrix(DensityMatrix::kMaxQubits + 1), Error);
  DensityMatrix dm(2);
  const la::CMat h = qc::gate_matrix(qc::GateKind::H);
  EXPECT_THROW(dm.apply_matrix(h, {2}), Error);
  EXPECT_THROW(dm.apply_matrix(qc::gate_matrix(qc::GateKind::CX), {1, 1}), Error);
  EXPECT_THROW(dm.apply_depolarizing({0, 0}, 0.1), Error);
  EXPECT_THROW(dm.apply_depolarizing({3}, 0.1), Error);
  EXPECT_THROW(dm.apply_amplitude_damping(2, 0.1), Error);
  EXPECT_THROW(dm.apply_phase_damping(2, 0.1), Error);
  EXPECT_NEAR(dm.trace(), 1.0, 0.0);  // nothing applied
}

// The statevectors run the same range-and-distinct check as the density
// matrix: a repeated qubit would alias the block walk's amplitudes and apply
// a wrong operator instead of failing.
TEST(Statevector, RejectsRepeatedAndOutOfRangeQubits) {
  Statevector sv(3);
  const la::CMat cx = qc::gate_matrix(qc::GateKind::CX);
  EXPECT_THROW(sv.apply_matrix(cx, {1, 1}), Error);
  EXPECT_THROW(sv.apply_matrix(la::CMat::identity(8), {0, 2, 0}), Error);
  EXPECT_THROW(sv.apply_matrix(cx, {0, 3}), Error);
  EXPECT_THROW(sv.apply_matrix(qc::gate_matrix(qc::GateKind::H), {3}), Error);
  EXPECT_EQ(sv.probabilities()[0], 1.0);  // nothing applied
}

TEST(BatchedStatevector, RejectsRepeatedAndOutOfRangeQubits) {
  sim::BatchedStatevector bsv(3, 4);
  const la::CMat cx = qc::gate_matrix(qc::GateKind::CX);
  const std::vector<const la::CMat*> per_lane(bsv.lanes(), &cx);
  EXPECT_THROW(bsv.apply_matrix(cx, {0, 0}), Error);
  EXPECT_THROW(bsv.apply_matrix(cx, {3, 0}), Error);
  EXPECT_THROW(bsv.apply_matrix_per_lane(per_lane, {2, 2}), Error);
  EXPECT_THROW(bsv.apply_matrix_per_lane(per_lane, {0, 3}), Error);
  EXPECT_THROW(bsv.apply_matrix_one_lane(cx, {1, 1}, 2), Error);
  EXPECT_THROW(bsv.apply_matrix_one_lane(cx, {1, 3}, 2), Error);
  for (std::size_t lane = 0; lane < bsv.lanes(); ++lane)
    EXPECT_EQ(bsv.amplitude(0, lane), la::cxd(1.0, 0.0));  // nothing applied
}

namespace {

/// The textbook reference every channel is checked against:
/// rho' = Σ_k L(K_k) rho L(K_k)†, with each Kraus operator lifted explicitly
/// onto the register (qubits[j] carries sub-index bit j).
la::CMat kraus_lift(const la::CMat& rho, const std::vector<la::CMat>& kraus,
                    const std::vector<std::size_t>& qubits) {
  const std::size_t dim = rho.rows();
  std::uint64_t mask = 0;
  for (std::size_t q : qubits) mask |= std::uint64_t{1} << q;
  auto sub = [&](std::uint64_t idx) {
    std::uint64_t s = 0;
    for (std::size_t j = 0; j < qubits.size(); ++j)
      if ((idx >> qubits[j]) & 1) s |= std::uint64_t{1} << j;
    return s;
  };
  la::CMat out(dim, dim);
  for (const la::CMat& op : kraus) {
    la::CMat full(dim, dim);
    for (std::uint64_t r = 0; r < dim; ++r)
      for (std::uint64_t c = 0; c < dim; ++c)
        if ((r & ~mask) == (c & ~mask)) full(r, c) = op(sub(r), sub(c));
    out += full * rho * full.dagger();
  }
  return out;
}

/// The depolarizing Kraus set: sqrt(1-p) I and sqrt(p/(4^k-1)) P for every
/// other Pauli product P on k qubits.
std::vector<la::CMat> depolarizing_kraus(std::size_t k, double p) {
  const int paulis = 1 << (2 * static_cast<int>(k));
  std::vector<la::CMat> kraus;
  for (int pick = 0; pick < paulis; ++pick) {
    la::CMat op = la::CMat::identity(1);
    for (std::size_t j = k; j-- > 0;)
      op = la::kron(op, la::pauli_matrix(static_cast<la::Pauli>((pick >> (2 * j)) & 3)));
    const double weight = pick == 0 ? 1.0 - p : p / (paulis - 1);
    kraus.push_back(op * la::cxd{std::sqrt(weight), 0.0});
  }
  return kraus;
}

la::CMat dense(const DensityMatrix& dm) {
  const std::size_t dim = std::size_t{1} << dm.num_qubits();
  la::CMat rho(dim, dim);
  for (std::uint64_t r = 0; r < dim; ++r)
    for (std::uint64_t c = 0; c < dim; ++c) rho(r, c) = dm.entry(r, c);
  return rho;
}

}  // namespace

TEST(Density, EveryChannelMatchesExplicitKrausLift) {
  // Each channel, a dense 2q unitary and a non-unitary operator on a
  // genuinely mixed 3-qubit state, against the explicit Kraus-sum lift. The
  // unsorted qubit order {2, 0} exercises the sub-index spreading onto the
  // row and column bits.
  la::CVec amps = {{0.1, 0.2}, {0.3, -0.1}, {0.0, 0.4}, {0.2, 0.0},
                   {-0.3, 0.1}, {0.1, 0.1}, {0.4, -0.2}, {0.2, 0.3}};
  double norm2 = 0.0;
  for (const la::cxd& a : amps) norm2 += std::norm(a);
  for (la::cxd& a : amps) a /= std::sqrt(norm2);
  DensityMatrix mixed = DensityMatrix::from_amplitudes(amps);
  mixed.apply_amplitude_damping(1, 0.3);
  const la::CMat rho = dense(mixed);
  ASSERT_LT(mixed.purity(), 1.0 - 1e-3);

  const double gamma = 0.3, p_z = 0.15;
  const la::CMat shrink{{0.5, 0.2}, {0.1, 0.7}};
  const la::CMat u2 = qc::gate_matrix(qc::GateKind::CX) *
                      la::kron(qc::gate_matrix(qc::GateKind::H),
                               qc::gate_matrix(qc::GateKind::RY, {0.7}));
  struct Case {
    const char* name;
    std::function<void(DensityMatrix&)> apply;
    std::vector<la::CMat> kraus;
    std::vector<std::size_t> qubits;
  };
  const std::vector<Case> cases = {
      {"amplitude damping", [&](DensityMatrix& dm) { dm.apply_amplitude_damping(2, gamma); },
       {la::CMat{{1, 0}, {0, std::sqrt(1.0 - gamma)}}, la::CMat{{0, std::sqrt(gamma)}, {0, 0}}},
       {2}},
      {"phase damping", [&](DensityMatrix& dm) { dm.apply_phase_damping(0, p_z); },
       {la::CMat::identity(2) * la::cxd{std::sqrt(1.0 - p_z), 0.0},
        la::pauli_matrix(la::Pauli::Z) * la::cxd{std::sqrt(p_z), 0.0}},
       {0}},
      {"1q depolarizing", [&](DensityMatrix& dm) { dm.apply_depolarizing({1}, 0.2); },
       depolarizing_kraus(1, 0.2), {1}},
      {"2q depolarizing", [&](DensityMatrix& dm) { dm.apply_depolarizing({2, 0}, 0.3); },
       depolarizing_kraus(2, 0.3), {2, 0}},
      {"2q unitary", [&](DensityMatrix& dm) { dm.apply_matrix(u2, {2, 0}); }, {u2}, {2, 0}},
      // A lone non-unitary operator leaves rho un-normalized, and trace()
      // shows it.
      {"non-unitary", [&](DensityMatrix& dm) { dm.apply_matrix(shrink, {1}); }, {shrink}, {1}},
  };
  for (const Case& c : cases) {
    DensityMatrix dm = mixed;
    c.apply(dm);
    const la::CMat expected = kraus_lift(rho, c.kraus, c.qubits);
    for (std::uint64_t r = 0; r < 8; ++r)
      for (std::uint64_t col = 0; col < 8; ++col)
        EXPECT_NEAR(std::abs(dm.entry(r, col) - expected(r, col)), 0.0, 1e-12)
            << c.name << " entry (" << r << "," << col << ")";
    EXPECT_NEAR(dm.trace(), expected.trace().real(), 1e-12) << c.name;
  }
}
