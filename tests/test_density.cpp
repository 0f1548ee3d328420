// Density-matrix simulator tests: every kernel bit for bit against the
// 2n-qubit statevector walk it replaced, pure-state parity with the
// statevector, the exact channels against their analytic values and against
// an explicit Kraus-sum lift, and the qubit-list check all three states
// share. The trajectory engine is compared with this one channel by channel
// in test_engine.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/pauli.hpp"
#include "noise/channels.hpp"
#include "sim/batched_statevector.hpp"
#include "sim/density.hpp"
#include "sim/kernel_structure.hpp"
#include "sim/state.hpp"
#include "sim/statevector.hpp"

using namespace hgp;
using sim::DensityMatrix;
using sim::Statevector;

namespace {

// ----- what the tests read off rho, over entry() and probabilities() -----

/// One circuit op on rho: its gate matrix through apply_matrix, with the
/// checks of Statevector's circuit front end.
void apply_op(DensityMatrix& dm, const qc::Op& op) {
  if (op.kind == qc::GateKind::Barrier || op.kind == qc::GateKind::I ||
      op.kind == qc::GateKind::Delay)
    return;
  HGP_REQUIRE(op.kind != qc::GateKind::Measure, "apply_op: use sample() for measurement");
  dm.apply_matrix(qc::gate_matrix(op.kind, op.constant_params()), op.qubits);
}

void run(DensityMatrix& dm, const qc::Circuit& circuit) {
  HGP_REQUIRE(circuit.num_qubits() == dm.num_qubits(), "run: width mismatch");
  for (const qc::Op& op : circuit.ops()) apply_op(dm, op);
}

/// Tr(rho) — 1 for any CPTP evolution.
double trace(const DensityMatrix& dm) {
  double t = 0.0;
  for (const double p : dm.probabilities()) t += p;
  return t;
}

/// Tr(rho²) = Σ |rho_ij|² for Hermitian rho — 1 for pure states.
double purity(const DensityMatrix& dm) {
  const std::uint64_t dim = std::uint64_t{1} << dm.num_qubits();
  double s = 0.0;
  for (std::uint64_t r = 0; r < dim; ++r)
    for (std::uint64_t c = 0; c < dim; ++c) s += std::norm(dm.entry(r, c));
  return s;
}

/// Probability that qubit q reads 1, summed over a state's probabilities().
double prob_one(const std::vector<double>& p, std::size_t q) {
  double one = 0.0;
  for (std::uint64_t r = 0; r < p.size(); ++r)
    if ((r >> q) & 1) one += p[r];
  return one;
}

/// Tr(rho O) = Σ_rc rho(r, c) O(c, r).
double expectation(const DensityMatrix& dm, const la::PauliSum& obs) {
  const la::CMat o = obs.matrix();
  la::cxd tr{0.0, 0.0};
  for (std::uint64_t r = 0; r < o.rows(); ++r)
    for (std::uint64_t c = 0; c < o.cols(); ++c) tr += dm.entry(r, c) * o(c, r);
  return tr.real();
}

qc::Circuit mixed_gate_circuit() {
  qc::Circuit c(4);
  c.h(0).cx(0, 1).ry(2, 0.8).rzz(1, 2, -0.6).sx(3).rz(3, 0.9).cz(2, 3).swap(0, 3).t(1);
  return c;
}

// ----- the reference walk: rho as a 2n-qubit Statevector -----

/// rho of n qubits as a Statevector of 2n qubits with entry (r, c) at
/// r | c << n, every kernel written on its interleaved complex entries: a
/// unitary is U on the row qubits, then conj(U) on the column qubits. This is
/// the layout the split-plane DensityMatrix replaced, kept as the reference
/// its kernels must match bit for bit.
class LiftedRho {
 public:
  explicit LiftedRho(std::size_t n) : n_(n), vec_(2 * n) {}

  la::cxd entry(std::uint64_t row, std::uint64_t col) const {
    return vec_.data()[row | col << n_];
  }

  void apply_matrix(const la::CMat& u, const std::vector<std::size_t>& qubits) {
    vec_.apply_matrix(u, qubits);
    vec_.apply_matrix(u.conj(), columns(qubits));
  }

  void apply_depolarizing(const std::vector<std::size_t>& qubits, double p) {
    if (p == 0.0) return;
    const std::size_t k = qubits.size();
    const std::size_t d = std::size_t{1} << k;
    const double d2 = static_cast<double>(d * d);
    const double keep = 1.0 - p * d2 / (d2 - 1.0);
    const double mix = p * static_cast<double>(d) / (d2 - 1.0);
    std::vector<std::size_t> bits(qubits);
    for (std::size_t c : columns(qubits)) bits.push_back(c);
    std::vector<std::uint64_t> off(d * d);
    sim::detail::sub_offsets(bits, off.data());
    la::CVec& v = vec_.data();
    sim::detail::for_each_base(v.size(), bits, [&](std::uint64_t i) {
      la::cxd tr{0.0, 0.0};
      for (std::size_t s = 0; s < d; ++s) tr += v[i | off[s * (d + 1)]];
      for (const std::uint64_t o : off) v[i | o] *= keep;
      for (std::size_t s = 0; s < d; ++s) v[i | off[s * (d + 1)]] += mix * tr;
    });
  }

  void apply_amplitude_damping(std::size_t q, double gamma) {
    const std::uint64_t row = std::uint64_t{1} << q, col = row << n_;
    const double keep = std::sqrt(1.0 - gamma);
    la::CVec& v = vec_.data();
    sim::detail::for_each_quad_base(v.size(), row, col, [&](std::uint64_t i) {
      const la::cxd excited = v[i | row | col];
      v[i] += gamma * excited;
      v[i | row] *= keep;
      v[i | col] *= keep;
      v[i | row | col] = (1.0 - gamma) * excited;
    });
  }

  void apply_phase_damping(std::size_t q, double p_z) {
    const std::uint64_t row = std::uint64_t{1} << q, col = row << n_;
    const double keep = 1.0 - 2.0 * p_z;
    la::CVec& v = vec_.data();
    sim::detail::for_each_quad_base(v.size(), row, col, [&](std::uint64_t i) {
      v[i | row] *= keep;
      v[i | col] *= keep;
    });
  }

  void apply_thermal_relaxation(std::size_t q, double t1_us, double t2_us, double duration_ns) {
    const noise::RelaxationConstants rc = noise::relaxation_constants(t1_us, t2_us, duration_ns);
    if (duration_ns <= 0.0) return;
    apply_amplitude_damping(q, rc.gamma);
    if (rc.dephase) apply_phase_damping(q, rc.p_z);
  }

 private:
  std::vector<std::size_t> columns(const std::vector<std::size_t>& qubits) const {
    std::vector<std::size_t> out;
    for (std::size_t q : qubits) out.push_back(q + n_);
    return out;
  }

  std::size_t n_;
  Statevector vec_;
};

}  // namespace

TEST(Density, EveryKernelBitIdenticalToStatevectorLift) {
  // Every kernel on a generic mixed state, on unsorted qubit lists, against
  // the 2n-qubit walk: each entry's real and imaginary parts must compare
  // equal after every step. n = 6 and 7 are the executor's sizes (the
  // square transpose runs full 8 x 8 tiles there), n = 1 and 3 the edges.
  const la::CMat shrink{{0.5, 0.2}, {0.1, 0.7}};
  const la::CMat u2 = qc::gate_matrix(qc::GateKind::CX) *
                      la::kron(qc::gate_matrix(qc::GateKind::H),
                               qc::gate_matrix(qc::GateKind::RY, {0.7}));
  const la::CMat diag2 = qc::gate_matrix(qc::GateKind::RZZ, {0.45});
  const la::CMat cx = qc::gate_matrix(qc::GateKind::CX);
  for (const std::size_t n : {1u, 3u, 6u, 7u}) {
    DensityMatrix dm(n);
    LiftedRho ref(n);
    const std::uint64_t dim = std::uint64_t{1} << n;
    auto step = [&](const std::string& name, const auto& apply) {
      apply(dm);
      apply(ref);
      std::size_t mismatches = 0;
      for (std::uint64_t r = 0; r < dim; ++r)
        for (std::uint64_t c = 0; c < dim; ++c) {
          const la::cxd a = dm.entry(r, c), b = ref.entry(r, c);
          if (!(a.real() == b.real() && a.imag() == b.imag())) ++mismatches;
        }
      EXPECT_EQ(mismatches, 0u) << name << " at n = " << n;
    };
    // A dense state first: a distinct 1q rotation on every qubit.
    for (std::size_t q = 0; q < n; ++q) {
      const la::CMat u = qc::gate_matrix(qc::GateKind::U3, {0.3 + 0.4 * q, 0.2 * q - 0.5, 0.9});
      step("dense 1q", [&](auto& s) { s.apply_matrix(u, {q}); });
    }
    for (std::size_t q = 0; q < n; ++q) {
      const double t = 0.01 + 0.02 * q;
      step("thermal relaxation", [&](auto& s) { s.apply_thermal_relaxation(q, 90.0, 70.0, 400.0); });
      step("thermal relaxation, no dephasing",
           [&](auto& s) { s.apply_thermal_relaxation(q, 60.0, 120.0, 300.0); });
      step("amplitude damping", [&](auto& s) { s.apply_amplitude_damping(q, t); });
      step("phase damping", [&](auto& s) { s.apply_phase_damping(q, t); });
      step("1q depolarizing", [&](auto& s) { s.apply_depolarizing({q}, t); });
      step("diagonal 1q",
           [&](auto& s) { s.apply_matrix(qc::gate_matrix(qc::GateKind::RZ, {0.3 - t}), {q}); });
      step("anti-diagonal 1q",
           [&](auto& s) { s.apply_matrix(qc::gate_matrix(qc::GateKind::Y), {q}); });
      step("non-unitary", [&](auto& s) { s.apply_matrix(shrink, {q}); });
    }
    if (n < 3) continue;
    for (const std::vector<std::size_t>& pair :
         {std::vector<std::size_t>{n - 1, 0}, {1, n - 1}, {n - 1, n / 2}}) {
      step("dense 2q", [&](auto& s) { s.apply_matrix(u2, pair); });
      step("diagonal 2q", [&](auto& s) { s.apply_matrix(diag2, pair); });
      step("CX permutation", [&](auto& s) { s.apply_matrix(cx, pair); });
      step("2q depolarizing", [&](auto& s) { s.apply_depolarizing(pair, 0.07); });
    }
    const la::CMat u3 = la::kron(u2, qc::gate_matrix(qc::GateKind::SX));
    step("dense 3q", [&](auto& s) { s.apply_matrix(u3, {n - 1, 0, 1}); });
  }
}

TEST(Density, PureStateEvolutionMatchesStatevector) {
  qc::Circuit c(3);
  c.h(0).cx(0, 1).ry(2, 0.8).rzz(1, 2, -0.6).sx(0);
  Statevector sv(3);
  sv.run(c);
  DensityMatrix dm(3);
  run(dm, c);
  const auto pv = sv.probabilities();
  const auto pd = dm.probabilities();
  for (std::size_t i = 0; i < pv.size(); ++i) EXPECT_NEAR(pv[i], pd[i], 1e-12);
  EXPECT_NEAR(purity(dm), 1.0, 1e-12);
  EXPECT_NEAR(trace(dm), 1.0, 1e-12);
}

TEST(Density, DepolarizingReducesPurity) {
  DensityMatrix dm(1);
  dm.apply_matrix(qc::gate_matrix(qc::GateKind::H), {0});
  EXPECT_NEAR(purity(dm), 1.0, 1e-12);
  dm.apply_depolarizing({0}, 0.75);  // full depolarizing: maximally mixed
  EXPECT_NEAR(purity(dm), 0.5, 1e-12);
  EXPECT_NEAR(trace(dm), 1.0, 1e-12);
}

TEST(Density, TwoQubitDepolarizingIsTracePreserving) {
  DensityMatrix dm(2);
  dm.apply_matrix(qc::gate_matrix(qc::GateKind::H), {0});
  dm.apply_matrix(qc::gate_matrix(qc::GateKind::CX), {0, 1});
  dm.apply_depolarizing({0, 1}, 0.3);
  EXPECT_NEAR(trace(dm), 1.0, 1e-12);
  EXPECT_LT(purity(dm), 1.0);
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
  EXPECT_NEAR(expectation(dm, x), std::exp(-40.0 / 80.0), 1e-9);
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
  EXPECT_NEAR(trace(dm), 1.0, 0.0);  // nothing applied
}

TEST(Density, SampleMatchesProbabilities) {
  DensityMatrix dm(2);
  dm.apply_matrix(qc::gate_matrix(qc::GateKind::H), {0});
  dm.apply_matrix(qc::gate_matrix(qc::GateKind::H), {1});
  dm.apply_depolarizing({0}, 0.2);  // mixing must not break sampling
  Rng rng(77);
  const sim::Counts counts = sim::sample_from_probabilities(dm.probabilities(), 40000, rng);
  for (const auto& [bits, n] : counts)
    EXPECT_NEAR(static_cast<double>(n) / 40000.0, 0.25, 0.02) << bits;
}

TEST(BackendParity, NoiselessProbabilitiesAgree) {
  const qc::Circuit c = mixed_gate_circuit();
  Statevector sv(4);
  DensityMatrix dm(4);
  sv.run(c);
  run(dm, c);
  const auto pv = sv.probabilities();
  const auto pd = dm.probabilities();
  ASSERT_EQ(pv.size(), pd.size());
  for (std::size_t i = 0; i < pv.size(); ++i) EXPECT_NEAR(pv[i], pd[i], 1e-9) << i;
  for (std::size_t q = 0; q < 4; ++q)
    EXPECT_NEAR(prob_one(pv, q), prob_one(pd, q), 1e-9) << q;
}

TEST(BackendParity, NoiselessPauliExpectationsAgree) {
  const qc::Circuit c = mixed_gate_circuit();
  Statevector sv(4);
  DensityMatrix dm(4);
  sv.run(c);
  run(dm, c);
  la::PauliSum obs(4);
  obs.add(1.0, "ZZII");
  obs.add(0.7, "XIXI");
  obs.add(-0.4, "IYZX");
  obs.add(0.2, "ZXYZ");
  EXPECT_NEAR(sv.expectation(obs), expectation(dm, obs), 1e-9);
}

TEST(BackendParity, SamplingAgreesUnderSharedSeed) {
  // Same probabilities + same inverse-CDF sampler + same seed = identical
  // counts across the two states.
  qc::Circuit c(3);
  c.h(0).cx(0, 1).ry(2, 1.1);
  Statevector sv(3);
  DensityMatrix dm(3);
  sv.run(c);
  run(dm, c);
  Rng r1(12), r2(12);
  EXPECT_EQ(sv.sample(2000, r1), sim::sample_from_probabilities(dm.probabilities(), 2000, r2));
}

TEST(CircuitState, BothStatesRejectMeasureAndWidthMismatch) {
  const qc::Op measure{qc::GateKind::Measure, {0}, {}};
  Statevector sv(2);
  DensityMatrix dm(2);
  EXPECT_THROW(sv.apply_op(measure), Error);
  EXPECT_THROW(apply_op(dm, measure), Error);
  EXPECT_THROW(sv.run(qc::Circuit(3)), Error);
  EXPECT_THROW(run(dm, qc::Circuit(3)), Error);
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
  // |a><a|: an operator whose first column is a takes |0><0| there.
  la::CMat prepare(8, 8);
  for (std::size_t i = 0; i < 8; ++i) prepare(i, 0) = amps[i];
  DensityMatrix mixed(3);
  mixed.apply_matrix(prepare, {0, 1, 2});
  mixed.apply_amplitude_damping(1, 0.3);
  const la::CMat rho = dense(mixed);
  ASSERT_LT(purity(mixed), 1.0 - 1e-3);

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
      // A lone non-unitary operator leaves rho un-normalized, and the trace
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
    EXPECT_NEAR(trace(dm), expected.trace().real(), 1e-12) << c.name;
  }
}
