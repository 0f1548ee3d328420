// The two states behind one circuit front end (sim::CircuitState): parity
// between the statevector and the density matrix on the same circuit, the
// shared sampler, and the statevector's gate-kernel paths.
#include <gtest/gtest.h>

#include <cmath>

#include "circuit/circuit.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/pauli.hpp"
#include "linalg/vec.hpp"
#include "sim/density.hpp"
#include "sim/state.hpp"
#include "sim/statevector.hpp"

using namespace hgp;
using sim::DensityMatrix;
using sim::Statevector;

namespace {

qc::Circuit mixed_gate_circuit() {
  qc::Circuit c(4);
  c.h(0).cx(0, 1).ry(2, 0.8).rzz(1, 2, -0.6).sx(3).rz(3, 0.9).cz(2, 3).swap(0, 3).t(1);
  return c;
}

}  // namespace

TEST(BackendParity, NoiselessProbabilitiesAgree) {
  const qc::Circuit c = mixed_gate_circuit();
  Statevector sv(4);
  DensityMatrix dm(4);
  sv.run(c);
  dm.run(c);
  const auto pv = sv.probabilities();
  const auto pd = dm.probabilities();
  ASSERT_EQ(pv.size(), pd.size());
  for (std::size_t i = 0; i < pv.size(); ++i) EXPECT_NEAR(pv[i], pd[i], 1e-9) << i;
  for (std::size_t q = 0; q < 4; ++q)
    EXPECT_NEAR(sv.prob_one(q), dm.prob_one(q), 1e-9) << q;
}

TEST(BackendParity, NoiselessPauliExpectationsAgree) {
  const qc::Circuit c = mixed_gate_circuit();
  Statevector sv(4);
  DensityMatrix dm(4);
  sv.run(c);
  dm.run(c);
  la::PauliSum obs(4);
  obs.add(1.0, "ZZII");
  obs.add(0.7, "XIXI");
  obs.add(-0.4, "IYZX");
  obs.add(0.2, "ZXYZ");
  EXPECT_NEAR(sv.expectation(obs), dm.expectation(obs), 1e-9);
}

TEST(BackendParity, SamplingAgreesUnderSharedSeed) {
  // Same probabilities + same inverse-CDF sampler + same seed = identical
  // counts across the two states.
  qc::Circuit c(3);
  c.h(0).cx(0, 1).ry(2, 1.1);
  Statevector sv(3);
  DensityMatrix dm(3);
  sv.run(c);
  dm.run(c);
  Rng r1(12), r2(12);
  EXPECT_EQ(sv.sample(2000, r1), dm.sample(2000, r2));
}

TEST(CircuitState, BothStatesRejectMeasureAndWidthMismatch) {
  const qc::Op measure{qc::GateKind::Measure, {0}, {}};
  Statevector sv(2);
  DensityMatrix dm(2);
  EXPECT_THROW(sv.apply_op(measure), Error);
  EXPECT_THROW(dm.apply_op(measure), Error);
  EXPECT_THROW(sv.run(qc::Circuit(3)), Error);
  EXPECT_THROW(dm.run(qc::Circuit(3)), Error);
}

TEST(Density, SampleMatchesProbabilities) {
  DensityMatrix dm(2);
  dm.apply_matrix(qc::gate_matrix(qc::GateKind::H), {0});
  dm.apply_matrix(qc::gate_matrix(qc::GateKind::H), {1});
  dm.apply_depolarizing({0}, 0.2);  // mixing must not break sampling
  Rng rng(77);
  const sim::Counts counts = dm.sample(40000, rng);
  for (const auto& [bits, n] : counts)
    EXPECT_NEAR(static_cast<double>(n) / 40000.0, 0.25, 0.02) << bits;
}

TEST(SampleFromProbabilities, SortedPassMatchesLowerBoundReference) {
  // The sampler must map every draw to the first index whose running sum
  // reaches it (rounding slack on the last index), drawing one uniform per
  // shot in shot order. The oracle is a linear scan, which stays valid when
  // tiny negative entries make the running sums non-monotone. Inputs cover
  // interior zeros of an unnormalized distribution, 64 random outcomes, all
  // zeros, a single entry, a lone non-zero last entry, a -1e-18 entry and
  // a distribution whose running sums visibly decrease.
  std::vector<std::vector<double>> inputs = {{0.1, 0.0, 0.25, 0.3, 0.0, 0.55, 0.0}};
  Rng gen(99);
  std::vector<double> random64(64);
  for (double& x : random64) x = gen.uniform() * gen.uniform();
  inputs.push_back(random64);
  inputs.push_back(std::vector<double>(8, 0.0));
  inputs.push_back({0.7});
  inputs.push_back({0.0, 0.0, 0.0, 0.0, 0.0, 0.3});
  inputs.push_back({0.25, 0.25, -1e-18, 0.0, 0.25, 0.25});
  inputs.push_back({0.4, -0.2, 0.5, 0.3});  // visibly non-monotone running sums

  auto reference = [](const std::vector<double>& p, std::size_t shots, Rng& rng) {
    double total = 0.0;
    for (double pi : p) total += pi;
    sim::Counts ref;
    for (std::size_t s = 0; s < shots; ++s) {
      const double x = rng.uniform() * total;
      std::size_t idx = p.size() - 1;
      double acc = 0.0;
      for (std::size_t i = 0; i < p.size(); ++i) {
        acc += p[i];
        if (acc >= x) {
          idx = i;
          break;
        }
      }
      ++ref[idx];
    }
    return ref;
  };

  for (std::size_t c = 0; c < inputs.size(); ++c) {
    for (const std::size_t shots : {std::size_t{1}, std::size_t{7}, std::size_t{1024},
                                    std::size_t{100000}}) {
      Rng got_rng(7 + c), ref_rng(7 + c);
      const sim::Counts got = sim::sample_from_probabilities(inputs[c], shots, got_rng);
      EXPECT_EQ(got, reference(inputs[c], shots, ref_rng)) << "input " << c << " shots " << shots;
      // The consumed stream length is shot-count-deterministic.
      EXPECT_EQ(got_rng.next_u64(), ref_rng.next_u64()) << "input " << c << " shots " << shots;
      if (c == 0) {
        // Zero-probability entries never get a count.
        EXPECT_EQ(got.count(1), 0u);
        EXPECT_EQ(got.count(4), 0u);
      }
    }
  }
}

TEST(Kernels, SpecializedTwoQubitPathsMatchGenericLift) {
  // kron(u, I) listed on {0,1,2} reproduces u on {1,2} through the generic
  // k=3 path — pins the diagonal (RZZ/CZ) and permutation (CX/SWAP) kernels
  // to the dense reference.
  for (const auto& [kind, params] :
       std::vector<std::pair<qc::GateKind, std::vector<double>>>{
           {qc::GateKind::RZZ, {0.8}},
           {qc::GateKind::CZ, {}},
           {qc::GateKind::CX, {}},
           {qc::GateKind::SWAP, {}}}) {
    Statevector a(3), b(3);
    qc::Circuit prep(3);
    prep.h(0).ry(1, 0.7).cx(0, 2).rz(2, -0.3).ry(2, 0.4);
    a.run(prep);
    b.run(prep);
    const la::CMat u = qc::gate_matrix(kind, params);
    b.apply_matrix(u, {1, 2});
    a.apply_matrix(la::kron(u, la::CMat::identity(2)), {0, 1, 2});
    EXPECT_LT(la::max_abs_diff(a.data(), b.data()), 1e-12) << qc::gate_name(kind);
  }
}

TEST(Kernels, DiagonalAndAntiDiagonalOneQubitPathsMatchGenericLift) {
  for (const auto& [kind, params] :
       std::vector<std::pair<qc::GateKind, std::vector<double>>>{
           {qc::GateKind::RZ, {0.6}},
           {qc::GateKind::S, {}},
           {qc::GateKind::X, {}},
           {qc::GateKind::Y, {}}}) {
    Statevector a(2), b(2);
    qc::Circuit prep(2);
    prep.h(0).ry(1, 1.2).cx(0, 1);
    a.run(prep);
    b.run(prep);
    const la::CMat u = qc::gate_matrix(kind, params);
    b.apply_matrix(u, {0});
    a.apply_matrix(la::kron(la::CMat::identity(2), u), {0, 1});
    EXPECT_LT(la::max_abs_diff(a.data(), b.data()), 1e-12) << qc::gate_name(kind);
  }
}
