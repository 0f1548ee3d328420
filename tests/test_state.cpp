// The shared sampler and the statevector's gate-kernel paths. Parity
// between the statevector and the density matrix lives in test_density.cpp.
#include <gtest/gtest.h>

#include <cmath>

#include "circuit/circuit.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/pauli.hpp"
#include "linalg/vec.hpp"
#include "sim/state.hpp"
#include "sim/statevector.hpp"

using namespace hgp;
using sim::Statevector;

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
