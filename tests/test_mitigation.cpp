#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "mitigation/cvar.hpp"
#include "mitigation/m3.hpp"
#include "sim/statevector.hpp"

using namespace hgp;
using mit::M3Mitigator;
using noise::ReadoutError;
using sim::Counts;

namespace {

/// Push ideal counts through the confusion model many times to get noisy
/// counts for mitigation tests.
Counts corrupt(const Counts& ideal, const std::vector<ReadoutError>& errors, Rng& rng) {
  Counts noisy;
  for (const auto& [bits, n] : ideal)
    for (std::size_t s = 0; s < n; ++s) ++noisy[noise::apply_readout(bits, errors, rng)];
  return noisy;
}

}  // namespace

TEST(M3, IdentityWhenNoReadoutError) {
  const std::vector<ReadoutError> errors = {{0.0, 0.0}, {0.0, 0.0}};
  const M3Mitigator m3(errors);
  Counts counts = {{0b00, 500}, {0b11, 500}};
  const auto quasi = m3.mitigate(counts);
  EXPECT_TRUE(quasi.converged);
  EXPECT_NEAR(quasi.probs.at(0b00), 0.5, 1e-9);
  EXPECT_NEAR(quasi.probs.at(0b11), 0.5, 1e-9);
  EXPECT_NEAR(quasi.overhead, 1.0, 1e-9);
}

TEST(M3, RecoversExpectationUnderConfusion) {
  Rng rng(7);
  // Ideal: GHZ-like counts -> <Z0 Z1> = 1.
  Counts ideal = {{0b00, 6000}, {0b11, 6000}};
  const std::vector<ReadoutError> errors = {{0.04, 0.08}, {0.03, 0.06}};
  const Counts noisy = corrupt(ideal, errors, rng);

  auto zz = [](std::uint64_t bits) {
    const int parity = __builtin_popcountll(bits & 0b11) % 2;
    return parity == 0 ? 1.0 : -1.0;
  };
  // Noisy expectation is visibly biased.
  double noisy_zz = 0.0;
  std::size_t shots = 0;
  for (const auto& [bits, n] : noisy) {
    noisy_zz += zz(bits) * double(n);
    shots += n;
  }
  noisy_zz /= double(shots);
  EXPECT_LT(noisy_zz, 0.87);

  const M3Mitigator m3(errors);
  const auto quasi = m3.mitigate(noisy);
  EXPECT_TRUE(quasi.converged);
  const double mitigated = quasi.expectation(zz);
  EXPECT_NEAR(mitigated, 1.0, 0.03);
  EXPECT_GT(mitigated, noisy_zz);
  EXPECT_GE(quasi.overhead, 1.0);
}

TEST(M3, QuasiProbsSumToOne) {
  Rng rng(8);
  Counts ideal = {{0b000, 300}, {0b101, 500}, {0b010, 200}, {0b111, 24}};
  const std::vector<ReadoutError> errors = {{0.02, 0.05}, {0.03, 0.04}, {0.01, 0.06}};
  const Counts noisy = corrupt(ideal, errors, rng);
  const auto quasi = M3Mitigator(errors).mitigate(noisy);
  double sum = 0.0;
  for (const auto& [bits, p] : quasi.probs) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST(M3, QuasiProbsArePinnedBitForBit) {
  // A fixed 6-bit, 61-outcome count set: the solve must reproduce these
  // quasi-probabilities exactly, so any change to the order of the
  // assignment products or of (A_ij / col_norm_j) * x_j shows up here.
  const std::vector<ReadoutError> errors = {{0.012, 0.031}, {0.021, 0.045},
                                            {0.008, 0.027}, {0.017, 0.052},
                                            {0.025, 0.038}, {0.014, 0.049}};
  Counts counts;
  for (std::uint64_t b = 0; b < 64; ++b)
    if (b % 16 != 5) counts[b] = 1 + (b * b * 7 + b * 3) % 41;
  counts[0b010101] += 300;
  counts[0b101010] += 280;
  const std::vector<double> expected = {
      -0x1.0f504c71c509dp-9, 0x1.0643a806c21bfp-8, 0x1.1fbee701e2b9dp-6,
      0x1.1527812e36afp-6, -0x1.e2d172e1f4abcp-10, 0x1.abf2642a60c02p-7,
      0x1.4b282525313d4p-6, 0x1.83e838ee619d6p-7, 0x1.693ec19977741p-7,
      0x1.4c55c06552851p-7, 0x1.4514f3ecb947ap-7, 0x1.299a1c8236c65p-7,
      0x1.325eb63bfb8e5p-6, 0x1.58146a7c859c2p-7, 0x1.824f7359cad22p-7,
      0x1.38465f882b9ap-6, 0x1.0feba0fcd01fdp-7, 0x1.cfa6bdbf94de4p-7,
      -0x1.43ae63664cb5ep-10, 0x1.70343407ee692p-7, 0x1.61dd057f7bae8p-3,
      0x1.f446a24732c59p-9, -0x1.4f663e451a684p-8, 0x1.69d2f187f7c6dp-12,
      0x1.7c781bc519959p-7, 0x1.a4e41919f1ba7p-8, 0x1.51c02b0e9e0dep-7,
      0x1.5f88ffcdc562ap-6, 0x1.b3560701e198dp-7, 0x1.4fad171567134p-6,
      0x1.121edf4f71ab5p-7, 0x1.401aa87e7da3p-9, 0x1.fa1ec4d7948c7p-8,
      0x1.622f2fb661a51p-7, 0x1.038f31181b0eap-6, 0x1.59c275fd68536p-6,
      0x1.80a8ae699f978p-8, 0x1.9096ccde7360ap-7, -0x1.b25f3e473256ap-8,
      -0x1.8e6f61b5c1badp-10, 0x1.770cd6d4962a1p-3, 0x1.354b3c2d4a496p-6,
      0x1.36f111d7f6e56p-6, -0x1.8b2f2559741f5p-11, 0x1.c772b3f7736cfp-7,
      0x1.fa0d002ab67dbp-7, 0x1.4a3cfb9c81bdep-6, 0x1.5db766a0c3065p-7,
      0x1.49de42800578dp-7, 0x1.3ed1ce19b8462p-6, 0x1.50e7e6129e6f2p-7,
      0x1.3d21e53d2a5a8p-6, 0x1.876044dd6f544p-7, 0x1.8f2a5658d6eap-7,
      0x1.65e182fa87d7dp-6, 0x1.3abf32e8187c8p-7, 0x1.03a0e6679a51cp-6,
      -0x1.92143a7bf1b72p-10, 0x1.3b2de87944ba9p-6, 0x1.622148443a4b2p-6,
      0x1.76ae397f41fdcp-8,
  };
  const auto quasi = M3Mitigator(errors).mitigate(counts);
  EXPECT_TRUE(quasi.converged);
  EXPECT_EQ(quasi.solver_iterations, 13);
  EXPECT_EQ(quasi.overhead, 0x1.0a9928c83518cp+0);
  ASSERT_EQ(quasi.probs.size(), expected.size());
  std::size_t i = 0;
  for (const auto& [bits, p] : quasi.probs) {
    EXPECT_EQ(p, expected[i]) << "outcome " << bits;
    ++i;
  }
}

TEST(M3, RejectsBadInput) {
  EXPECT_THROW(M3Mitigator({}), Error);
  EXPECT_THROW(M3Mitigator({{0.6, 0.1}}), Error);
  const M3Mitigator m3({{0.01, 0.02}});
  EXPECT_THROW(m3.mitigate({}), Error);
}

TEST(Cvar, AlphaOneIsMean) {
  Counts counts = {{0, 250}, {1, 750}};
  auto value = [](std::uint64_t b) { return b == 0 ? 4.0 : 8.0; };
  EXPECT_NEAR(mit::cvar_from_counts(counts, value, 1.0), 7.0, 1e-12);
}

TEST(Cvar, SmallAlphaPicksBestTail) {
  Counts counts = {{0, 700}, {1, 300}};
  auto value = [](std::uint64_t b) { return b == 0 ? 2.0 : 9.0; };
  // Best 30% of shots are exactly the 300 shots at value 9.
  EXPECT_NEAR(mit::cvar_from_counts(counts, value, 0.3), 9.0, 1e-12);
}

TEST(Cvar, FractionalTailInterpolates) {
  Counts counts = {{0, 500}, {1, 500}};
  auto value = [](std::uint64_t b) { return b == 0 ? 0.0 : 10.0; };
  // alpha = 0.75: tail = 500 shots at 10 plus 250 shots at 0.
  EXPECT_NEAR(mit::cvar_from_counts(counts, value, 0.75), 10.0 * 500 / 750, 1e-12);
}

TEST(Cvar, QuasiDistributionIgnoresNegativeWeights) {
  mit::QuasiDistribution quasi;
  quasi.probs = {{0, 0.7}, {1, 0.4}, {2, -0.1}};
  auto value = [](std::uint64_t b) { return double(b); };
  // Best tail under maximize: bits=1 (value 1) has weight 0.4 >= alpha*1.1.
  EXPECT_NEAR(mit::cvar_from_quasi(quasi, value, 0.3), 1.0, 1e-9);
}

TEST(Cvar, RejectsBadAlpha) {
  Counts counts = {{0, 10}};
  auto value = [](std::uint64_t) { return 1.0; };
  EXPECT_THROW(mit::cvar_from_counts(counts, value, 0.0), Error);
  EXPECT_THROW(mit::cvar_from_counts(counts, value, 1.5), Error);
}

