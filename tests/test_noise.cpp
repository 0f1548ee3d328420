// The noise primitives the engines share: readout confusion, the noise
// model's readout table, and the validators of the depolarizing draw and the
// relaxation constants. Channel statistics are tested on the executor's
// engines, channel by channel (test_engine.cpp).
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "noise/channels.hpp"
#include "noise/model.hpp"

using namespace hgp;

TEST(Readout, FlipRates) {
  Rng rng(7);
  std::vector<noise::ReadoutError> errors = {{0.10, 0.20}};
  int flips0 = 0, flips1 = 0;
  const int trials = 40000;
  for (int t = 0; t < trials; ++t) {
    if (noise::apply_readout(0b0, errors, rng) != 0) ++flips0;
    if (noise::apply_readout(0b1, errors, rng) != 1) ++flips1;
  }
  EXPECT_NEAR(double(flips0) / trials, 0.10, 0.01);
  EXPECT_NEAR(double(flips1) / trials, 0.20, 0.01);
}

TEST(Readout, MultiQubitIndependence) {
  Rng rng(8);
  std::vector<noise::ReadoutError> errors = {{0.5, 0.5}, {0.0, 0.0}};
  // Qubit 1 never flips, qubit 0 flips half the time.
  int q1_flips = 0;
  for (int t = 0; t < 5000; ++t) {
    const std::uint64_t out = noise::apply_readout(0b10, errors, rng);
    if (((out >> 1) & 1) != 1) ++q1_flips;
  }
  EXPECT_EQ(q1_flips, 0);
}

TEST(NoiseModel, ReadoutVectorExtraction) {
  noise::NoiseModel nm;
  nm.qubits.resize(3);
  nm.qubits[1].readout.p1_given_0 = 0.05;
  const auto v = nm.readout_errors();
  ASSERT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v[1].p1_given_0, 0.05);
}

TEST(Channels, RejectBadParameters) {
  Rng rng(9);
  EXPECT_THROW(noise::sample_depolarizing(1, 1.5, rng), Error);
  EXPECT_THROW(noise::sample_depolarizing(2, -0.1, rng), Error);
  EXPECT_THROW(noise::relaxation_constants(-1.0, 1.0, 10.0), Error);
  EXPECT_THROW(noise::relaxation_constants(0.0, 1.0, 10.0), Error);
  EXPECT_THROW(noise::relaxation_constants(1.0, 0.0, 10.0), Error);
}
