// Property-based tests: randomized sweeps over library invariants that must
// hold for any input (unitarity, equivalences, conservation laws).
#include <gtest/gtest.h>

#include <cmath>

#include "backend/presets.hpp"
#include "common/rng.hpp"
#include "core/qaoa.hpp"
#include "graph/generators.hpp"
#include "graph/maxcut.hpp"
#include "linalg/vec.hpp"
#include "pulse/calibration.hpp"
#include "pulsesim/simulator.hpp"
#include "sim/statevector.hpp"
#include "transpile/basis.hpp"
#include "transpile/cancellation.hpp"
#include "transpile/sabre.hpp"

using namespace hgp;

namespace {

qc::Circuit random_circuit(std::size_t n, int ops, Rng& rng) {
  qc::Circuit c(n);
  for (int i = 0; i < ops; ++i) {
    const int pick = rng.uniform_int(0, 7);
    const auto q = static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(n) - 1));
    std::size_t q2 = q;
    while (q2 == q) q2 = static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(n) - 1));
    switch (pick) {
      case 0: c.h(q); break;
      case 1: c.x(q); break;
      case 2: c.rx(q, rng.uniform(-3, 3)); break;
      case 3: c.rz(q, rng.uniform(-3, 3)); break;
      case 4: c.cx(q, q2); break;
      case 5: c.rzz(q, q2, rng.uniform(-3, 3)); break;
      case 6: c.sx(q); break;
      case 7: c.ry(q, rng.uniform(-3, 3)); break;
    }
  }
  return c;
}

}  // namespace

class RandomCircuitSweep : public ::testing::TestWithParam<int> {};

TEST_P(RandomCircuitSweep, EvolutionPreservesNorm) {
  Rng rng(100 + static_cast<std::uint64_t>(GetParam()));
  const qc::Circuit c = random_circuit(4, 40, rng);
  sim::Statevector sv(4);
  sv.run(c);
  EXPECT_NEAR(la::norm(sv.data()), 1.0, 1e-10);
}

TEST_P(RandomCircuitSweep, BasisTranslationRoundTrip) {
  Rng rng(200 + static_cast<std::uint64_t>(GetParam()));
  const qc::Circuit c = random_circuit(3, 25, rng);
  const qc::Circuit native = transpile::to_native_basis(c);
  sim::Statevector a(3), b(3);
  a.run(c);
  b.run(native);
  EXPECT_LT(la::max_abs_diff_up_to_phase(a.data(), b.data()), 1e-8);
}

TEST_P(RandomCircuitSweep, CancellationAfterTranslationPreservesSemantics) {
  Rng rng(300 + static_cast<std::uint64_t>(GetParam()));
  const qc::Circuit c = random_circuit(3, 30, rng);
  const qc::Circuit native = transpile::to_native_basis(c);
  const qc::Circuit cancelled = transpile::cancel_gates(native);
  sim::Statevector a(3), b(3);
  a.run(native);
  b.run(cancelled);
  EXPECT_LT(la::max_abs_diff_up_to_phase(a.data(), b.data()), 1e-8);
}

TEST_P(RandomCircuitSweep, RoutingPreservesDistributionUnderLayout) {
  Rng rng(400 + static_cast<std::uint64_t>(GetParam()));
  const qc::Circuit c = random_circuit(4, 20, rng);
  const auto coupling = backend::line(4);
  const auto routed = transpile::sabre_route(c, coupling, rng, 2);
  sim::Statevector a(4), b(4);
  a.run(c);
  b.run(routed.circuit);
  const auto pa = a.probabilities();
  const auto pb = b.probabilities();
  for (std::uint64_t bits = 0; bits < 16; ++bits) {
    std::uint64_t phys = 0;
    for (std::size_t v = 0; v < 4; ++v)
      if ((bits >> v) & 1) phys |= (std::uint64_t{1} << routed.final_layout[v]);
    ASSERT_NEAR(pa[bits], pb[phys], 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCircuitSweep, ::testing::Range(0, 8));

class RandomGraphSweep : public ::testing::TestWithParam<int> {};

TEST_P(RandomGraphSweep, QaoaHamiltonianMatchesCutFunction) {
  Rng rng(500 + static_cast<std::uint64_t>(GetParam()));
  const graph::Graph g = graph::erdos_renyi(6, 0.5, rng);
  const la::PauliSum h = core::maxcut_hamiltonian(g);
  for (int trial = 0; trial < 20; ++trial) {
    const auto bits = static_cast<std::uint64_t>(rng.uniform_int(0, 63));
    ASSERT_NEAR(h.energy(bits), g.cut_value(bits), 1e-12);
  }
}

TEST_P(RandomGraphSweep, LocalSearchNeverBeatsBruteForce) {
  Rng rng(600 + static_cast<std::uint64_t>(GetParam()));
  const graph::Graph g = graph::erdos_renyi(7, 0.45, rng);
  const auto exact = graph::max_cut_brute_force(g);
  const auto local = graph::max_cut_local_search(g, rng, 8);
  EXPECT_LE(local.value, exact.value);
  EXPECT_GE(local.value, graph::random_cut_expectation(g) - 1e-9);
}

TEST_P(RandomGraphSweep, QaoaThetaZeroIsUniform) {
  Rng rng(700 + static_cast<std::uint64_t>(GetParam()));
  const graph::Graph g = graph::erdos_renyi(5, 0.5, rng);
  if (g.num_edges() == 0) return;
  EXPECT_NEAR(core::ideal_qaoa_expectation(g, 1, {0.0, 0.0}), g.total_weight() / 2.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphSweep, ::testing::Range(0, 8));

class RandomPulseSweep : public ::testing::TestWithParam<int> {};

TEST_P(RandomPulseSweep, ArbitraryDrivesStayUnitary) {
  Rng rng(800 + static_cast<std::uint64_t>(GetParam()));
  psim::PulseSystem sys(2);
  sys.add_drive(0, 0.11);
  sys.add_drive(1, 0.09);
  sys.add_cr(0, 0, 1, 0.003, 0.0006, 0.0009);
  sys.set_detuning(0, rng.uniform(-0.002, 0.002));
  sys.add_zz_crosstalk(0, 1, rng.uniform(-1e-4, 1e-4));

  pulse::Schedule s;
  for (int i = 0; i < 4; ++i) {
    const auto ch = rng.bernoulli(0.5)
                        ? pulse::Channel::drive(static_cast<std::size_t>(rng.uniform_int(0, 1)))
                        : pulse::Channel::control(0);
    s.append(pulse::ShiftPhase{rng.uniform(-3.0, 3.0), ch});
    s.append(pulse::Play{
        pulse::PulseShape::gaussian(32 * rng.uniform_int(2, 8), rng.uniform(0.05, 0.5),
                                    16.0 + rng.uniform(0, 32)),
        ch});
  }
  const psim::PulseSimulator sim(std::move(sys));
  EXPECT_TRUE(sim.unitary(s).is_unitary(1e-6));
}

TEST_P(RandomPulseSweep, MixerPulseAngleLinearity) {
  // Double the amplitude (below saturation) -> double the rotation angle:
  // verify through populations of the 1-qubit pulse unitary.
  Rng rng(900 + static_cast<std::uint64_t>(GetParam()));
  const double angle = rng.uniform(0.2, 1.4);
  psim::PulseSystem sys(1);
  sys.add_drive(0, 0.11);
  const psim::PulseSimulator sim(std::move(sys));

  auto population = [&](double a) {
    const pulse::PulseShape unit = pulse::PulseShape::gaussian(320, 1.0, 80.0);
    const double amp = a / (2.0 * la::kPi * 0.11 * unit.area_ns());
    pulse::Schedule s;
    s.append(pulse::Play{pulse::PulseShape::gaussian(320, amp, 80.0), pulse::Channel::drive(0)});
    la::CVec psi = {1.0, 0.0};
    const la::CVec out = sim.evolve(s, psi);
    return std::norm(out[1]);
  };
  EXPECT_NEAR(population(angle), std::sin(angle / 2) * std::sin(angle / 2), 2e-3);
  EXPECT_NEAR(population(2 * angle), std::sin(angle) * std::sin(angle), 4e-3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPulseSweep, ::testing::Range(0, 6));
