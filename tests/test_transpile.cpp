#include <gtest/gtest.h>

#include "backend/presets.hpp"
#include "common/rng.hpp"
#include "linalg/vec.hpp"
#include "sim/statevector.hpp"
#include "transpile/basis.hpp"
#include "transpile/cancellation.hpp"
#include "transpile/lowering.hpp"
#include "transpile/sabre.hpp"
#include "transpile/scheduling.hpp"
#include "transpile/transpiler.hpp"

using namespace hgp;
using qc::Circuit;
using qc::GateKind;
using qc::Param;

namespace {

/// Statevector equivalence of two bound circuits up to global phase, from a
/// fixed non-trivial input state.
void expect_equivalent(const Circuit& a, const Circuit& b, double tol = 1e-9) {
  ASSERT_EQ(a.num_qubits(), b.num_qubits());
  sim::Statevector sa(a.num_qubits()), sb(b.num_qubits());
  Circuit prep(a.num_qubits());
  for (std::size_t q = 0; q < a.num_qubits(); ++q) prep.ry(q, 0.3 + 0.4 * double(q));
  for (std::size_t q = 0; q + 1 < a.num_qubits(); ++q) prep.cx(q, q + 1);
  sa.run(prep);
  sb.run(prep);
  sa.run(a);
  sb.run(b);
  EXPECT_LT(la::max_abs_diff_up_to_phase(sa.data(), sb.data()), tol);
}

}  // namespace

class BasisGateSweep : public ::testing::TestWithParam<double> {};

TEST_P(BasisGateSweep, TranslationPreservesSemantics) {
  const double t = GetParam();
  Circuit c(2);
  c.h(0).y(1).s(0).sdg(1).t(0).tdg(1).sxdg(0);
  c.rx(0, t).ry(1, t / 2).rz(0, -t).p(1, Param::constant(t));
  c.u3(0, Param::constant(t), Param::constant(0.2), Param::constant(-0.7));
  c.cz(0, 1).swap(0, 1).rzz(0, 1, t).rxx(0, 1, Param::constant(t / 3));
  const Circuit native = transpile::to_native_basis(c);
  // Only native gates remain.
  for (const qc::Op& op : native.ops()) {
    const bool ok = op.kind == GateKind::RZ || op.kind == GateKind::SX ||
                    op.kind == GateKind::X || op.kind == GateKind::CX ||
                    op.kind == GateKind::Barrier;
    EXPECT_TRUE(ok) << qc::gate_name(op.kind);
  }
  expect_equivalent(c, native);
}

INSTANTIATE_TEST_SUITE_P(Angles, BasisGateSweep,
                         ::testing::Values(-2.5, -1.0, -0.3, 0.0, 0.4, 1.5708, 3.0));

TEST(Basis, KeepsParametersSymbolic) {
  Circuit c(2);
  c.rzz(0, 1, Param::symbol(0, -1.0));
  c.rx(0, Param::symbol(1, 2.0));
  const Circuit native = transpile::to_native_basis(c);
  EXPECT_EQ(native.num_parameters(), 2u);
  // Bind then compare against binding before translation.
  const std::vector<double> theta = {0.7, -0.4};
  expect_equivalent(c.bound(theta), native.bound(theta));
}

TEST(Cancellation, RemovesSelfInversePairs) {
  Circuit c(2);
  c.h(0).h(0).x(1).x(1).cx(0, 1).cx(0, 1).s(0).sdg(0);
  const Circuit out = transpile::cancel_gates(c);
  EXPECT_EQ(out.size(), 0u);
}

TEST(Cancellation, MergesRotations) {
  Circuit c(1);
  c.rz(0, 0.3).rz(0, 0.4).rz(0, -0.7);
  const Circuit out = transpile::cancel_gates(c);
  EXPECT_EQ(out.size(), 0u);  // merges to RZ(0) and drops it
}

TEST(Cancellation, CommutesThroughCxControl) {
  // RZ on the control commutes through CX: RZ CX RZ(-) cancels.
  Circuit c(2);
  c.rz(0, 0.5).cx(0, 1).rz(0, -0.5);
  const Circuit out = transpile::cancel_gates(c);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(out.ops()[0].kind, GateKind::CX);
  expect_equivalent(c, out);
}

TEST(Cancellation, DoesNotCommuteThroughCxTarget) {
  // RZ on the target does NOT commute through CX.
  Circuit c(2);
  c.rz(1, 0.5).cx(0, 1).rz(1, -0.5);
  const Circuit out = transpile::cancel_gates(c);
  EXPECT_EQ(out.size(), 3u);
  expect_equivalent(c, out);
}

TEST(Cancellation, XCommutesThroughCxTarget) {
  Circuit c(2);
  c.x(1).cx(0, 1).x(1);
  const Circuit out = transpile::cancel_gates(c);
  EXPECT_EQ(out.size(), 1u);
  expect_equivalent(c, out);
}

TEST(Cancellation, BarrierBlocks) {
  Circuit c(1);
  c.x(0).barrier().x(0);
  const Circuit out = transpile::cancel_gates(c);
  EXPECT_EQ(out.count(GateKind::X), 2u);
}

TEST(Cancellation, PreservesSemanticsOnRandomCircuits) {
  Rng rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    Circuit c(3);
    for (int i = 0; i < 30; ++i) {
      switch (rng.uniform_int(0, 5)) {
        case 0: c.h(std::size_t(rng.uniform_int(0, 2))); break;
        case 1: c.x(std::size_t(rng.uniform_int(0, 2))); break;
        case 2: c.rz(std::size_t(rng.uniform_int(0, 2)), rng.uniform(-3, 3)); break;
        case 3: c.s(std::size_t(rng.uniform_int(0, 2))); break;
        case 4: {
          const int a = rng.uniform_int(0, 2);
          const int b = (a + rng.uniform_int(1, 2)) % 3;
          c.cx(std::size_t(a), std::size_t(b));
          break;
        }
        case 5: c.rzz(0, 2, rng.uniform(-3, 3)); break;
      }
    }
    const Circuit out = transpile::cancel_gates(c);
    EXPECT_LE(out.size(), c.size());
    expect_equivalent(c, out, 1e-8);
  }
}

TEST(Sabre, RoutesToCoupledPairs) {
  Rng rng(5);
  const auto coupling = backend::line(5);
  Circuit c(5);
  c.cx(0, 4).cx(1, 3).cx(0, 2);
  const auto result = transpile::sabre_route(c, coupling, rng, 4);
  for (const qc::Op& op : result.circuit.ops()) {
    if (op.qubits.size() == 2) {
      EXPECT_TRUE(coupling.connected(op.qubits[0], op.qubits[1]))
          << op.qubits[0] << "," << op.qubits[1];
    }
  }
  // The layout search can place this tiny circuit swap-free; routing just
  // must stay cheap.
  EXPECT_LE(result.swap_count, 3u);
}

TEST(Sabre, PreservesSemanticsModuloLayout) {
  // Route, then verify the routed circuit equals the original under the
  // layout permutation: run both and compare cut-relevant probabilities via
  // remapped sampling.
  Rng rng(6);
  const auto coupling = backend::line(4);
  Circuit c(4);
  c.h(0).cx(0, 3).rzz(1, 3, 0.8).cx(2, 0).ry(3, 0.5);
  const auto routed = transpile::sabre_route(c, coupling, rng, 4);

  sim::Statevector sa(4);
  sa.run(c);
  sim::Statevector sb(4);
  sb.run(routed.circuit);

  // Probability of virtual bitstring b equals probability of the physical
  // string with bits permuted by final_layout.
  const auto pa = sa.probabilities();
  const auto pb = sb.probabilities();
  for (std::uint64_t bits = 0; bits < 16; ++bits) {
    std::uint64_t phys = 0;
    for (std::size_t v = 0; v < 4; ++v)
      if ((bits >> v) & 1) phys |= (std::uint64_t{1} << routed.final_layout[v]);
    EXPECT_NEAR(pa[bits], pb[phys], 1e-9) << bits;
  }
}

TEST(Sabre, FixedLayoutIsRespected) {
  Rng rng(7);
  const auto coupling = backend::heavy_hex_27();
  Circuit c(3);
  c.cx(0, 1).cx(1, 2);
  const std::vector<std::size_t> layout = {0, 1, 4};
  const auto result = transpile::sabre_route(c, coupling, rng, 1, layout);
  EXPECT_EQ(result.initial_layout[0], 0u);
  EXPECT_EQ(result.initial_layout[1], 1u);
  EXPECT_EQ(result.initial_layout[2], 4u);
}

TEST(GreedyRoute, UsesMoreSwapsThanSabre) {
  Rng rng(8);
  const auto coupling = backend::heavy_hex_27();
  Circuit c(6);
  // K3,3-ish pattern of far-apart gates.
  for (std::size_t a = 0; a < 3; ++a)
    for (std::size_t b = 3; b < 6; ++b) c.cx(a, b);
  const std::vector<std::size_t> layout = {0, 1, 4, 7, 10, 12};
  const auto greedy = transpile::greedy_route(c, coupling, layout);
  const auto sabre = transpile::sabre_route(c, coupling, rng, 4, layout);
  for (const qc::Op& op : greedy.circuit.ops()) {
    if (op.qubits.size() == 2) {
      EXPECT_TRUE(coupling.connected(op.qubits[0], op.qubits[1]));
    }
  }
  // On this fully parallel gate set the lookahead has nothing to look at;
  // SABRE must still be competitive. (The pipeline-level test in
  // test_workflow checks that Step II reduces swaps on real QAOA circuits.)
  EXPECT_LE(sabre.swap_count, greedy.swap_count + 2);
}

TEST(Scheduling, AsapTimesAndMakespan) {
  const auto dev = backend::make_toronto();
  Circuit c(27);
  c.sx(0).sx(1).cx(0, 1).sx(0);
  const auto sched = transpile::schedule_asap(c, dev);
  ASSERT_EQ(sched.ops.size(), 4u);
  EXPECT_EQ(sched.ops[0].t0, 0);
  EXPECT_EQ(sched.ops[1].t0, 0);          // parallel on different qubits
  EXPECT_EQ(sched.ops[2].t0, 160);        // after both SX
  const int cx_dur = sched.ops[2].duration;
  EXPECT_EQ(sched.ops[3].t0, 160 + cx_dur);
  EXPECT_EQ(sched.makespan_dt, 160 + cx_dur + 160);
}

TEST(Scheduling, DdInsertionFillsIdleWindows) {
  const auto dev = backend::make_toronto();
  Circuit c(27);
  // Qubit 4 must wait for the busy chain on (0,1) before its own CX: ASAP
  // scheduling leaves a long idle window on it.
  c.sx(4).cx(0, 1).cx(0, 1).cx(0, 1).cx(1, 4);
  const auto with_dd = transpile::insert_dd(c, dev, 640);
  EXPECT_GT(with_dd.count(GateKind::X), 0u);
  // DD comes in identity pairs.
  EXPECT_EQ(with_dd.count(GateKind::X) % 2, 0u);
}

TEST(Transpiler, EndToEndNativeBasis) {
  const auto dev = backend::make_toronto();
  Circuit c(4);
  c.h(0).rzz(0, 3, Param::symbol(0, -1.0)).rx(2, Param::symbol(1, 2.0)).cx(1, 2);
  transpile::TranspileOptions opt;
  opt.initial_layout = {0, 1, 4, 7};
  const auto result = transpile::transpile(c, dev, opt);
  for (const qc::Op& op : result.circuit.ops()) {
    const bool ok = op.kind == GateKind::RZ || op.kind == GateKind::SX ||
                    op.kind == GateKind::X || op.kind == GateKind::CX ||
                    op.kind == GateKind::Barrier;
    EXPECT_TRUE(ok);
    if (op.qubits.size() == 2) {
      EXPECT_TRUE(dev.coupling().connected(op.qubits[0], op.qubits[1]));
    }
  }
  EXPECT_EQ(result.circuit.num_parameters(), 2u);
}

TEST(Lowering, FullScheduleDurationMatchesAsap) {
  const auto dev = backend::make_toronto();
  Circuit c(27);
  c.sx(0).cx(0, 1).sx(1);
  transpile::LoweringOptions opt;
  opt.include_measure = false;
  const auto lowered = transpile::lower_to_pulses(c, dev, opt);
  const auto sched = transpile::schedule_asap(c, dev);
  EXPECT_EQ(lowered.schedule.duration(), sched.makespan_dt);
}

TEST(Lowering, PulseEfficientRzzIsShorter) {
  const auto dev = backend::make_toronto();
  Circuit c(27);
  c.rzz(0, 1, 0.8);
  transpile::LoweringOptions std_opt, pe_opt;
  std_opt.include_measure = false;
  pe_opt.include_measure = false;
  pe_opt.pulse_efficient_rzz = true;
  const auto standard = transpile::lower_to_pulses(c, dev, std_opt);
  const auto efficient = transpile::lower_to_pulses(c, dev, pe_opt);
  EXPECT_LT(efficient.schedule.duration(), standard.schedule.duration());
  EXPECT_LT(efficient.schedule.play_count(), standard.schedule.play_count());
}
