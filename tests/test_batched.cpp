// The lane-batched trajectory engine, the only trajectory shot loop: counts
// bit-identical to one-lane groups for arbitrary lane counts, lane/thread
// determinism interaction, and its kernels against per-shot references —
// broadcast and per-lane gate kernels against the scalar Statevector body,
// lane-masked Kraus branches and the terminal samplers against inline
// per-lane computations.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>

#include "backend/presets.hpp"
#include "common/rng.hpp"
#include "core/executor.hpp"
#include "sim/batched_statevector.hpp"
#include "sim/statevector.hpp"

using namespace hgp;
using core::ExecOp;
using core::Executor;
using core::ExecutorOptions;
using core::Program;

namespace {

const backend::FakeBackend& toronto() {
  static const backend::FakeBackend dev = backend::make_toronto();
  return dev;
}

/// n-qubit GHZ-style ladder in the native basis (RZ/SX/RZ frame per qubit
/// plus a CX chain) — enough structure to exercise virtual folding, dense
/// blocks, relaxation, and depolarizing charges.
Program ladder_program(std::size_t n) {
  // A simple path through ibmq_toronto's heavy-hex coupling map, so every CX
  // pair has a CR calibration.
  static const std::vector<std::size_t> chain = {6, 7, 4, 1, 2, 3, 5, 8};
  Program prog;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t q = chain[i];
    prog.ops.push_back(
        ExecOp::from_gate(qc::Op{qc::GateKind::RZ, {q}, {qc::Param::constant(0.3 + 0.05 * i)}}));
    prog.ops.push_back(ExecOp::from_gate(qc::Op{qc::GateKind::SX, {q}, {}}));
    prog.ops.push_back(
        ExecOp::from_gate(qc::Op{qc::GateKind::RZ, {q}, {qc::Param::constant(-0.2)}}));
  }
  for (std::size_t i = 0; i + 1 < n; ++i)
    prog.ops.push_back(
        ExecOp::from_gate(qc::Op{qc::GateKind::CX, {chain[i], chain[i + 1]}, {}}));
  for (std::size_t i = 0; i < n; ++i) prog.measure_qubits.push_back(chain[i]);
  return prog;
}

sim::Counts run_with(const Program& prog, std::size_t lanes, std::size_t threads,
                     std::size_t shots, std::uint64_t seed,
                     std::shared_ptr<serve::BlockCache> cache = nullptr,
                     bool noise = true) {
  ExecutorOptions opts;
  opts.noise = noise;
  opts.shot_batch_lanes = lanes;
  opts.num_threads = threads;
  opts.block_cache = std::move(cache);
  Executor ex(toronto(), opts);
  Rng rng(seed);
  return ex.run(prog, shots, rng);
}

std::size_t total_shots(const sim::Counts& counts) {
  std::size_t t = 0;
  for (const auto& [bits, c] : counts) t += c;
  return t;
}

/// 2x2 real rotation by theta — a dense 1q operator whose angle can vary per
/// lane so lanes genuinely diverge in magnitude, not just phase.
la::CMat rotation(double theta) {
  la::CMat r(2, 2);
  r(0, 0) = std::cos(theta);
  r(0, 1) = -std::sin(theta);
  r(1, 0) = std::sin(theta);
  r(1, 1) = std::cos(theta);
  return r;
}

}  // namespace

// ---- engine-level bit-identity ---------------------------------------------

TEST(BatchedTrajectories, CountsBitIdenticalToOneLaneAcrossLaneCounts) {
  // 600 shots span two full 256-shot thread batches plus a partial tail, so
  // lane counts that do not divide the batch exercise tail lane groups too;
  // 16 is the engine's default width.
  const Program prog = ladder_program(5);
  auto cache = std::make_shared<serve::BlockCache>(256);
  const sim::Counts reference = run_with(prog, 1, 1, 600, 123, cache);
  EXPECT_EQ(total_shots(reference), 600u);
  for (std::size_t lanes : {4u, 7u, 16u, 32u}) {
    const sim::Counts counts = run_with(prog, lanes, 1, 600, 123, cache);
    EXPECT_EQ(counts, reference) << "lanes=" << lanes;
  }
}

TEST(BatchedTrajectories, NoiselessCountsUnaffectedByLanes) {
  const Program prog = ladder_program(4);
  const sim::Counts reference = run_with(prog, 1, 1, 400, 9, nullptr, false);
  const sim::Counts batched = run_with(prog, 8, 1, 400, 9, nullptr, false);
  EXPECT_EQ(batched, reference);
}

TEST(BatchedTrajectories, ZeroStochasticNoiseSharesOneSortedSamplingPass) {
  // Strip every stochastic channel so no lane ever diverges: the batched
  // engine then samples every lane through the shared sorted pass, and must
  // still match one-lane groups exactly.
  backend::FakeBackend dev = backend::make_toronto();
  for (auto& q : dev.mutable_noise_model().qubits) {
    q.t1_us = 1e9;
    q.t2_us = 1e9;
    q.readout = {};
    q.freq_drift_ghz = 0.0;
  }
  dev.mutable_noise_model().dep_per_1q_pulse = 0.0;
  dev.mutable_noise_model().dep_per_2q_block = 0.0;

  const Program prog = ladder_program(4);
  auto run_lanes = [&](std::size_t lanes) {
    ExecutorOptions opts;
    opts.shot_batch_lanes = lanes;
    opts.num_threads = 1;
    Executor ex(dev, opts);
    Rng rng(41);
    return ex.run(prog, 500, rng);
  };
  const sim::Counts reference = run_lanes(1);
  EXPECT_EQ(run_lanes(8), reference);
  EXPECT_EQ(run_lanes(16), reference);
}

TEST(BatchedTrajectories, LanesAndThreadsAreIndependentOfCounts) {
  // The shot_batch_lanes knob composes with the threaded batch grid: any
  // (threads, lanes) pair must reproduce the single-threaded one-lane counts.
  const Program prog = ladder_program(4);
  auto cache = std::make_shared<serve::BlockCache>(256);
  const sim::Counts reference = run_with(prog, 1, 1, 1500, 77, cache);
  for (std::size_t threads : {2u, 4u}) {
    for (std::size_t lanes : {1u, 7u, 16u}) {
      const sim::Counts counts = run_with(prog, lanes, threads, 1500, 77, cache);
      EXPECT_EQ(counts, reference) << "threads=" << threads << " lanes=" << lanes;
    }
  }
}

TEST(BatchedTrajectories, CallerRngAdvanceIsShotAndLaneIndependent) {
  const Program prog = ladder_program(3);
  Rng r1(3), r2(3);
  {
    ExecutorOptions opts;
    opts.shot_batch_lanes = 1;
    Executor ex(toronto(), opts);
    ex.run(prog, 100, r1);
  }
  {
    ExecutorOptions opts;
    opts.shot_batch_lanes = 16;
    Executor ex(toronto(), opts);
    ex.run(prog, 2000, r2);
  }
  EXPECT_EQ(r1.next_u64(), r2.next_u64());
}

// ---- kernel-level parity ----------------------------------------------------

namespace {

/// One operator per (width, structure class), parameterized by an angle so a
/// per-lane apply can hand every lane its own operator of the same class.
struct KernelCase {
  const char* name;
  std::size_t width;
  std::function<la::CMat(double)> make;
};

la::CMat phases(std::size_t n, double t) {
  la::CMat d(n, n);
  for (std::size_t s = 0; s < n; ++s) d(s, s) = std::polar(1.0, t * (0.7 + 0.3 * s));
  return d;
}

const std::vector<KernelCase>& kernel_cases() {
  static const std::vector<KernelCase> cases = {
      {"1q diagonal", 1, [](double t) { return phases(2, t); }},
      {"1q anti-diagonal", 1,
       [](double t) {
         la::CMat u(2, 2);
         u(0, 1) = std::polar(1.0, -t);
         u(1, 0) = std::polar(1.0, 0.5 * t);
         return u;
       }},
      {"1q dense", 1, [](double t) { return qc::gate_matrix(qc::GateKind::U3, {t, 0.4, -t}); }},
      {"2q diagonal", 2, [](double t) { return qc::gate_matrix(qc::GateKind::RZZ, {t}); }},
      {"2q permutation", 2,
       [](double t) {
         const std::size_t perm[4] = {2, 0, 3, 1};
         la::CMat u(4, 4);
         for (std::size_t c = 0; c < 4; ++c) u(perm[c], c) = std::polar(1.0, t * (c + 1.0));
         return u;
       }},
      {"2q dense", 2,
       [](double t) { return la::kron(qc::gate_matrix(qc::GateKind::SX), rotation(t)); }},
      {"3q diagonal", 3, [](double t) { return phases(8, t); }},
      {"3q dense", 3,
       [](double t) {
         return la::kron(rotation(t), la::kron(qc::gate_matrix(qc::GateKind::SX),
                                               qc::gate_matrix(qc::GateKind::RX, {2.0 * t})));
       }},
      {"4q generic", 4,
       [](double t) {
         return la::kron(la::kron(rotation(t), qc::gate_matrix(qc::GateKind::RZ, {t})),
                         la::kron(qc::gate_matrix(qc::GateKind::SX), rotation(0.5 * t)));
       }},
  };
  return cases;
}

}  // namespace

TEST(BatchedKernels, BroadcastMatrixMatchesStatevectorPerLane) {
  // Every lane-vectorized kernel, fed by both coefficient sources, against
  // the scalar Statevector reference with exact == on every amplitude:
  // broadcast (one operator, all lanes), per-lane with one structure class
  // (every lane its own operator of the same class), and per-lane with the
  // classes of one width mixed across lanes (the one-lane fallback).
  constexpr std::size_t kQubits = 5;
  constexpr std::size_t kLanes = 7;
  // Scattered, unsorted targets per width exercise the sub-index mapping.
  const std::vector<std::vector<std::size_t>> targets = {
      {}, {3}, {4, 1}, {1, 4, 2}, {4, 0, 2, 1}};

  enum class Mode { Broadcast, PerLaneOneClass, PerLaneMixed };
  auto check = [&](Mode mode, const std::string& label, std::size_t width,
                   const std::function<la::CMat(std::size_t)>& op_of_lane) {
    // Lanes start in distinct entangled complex states built by the reference.
    sim::BatchedStatevector bsv(kQubits, kLanes);
    std::vector<sim::Statevector> ref(kLanes, sim::Statevector(kQubits));
    for (std::size_t l = 0; l < kLanes; ++l) {
      for (std::size_t q = 0; q < kQubits; ++q) {
        const double theta = 0.3 + 0.2 * static_cast<double>(q) + 0.1 * static_cast<double>(l);
        ref[l].apply_matrix(
            qc::gate_matrix(qc::GateKind::U3, {theta, 0.2 * static_cast<double>(l), 0.5}), {q});
      }
      for (std::size_t q = 0; q + 1 < kQubits; ++q)
        ref[l].apply_matrix(qc::gate_matrix(qc::GateKind::CX), {q, q + 1});
      for (std::uint64_t i = 0; i < bsv.dim(); ++i) bsv.set_amplitude(i, l, ref[l].data()[i]);
    }

    const std::vector<std::size_t>& qubits = targets[width];
    std::vector<la::CMat> us;
    for (std::size_t l = 0; l < kLanes; ++l) us.push_back(op_of_lane(l));
    std::vector<const la::CMat*> lane_ops;
    for (const la::CMat& u : us) lane_ops.push_back(&u);
    if (mode == Mode::Broadcast)
      bsv.apply_matrix(us[0], qubits);
    else
      bsv.apply_matrix_per_lane(lane_ops, qubits);
    for (std::size_t l = 0; l < kLanes; ++l) ref[l].apply_matrix(us[l], qubits);

    std::size_t mismatches = 0;
    for (std::size_t l = 0; l < kLanes; ++l)
      for (std::uint64_t i = 0; i < bsv.dim(); ++i) {
        const la::cxd got = bsv.amplitude(i, l);
        const la::cxd want = ref[l].data()[i];
        if (!(got.real() == want.real() && got.imag() == want.imag())) ++mismatches;
      }
    EXPECT_EQ(mismatches, 0u) << label;
  };

  for (const KernelCase& c : kernel_cases()) {
    check(Mode::Broadcast, std::string("broadcast ") + c.name, c.width,
          [&](std::size_t) { return c.make(0.37); });
    check(Mode::PerLaneOneClass, std::string("per-lane ") + c.name, c.width,
          [&](std::size_t l) { return c.make(0.37 + 0.11 * static_cast<double>(l)); });
  }
  for (std::size_t width = 1; width <= 3; ++width) {
    std::vector<const KernelCase*> of_width;
    for (const KernelCase& c : kernel_cases())
      if (c.width == width) of_width.push_back(&c);
    check(Mode::PerLaneMixed, "per-lane mixed " + std::to_string(width) + "q", width,
          [&](std::size_t l) {
            return of_width[l % of_width.size()]->make(0.37 + 0.11 * static_cast<double>(l));
          });
  }
}

TEST(BatchedKernels, LaneMaskedKrausBranchesMatchPerShotReference) {
  constexpr std::size_t kLanes = 4;
  constexpr std::size_t kQ = 1;
  sim::BatchedStatevector bsv(3, kLanes);
  std::vector<sim::Statevector> ref(kLanes, sim::Statevector(3));

  for (std::size_t l = 0; l < kLanes; ++l) {
    const la::CMat r = rotation(0.3 + 0.25 * static_cast<double>(l));
    bsv.apply_matrix_one_lane(r, {kQ}, l);
    ref[l].apply_matrix(r, {kQ});
    bsv.apply_matrix_one_lane(rotation(0.6), {0}, l);
    ref[l].apply_matrix(rotation(0.6), {0});
  }

  // Per-lane |1> masses against a direct per-lane accumulation.
  double m1[kLanes];
  bsv.masses_one(kQ, m1);
  const std::uint64_t bit = std::uint64_t{1} << kQ;
  for (std::size_t l = 0; l < kLanes; ++l) {
    double want = 0.0;
    for (std::uint64_t i = 0; i < 8; ++i)
      if (i & bit) want += std::norm(ref[l].data()[i]);
    EXPECT_NEAR(m1[l], want, 1e-12) << "lane " << l;
  }

  // Mixed per-lane branches: lane 0 jumps, lane 1 damps, lane 2 damps with a
  // dephasing flip, lane 3 keeps amplitude but flips. The per-shot reference
  // applies each lane's quantum-jump update to that lane's Statevector.
  const double damp = 0.8;
  const double take[kLanes] = {1.0, 0.0, 0.0, 0.0};
  const double scale1[kLanes] = {0.0, damp, -damp, -1.0};
  bsv.damp_or_jump(kQ, take, scale1);
  for (std::size_t l = 0; l < kLanes; ++l) {
    la::CVec& amp = ref[l].data();
    for (std::uint64_t i = 0; i < 8; ++i) {
      if (!(i & bit)) continue;
      if (take[l] == 1.0) {
        amp[i ^ bit] = amp[i];
        amp[i] = la::cxd{0.0, 0.0};
      } else {
        amp[i] *= scale1[l];
      }
    }
  }
  for (std::size_t l = 0; l < kLanes; ++l)
    for (std::uint64_t i = 0; i < 8; ++i) {
      const la::cxd got = bsv.amplitude(i, l);
      EXPECT_NEAR(got.real(), ref[l].data()[i].real(), 1e-12) << "lane " << l << " i " << i;
      EXPECT_NEAR(got.imag(), ref[l].data()[i].imag(), 1e-12) << "lane " << l << " i " << i;
    }

  // Fused mass + damp on another qubit: masses are the pre-damp masses and
  // the amplitudes end scaled, exactly as two separate passes would give.
  std::vector<sim::Statevector> before;
  before.reserve(kLanes);
  for (auto& sv : ref) before.push_back(sv);
  const double scales[kLanes] = {0.9, -0.9, 1.0, 0.5};
  double fused[kLanes];
  bsv.fused_mass_damp(0, scales, fused);
  const std::uint64_t bit0 = 1;
  for (std::size_t l = 0; l < kLanes; ++l) {
    double want_mass = 0.0;
    for (std::uint64_t i = 0; i < 8; ++i)
      if (i & bit0) want_mass += std::norm(before[l].data()[i]);
    EXPECT_NEAR(fused[l], want_mass, 1e-12) << "lane " << l;
    for (std::uint64_t i = 0; i < 8; ++i) {
      const la::cxd want =
          (i & bit0) ? before[l].data()[i] * scales[l] : before[l].data()[i];
      const la::cxd got = bsv.amplitude(i, l);
      EXPECT_NEAR(got.real(), want.real(), 1e-12) << "lane " << l << " i " << i;
      EXPECT_NEAR(got.imag(), want.imag(), 1e-12) << "lane " << l << " i " << i;
    }
  }
}

TEST(BatchedKernels, SampleLanesMatchesPerLaneScan) {
  constexpr std::size_t kLanes = 3;
  sim::BatchedStatevector bsv(2, kLanes);
  std::vector<sim::Statevector> ref(kLanes, sim::Statevector(2));
  for (std::size_t l = 0; l < kLanes; ++l) {
    const la::CMat r = rotation(0.5 + 0.4 * static_cast<double>(l));
    bsv.apply_matrix_one_lane(r, {0}, l);
    ref[l].apply_matrix(r, {0});
    bsv.apply_matrix_one_lane(rotation(1.1), {1}, l);
    ref[l].apply_matrix(rotation(1.1), {1});
  }
  const double x[kLanes] = {0.05, 0.5, 0.93};
  std::uint64_t got[kLanes];
  bsv.sample_lanes(x, nullptr, got);
  for (std::size_t l = 0; l < kLanes; ++l) {
    double acc = 0.0;
    std::uint64_t want = 3;
    for (std::uint64_t i = 0; i < 4; ++i) {
      acc += std::norm(ref[l].data()[i]);
      if (x[l] < acc) {
        want = i;
        break;
      }
    }
    EXPECT_EQ(got[l], want) << "lane " << l;
  }

  // The sorted shared pass must agree with scanning each draw against the
  // reference lane individually.
  const std::pair<double, std::size_t> draws[kLanes] = {{0.05, 2}, {0.5, 0}, {0.93, 1}};
  std::uint64_t sorted_out[kLanes];
  bsv.sample_sorted(1, draws, kLanes, sorted_out);
  for (std::size_t d = 0; d < kLanes; ++d) {
    double acc = 0.0;
    std::uint64_t want = 3;
    for (std::uint64_t i = 0; i < 4; ++i) {
      acc += std::norm(ref[1].data()[i]);
      if (draws[d].first < acc) {
        want = i;
        break;
      }
    }
    EXPECT_EQ(sorted_out[draws[d].second], want) << "draw " << d;
  }
}

// ---- grouped depolarizing charges -------------------------------------------

TEST(BatchedTrajectories, LargeDepolarizingRatesStayBitIdenticalToOneLane) {
  // At production dep rates a lane group rarely charges more than one lane
  // per block, so the grouped Pauli pass's multi-lane path barely runs.
  // Crank the rates until most blocks charge several lanes at once: the
  // lane-grouped walk (one pass over the block's qubits, apply_pauli_lanes
  // for every multi-lane Pauli) must still reproduce the one-lane counts,
  // where every charge is a single-lane apply, bit for bit.
  backend::FakeBackend dev = backend::make_toronto();
  dev.mutable_noise_model().dep_per_1q_pulse = 0.2;
  dev.mutable_noise_model().dep_per_2q_block = 0.35;

  const Program prog = ladder_program(5);
  auto run = [&](std::size_t lanes) {
    ExecutorOptions opts;
    opts.shot_batch_lanes = lanes;
    opts.num_threads = 1;
    Executor ex(dev, opts);
    Rng rng(321);
    return ex.run(prog, 600, rng);
  };
  const sim::Counts reference = run(1);
  EXPECT_EQ(total_shots(reference), 600u);
  for (std::size_t lanes : {4u, 7u, 32u})
    EXPECT_EQ(run(lanes), reference) << "lanes=" << lanes;
}
