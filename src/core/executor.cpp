#include "core/executor.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <iomanip>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <type_traits>

#include "common/error.hpp"
#include "core/fusion.hpp"
#include "mitigation/cvar.hpp"
#include "noise/channels.hpp"
#include "obs/trace.hpp"
#include "pulsesim/simulator.hpp"
#include "sim/kernel_structure.hpp"

namespace hgp::core {

using la::CMat;

namespace {

/// The executor's process-wide "executor.*" telemetry series, resolved from
/// the registry once. Stage histograms are fed by RAII spans (so the same
/// event lands in the run-lifecycle trace); the Kraus-branch counters are
/// flushed once per lane group, never per draw, keeping the hot loop clean.
struct ExecMetrics {
  obs::Counter& shots;
  obs::Counter& lane_groups;
  obs::Counter& kraus_jumps;
  obs::Counter& dephase_flips;
  obs::Counter& pauli_charges;
  obs::Counter& blocks_compiled;
  obs::Counter& expectation_batches;
  obs::Counter& fusion_blocks_in;
  obs::Counter& fusion_blocks_out;
  obs::Counter& fusion_runs;
  obs::Gauge& trajectory_shots_per_s;
  obs::Gauge& lane_groups_per_s;
  obs::Histogram& run_ns;
  obs::Histogram& compile_ns;
  obs::Histogram& block_compile_ns;
  obs::Histogram& lane_evolve_ns;
  obs::Histogram& sample_ns;
  obs::Histogram& aggregate_ns;
  /// Lengths of the merged runs (constituents per fused slot, >= 2 only);
  /// explicit bounds because run lengths live far below the default
  /// log-spaced nanosecond buckets.
  obs::Histogram& fusion_run_len;

  static ExecMetrics& get() {
    static ExecMetrics m = [] {
      obs::Registry& reg = obs::Registry::global();
      return ExecMetrics{reg.counter("executor.shots"),
                         reg.counter("executor.lane_groups"),
                         reg.counter("executor.kraus_jumps"),
                         reg.counter("executor.dephase_flips"),
                         reg.counter("executor.pauli_charges"),
                         reg.counter("executor.blocks_compiled"),
                         reg.counter("executor.expectation_batches"),
                         reg.counter("executor.fusion.blocks_in"),
                         reg.counter("executor.fusion.blocks_out"),
                         reg.counter("executor.fusion.runs"),
                         reg.gauge("executor.trajectory_shots_per_s"),
                         reg.gauge("executor.lane_groups_per_s"),
                         reg.histogram("executor.run_ns"),
                         reg.histogram("executor.compile_ns"),
                         reg.histogram("executor.block_compile_ns"),
                         reg.histogram("executor.lane_evolve_ns"),
                         reg.histogram("executor.sample_ns"),
                         reg.histogram("executor.aggregate_ns"),
                         reg.histogram("executor.fusion.run_len",
                                       {1, 2, 3, 4, 6, 8, 12, 16})};
    }();
    return m;
  }
};

/// Shots per work unit of the parallel trajectory engine. The batch grid is
/// fixed (independent of thread count) and each batch draws from its own
/// child RNG stream, so the merged counts are bit-identical no matter how
/// many workers run or how the OS schedules them.
constexpr std::size_t kShotsPerBatch = 256;

/// Virtual gates are the single-qubit diagonals — realized as Z-frame
/// updates, zero duration, no pulse. Same diagonal vocabulary as the
/// transpiler's commutation scans (qc::gate_is_diagonal); the 2q diagonals
/// (CZ, RZZ) are excluded because they do cost a cross-resonance pulse.
bool is_virtual_gate(qc::GateKind k) {
  return qc::gate_is_diagonal(k) && qc::gate_arity(k) == 1;
}

/// Run the post-compile fusion pass for a deterministic-unitary engine path
/// and record its telemetry. A disabled width (0/1) still routes through
/// fuse_program's pass-through mode so the engines walk one code path, but
/// charges no fusion metrics.
FusionResult fuse_for_engine(const CompiledProgram& cp, std::size_t max_qubits,
                             serve::BlockCache* cache, const std::string& key_prefix,
                             std::uint64_t fingerprint) {
  FusionOptions opt;
  opt.max_qubits = std::min<std::size_t>(max_qubits, 3);
  const bool enabled = opt.max_qubits >= 2;
  FusionResult fr =
      fuse_program(cp, opt, enabled ? cache : nullptr, key_prefix, fingerprint);
  if (enabled) {
    ExecMetrics& em = ExecMetrics::get();
    em.fusion_blocks_in.inc(fr.stats.ops_in);
    em.fusion_blocks_out.inc(fr.stats.ops_out);
    em.fusion_runs.inc(fr.stats.merged_runs);
    for (const FusedSlot& s : fr.slots)
      if (s.sources.size() >= 2) em.fusion_run_len.record(s.sources.size());
  }
  return fr;
}

/// Single source of truth for the schedule-derived block bookkeeping shared
/// by the gate and pulse lowering paths: timeline duration plus the noise
/// charge units (drive-channel and control-channel play counts).
void fill_schedule_metadata(CompiledBlock& block, const pulse::Schedule& sched) {
  block.duration_dt = sched.duration();
  block.drive_plays = 0;
  block.cr_halves = 0;
  for (const pulse::TimedInstruction& ti : sched.instructions()) {
    if (const auto* play = std::get_if<pulse::Play>(&ti.inst)) {
      if (play->channel.type == pulse::ChannelType::Drive) ++block.drive_plays;
      if (play->channel.type == pulse::ChannelType::Control) ++block.cr_halves;
    }
  }
}

/// A cache hit as the compile pipeline hands it on: a copy of the stored
/// block (which carries no structure_key) stamped with its key suffix.
CompiledBlock stamped(const CompiledBlock& cached, std::string structure_key) {
  CompiledBlock block = cached;
  block.structure_key = std::move(structure_key);
  return block;
}

bool has_frequency_instruction(const pulse::Schedule& sched) {
  for (const pulse::TimedInstruction& ti : sched.instructions())
    if (std::holds_alternative<pulse::ShiftFrequency>(ti.inst) ||
        std::holds_alternative<pulse::SetFrequency>(ti.inst))
      return true;
  return false;
}

// ---- trajectory-specialized channel kernels --------------------------------
//
// The per-shot hot path keeps the statevector *unnormalized* and carries its
// squared norm in `weight`: every branch probability is measured against
// weight instead of renormalizing the vector after each Kraus branch. This
// turns the generic 3-full-pass thermal relaxation (prob_one + damp +
// rescale) into at most one half-pass over the |1>-subspace per call while
// sampling the exact same quantum-jump unraveling as noise::apply_* (the
// reference implementation the parity tests compare against).
//
// The lane-batched kernels in run_lane_group sample the same branches from
// per-lane streams in the same per-shot draw order; both sides share
// noise::relaxation_constants / noise::sample_depolarizing so the branch
// probabilities agree to the bit.

using sim::detail::for_each_one;

void traj_thermal_relaxation(sim::Statevector& sv, double& weight, std::size_t q,
                             const noise::RelaxationConstants& rc, Rng& rng) {
  la::CVec& amp = sv.data();
  const std::uint64_t size = amp.size();
  const std::uint64_t bit = std::uint64_t{1} << q;

  if (rc.gamma > 0.0) {
    // Jump iff u < gamma * m1 with m1 the unnormalized |1> mass — the exact
    // branch probability gamma * (m1 / weight). Since m1 <= weight, a draw
    // u >= gamma * weight settles "no jump" without measuring m1 at all.
    const double u = rng.uniform() * weight;
    bool jumped = false;
    if (u < rc.gamma * weight) {
      double m1 = 0.0;
      for_each_one(size, bit, [&](std::uint64_t i) { m1 += std::norm(amp[i]); });
      if (u < rc.gamma * m1) {
        // K1 = sqrt(gamma)|0><1|: project onto |1> and reset to |0>, fused
        // into one move over the paired indices.
        for_each_one(size, bit, [&](std::uint64_t i) {
          amp[i ^ bit] = amp[i];
          amp[i] = la::cxd{0.0, 0.0};
        });
        weight = m1;
        jumped = true;
      }
    }
    if (!jumped) {
      // K0 = diag(1, sqrt(1-gamma)): damp the |1> amplitudes, measuring
      // their pre-damp mass on the fly if the shortcut skipped it.
      double m1_old = 0.0;
      for_each_one(size, bit, [&](std::uint64_t i) {
        m1_old += std::norm(amp[i]);
        amp[i] *= rc.damp;
      });
      weight -= rc.gamma * m1_old;
    }
  }

  // Pure dephasing: a state-independent phase flip — half-pass only when the
  // (rare) flip fires.
  if (rc.dephase && rng.bernoulli(rc.p_z))
    for_each_one(size, bit, [&](std::uint64_t i) { amp[i] = -amp[i]; });
}

/// diag(d0, d1) up to global phase (irrelevant within one trajectory):
/// multiply the |1> amplitudes by d1/d0 — a half-pass instead of a full
/// diagonal apply. Covers RZ drift and every virtual block (all diagonal).
void traj_phase(sim::Statevector& sv, std::size_t q, la::cxd ratio) {
  if (ratio == la::cxd{1.0, 0.0}) return;
  const std::uint64_t bit = std::uint64_t{1} << q;
  for_each_one(sv.data().size(), bit, [&](std::uint64_t i) { sv.data()[i] *= ratio; });
}

void traj_rz(sim::Statevector& sv, std::size_t q, double angle) {
  traj_phase(sv, q, std::polar(1.0, angle));
}

using sim::detail::is_diagonal2;

/// Single-outcome measurement of the unnormalized state.
std::uint64_t traj_sample_one(const sim::Statevector& sv, double weight, Rng& rng) {
  const la::CVec& amp = sv.data();
  const double x = rng.uniform() * weight;
  double acc = 0.0;
  for (std::uint64_t i = 0; i < amp.size(); ++i) {
    acc += std::norm(amp[i]);
    if (x < acc) return i;
  }
  return amp.size() - 1;
}

/// The canonical noise-timeline walk of every executor engine: idle
/// relaxation + frame drift before each block, the foldable virtual-diagonal
/// shortcut, block application, per-block relaxation, and the drive/CR
/// depolarizing charges, ending with the idle-to-readout relaxation. The
/// scalar trajectory, lane-batched trajectory, and exact-density engines all
/// traverse through here, so the schedule and charge policy have a single
/// source of truth; only the kernels differ.
///   relax(lq, duration_dt), drift(lq, duration_dt),
///   phase(lq, ratio, unitary)  — 1q virtual diagonal block; trajectory
///     engines drop the global phase and multiply by ratio, the density
///     engine applies the full unitary,
///   apply(unitary, locals), depolarize(qubits, p)
template <typename Relax, typename Drift, typename Phase, typename Apply, typename Depol>
void walk_noise_timeline(const CompiledProgram& cp, double dep1, double dep2,
                         int readout_dt, Relax&& relax, Drift&& drift, Phase&& phase,
                         Apply&& apply, Depol&& depolarize) {
  for (const Scheduled& s : cp.timeline) {
    for (std::size_t i = 0; i < s.local.size(); ++i) {
      relax(s.local[i], s.idle_before_dt[i]);
      drift(s.local[i], s.idle_before_dt[i]);
    }
    if (s.block.virtual_only && s.local.size() == 1 && is_diagonal2(s.block.unitary)) {
      // Virtual Z-frame blocks are diagonal: half-pass, global phase dropped.
      phase(s.local[0], s.block.unitary(1, 1) / s.block.unitary(0, 0), s.block.unitary);
      continue;
    }
    apply(s.block.unitary, s.local);
    if (s.block.virtual_only) continue;
    for (std::size_t lq : s.local) relax(lq, s.block.duration_dt);
    if (s.block.explicit_idle) {
      for (std::size_t lq : s.local) drift(lq, s.block.duration_dt);
      continue;
    }
    if (s.block.drive_plays > 0) {
      // Charge 1q depolarizing per drive pulse, spread over the block's
      // qubits (exact for 1q blocks; even split for multi-qubit blocks).
      const double p = dep1 * static_cast<double>(s.block.drive_plays) /
                       static_cast<double>(s.local.size());
      for (std::size_t lq : s.local) depolarize({lq}, p);
    }
    if (s.block.cr_halves > 0 && s.local.size() >= 2) {
      const double p = dep2 * static_cast<double>(s.block.cr_halves) / 2.0;
      depolarize({s.local[0], s.local[1]}, p);
    }
  }
  // Idle to the end of the circuit, then decohere through readout.
  for (std::size_t lq = 0; lq < cp.touched.size(); ++lq)
    relax(lq, cp.makespan_dt - cp.clock[lq] + readout_dt);
}

/// Per-thread scratch of run_lane_group, reused across lane groups, batches,
/// and runs so a shot loop does not reallocate a dozen small vectors per
/// 16-shot group (the lane statevector itself is hoisted by the caller).
struct LaneWorkspace {
  std::vector<Rng> rngs;
  std::vector<double> weight, x, m1, take, scale1;
  std::vector<std::uint8_t> diverged, precheck, flip, codes;
  std::vector<int> picks;
  std::vector<std::uint64_t> bits;
  std::vector<std::pair<double, std::size_t>> clean;
};

/// Compress measured bits out of a local-register basis index: bit i of the
/// result is local qubit measure_local[i], run()'s counts key.
std::uint64_t map_bits(std::uint64_t bits, const CompiledProgram& cp) {
  std::uint64_t mapped = 0;
  for (std::size_t i = 0; i < cp.measure_local.size(); ++i)
    if ((bits >> cp.measure_local[i]) & 1) mapped |= (std::uint64_t{1} << i);
  return mapped;
}

/// Readout confusion on one sampled outcome: one bernoulli per measured bit
/// from the shot's stream. Shared by the scalar and lane-batched engines.
std::uint64_t apply_readout_flips(std::uint64_t bits, const CompiledProgram& cp,
                                  const noise::NoiseModel& nm, Rng& rng) {
  for (std::size_t i = 0; i < cp.measure_phys.size(); ++i) {
    const std::size_t lq = cp.measure_local[i];
    const bool one = (bits >> lq) & 1;
    const noise::ReadoutError& re = nm.qubits[cp.measure_phys[i]].readout;
    const double p_flip = one ? re.p0_given_1 : re.p1_given_0;
    if (rng.bernoulli(p_flip)) bits ^= (std::uint64_t{1} << lq);
  }
  return bits;
}

/// Readout confusion folded exactly into a table over the 2^m measured
/// outcomes, as the per-measured-bit stochastic 2x2 map
/// M = [[1 - p(1|0), p(0|1)], [p(1|0), 1 - p(0|1)]]. A distribution folds
/// forward (p' = M p); a value table folds through the transpose
/// (v' = M^T v), since E[v(readout(b))] mixes the values of b's confusion
/// partners. Every entry is m_r0 * x0 + m_r1 * x1 in that order, so each
/// caller keeps the rounding it had under -ffp-contract=off.
void fold_readout(std::vector<double>& table, const CompiledProgram& cp,
                  const noise::NoiseModel& nm, bool transpose) {
  for (std::size_t i = 0; i < cp.measure_phys.size(); ++i) {
    const noise::ReadoutError& re = nm.qubits[cp.measure_phys[i]].readout;
    const double m00 = 1.0 - re.p1_given_0, m11 = 1.0 - re.p0_given_1;
    const double m01 = transpose ? re.p1_given_0 : re.p0_given_1;
    const double m10 = transpose ? re.p0_given_1 : re.p1_given_0;
    const std::uint64_t bit = std::uint64_t{1} << i;
    for (std::uint64_t idx = 0; idx < table.size(); ++idx) {
      if (idx & bit) continue;
      const double x0 = table[idx], x1 = table[idx | bit];
      table[idx] = m00 * x0 + m01 * x1;
      table[idx | bit] = m10 * x0 + m11 * x1;
    }
  }
}

/// A diagonal objective tabulated once per evaluation: `value` over the 2^m
/// measured outcomes (keyed like run()'s counts), plus the per-basis-state
/// lookup of the local register that the state reductions index — the value
/// itself for Expectation, the measured outcome for CVaR.
struct OutcomeTables {
  std::vector<double> value;
  std::vector<double> local_value;
  std::vector<std::uint32_t> local_outcome;
};

/// Non-null `readout` folds that model's readout confusion into the
/// Expectation values before the local lookup is built.
OutcomeTables tabulate(const CompiledProgram& cp, const ObjectiveSpec& spec,
                       const noise::NoiseModel* readout) {
  OutcomeTables t;
  t.value.resize(std::size_t{1} << cp.measure_local.size());
  for (std::uint64_t j = 0; j < t.value.size(); ++j) t.value[j] = spec.value(j);
  const std::size_t dim = std::size_t{1} << cp.touched.size();
  if (spec.kind == ObjectiveKind::Expectation) {
    if (readout) fold_readout(t.value, cp, *readout, /*transpose=*/true);
    t.local_value.resize(dim);
    for (std::uint64_t i = 0; i < dim; ++i) t.local_value[i] = t.value[map_bits(i, cp)];
  } else {
    t.local_outcome.resize(dim);
    for (std::uint64_t i = 0; i < dim; ++i)
      t.local_outcome[i] = static_cast<std::uint32_t>(map_bits(i, cp));
  }
  return t;
}

/// Fixed-grid batch scheduler shared by every trajectory reduction: run
/// fn(b) over the batch grid either serially or on an atomic work-stealing
/// pool. The grid itself never depends on the thread count, so results
/// merged in batch order are identical for every value of num_threads.
template <typename Fn>
void for_each_batch(std::size_t num_batches, std::size_t num_threads, Fn&& fn) {
  std::size_t threads =
      num_threads ? num_threads : std::max(1u, std::thread::hardware_concurrency());
  threads = std::min(threads, num_batches);
  if (threads <= 1) {
    for (std::size_t b = 0; b < num_batches; ++b) fn(b);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      try {
        for (std::size_t b = next.fetch_add(1); b < num_batches; b = next.fetch_add(1))
          fn(b);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (std::thread& th : pool) th.join();
  if (first_error) std::rethrow_exception(first_error);
}

std::size_t shot_batches(std::size_t shots) {
  return (shots + kShotsPerBatch - 1) / kShotsPerBatch;
}

template <typename State>
std::unique_ptr<State> make_state(std::size_t num_qubits, std::size_t lanes) {
  if constexpr (std::is_same_v<State, sim::Statevector>)
    return std::make_unique<State>(num_qubits);
  else
    return std::make_unique<State>(num_qubits, lanes);
}

/// The trajectory shot grid, the one loop behind run() and
/// run_expectation(). One parent draw seeds it: the caller's Rng advances by
/// exactly one step regardless of shots, batches, lanes, or thread count,
/// and shot s owns Rng::child(base, s), so results depend only on
/// (base, shots), not on how shots group into thread batches or lockstep
/// lanes. Each batch of the fixed grid walks groups of shot_batch_lanes
/// shots on one reused full-width State, plus a tail-width one when the
/// batch does not divide evenly. The cancel token is polled at every batch
/// and group boundary, so a cancelled run throws within one group whatever
/// the shot budget. group(b, state, base, first_shot) does batch b's work
/// for the shots from first_shot on, one per lane of the reset state.
template <typename State, typename Group>
void for_each_lane_group(const ExecutorOptions& options, std::size_t num_qubits,
                         std::size_t shots, Rng& rng, Group&& group) {
  const std::uint64_t base = rng.next_u64();
  const std::size_t lanes = std::max<std::size_t>(1, options.shot_batch_lanes);
  const CancelToken* tok = options.cancel.get();
  for_each_batch(shot_batches(shots), options.num_threads, [&](std::size_t b) {
    if (tok) tok->check();
    const std::size_t first = b * kShotsPerBatch;
    const std::size_t count = std::min(kShotsPerBatch, shots - first);
    std::unique_ptr<State> full, tail;
    for (std::size_t g = 0; g < count; g += lanes) {
      if (tok) tok->check();
      const std::size_t nl = std::min(lanes, count - g);
      std::unique_ptr<State>& state = nl < lanes ? tail : full;
      if (state)
        state->reset();
      else
        state = make_state<State>(num_qubits, nl);
      group(b, *state, base, first + g);
    }
  });
}

/// Delta-compilation equality for candidate-lane batching: two ops share a
/// timeline structure when they agree on everything except parameter values,
/// and share a block unitary when the parameter values agree exactly too.
bool same_op_structure(const ExecOp& a, const ExecOp& b) {
  if (a.is_pulse != b.is_pulse) return false;
  if (a.is_pulse) return a.qubits == b.qubits;
  return a.gate.kind == b.gate.kind && a.gate.qubits == b.gate.qubits &&
         a.gate.params.size() == b.gate.params.size();
}

bool same_op_unitary(const ExecOp& a, const ExecOp& b) {
  if (a.is_pulse)
    return a.schedule.duration() == b.schedule.duration() &&
           a.schedule.fingerprint() == b.schedule.fingerprint();
  for (std::size_t i = 0; i < a.gate.params.size(); ++i) {
    const qc::Param& pa = a.gate.params[i];
    const qc::Param& pb = b.gate.params[i];
    if (pa.index() != pb.index() || pa.scale() != pb.scale() || pa.offset() != pb.offset())
      return false;
  }
  return true;
}

}  // namespace

Engine engine_from_name(const std::string& name) {
  if (name == "trajectory") return Engine::Trajectory;
  if (name == "density" || name == "exact_density") return Engine::ExactDensity;
  throw Error("engine_from_name: unknown engine '" + name +
              "' (expected 'trajectory' or 'density')");
}

const std::string& engine_name(Engine engine) {
  static const std::string traj = "trajectory";
  static const std::string dens = "density";
  return engine == Engine::Trajectory ? traj : dens;
}

ObjectiveKind objective_from_name(const std::string& name) {
  if (name == "sample") return ObjectiveKind::Sample;
  if (name == "expectation") return ObjectiveKind::Expectation;
  if (name == "cvar") return ObjectiveKind::CVaR;
  throw Error("objective_from_name: unknown objective '" + name +
              "' (expected 'sample', 'expectation', or 'cvar')");
}

const std::string& objective_name(ObjectiveKind kind) {
  static const std::string sample = "sample";
  static const std::string expectation = "expectation";
  static const std::string cvar = "cvar";
  switch (kind) {
    case ObjectiveKind::Sample:
      return sample;
    case ObjectiveKind::Expectation:
      return expectation;
    default:
      return cvar;
  }
}

Executor::Executor(const backend::FakeBackend& dev, ExecutorOptions options)
    : dev_(dev), options_(std::move(options)) {
  cache_ = options_.block_cache
               ? options_.block_cache
               : std::make_shared<serve::BlockCache>(options_.block_cache_capacity);
  // Warm-start from (and write through to) the persistent store. The store
  // header carries the writing backend's fingerprint, so a recalibrated
  // device loads nothing and resets the file instead of replaying stale
  // blocks; attach is a no-op when a shared cache already holds this store.
  if (!options_.block_store_path.empty())
    cache_->attach_store(options_.block_store_path, dev_.fingerprint());
}

CMat Executor::simulate_block(const pulse::Schedule& physical_sched,
                              const std::vector<std::size_t>& qubits) const {
  const bool coherent = options_.noise && options_.coherent_noise;
  backend::FakeBackend::Subsystem sub = dev_.subsystem(qubits, coherent);
  const pulse::Schedule local = backend::FakeBackend::remap_schedule(physical_sched, sub.remap);
  // Small subsystems are cheap at full resolution; multi-qubit CR blocks use
  // a coarser piecewise-constant stride (2 when a frequency ramp is present,
  // 4 for flat envelopes — staircase errors cancel on symmetric rise/fall).
  const int stride =
      qubits.size() == 1 ? 1 : (has_frequency_instruction(local) ? 2 : 4);
  const psim::PulseSimulator sim(std::move(sub.system), psim::Integrator::Exact, 1, stride);
  // Column-batched propagator over the compiled-schedule IR: the schedule is
  // indexed and its step propagators built exactly once per block.
  CMat u = sim.propagator(local);

  // Undo deferred virtual-Z frames so the block unitary is self-contained.
  for (std::size_t i = 0; i < qubits.size(); ++i) {
    const double shift = pulse::CalibrationSet::drive_phase_shift(physical_sched, qubits[i]);
    if (shift == 0.0) continue;
    CMat full = CMat::identity(1);
    const CMat rz = qc::gate_matrix(qc::GateKind::RZ, {-shift});
    for (std::size_t k = qubits.size(); k-- > 0;)
      full = la::kron(full, k == i ? rz : CMat::identity(2));
    u = full * u;
  }
  return u;
}

CompiledBlock Executor::compile_block(const ExecOp& op) {
  if (!op.is_pulse) return compile_gate(op.gate);
  // Raw pulse block (the hybrid/pulse-level models' trainable layers): the
  // structure key is the schedule's canonical content fingerprint, so a
  // parametric schedule rebound at a repeated candidate angle keys
  // identically while a nearby amplitude gets its own slot.
  std::ostringstream key;
  key << "pulse";
  for (std::size_t q : op.qubits) key << "," << q;
  key << ",fp=" << std::hex << op.schedule.fingerprint() << std::dec
      << ",dur=" << op.schedule.duration();
  std::string structure_key = key.str();
  const std::string cache_key = key_prefix_ + structure_key;
  if (const auto cached = cache_->find(cache_key, serve::BlockKind::Pulse))
    return stamped(*cached, std::move(structure_key));
  return lower_schedule_block(cache_key, std::move(structure_key), serve::BlockKind::Pulse,
                              op.schedule, op.qubits, nullptr, false);
}

CompiledBlock Executor::compile_gate(const qc::Op& op) {
  if (is_virtual_gate(op.kind)) {
    CompiledBlock block;
    block.qubits = op.qubits;
    block.unitary = qc::gate_matrix(op.kind, op.constant_params());
    block.virtual_only = true;
    // Virtual blocks are never cached (building the 2x2 diagonal is cheaper
    // than a lookup), but they still need an identity for the fusion pass's
    // composed-key construction — same format as the cached gate keys, with
    // the exact hexfloat parameter rendering.
    std::ostringstream key;
    key << qc::gate_name(op.kind);
    for (std::size_t q : op.qubits) key << "," << q;
    for (double p : op.constant_params())
      key << ",p=" << std::hexfloat << p << std::defaultfloat;
    block.structure_key = key.str();
    return block;
  }
  if (op.kind == qc::GateKind::Delay) {
    // Timed identity: thermal relaxation and coherent frame drift act over
    // its span (it behaves exactly like idle time, which is what DD slices).
    CompiledBlock block;
    block.qubits = op.qubits;
    block.unitary = la::CMat::identity(2);
    block.duration_dt = static_cast<int>(op.params[0].value());
    block.explicit_idle = true;
    std::ostringstream key;
    key << "delay," << op.qubits[0] << ",dur=" << block.duration_dt;
    block.structure_key = key.str();
    return block;
  }
  if (op.kind != qc::GateKind::SX && op.kind != qc::GateKind::X &&
      op.kind != qc::GateKind::CX && op.kind != qc::GateKind::RZZ)
    throw Error("Executor: program not in native basis (got " + qc::gate_name(op.kind) +
                "); transpile first");

  // The key is the gate name, its physical qubits and (RZZ) its exact
  // angle; no schedule is built for it. CalibrationSet::sx/x/cx/rzz_direct
  // read only the qubits, theta, the QubitCalibration/CrCalibration fields
  // and the control-channel map, which follows the coupling map; the
  // backend fingerprint in key_prefix_ hashes all of those (and the
  // coherent-noise fields simulate_block reads). The schedule duration
  // follows from sx_duration/cr_duration, so it adds no identity.
  std::ostringstream key;
  key << qc::gate_name(op.kind);
  for (std::size_t q : op.qubits) key << "," << q;
  // Exact (hexfloat) parameter formatting: the default 6-sig-fig ostream
  // rendering made nearby angles collide on one cache slot, replaying a
  // stale compiled block for a different theta.
  if (op.kind == qc::GateKind::RZZ)
    key << ",theta=" << std::hexfloat << op.params[0].value() << std::defaultfloat;
  std::string structure_key = key.str();
  const std::string cache_key = key_prefix_ + structure_key;
  if (const auto cached = cache_->find(cache_key, serve::BlockKind::Gate))
    return stamped(*cached, std::move(structure_key));

  const pulse::CalibrationSet& cal = dev_.calibrations();
  pulse::Schedule sched;
  switch (op.kind) {
    case qc::GateKind::SX:
      sched = cal.sx(op.qubits[0]);
      break;
    case qc::GateKind::X:
      sched = cal.x(op.qubits[0]);
      break;
    case qc::GateKind::CX:
      sched = cal.cx(op.qubits[0], op.qubits[1]);
      break;
    default:
      // An RZZ surviving to execution means the pulse-efficient direct-CR
      // realization was requested.
      sched = cal.rzz_direct(op.qubits[0], op.qubits[1], op.params[0].value());
      break;
  }
  la::CMat exact;
  const bool coherent = options_.noise && options_.coherent_noise;
  if (!coherent) exact = qc::gate_matrix(op.kind, op.constant_params());
  return lower_schedule_block(cache_key, std::move(structure_key), serve::BlockKind::Gate,
                              sched, op.qubits, coherent ? nullptr : &exact,
                              op.kind == qc::GateKind::CX || op.kind == qc::GateKind::RZZ);
}

CompiledBlock Executor::lower_schedule_block(const std::string& cache_key,
                                             std::string structure_key,
                                             serve::BlockKind kind,
                                             const pulse::Schedule& sched,
                                             const std::vector<std::size_t>& qubits,
                                             const la::CMat* exact_unitary,
                                             bool fold_cx_phase_defect) {
  // A miss means a real compile (pulse-ODE simulation for coherent blocks):
  // span it so the trace separates compile time from cache-hit replay. Hit
  // traffic is counted by the cache's own block_cache.* series.
  ExecMetrics& em = ExecMetrics::get();
  obs::Span compile_span("executor.compile_block", &em.block_compile_ns);
  em.blocks_compiled.inc();

  CompiledBlock block;
  block.qubits = qubits;
  fill_schedule_metadata(block, sched);
  if (exact_unitary != nullptr) {
    block.unitary = *exact_unitary;
  } else {
    block.unitary = simulate_block(sched, qubits);
    if (fold_cx_phase_defect) {
      // Fold in the static phase defect of the two-qubit calibration.
      const auto [phi_c, phi_t] = dev_.cx_phase_error(qubits[0], qubits[1]);
      block.unitary = la::kron(qc::gate_matrix(qc::GateKind::RZ, {phi_t}),
                               qc::gate_matrix(qc::GateKind::RZ, {phi_c})) *
                      block.unitary;
    }
  }
  return stamped(*cache_->insert(cache_key, std::move(block), kind, dev_.fingerprint()),
                 std::move(structure_key));
}

CompiledProgram Executor::compile_program(const Program& program,
                                                    std::size_t max_qubits) {
  CompiledProgram cp;

  // Physical -> local compression.
  auto touch = [&](std::size_t q) {
    if (std::find(cp.touched.begin(), cp.touched.end(), q) == cp.touched.end())
      cp.touched.push_back(q);
  };
  for (const ExecOp& op : program.ops)
    for (std::size_t q : (op.is_pulse ? op.qubits : op.gate.qubits)) touch(q);
  for (std::size_t q : program.measure_qubits) touch(q);
  std::sort(cp.touched.begin(), cp.touched.end());
  HGP_REQUIRE(cp.touched.size() <= max_qubits,
              "Executor::run: too many active qubits to simulate");
  std::map<std::size_t, std::size_t> local_of;
  for (std::size_t i = 0; i < cp.touched.size(); ++i) local_of[cp.touched[i]] = i;
  cp.measure_phys = program.measure_qubits;
  for (std::size_t q : program.measure_qubits) cp.measure_local.push_back(local_of.at(q));

  // Compile blocks and lay out the ASAP timeline. Consecutive virtual
  // (diagonal Z-frame) blocks on a qubit fold into one diagonal unitary:
  // they commute with idle relaxation/drift up to a trajectory-global phase,
  // and a fold halves the per-shot apply count of RZ-heavy programs.
  cp.clock.assign(cp.touched.size(), 0);
  cp.op_slot.assign(program.ops.size(), -1);
  std::vector<long> pending_virtual(cp.touched.size(), -1);

  for (std::size_t oi = 0; oi < program.ops.size(); ++oi) {
    const ExecOp& op = program.ops[oi];
    if (!op.is_pulse && op.gate.kind == qc::GateKind::Barrier) {
      const int t = *std::max_element(cp.clock.begin(), cp.clock.end());
      std::fill(cp.clock.begin(), cp.clock.end(), t);
      continue;
    }
    if (!op.is_pulse && op.gate.kind == qc::GateKind::Measure) continue;
    Scheduled s;
    s.block = compile_block(op);
    for (std::size_t q : s.block.qubits) s.local.push_back(local_of.at(q));

    if (s.block.virtual_only && s.local.size() == 1) {
      const std::size_t lq = s.local[0];
      if (pending_virtual[lq] >= 0) {
        CompiledBlock& pending = cp.timeline[pending_virtual[lq]].block;
        pending.unitary = s.block.unitary * pending.unitary;
        pending.structure_key += "|" + s.block.structure_key;
        cp.op_slot[oi] = pending_virtual[lq];
        continue;
      }
      s.idle_before_dt.push_back(0);
      cp.timeline.push_back(std::move(s));
      pending_virtual[lq] = static_cast<long>(cp.timeline.size()) - 1;
      cp.op_slot[oi] = pending_virtual[lq];
      continue;
    }

    int t0 = 0;
    for (std::size_t lq : s.local) t0 = std::max(t0, cp.clock[lq]);
    for (std::size_t lq : s.local) {
      s.idle_before_dt.push_back(t0 - cp.clock[lq]);
      cp.clock[lq] = t0 + s.block.duration_dt;
      pending_virtual[lq] = -1;
    }
    cp.timeline.push_back(std::move(s));
    cp.op_slot[oi] = static_cast<long>(cp.timeline.size()) - 1;
  }
  cp.makespan_dt =
      cp.clock.empty() ? 0 : *std::max_element(cp.clock.begin(), cp.clock.end());
  return cp;
}

sim::Statevector Executor::evolve_noiseless(const CompiledProgram& cp) {
  // Fuse the timeline into fewer, bigger kernels. The noisy engines keep the
  // unfused timeline: fusion would change the FP rounding of the amplitudes
  // feeding every branch probability, and with it the RNG consumption
  // pattern.
  const FusionResult fr = fuse_for_engine(cp, options_.fusion_max_qubits, cache_.get(),
                                          key_prefix_, dev_.fingerprint());
  report_.fused_block_count = fr.program.timeline.size();
  sim::Statevector sv(cp.touched.size());
  for (const Scheduled& s : fr.program.timeline) sv.apply_matrix(s.block.unitary, s.local);
  return sv;
}

sim::Counts Executor::run_noiseless(const CompiledProgram& cp, std::size_t shots, Rng& rng) {
  const sim::Counts local_counts = evolve_noiseless(cp).sample(shots, rng);
  sim::Counts out;
  for (const auto& [bits, n] : local_counts) out[map_bits(bits, cp)] += n;
  return out;
}

void Executor::run_one_shot(const CompiledProgram& cp, sim::Statevector& sv, Rng& rng,
                            sim::Counts& out) const {
  const noise::NoiseModel& nm = dev_.noise_model();
  const double dep1 = nm.dep_per_1q_pulse;
  const double dep2 = nm.dep_per_2q_block;
  // Squared norm of the (deferred-normalization) trajectory state.
  double weight = 1.0;

  auto relax = [&](std::size_t lq, int duration_dt) {
    if (duration_dt <= 0) return;
    const noise::QubitNoise& qn = nm.qubits[cp.touched[lq]];
    const noise::RelaxationConstants rc =
        noise::relaxation_constants(qn.t1_us, qn.t2_us, duration_dt * pulse::kDtNs);
    traj_thermal_relaxation(sv, weight, lq, rc, rng);
  };
  // Coherent frame drift while idling: the qubit precesses at its true
  // (drifted) frequency but the frame stays at the calibrated one, so a
  // static Z-phase builds up — shot-independent, hence *learnable* by the
  // pulse ansatz's phase knob but invisible to fixed gate calibrations.
  // (During blocks the subsystem Hamiltonian carries the same detuning.)
  auto idle_drift = [&](std::size_t lq, int duration_dt) {
    if (duration_dt <= 0 || !options_.coherent_noise) return;
    const double drift = nm.qubits[cp.touched[lq]].freq_drift_ghz;
    if (drift == 0.0) return;
    const double angle = 2.0 * la::kPi * drift * duration_dt * pulse::kDtNs;
    traj_rz(sv, lq, angle);
  };

  walk_noise_timeline(
      cp, dep1, dep2, dev_.readout_duration_dt(), relax, idle_drift,
      [&](std::size_t lq, la::cxd ratio, const la::CMat&) { traj_phase(sv, lq, ratio); },
      [&](const la::CMat& u, const std::vector<std::size_t>& locals) {
        sv.apply_matrix(u, locals);
      },
      [&](const std::vector<std::size_t>& qubits, double p) {
        noise::apply_depolarizing(sv, qubits, p, rng);
      });

  std::uint64_t bits = traj_sample_one(sv, weight, rng);
  if (options_.readout_error) bits = apply_readout_flips(bits, cp, nm, rng);
  ++out[map_bits(bits, cp)];
}

namespace {

/// Evolve bsv.lanes() trajectories in lockstep through the compiled
/// timeline — the shared noise walk of run_lane_group (which samples the
/// terminal states) and Executor::run_expectation (which reduces them
/// exactly). Fills and returns the thread-local workspace: per-lane child
/// streams positioned after the last noise draw, deferred-normalization
/// weights, and diverged flags.
LaneWorkspace& evolve_lanes(const backend::FakeBackend& dev, const ExecutorOptions& options,
                            const CompiledProgram& cp, sim::BatchedStatevector& bsv,
                            std::uint64_t rng_base, std::size_t first_shot) {
  const std::size_t nl = bsv.lanes();
  const noise::NoiseModel& nm = dev.noise_model();
  const double dep1 = nm.dep_per_1q_pulse;
  const double dep2 = nm.dep_per_2q_block;

  // Kraus-branch telemetry: plain locals bumped inside the branch decisions
  // (no atomics, no clock) and flushed to the sharded counters once per lane
  // group — per-draw instrumentation would be the one thing that could blow
  // the <=2% telemetry budget.
  std::uint64_t n_jumps = 0, n_flips = 0, n_pauli = 0;

  static thread_local LaneWorkspace ws;

  // Per-lane streams: lane l replays exactly the draw sequence shot
  // first_shot + l makes in the scalar path (uniform before bernoulli per
  // relaxation, bernoulli then rejection-sampled pick per depolarizing,
  // sample uniform then readout flips at the end).
  std::vector<Rng>& rngs = ws.rngs;
  rngs.clear();
  rngs.reserve(nl);
  for (std::size_t l = 0; l < nl; ++l) rngs.push_back(Rng::child(rng_base, first_shot + l));

  // Squared norms of the (deferred-normalization) per-lane states, and which
  // lanes took any stochastic branch (jump / phase flip / Pauli pick) — the
  // untouched lanes stay bitwise identical and share one sampling pass.
  std::vector<double>& weight = ws.weight;
  std::vector<std::uint8_t>& diverged = ws.diverged;
  std::vector<double>& x = ws.x;
  std::vector<double>& m1 = ws.m1;
  std::vector<double>& take = ws.take;
  std::vector<double>& scale1 = ws.scale1;
  std::vector<std::uint8_t>& precheck = ws.precheck;
  std::vector<std::uint8_t>& flip = ws.flip;
  weight.assign(nl, 1.0);
  diverged.assign(nl, 0);
  x.resize(nl);
  m1.resize(nl);
  take.resize(nl);
  scale1.resize(nl);
  precheck.resize(nl);
  flip.resize(nl);

  auto relax = [&](std::size_t lq, int duration_dt) {
    if (duration_dt <= 0) return;
    const noise::QubitNoise& qn = nm.qubits[cp.touched[lq]];
    const noise::RelaxationConstants rc =
        noise::relaxation_constants(qn.t1_us, qn.t2_us, duration_dt * pulse::kDtNs);
    // Draw phase (scalar per-shot order): one uniform for the damping branch
    // when gamma > 0, then one bernoulli for dephasing. The jump shortcut is
    // the scalar one — u >= gamma * weight settles "no jump" without the
    // mass; only lanes inside the window need m1 before deciding.
    bool any_precheck = false, any_flip = false;
    for (std::size_t l = 0; l < nl; ++l) {
      precheck[l] = 0;
      if (rc.gamma > 0.0) {
        x[l] = rngs[l].uniform() * weight[l];
        if (x[l] < rc.gamma * weight[l]) {
          precheck[l] = 1;
          any_precheck = true;
        }
      }
      flip[l] = rc.dephase ? static_cast<std::uint8_t>(rngs[l].bernoulli(rc.p_z)) : 0;
      if (flip[l]) {
        any_flip = true;
        diverged[l] = 1;
        ++n_flips;
      }
    }
    if (rc.gamma > 0.0) {
      if (!any_precheck) {
        // No lane can jump: fused mass + damp pass (dephasing sign folded —
        // amp * (-damp) rounds identically to -(amp * damp)).
        for (std::size_t l = 0; l < nl; ++l) scale1[l] = flip[l] ? -rc.damp : rc.damp;
        bsv.fused_mass_damp(lq, scale1.data(), m1.data());
        for (std::size_t l = 0; l < nl; ++l) weight[l] -= rc.gamma * m1[l];
      } else {
        bsv.masses_one(lq, m1.data());
        for (std::size_t l = 0; l < nl; ++l) {
          if (precheck[l] && x[l] < rc.gamma * m1[l]) {
            take[l] = 1.0;
            scale1[l] = 0.0;  // jump: |1> moves to |0> (flip acts on zeros)
            weight[l] = m1[l];
            diverged[l] = 1;
            ++n_jumps;
          } else {
            take[l] = 0.0;
            scale1[l] = flip[l] ? -rc.damp : rc.damp;
            weight[l] -= rc.gamma * m1[l];
          }
        }
        bsv.damp_or_jump(lq, take.data(), scale1.data());
      }
    } else if (any_flip) {
      for (std::size_t l = 0; l < nl; ++l) {
        take[l] = 0.0;
        scale1[l] = flip[l] ? -1.0 : 1.0;
      }
      bsv.damp_or_jump(lq, take.data(), scale1.data());
    }
  };
  auto idle_drift = [&](std::size_t lq, int duration_dt) {
    if (duration_dt <= 0 || !options.coherent_noise) return;
    const double drift = nm.qubits[cp.touched[lq]].freq_drift_ghz;
    if (drift == 0.0) return;
    const double angle = 2.0 * la::kPi * drift * duration_dt * pulse::kDtNs;
    bsv.apply_phase_ratio(lq, std::polar(1.0, angle));
  };
  // Depolarizing charges: draw every lane's Pauli pick first (per-lane
  // stream order unchanged), then walk the block's qubits once. A qubit
  // where two or more lanes drew a non-identity Pauli takes the grouped
  /// one-sweep Pauli pass; a lone charged lane keeps the strided per-lane
  // apply. Both are bitwise identical to the per-lane path, so the grouping
  // threshold is purely a throughput choice — at large dep rates most
  // charges fold into the grouped sweep.
  std::vector<int>& picks = ws.picks;
  std::vector<std::uint8_t>& codes = ws.codes;
  picks.resize(nl);
  codes.resize(nl);
  auto depolarize = [&](const std::vector<std::size_t>& qubits, double p) {
    std::size_t charged = 0;
    for (std::size_t l = 0; l < nl; ++l) {
      picks[l] = noise::sample_depolarizing(qubits.size(), p, rngs[l]);
      if (picks[l] != 0) {
        diverged[l] = 1;
        ++charged;
        ++n_pauli;
      }
    }
    if (charged == 0) return;
    for (std::size_t i = 0; i < qubits.size(); ++i) {
      std::size_t active = 0, last = 0;
      for (std::size_t l = 0; l < nl; ++l) {
        codes[l] = static_cast<std::uint8_t>((picks[l] >> (2 * i)) & 3);
        if (codes[l] != 0) {
          ++active;
          last = l;
        }
      }
      if (active == 0) continue;
      if (active == 1) {
        bsv.apply_matrix_one_lane(la::pauli_matrix(static_cast<la::Pauli>(codes[last])),
                                  {qubits[i]}, last);
      } else {
        bsv.apply_pauli_lanes(qubits[i], codes.data());
      }
    }
  };

  walk_noise_timeline(
      cp, dep1, dep2, dev.readout_duration_dt(), relax, idle_drift,
      [&](std::size_t lq, la::cxd ratio, const la::CMat&) {
        bsv.apply_phase_ratio(lq, ratio);
      },
      [&](const la::CMat& u, const std::vector<std::size_t>& locals) {
        bsv.apply_matrix(u, locals);
      },
      depolarize);

  if (obs::enabled() && (n_jumps | n_flips | n_pauli) != 0) {
    ExecMetrics& em = ExecMetrics::get();
    if (n_jumps) em.kraus_jumps.inc(n_jumps);
    if (n_flips) em.dephase_flips.inc(n_flips);
    if (n_pauli) em.pauli_charges.inc(n_pauli);
  }
  return ws;
}

}  // namespace

void Executor::run_lane_group(const CompiledProgram& cp, sim::BatchedStatevector& bsv,
                              std::uint64_t rng_base, std::size_t first_shot,
                              sim::Counts& out) const {
  const std::size_t nl = bsv.lanes();
  const noise::NoiseModel& nm = dev_.noise_model();
  ExecMetrics& em = ExecMetrics::get();
  obs::Span evolve_span("executor.lane_evolve", &em.lane_evolve_ns);
  LaneWorkspace& ws = evolve_lanes(dev_, options_, cp, bsv, rng_base, first_shot);
  evolve_span.finish();
  obs::Span sample_span("executor.sample", &em.sample_ns);
  std::vector<Rng>& rngs = ws.rngs;
  std::vector<double>& weight = ws.weight;
  std::vector<std::uint8_t>& diverged = ws.diverged;
  std::vector<double>& x = ws.x;

  // Terminal sampling: per-lane stream order is one uniform, then the
  // readout flips. Lanes that never took a stochastic branch are bitwise
  // identical — sort their draws and emit them in one shared accumulate
  // pass; diverged lanes each scan their own lane in one lane-major pass.
  for (std::size_t l = 0; l < nl; ++l) x[l] = rngs[l].uniform() * weight[l];
  std::vector<std::uint64_t>& bits = ws.bits;
  bits.resize(nl);
  std::vector<std::pair<double, std::size_t>>& clean = ws.clean;
  clean.clear();
  clean.reserve(nl);
  for (std::size_t l = 0; l < nl; ++l)
    if (!diverged[l]) clean.emplace_back(x[l], l);
  if (!clean.empty()) {
    std::sort(clean.begin(), clean.end());
    bsv.sample_sorted(clean.back().second, clean.data(), clean.size(), bits.data());
  }
  if (clean.size() < nl) bsv.sample_lanes(x.data(), diverged.data(), bits.data());

  for (std::size_t l = 0; l < nl; ++l) {
    std::uint64_t b = bits[l];
    if (options_.readout_error) b = apply_readout_flips(b, cp, nm, rngs[l]);
    ++out[map_bits(b, cp)];
  }
  em.lane_groups.inc();
  em.shots.inc(nl);
}

sim::Counts Executor::run_trajectories(const CompiledProgram& cp, std::size_t shots,
                                       Rng& rng) const {
  const std::size_t lanes = options_.shot_batch_lanes;
  std::vector<sim::Counts> batch_counts(shot_batches(shots));
  // Throughput gauges cover the whole shot grid (all batches, all threads);
  // the clock is read only while telemetry is live.
  const std::uint64_t t0 = obs::enabled() ? obs::now_ns() : 0;
  if (lanes <= 1) {
    // Scalar reference engine: one shot at a time on a reused statevector.
    for_each_lane_group<sim::Statevector>(
        options_, cp.touched.size(), shots, rng,
        [&](std::size_t b, sim::Statevector& sv, std::uint64_t base, std::size_t shot) {
          Rng shot_rng = Rng::child(base, shot);
          run_one_shot(cp, sv, shot_rng, batch_counts[b]);
          ExecMetrics::get().shots.inc();
        });
  } else {
    for_each_lane_group<sim::BatchedStatevector>(
        options_, cp.touched.size(), shots, rng,
        [&](std::size_t b, sim::BatchedStatevector& bsv, std::uint64_t base,
            std::size_t first) { run_lane_group(cp, bsv, base, first, batch_counts[b]); });
  }
  if (t0 != 0) {
    const double secs = static_cast<double>(obs::now_ns() - t0) * 1e-9;
    if (secs > 0.0) {
      ExecMetrics& em = ExecMetrics::get();
      em.trajectory_shots_per_s.set(
          static_cast<std::int64_t>(static_cast<double>(shots) / secs));
      const std::size_t groups = lanes > 1 ? (shots + lanes - 1) / lanes : 0;
      em.lane_groups_per_s.set(
          static_cast<std::int64_t>(static_cast<double>(groups) / secs));
    }
  }

  // Deterministic merge: batch order is fixed and count addition commutes.
  sim::Counts out;
  for (const sim::Counts& bc : batch_counts)
    for (const auto& [bits, n] : bc) out[bits] += n;
  return out;
}

sim::Counts Executor::run_exact_density(const CompiledProgram& cp, std::size_t shots,
                                        Rng& rng) const {
  // The only stochastic element: multinomial shot noise on the exact
  // distribution.
  return sim::sample_from_probabilities(density_distribution(cp), shots, rng);
}

std::vector<double> Executor::density_distribution(const CompiledProgram& cp) const {
  const noise::NoiseModel& nm = dev_.noise_model();
  sim::DensityMatrix dm(cp.touched.size());

  auto relax = [&](std::size_t lq, int duration_dt) {
    if (duration_dt <= 0) return;
    const noise::QubitNoise& qn = nm.qubits[cp.touched[lq]];
    dm.apply_thermal_relaxation(lq, qn.t1_us, qn.t2_us, duration_dt * pulse::kDtNs);
  };
  auto idle_drift = [&](std::size_t lq, int duration_dt) {
    if (duration_dt <= 0 || !options_.coherent_noise) return;
    const double drift = nm.qubits[cp.touched[lq]].freq_drift_ghz;
    if (drift == 0.0) return;
    const double angle = 2.0 * la::kPi * drift * duration_dt * pulse::kDtNs;
    dm.apply_matrix(qc::gate_matrix(qc::GateKind::RZ, {angle}), {lq});
  };

  walk_noise_timeline(
      cp, nm.dep_per_1q_pulse, nm.dep_per_2q_block, dev_.readout_duration_dt(), relax,
      idle_drift,
      // Exact evolution keeps the full virtual-diagonal unitary (global
      // phase cancels in U rho U†, so no fold is needed).
      [&](std::size_t lq, la::cxd, const la::CMat& u) { dm.apply_matrix(u, {lq}); },
      [&](const la::CMat& u, const std::vector<std::size_t>& locals) {
        dm.apply_matrix(u, locals);
      },
      [&](const std::vector<std::size_t>& qubits, double p) {
        dm.apply_depolarizing(qubits, p);
      });

  // Marginalize the exact distribution onto the measured bits.
  const std::vector<double> p_full = dm.probabilities();
  std::vector<double> p(std::size_t{1} << cp.measure_local.size(), 0.0);
  for (std::uint64_t i = 0; i < p_full.size(); ++i) p[map_bits(i, cp)] += p_full[i];

  if (options_.readout_error) fold_readout(p, cp, nm, /*transpose=*/false);
  return p;
}

void Executor::refresh_key_prefix() {
  // Refresh the cache-key prefix each run so a recalibrated (or
  // noise-model-mutated) backend never replays stale compiled blocks out of
  // a shared cache.
  std::ostringstream prefix;
  prefix << dev_.name() << '#' << std::hex << dev_.fingerprint() << std::dec
         << (options_.noise && options_.coherent_noise ? "#coh;" : "#exact;");
  key_prefix_ = prefix.str();
}

sim::Counts Executor::run(const Program& program, std::size_t shots, Rng& rng) {
  HGP_REQUIRE(!program.measure_qubits.empty(), "Executor::run: nothing to measure");
  if (options_.cancel) options_.cancel->check();
  refresh_key_prefix();

  ExecMetrics& em = ExecMetrics::get();
  obs::Span run_span("executor.run", &em.run_ns);
  const bool noisy = options_.noise;
  const bool density = noisy && options_.engine == Engine::ExactDensity;
  obs::Span compile_span("executor.compile", &em.compile_ns);
  const CompiledProgram cp =
      compile_program(program, density ? kMaxDensityQubits : kMaxTrajectoryQubits);
  compile_span.finish();
  report_ = ExecutionReport{cp.makespan_dt, dev_.readout_duration_dt(), cp.timeline.size(),
                            cp.timeline.size()};

  if (!noisy) return run_noiseless(cp, shots, rng);
  if (density) return run_exact_density(cp, shots, rng);
  return run_trajectories(cp, shots, rng);
}

double Executor::run_expectation(const Program& program, std::size_t shots, Rng& rng,
                                 const ObjectiveSpec& spec) {
  HGP_REQUIRE(spec.kind != ObjectiveKind::Sample,
              "Executor::run_expectation: Sample objectives go through run()");
  HGP_REQUIRE(static_cast<bool>(spec.value),
              "Executor::run_expectation: objective has no value function");
  HGP_REQUIRE(!program.measure_qubits.empty(),
              "Executor::run_expectation: nothing to measure");
  if (options_.cancel) options_.cancel->check();

  refresh_key_prefix();
  ExecMetrics& em = ExecMetrics::get();
  // Objective aggregation (evolve + exact per-shot reduction) as one span.
  obs::Span objective_span("executor.objective", &em.aggregate_ns);
  const bool noisy = options_.noise;
  const bool density = noisy && options_.engine == Engine::ExactDensity;
  obs::Span compile_span("executor.compile", &em.compile_ns);
  const CompiledProgram cp =
      compile_program(program, density ? kMaxDensityQubits : kMaxTrajectoryQubits);
  compile_span.finish();
  report_ = ExecutionReport{cp.makespan_dt, dev_.readout_duration_dt(), cp.timeline.size(),
                            cp.timeline.size()};

  const noise::NoiseModel& nm = dev_.noise_model();
  const bool expectation = spec.kind == ObjectiveKind::Expectation;
  // Trajectory shots reduce exactly, so their readout confusion commutes
  // into the value table (folded once instead of per shot); every other
  // engine folds it into the distribution.
  const OutcomeTables t =
      tabulate(cp, spec, noisy && !density && options_.readout_error ? &nm : nullptr);
  const std::size_t mdim = t.value.size();

  // CVaR: the outcome distribution the tail is taken over.
  std::vector<double> p;
  if (density) {
    // Exact objective over the folded distribution — no stochastic element.
    p = density_distribution(cp);
    if (expectation) {
      double num = 0.0, den = 0.0;
      for (std::size_t j = 0; j < mdim; ++j) {
        num += t.value[j] * p[j];
        den += p[j];
      }
      return num / den;
    }
  } else if (!noisy) {
    // One deterministic evolve, one exact reduction — shots and rng are
    // untouched, and there is no sampling noise at all.
    const sim::Statevector sv = evolve_noiseless(cp);
    if (expectation) {
      double num = 0.0, den = 0.0;
      sv.weighted_mass(t.local_value.data(), num, den);
      return num / den;
    }
    // Exact (unnormalized) outcome masses in ascending basis order — the
    // same additions accumulate_mapped performs per lane, so the batched
    // candidate path is bit-identical to this one.
    p.assign(mdim, 0.0);
    const la::CVec& amp = sv.data();
    for (std::uint64_t i = 0; i < amp.size(); ++i) {
      const double ar = amp[i].real(), ai = amp[i].imag();
      p[t.local_outcome[i]] += ar * ar + ai * ai;
    }
  } else {
    // Trajectory noise: run()'s shot grid, but each shot contributes its
    // exact terminal distribution instead of one sample, so the only
    // residual stochastic element is the trajectory unraveling itself.
    // Per-shot reductions accumulate per batch in shot order and merge in
    // batch order, making the result bit-identical for every thread count
    // and lane width.
    HGP_REQUIRE(shots > 0, "Executor::run_expectation: need at least one shot");
    const std::size_t num_batches = shot_batches(shots);
    std::vector<double> batch_acc(expectation ? num_batches : 0, 0.0);
    std::vector<double> batch_p(expectation ? 0 : num_batches * mdim, 0.0);
    for_each_lane_group<sim::BatchedStatevector>(
        options_, cp.touched.size(), shots, rng,
        [&](std::size_t b, sim::BatchedStatevector& bsv, std::uint64_t base,
            std::size_t first) {
          const std::size_t nl = bsv.lanes();
          evolve_lanes(dev_, options_, cp, bsv, base, first);
          if (expectation) {
            // Per-shot normalized expectation (den carries the trajectory's
            // deferred-normalization weight).
            std::vector<double> num(nl), den(nl);
            bsv.weighted_masses(t.local_value.data(), num.data(), den.data());
            for (std::size_t l = 0; l < nl; ++l) batch_acc[b] += num[l] / den[l];
            return;
          }
          // Per-shot normalized outcome distribution into the batch sum.
          std::vector<double> mass(mdim * nl, 0.0);
          bsv.accumulate_mapped(t.local_outcome.data(), mass.data());
          double* pb = &batch_p[b * mdim];
          for (std::size_t l = 0; l < nl; ++l) {
            double d = 0.0;
            for (std::size_t j = 0; j < mdim; ++j) d += mass[j * nl + l];
            for (std::size_t j = 0; j < mdim; ++j) pb[j] += mass[j * nl + l] / d;
          }
        });
    if (expectation) {
      double total = 0.0;
      for (std::size_t b = 0; b < num_batches; ++b) total += batch_acc[b];
      return total / static_cast<double>(shots);
    }
    // The tail statistic does not commute with per-shot averaging, so the
    // confusion acts on the shot-averaged distribution, not on the values.
    p.assign(mdim, 0.0);
    for (std::size_t b = 0; b < num_batches; ++b)
      for (std::size_t j = 0; j < mdim; ++j) p[j] += batch_p[b * mdim + j];
    for (std::size_t j = 0; j < mdim; ++j) p[j] /= static_cast<double>(shots);
    if (options_.readout_error) fold_readout(p, cp, nm, /*transpose=*/false);
  }
  return mit::cvar_from_distribution(p, t.value, spec.cvar_alpha, spec.cvar_maximize);
}

std::vector<double> Executor::run_expectation_batch(const std::vector<Program>& programs,
                                                    const ObjectiveSpec& spec) {
  HGP_REQUIRE(!programs.empty(), "Executor::run_expectation_batch: no candidates");
  HGP_REQUIRE(spec.kind != ObjectiveKind::Sample,
              "Executor::run_expectation_batch: Sample objectives go through run()");
  HGP_REQUIRE(static_cast<bool>(spec.value),
              "Executor::run_expectation_batch: objective has no value function");
  HGP_REQUIRE(!options_.noise,
              "Executor::run_expectation_batch: candidate-lane batching is noiseless only");
  if (options_.cancel) options_.cancel->check();

  refresh_key_prefix();
  ExecMetrics& em = ExecMetrics::get();
  obs::Span batch_span("executor.candidate_batch");
  em.expectation_batches.inc();
  const std::size_t B = programs.size();
  const Program& p0 = programs.front();
  HGP_REQUIRE(!p0.measure_qubits.empty(),
              "Executor::run_expectation_batch: nothing to measure");

  // Candidate-lane batching requires one shared circuit structure: the same
  // register, measurement map, and block placement — only parameter values
  // may differ lane to lane. So candidate 0 is compiled in full once and
  // every other lane is delta-compiled against it: per timeline slot, only
  // ops whose parameters actually changed recompile (a full per-candidate
  // compile_program — key building, cache lookups, block copies — was the
  // dominant cost of small batches).
  const CompiledProgram c0 = compile_program(p0, kMaxTrajectoryQubits);
  const std::size_t steps = c0.timeline.size();

  // Contributing ops per slot, in program order (virtual folds put several
  // ops into one slot).
  std::vector<std::vector<std::size_t>> slot_ops(steps);
  for (std::size_t i = 0; i < p0.ops.size(); ++i)
    if (c0.op_slot[i] >= 0) slot_ops[static_cast<std::size_t>(c0.op_slot[i])].push_back(i);

  // lane_us[s] empty => every lane shares candidate 0's unitary (broadcast).
  std::vector<std::vector<la::CMat>> lane_us(steps);
  // lane_dirty[s][l]: lane l's slot-s unitary was recompiled (differs from
  // candidate 0's). Drives the per-lane recompose of fused slots below.
  std::vector<std::vector<bool>> lane_dirty(steps);
  for (std::size_t l = 1; l < B; ++l) {
    const Program& pl = programs[l];
    HGP_REQUIRE(pl.measure_qubits == p0.measure_qubits && pl.ops.size() == p0.ops.size(),
                "Executor::run_expectation_batch: candidates are not structurally "
                "identical");
    for (std::size_t i = 0; i < pl.ops.size(); ++i)
      HGP_REQUIRE(same_op_structure(pl.ops[i], p0.ops[i]),
                  "Executor::run_expectation_batch: candidate timelines diverge");
    for (std::size_t s = 0; s < steps; ++s) {
      bool dirty = false;
      for (std::size_t i : slot_ops[s])
        if (!same_op_unitary(pl.ops[i], p0.ops[i])) {
          dirty = true;
          break;
        }
      if (!dirty) continue;
      if (lane_us[s].empty()) {
        lane_us[s].assign(B, c0.timeline[s].block.unitary);
        lane_dirty[s].assign(B, false);
      }
      lane_dirty[s][l] = true;
      // Recompute the slot's (possibly folded) unitary in compile_program's
      // exact multiply order, so the lane stays bit-identical to a scalar
      // compile of this candidate.
      la::CMat u = compile_block(pl.ops[slot_ops[s].front()]).unitary;
      for (std::size_t i = 1; i < slot_ops[s].size(); ++i)
        u = compile_block(pl.ops[slot_ops[s][i]]).unitary * u;
      lane_us[s][l] = std::move(u);
    }
  }
  report_ = ExecutionReport{c0.makespan_dt, dev_.readout_duration_dt(), steps, steps};

  // Fuse candidate 0's timeline, then route the delta-compiled lanes through
  // the fused slots: a fused slot whose constituents are clean on every lane
  // applies once broadcast; a slot with dirty lanes re-composes exactly those
  // lanes' unitaries with compose_fused — the same composition fuse_program
  // performs — so each lane stays bit-identical to a scalar fused run of
  // that candidate.
  const FusionResult fr = fuse_for_engine(c0, options_.fusion_max_qubits, cache_.get(),
                                          key_prefix_, dev_.fingerprint());
  const std::size_t fused_steps = fr.program.timeline.size();
  report_.fused_block_count = fused_steps;
  std::vector<std::vector<la::CMat>> fused_us(fused_steps);
  for (std::size_t g = 0; g < fused_steps; ++g) {
    const std::vector<std::size_t>& srcs = fr.slots[g].sources;
    if (srcs.size() == 1) {
      fused_us[g] = std::move(lane_us[srcs[0]]);
      continue;
    }
    const bool any_varied = std::any_of(srcs.begin(), srcs.end(), [&](std::size_t src) {
      return !lane_us[src].empty();
    });
    if (!any_varied) continue;  // broadcast the fused unitary
    fused_us[g].assign(B, fr.program.timeline[g].block.unitary);
    std::vector<FusePartView> parts(srcs.size());
    for (std::size_t l = 1; l < B; ++l) {
      const bool lane_varied = std::any_of(srcs.begin(), srcs.end(), [&](std::size_t src) {
        return !lane_dirty[src].empty() && lane_dirty[src][l];
      });
      if (!lane_varied) continue;
      for (std::size_t i = 0; i < srcs.size(); ++i) {
        const std::size_t src = srcs[i];
        parts[i].u = lane_us[src].empty() ? &c0.timeline[src].block.unitary
                                          : &lane_us[src][l];
        parts[i].local = &c0.timeline[src].local;
      }
      fused_us[g][l] = compose_fused(parts.data(), parts.size(), fr.program.timeline[g].local);
    }
  }

  // One lane-batched evolve for all candidates: blocks whose unitaries agree
  // across every lane (the unparameterized majority) apply once broadcast;
  // parameterized blocks take the per-lane kernels.
  sim::BatchedStatevector bsv(c0.touched.size(), B);
  for (std::size_t s = 0; s < fused_steps; ++s) {
    if (fused_us[s].empty())
      bsv.apply_matrix(fr.program.timeline[s].block.unitary, fr.program.timeline[s].local);
    else
      bsv.apply_matrix_per_lane(fused_us[s], fr.program.timeline[s].local);
  }

  const OutcomeTables t = tabulate(c0, spec, nullptr);
  const std::size_t mdim = t.value.size();
  std::vector<double> out(B);
  if (spec.kind == ObjectiveKind::Expectation) {
    std::vector<double> num(B), den(B);
    bsv.weighted_masses(t.local_value.data(), num.data(), den.data());
    for (std::size_t l = 0; l < B; ++l) out[l] = num[l] / den[l];
  } else {
    std::vector<double> mass(mdim * B, 0.0);
    bsv.accumulate_mapped(t.local_outcome.data(), mass.data());
    std::vector<double> p(mdim);
    for (std::size_t l = 0; l < B; ++l) {
      for (std::size_t j = 0; j < mdim; ++j) p[j] = mass[j * B + l];
      out[l] = mit::cvar_from_distribution(p, t.value, spec.cvar_alpha, spec.cvar_maximize);
    }
  }
  return out;
}

}  // namespace hgp::core
