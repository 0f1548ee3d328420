#include "core/executor.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <exception>
#include <iomanip>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/error.hpp"
#include "mitigation/cvar.hpp"
#include "noise/channels.hpp"
#include "obs/trace.hpp"
#include "pulsesim/simulator.hpp"
#include "sim/kernel_structure.hpp"

namespace hgp::core {

using la::CMat;

/// One evaluation's view of a template: the template's blocks and fused
/// compositions used in place, except where the evaluation's changed ops
/// dirtied a slot or a fused group — those point at this binding's own.
struct BoundProgram {
  const ProgramTemplate* t = nullptr;
  /// Per unfused timeline slot: the block the engines apply.
  std::vector<const CompiledBlock*> blocks;
  /// Per fused slot (noiseless templates): the unitary the evolve applies.
  std::vector<const CMat*> fused;
  /// Owners of the recomputed parts, reserved up front so the pointers above
  /// stay valid. Probed blocks stay alive even if the cache evicts them.
  std::vector<std::shared_ptr<const CompiledBlock>> probed;
  std::vector<CompiledBlock> folds;
  std::vector<CMat> composed;
};

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
  /// One exact density evaluation: the noisy walk over rho, its
  /// marginalization and readout fold.
  obs::Histogram& density_ns;
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
                         reg.histogram("executor.density_ns"),
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

/// ProgramTemplate::mode bit: the template's noisy evaluations run on the
/// exact density engine (ExactDensity, or Auto resolved at compile).
constexpr std::uint32_t kModeDensity = 8u;

bool on_density(const ProgramTemplate& t) { return (t.mode & kModeDensity) != 0; }

/// Virtual gates are the single-qubit diagonals — realized as Z-frame
/// updates, zero duration, no pulse. Same diagonal vocabulary as the
/// transpiler's commutation scans (qc::gate_is_diagonal); the 2q diagonals
/// (CZ, RZZ) are excluded because they do cost a cross-resonance pulse.
bool is_virtual_gate(qc::GateKind k) {
  return qc::gate_is_diagonal(k) && qc::gate_arity(k) == 1;
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

/// The exact diagonal of a virtual gate — the unit a virtual slot folds.
la::CMat virtual_unitary(const qc::Op& op) {
  return qc::gate_matrix(op.kind, op.constant_params());
}

bool has_frequency_instruction(const pulse::Schedule& sched) {
  for (const pulse::TimedInstruction& ti : sched.instructions())
    if (std::holds_alternative<pulse::ShiftFrequency>(ti.inst) ||
        std::holds_alternative<pulse::SetFrequency>(ti.inst))
      return true;
  return false;
}

using sim::detail::is_diagonal2;

/// The canonical noise-timeline walk of every executor engine: idle
/// relaxation + frame drift before each block, the foldable virtual-diagonal
/// shortcut, block application, per-block relaxation, and the drive/CR
/// depolarizing charges, ending with the idle-to-readout relaxation. The
/// trajectory and exact-density engines both traverse through here, so the
/// schedule and charge policy have a single source of truth; only the
/// kernels differ.
///   relax(lq, duration_dt), drift(lq, duration_dt),
///   phase(lq, ratio, unitary)  — 1q virtual diagonal block; the trajectory
///     engine drops the global phase and multiplies by ratio, the density
///     engine applies the full unitary,
///   apply(unitary, locals), depolarize(qubits, p)
template <typename Relax, typename Drift, typename Phase, typename Apply, typename Depol>
void walk_noise_timeline(const BoundProgram& b, double dep1, double dep2, int readout_dt,
                         Relax&& relax, Drift&& drift, Phase&& phase, Apply&& apply,
                         Depol&& depolarize) {
  const CompiledProgram& cp = b.t->program;
  for (std::size_t slot = 0; slot < cp.timeline.size(); ++slot) {
    const Scheduled& s = cp.timeline[slot];
    const CompiledBlock& block = *b.blocks[slot];
    for (std::size_t i = 0; i < s.local.size(); ++i) {
      relax(s.local[i], s.idle_before_dt[i]);
      drift(s.local[i], s.idle_before_dt[i]);
    }
    if (block.virtual_only && s.local.size() == 1 && is_diagonal2(block.unitary)) {
      // Virtual Z-frame blocks are diagonal: half-pass, global phase dropped.
      phase(s.local[0], block.unitary(1, 1) / block.unitary(0, 0), block.unitary);
      continue;
    }
    apply(block.unitary, s.local);
    if (block.virtual_only) continue;
    for (std::size_t lq : s.local) relax(lq, block.duration_dt);
    if (block.explicit_idle) {
      for (std::size_t lq : s.local) drift(lq, block.duration_dt);
      continue;
    }
    if (block.drive_plays > 0) {
      // Charge 1q depolarizing per drive pulse, spread over the block's
      // qubits (exact for 1q blocks; even split for multi-qubit blocks).
      const double p = dep1 * static_cast<double>(block.drive_plays) /
                       static_cast<double>(s.local.size());
      for (std::size_t lq : s.local) depolarize({lq}, p);
    }
    if (block.cr_halves > 0 && s.local.size() >= 2) {
      const double p = dep2 * static_cast<double>(block.cr_halves) / 2.0;
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
/// from the shot's stream.
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

/// The trajectory shot grid, the one loop behind run() and
/// run_expectation(). One parent draw seeds it: the caller's Rng advances by
/// exactly one step regardless of shots, batches, lanes, or thread count,
/// and shot s owns Rng::child(base, s), so results depend only on
/// (base, shots), not on how shots group into thread batches or lockstep
/// lanes. Each batch of the fixed grid walks groups of shot_batch_lanes
/// shots (0 and 1 both mean one-lane groups) on one reused full-width
/// BatchedStatevector, plus a tail-width one when the batch does not divide
/// evenly. The cancel token is polled at every batch and group boundary, so
/// a cancelled run throws within one group whatever the shot budget.
/// group(b, state, base, first_shot) does batch b's work for the shots from
/// first_shot on, one per lane of the reset state. Returns the number of
/// groups walked.
template <typename Group>
std::size_t for_each_lane_group(const ExecutorOptions& options, std::size_t num_qubits,
                                std::size_t shots, Rng& rng, Group&& group) {
  const std::uint64_t base = rng.next_u64();
  const std::size_t lanes = std::max<std::size_t>(1, options.shot_batch_lanes);
  const CancelToken* tok = options.cancel.get();
  for_each_batch(shot_batches(shots), options.num_threads, [&](std::size_t b) {
    if (tok) tok->check();
    const std::size_t first = b * kShotsPerBatch;
    const std::size_t count = std::min(kShotsPerBatch, shots - first);
    std::unique_ptr<sim::BatchedStatevector> full, tail;
    for (std::size_t g = 0; g < count; g += lanes) {
      if (tok) tok->check();
      const std::size_t nl = std::min(lanes, count - g);
      std::unique_ptr<sim::BatchedStatevector>& state = nl < lanes ? tail : full;
      if (state)
        state->reset();
      else
        state = std::make_unique<sim::BatchedStatevector>(num_qubits, nl);
      group(b, *state, base, first + g);
    }
  });
  const auto groups_of = [&](std::size_t n) { return (n + lanes - 1) / lanes; };
  return shots / kShotsPerBatch * groups_of(kShotsPerBatch) + groups_of(shots % kShotsPerBatch);
}

/// Bind equality: two ops share a timeline structure when they agree on
/// everything except parameter values (and pulse schedule contents).
bool same_op_structure(const ExecOp& a, const ExecOp& b) {
  if (a.is_pulse != b.is_pulse) return false;
  if (a.is_pulse) return a.qubits == b.qubits;
  return a.gate.kind == b.gate.kind && a.gate.qubits == b.gate.qubits &&
         a.gate.params.size() == b.gate.params.size();
}

/// Bitwise double equality: -0.0 and 0.0 key (and compile) differently.
bool same_bits(double a, double b) {
  std::uint64_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof a);
  std::memcpy(&ub, &b, sizeof b);
  return ua == ub;
}

/// Two structurally equal gate ops share a block unitary when their
/// parameters agree bit for bit.
bool same_gate_params(const qc::Op& a, const qc::Op& b) {
  for (std::size_t i = 0; i < a.params.size(); ++i) {
    const qc::Param& pa = a.params[i];
    const qc::Param& pb = b.params[i];
    if (pa.index() != pb.index() || !same_bits(pa.scale(), pb.scale()) ||
        !same_bits(pa.offset(), pb.offset()))
      return false;
  }
  return true;
}

}  // namespace

Engine engine_from_name(const std::string& name) {
  if (name == "trajectory") return Engine::Trajectory;
  if (name == "density" || name == "exact_density") return Engine::ExactDensity;
  if (name == "auto") return Engine::Auto;
  throw Error("engine_from_name: unknown engine '" + name +
              "' (expected 'trajectory', 'density' or 'auto')");
}

const std::string& engine_name(Engine engine) {
  static const std::string names[] = {"trajectory", "density", "auto"};
  return names[static_cast<int>(engine)];
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
  // One streaming walk: the schedule is indexed once and each step
  // propagator multiplied straight into the block unitary.
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

std::shared_ptr<const CompiledBlock> Executor::compile_block(const ExecOp& op,
                                                            std::uint64_t pulse_fp,
                                                            const ProgramTemplate& t) const {
  if (!op.is_pulse) return compile_gate(op.gate, t);
  // Raw pulse block (the hybrid/pulse-level models' trainable layers): the
  // key is the schedule's canonical content fingerprint, so a parametric
  // schedule rebound at a repeated candidate angle keys identically while a
  // nearby amplitude gets its own slot.
  std::ostringstream key;
  key << t.key_prefix << "pulse";
  for (std::size_t q : op.qubits) key << "," << q;
  key << ",fp=" << std::hex << pulse_fp << std::dec << ",dur=" << op.schedule.duration();
  const std::string cache_key = key.str();
  if (auto cached = cache_->find(cache_key, serve::BlockKind::Pulse)) return cached;
  return lower_schedule_block(cache_key, op.schedule, op.qubits, nullptr, false);
}

std::shared_ptr<const CompiledBlock> Executor::compile_gate(const qc::Op& op,
                                                           const ProgramTemplate& t) const {
  if (is_virtual_gate(op.kind)) {
    // Virtual blocks are never cached: building the 2x2 diagonal is cheaper
    // than a lookup.
    auto block = std::make_shared<CompiledBlock>();
    block->qubits = op.qubits;
    block->unitary = virtual_unitary(op);
    block->virtual_only = true;
    return block;
  }
  if (op.kind == qc::GateKind::Delay) {
    // Timed identity: thermal relaxation and coherent frame drift act over
    // its span (it behaves exactly like idle time, which is what DD slices).
    auto block = std::make_shared<CompiledBlock>();
    block->qubits = op.qubits;
    block->unitary = la::CMat::identity(2);
    block->duration_dt = static_cast<int>(op.params[0].value());
    block->explicit_idle = true;
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
  // backend fingerprint in the key prefix hashes all of those (and the
  // coherent-noise fields simulate_block reads). The schedule duration
  // follows from sx_duration/cr_duration, so it adds no identity.
  std::ostringstream key;
  key << t.key_prefix << qc::gate_name(op.kind);
  for (std::size_t q : op.qubits) key << "," << q;
  // Exact (hexfloat) parameter formatting: the default 6-sig-fig ostream
  // rendering made nearby angles collide on one cache slot, replaying a
  // stale compiled block for a different theta.
  if (op.kind == qc::GateKind::RZZ)
    key << ",theta=" << std::hexfloat << op.params[0].value() << std::defaultfloat;
  const std::string cache_key = key.str();
  if (auto cached = cache_->find(cache_key, serve::BlockKind::Gate)) return cached;

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
  return lower_schedule_block(cache_key, sched, op.qubits, coherent ? nullptr : &exact,
                              op.kind == qc::GateKind::CX || op.kind == qc::GateKind::RZZ);
}

std::shared_ptr<const CompiledBlock> Executor::lower_schedule_block(
    const std::string& cache_key, const pulse::Schedule& sched,
    const std::vector<std::size_t>& qubits, const la::CMat* exact_unitary,
    bool fold_cx_phase_defect) const {
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
  return cache_->insert(cache_key, std::move(block));
}

std::uint32_t Executor::compile_mode(std::size_t active_qubits) const {
  // What a template's contents depend on besides the backend: how blocks
  // lower (pulse-accurate or exact matrices), the engine its evaluations run
  // on and with it the register cap, and whether and how wide the timeline
  // is fused (widths 0 and 1 both disable it).
  const std::size_t width = std::min<std::size_t>(options_.fusion_max_qubits, 3);
  if (!options_.noise) return width < 2 ? 0u : static_cast<std::uint32_t>(width);
  const bool density = options_.engine == Engine::ExactDensity ||
                       (options_.engine == Engine::Auto && active_qubits <= kAutoDensityQubits);
  return 4u | (density ? kModeDensity : 0u) | (options_.coherent_noise ? 16u : 0u);
}

std::shared_ptr<const ProgramTemplate> Executor::compile(const Program& reference) const {
  HGP_REQUIRE(!reference.measure_qubits.empty(), "Executor::compile: nothing to measure");
  ExecMetrics& em = ExecMetrics::get();
  obs::Span compile_span("executor.compile", &em.compile_ns);

  auto t = std::make_shared<ProgramTemplate>();
  t->reference = reference;
  t->dev = &dev_;
  std::ostringstream prefix;
  prefix << dev_.name() << '#' << std::hex << dev_.fingerprint() << std::dec
         << (options_.noise && options_.coherent_noise ? "#coh;" : "#exact;");
  t->key_prefix = prefix.str();

  CompiledProgram& cp = t->program;
  const std::vector<ExecOp>& ops = reference.ops;
  // Physical -> local compression.
  auto touch = [&](std::size_t q) {
    if (std::find(cp.touched.begin(), cp.touched.end(), q) == cp.touched.end())
      cp.touched.push_back(q);
  };
  for (const ExecOp& op : ops)
    for (std::size_t q : (op.is_pulse ? op.qubits : op.gate.qubits)) touch(q);
  for (std::size_t q : reference.measure_qubits) touch(q);
  std::sort(cp.touched.begin(), cp.touched.end());
  // The noise walks index the device's per-qubit model by physical qubit,
  // and a repeated measure qubit would read one local bit twice.
  HGP_REQUIRE(cp.touched.back() < dev_.num_qubits(),
              "Executor::compile: qubit " + std::to_string(cp.touched.back()) +
                  " is not on the device");
  sim::detail::require_qubits(reference.measure_qubits, dev_.num_qubits(),
                              "Executor::compile: measure_qubits");
  t->mode = compile_mode(cp.touched.size());
  HGP_REQUIRE(cp.touched.size() <= (on_density(*t) ? kMaxDensityQubits : kMaxTrajectoryQubits),
              "Executor::run: too many active qubits to simulate");
  std::map<std::size_t, std::size_t> local_of;
  for (std::size_t i = 0; i < cp.touched.size(); ++i) local_of[cp.touched[i]] = i;
  cp.measure_phys = reference.measure_qubits;
  for (std::size_t q : reference.measure_qubits) cp.measure_local.push_back(local_of.at(q));

  // Compile blocks and lay out the ASAP timeline. Consecutive virtual
  // (diagonal Z-frame) blocks on a qubit fold into one diagonal unitary:
  // they commute with idle relaxation/drift up to a trajectory-global phase,
  // and a fold halves the per-shot apply count of RZ-heavy programs. A bind
  // recomputes a dirty slot in this same order.
  cp.clock.assign(cp.touched.size(), 0);
  t->pulse_fp.assign(ops.size(), 0);
  std::vector<long> pending_virtual(cp.touched.size(), -1);

  for (std::size_t oi = 0; oi < ops.size(); ++oi) {
    const ExecOp& op = ops[oi];
    if (!op.is_pulse && op.gate.kind == qc::GateKind::Barrier) {
      const int t0 = *std::max_element(cp.clock.begin(), cp.clock.end());
      std::fill(cp.clock.begin(), cp.clock.end(), t0);
      continue;
    }
    if (!op.is_pulse && op.gate.kind == qc::GateKind::Measure) continue;
    if (op.is_pulse) t->pulse_fp[oi] = op.schedule.fingerprint();
    Scheduled s;
    s.block = *compile_block(op, t->pulse_fp[oi], *t);
    for (std::size_t q : s.block.qubits) s.local.push_back(local_of.at(q));

    if (s.block.virtual_only && s.local.size() == 1) {
      const std::size_t lq = s.local[0];
      if (pending_virtual[lq] >= 0) {
        CompiledBlock& pending = cp.timeline[pending_virtual[lq]].block;
        pending.unitary = s.block.unitary * pending.unitary;
        t->slot_ops[pending_virtual[lq]].push_back(oi);
        continue;
      }
      s.idle_before_dt.push_back(0);
      cp.timeline.push_back(std::move(s));
      t->slot_ops.push_back({oi});
      pending_virtual[lq] = static_cast<long>(cp.timeline.size()) - 1;
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
    t->slot_ops.push_back({oi});
  }
  cp.makespan_dt =
      cp.clock.empty() ? 0 : *std::max_element(cp.clock.begin(), cp.clock.end());

  // Fuse the timeline into fewer, bigger kernels. The noisy engines keep the
  // unfused timeline: fusion would change the FP rounding of the amplitudes
  // feeding every branch probability, and with it the RNG consumption
  // pattern. A disabled width (0/1) passes every block through, so the
  // engines walk one code path, but charges no fusion metrics.
  if (options_.noise) return t;
  FusionOptions fopt;
  fopt.max_qubits = std::min<std::size_t>(options_.fusion_max_qubits, 3);
  t->fusion = fuse_program(cp, fopt);
  if (fopt.max_qubits >= 2) {
    em.fusion_blocks_in.inc(t->fusion.stats.ops_in);
    em.fusion_blocks_out.inc(t->fusion.stats.ops_out);
    em.fusion_runs.inc(t->fusion.stats.merged_runs);
    for (const FusedSlot& slot : t->fusion.slots)
      if (slot.sources.size() >= 2) em.fusion_run_len.record(slot.sources.size());
  }
  return t;
}

BoundProgram Executor::bind(const ProgramTemplate& t, const Program& program) const {
  HGP_REQUIRE(t.dev == &dev_ && t.mode == compile_mode(t.program.touched.size()),
              "Executor: template was compiled for another backend or executor options");
  const CompiledProgram& cp = t.program;
  const Program& ref = t.reference;
  HGP_REQUIRE(program.ops.size() == ref.ops.size() &&
                  program.measure_qubits == ref.measure_qubits,
              "Executor: program does not match the template's structure (op count or "
              "measure map)");
  const std::size_t steps = cp.timeline.size();
  BoundProgram b;
  b.t = &t;
  b.blocks.resize(steps);
  for (std::size_t s = 0; s < steps; ++s) b.blocks[s] = &cp.timeline[s].block;

  // Diff the candidate op by op: its structure must be the template's, and
  // a slot is dirty when any of its ops changed a parameter value or its
  // pulse schedule. Each candidate pulse fingerprint is hashed once and
  // serves both the check and the cache key.
  std::vector<std::uint8_t> dirty(steps, 0);
  std::vector<std::uint64_t> fp(ref.ops.size(), 0);
  std::size_t n_dirty = 0, n_folds = 0;
  for (std::size_t i = 0; i < ref.ops.size(); ++i)
    HGP_REQUIRE(same_op_structure(program.ops[i], ref.ops[i]),
                "Executor: program op " + std::to_string(i) +
                    " does not match the template's structure");
  for (std::size_t s = 0; s < steps; ++s) {
    for (std::size_t i : t.slot_ops[s]) {
      const ExecOp& op = program.ops[i];
      if (op.is_pulse) {
        fp[i] = op.schedule.fingerprint();
        if (fp[i] == t.pulse_fp[i] && op.schedule.duration() == ref.ops[i].schedule.duration())
          continue;
      } else if (same_gate_params(op.gate, ref.ops[i].gate)) {
        continue;
      }
      dirty[s] = 1;
      ++n_dirty;
      n_folds += cp.timeline[s].block.virtual_only ? 1 : 0;
      break;
    }
  }

  // Recompute each dirty slot in compile's fold order: the first op's block,
  // then u_k * acc for the folded virtual ops after it.
  b.probed.reserve(n_dirty - n_folds);
  b.folds.reserve(n_folds);
  for (std::size_t s = 0; s < steps && n_dirty > 0; ++s) {
    if (!dirty[s]) continue;
    const CompiledBlock& ref_block = cp.timeline[s].block;
    const std::vector<std::size_t>& ops = t.slot_ops[s];
    if (ref_block.virtual_only) {
      CompiledBlock fold;
      fold.qubits = ref_block.qubits;
      fold.virtual_only = true;
      fold.unitary = virtual_unitary(program.ops[ops.front()].gate);
      for (std::size_t k = 1; k < ops.size(); ++k)
        fold.unitary = virtual_unitary(program.ops[ops[k]].gate) * fold.unitary;
      b.folds.push_back(std::move(fold));
      b.blocks[s] = &b.folds.back();
      continue;
    }
    b.probed.push_back(compile_block(program.ops[ops.front()], fp[ops.front()], t));
    b.blocks[s] = b.probed.back().get();
    HGP_REQUIRE(b.blocks[s]->duration_dt == ref_block.duration_dt,
                "Executor: program changes a block's duration; compile a new template");
  }
  if (options_.noise) return b;

  // Fused groups: a clean group uses the template's composition in place; a
  // group holding a dirty slot takes that slot's block, or re-composes from
  // the bound parts.
  const std::vector<Scheduled>& groups = t.fusion.timeline;
  b.fused.resize(groups.size());
  b.composed.reserve(groups.size());
  std::vector<FusePartView> parts;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const std::vector<std::size_t>& srcs = t.fusion.slots[g].sources;
    b.fused[g] = &groups[g].block.unitary;
    if (std::none_of(srcs.begin(), srcs.end(), [&](std::size_t src) { return dirty[src]; }))
      continue;
    if (srcs.size() == 1) {
      b.fused[g] = &b.blocks[srcs[0]]->unitary;
      continue;
    }
    parts.clear();
    for (std::size_t src : srcs)
      parts.push_back(FusePartView{&b.blocks[src]->unitary, &cp.timeline[src].local});
    b.composed.push_back(compose_fused(parts.data(), parts.size(), groups[g].local));
    b.fused[g] = &b.composed.back();
  }
  return b;
}

sim::Statevector Executor::evolve_noiseless(const BoundProgram& b) const {
  const std::vector<Scheduled>& groups = b.t->fusion.timeline;
  sim::Statevector sv(b.t->program.touched.size());
  for (std::size_t g = 0; g < groups.size(); ++g) sv.apply_matrix(*b.fused[g], groups[g].local);
  return sv;
}

namespace {

/// Evolve bsv.lanes() trajectories in lockstep through the compiled
/// timeline — the shared noise walk of run_lane_group (which samples the
/// terminal states) and Executor::run_expectation (which reduces them
/// exactly). Each lane is one quantum-jump trajectory kept unnormalized,
/// with its squared norm carried in a per-lane weight: every branch
/// probability is measured against the weight instead of renormalizing the
/// lane after each Kraus branch. Fills and returns the thread-local
/// workspace: per-lane child streams positioned after the last noise draw,
/// deferred-normalization weights, and diverged flags.
LaneWorkspace& evolve_lanes(const backend::FakeBackend& dev, const ExecutorOptions& options,
                            const BoundProgram& b, sim::BatchedStatevector& bsv,
                            std::uint64_t rng_base, std::size_t first_shot) {
  const CompiledProgram& cp = b.t->program;
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

  // Per-lane streams: lane l draws exactly the sequence shot first_shot + l
  // draws in a group of any width, one lane included (uniform before
  // bernoulli per relaxation, bernoulli then rejection-sampled pick per
  // depolarizing, sample uniform then readout flips at the end).
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
    // Draw phase, in per-shot order: one uniform u for the damping branch
    // when gamma > 0, then one bernoulli for dephasing. A lane jumps iff
    // u < gamma * m1, with m1 its unnormalized |1> mass — the exact branch
    // probability gamma * m1 / weight. Since m1 <= weight, u >= gamma * weight
    // settles "no jump" without the mass; only lanes inside that window need
    // m1 before deciding.
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
  // Coherent frame drift while idling: the qubit precesses at its true
  // (drifted) frequency but the frame stays at the calibrated one, so a
  // static Z-phase builds up — shot-independent, hence *learnable* by the
  // pulse ansatz's phase knob but invisible to fixed gate calibrations.
  // (During blocks the subsystem Hamiltonian carries the same detuning.)
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
  // one-sweep Pauli pass; a lone charged lane keeps the strided per-lane
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
      b, dep1, dep2, dev.readout_duration_dt(), relax, idle_drift,
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

/// The noiseless evaluation of B bound candidates: one lane-batched evolve
/// over the fused timeline, then the exact lane reduction of `spec` over the
/// tables `t`. A fused slot whose bound unitary is the template's on every
/// lane applies once broadcast; the others take the per-lane kernels. A lone
/// candidate runs the scalar body on its lane instead, which skips the lane
/// loop's per-block overhead. All three give identical bits, so the choice
/// only affects speed.
std::vector<double> evaluate_noiseless(const BoundProgram* lanes, std::size_t B,
                                       const OutcomeTables& t, const ObjectiveSpec& spec) {
  const ProgramTemplate& tmpl = *lanes[0].t;
  const std::vector<Scheduled>& groups = tmpl.fusion.timeline;
  sim::BatchedStatevector bsv(tmpl.program.touched.size(), B);
  std::vector<const CMat*> us(B);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (B == 1) {
      bsv.apply_matrix_one_lane(*lanes[0].fused[g], groups[g].local, 0);
      continue;
    }
    bool per_lane = false;
    for (std::size_t l = 0; l < B && !per_lane; ++l)
      per_lane = lanes[l].fused[g] != &groups[g].block.unitary;
    if (!per_lane) {
      bsv.apply_matrix(*lanes[0].fused[g], groups[g].local);
      continue;
    }
    for (std::size_t l = 0; l < B; ++l) us[l] = lanes[l].fused[g];
    bsv.apply_matrix_per_lane(us, groups[g].local);
  }

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

}  // namespace

void Executor::run_lane_group(const BoundProgram& b, sim::BatchedStatevector& bsv,
                              std::uint64_t rng_base, std::size_t first_shot,
                              sim::Counts& out) const {
  const CompiledProgram& cp = b.t->program;
  const std::size_t nl = bsv.lanes();
  const noise::NoiseModel& nm = dev_.noise_model();
  ExecMetrics& em = ExecMetrics::get();
  obs::Span evolve_span("executor.lane_evolve", &em.lane_evolve_ns);
  LaneWorkspace& ws = evolve_lanes(dev_, options_, b, bsv, rng_base, first_shot);
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

sim::Counts Executor::run_trajectories(const BoundProgram& b, std::size_t shots,
                                       Rng& rng) const {
  std::vector<sim::Counts> batch_counts(shot_batches(shots));
  // Throughput gauges cover the whole shot grid (all batches, all threads);
  // the clock is read only while telemetry is live.
  const std::uint64_t t0 = obs::enabled() ? obs::now_ns() : 0;
  const std::size_t groups = for_each_lane_group(
      options_, b.t->program.touched.size(), shots, rng,
      [&](std::size_t batch, sim::BatchedStatevector& bsv, std::uint64_t base,
          std::size_t first) { run_lane_group(b, bsv, base, first, batch_counts[batch]); });
  if (t0 != 0) {
    const double secs = static_cast<double>(obs::now_ns() - t0) * 1e-9;
    if (secs > 0.0) {
      ExecMetrics& em = ExecMetrics::get();
      em.trajectory_shots_per_s.set(
          static_cast<std::int64_t>(static_cast<double>(shots) / secs));
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

std::vector<double> Executor::density_distribution(const BoundProgram& b) const {
  obs::Span density_span("executor.density", &ExecMetrics::get().density_ns);
  const CompiledProgram& cp = b.t->program;
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
      b, nm.dep_per_1q_pulse, nm.dep_per_2q_block, dev_.readout_duration_dt(), relax,
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

sim::Counts Executor::run(const Program& program, std::size_t shots, Rng& rng) const {
  return run(*compile(program), program, shots, rng);
}

sim::Counts Executor::run(const ProgramTemplate& t, const Program& program, std::size_t shots,
                         Rng& rng) const {
  if (options_.cancel) options_.cancel->check();
  ExecMetrics& em = ExecMetrics::get();
  obs::Span run_span("executor.run", &em.run_ns);
  obs::Span compile_span("executor.compile", &em.compile_ns);
  const BoundProgram b = bind(t, program);
  compile_span.finish();

  if (on_density(t))
    // The only stochastic element: multinomial shot noise on the exact
    // distribution.
    return sim::sample_from_probabilities(density_distribution(b), shots, rng);
  if (options_.noise) return run_trajectories(b, shots, rng);
  sim::Counts out;
  for (const auto& [bits, n] : evolve_noiseless(b).sample(shots, rng))
    out[map_bits(bits, t.program)] += n;
  return out;
}

double Executor::run_expectation(const Program& program, std::size_t shots, Rng& rng,
                                 const ObjectiveSpec& spec) const {
  return run_expectation(*compile(program), program, shots, rng, spec);
}

double Executor::run_expectation(const ProgramTemplate& tmpl, const Program& program,
                                 std::size_t shots, Rng& rng, const ObjectiveSpec& spec) const {
  HGP_REQUIRE(spec.kind != ObjectiveKind::Sample,
              "Executor::run_expectation: Sample objectives go through run()");
  HGP_REQUIRE(static_cast<bool>(spec.value),
              "Executor::run_expectation: objective has no value function");
  if (options_.cancel) options_.cancel->check();

  ExecMetrics& em = ExecMetrics::get();
  // Objective aggregation (evolve + exact per-shot reduction) as one span.
  obs::Span objective_span("executor.objective", &em.aggregate_ns);
  const bool noisy = options_.noise;
  const bool density = on_density(tmpl);
  obs::Span compile_span("executor.compile", &em.compile_ns);
  const BoundProgram b = bind(tmpl, program);
  compile_span.finish();
  const CompiledProgram& cp = tmpl.program;

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
    p = density_distribution(b);
    if (expectation) {
      double num = 0.0, den = 0.0;
      for (std::size_t j = 0; j < mdim; ++j) {
        num += t.value[j] * p[j];
        den += p[j];
      }
      return num / den;
    }
  } else if (!noisy) {
    // A lone candidate is a one-lane batch: run_expectation_batch's evolve
    // and reduction, with shots and rng untouched.
    return evaluate_noiseless(&b, 1, t, spec).front();
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
    for_each_lane_group(
        options_, cp.touched.size(), shots, rng,
        [&](std::size_t batch, sim::BatchedStatevector& bsv, std::uint64_t base,
            std::size_t first) {
          const std::size_t nl = bsv.lanes();
          evolve_lanes(dev_, options_, b, bsv, base, first);
          if (expectation) {
            // Per-shot normalized expectation (den carries the trajectory's
            // deferred-normalization weight).
            std::vector<double> num(nl), den(nl);
            bsv.weighted_masses(t.local_value.data(), num.data(), den.data());
            for (std::size_t l = 0; l < nl; ++l) batch_acc[batch] += num[l] / den[l];
            return;
          }
          // Per-shot normalized outcome distribution into the batch sum.
          std::vector<double> mass(mdim * nl, 0.0);
          bsv.accumulate_mapped(t.local_outcome.data(), mass.data());
          double* pb = &batch_p[batch * mdim];
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
                                                    const ObjectiveSpec& spec) const {
  HGP_REQUIRE(!programs.empty(), "Executor::run_expectation_batch: no candidates");
  return run_expectation_batch(*compile(programs.front()), programs, spec);
}

std::vector<double> Executor::run_expectation_batch(const ProgramTemplate& tmpl,
                                                    const std::vector<Program>& programs,
                                                    const ObjectiveSpec& spec) const {
  HGP_REQUIRE(!programs.empty(), "Executor::run_expectation_batch: no candidates");
  HGP_REQUIRE(spec.kind != ObjectiveKind::Sample,
              "Executor::run_expectation_batch: Sample objectives go through run()");
  HGP_REQUIRE(static_cast<bool>(spec.value),
              "Executor::run_expectation_batch: objective has no value function");
  HGP_REQUIRE(!options_.noise,
              "Executor::run_expectation_batch: candidate-lane batching is noiseless only");
  if (options_.cancel) options_.cancel->check();

  ExecMetrics& em = ExecMetrics::get();
  obs::Span batch_span("executor.candidate_batch");
  em.expectation_batches.inc();
  const std::size_t B = programs.size();
  obs::Span compile_span("executor.compile", &em.compile_ns);
  std::vector<BoundProgram> lanes;
  lanes.reserve(B);
  for (std::size_t l = 0; l < B; ++l)
    lanes.push_back(bind(tmpl, programs[l]));
  compile_span.finish();
  return evaluate_noiseless(lanes.data(), B, tabulate(tmpl.program, spec, nullptr), spec);
}

}  // namespace hgp::core
