#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "backend/backend.hpp"
#include "common/cancel.hpp"
#include "common/rng.hpp"
#include "core/compiled_block.hpp"
#include "core/program.hpp"
#include "serve/block_cache.hpp"
#include "sim/batched_statevector.hpp"
#include "sim/density.hpp"
#include "sim/state.hpp"
#include "sim/statevector.hpp"

namespace hgp::core {

/// How the executor turns a compiled program plus a noise model into counts.
enum class Engine {
  /// Sample shots as statevector quantum trajectories (the machine-in-loop
  /// production path; scales to ~14 active qubits). Every shot owns a child
  /// RNG stream derived from one parent draw, so counts are bit-identical
  /// regardless of worker-thread count or lane-batch width.
  Trajectory,
  /// One exact density-matrix pass with Kraus channels — no shot loop at
  /// all. Exact statistics for small registers (<= 10 active qubits).
  ExactDensity,
};

/// Parse "trajectory" | "density" (throws on anything else).
Engine engine_from_name(const std::string& name);
const std::string& engine_name(Engine engine);

/// What an executor evaluation returns: sampled counts (run()) or a
/// lane-native scalar objective computed from the terminal state without
/// sampling (run_expectation / run_expectation_batch).
enum class ObjectiveKind {
  /// Sample shots and aggregate counts — the only mode run() implements.
  Sample,
  /// Exact expectation of a diagonal observable over the measured bits:
  /// one probability-weighted sweep per terminal state, no sampling noise.
  Expectation,
  /// CVaR_alpha of the diagonal observable: sorted-tail average over the
  /// exact outcome distribution.
  CVaR,
};

/// Parse "sample" | "expectation" | "cvar" (throws on anything else).
ObjectiveKind objective_from_name(const std::string& name);
const std::string& objective_name(ObjectiveKind kind);

/// A diagonal objective over measured bitstrings. `value` is keyed exactly
/// like run()'s counts (bit i = measure_qubits[i]) and is tabulated once per
/// evaluation over the 2^m outcomes, so it must be cheap and total.
struct ObjectiveSpec {
  ObjectiveKind kind = ObjectiveKind::Expectation;
  std::function<double(std::uint64_t)> value;
  /// CVaR tail fraction (ignored for Expectation).
  double cvar_alpha = 0.3;
  /// CVaR tail direction: true averages the best (highest-value) tail —
  /// what Max-Cut training wants for cut values.
  bool cvar_maximize = true;
};

/// Default lockstep width of the batched trajectory engine — the sweet spot
/// measured by bench_shotloop_timing at 12-14 qubits on one core.
inline constexpr std::size_t kDefaultShotBatchLanes = 16;

/// Register caps: the most touched qubits a program may have on the
/// statevector paths (trajectories, noiseless runs, candidate lanes) and on
/// the exact density engine. compile_program enforces them; serve's job
/// validation checks them before any executor exists.
inline constexpr std::size_t kMaxTrajectoryQubits = 14;
inline constexpr std::size_t kMaxDensityQubits = 10;

struct ExecutorOptions {
  /// Master switch: false = ideal (noiseless, exact gate matrices).
  bool noise = true;
  /// Apply the readout confusion to sampled bits.
  bool readout_error = true;
  /// Simulate gates through their calibrated pulse schedules (coherent
  /// miscalibration included). When false, gates use exact matrices but
  /// incoherent noise still applies.
  bool coherent_noise = true;
  /// Noise engine: sampled trajectories or a single exact density pass.
  Engine engine = Engine::Trajectory;
  /// Worker threads for the trajectory shot loop (0 = hardware concurrency).
  /// Counts are identical for every value — threads only change wall clock.
  std::size_t num_threads = 0;
  /// Trajectory lanes evolved in lockstep by the batched multi-shot
  /// statevector: each gate applies once across all lanes of a shot group,
  /// amortizing dispatch and turning the inner loop into unit-stride
  /// vectorizable arithmetic. 0 or 1 falls back to the scalar per-shot
  /// loop. Counts are bit-identical for every value (each shot's stochastic
  /// branches draw from its own child stream in the scalar order).
  std::size_t shot_batch_lanes = kDefaultShotBatchLanes;
  /// Compiled-block cache shared with other executors (serve::EvalService
  /// injects its process-wide cache here). Null = the executor creates a
  /// private cache of `block_cache_capacity` entries.
  std::shared_ptr<serve::BlockCache> block_cache;
  /// LRU bound of the private per-executor cache (ignored when a shared
  /// cache is injected).
  std::size_t block_cache_capacity = 512;
  /// Non-empty = persistent compiled-block store: the cache warm-starts from
  /// this serve::BlockStore file (entries from another process or host load
  /// by content, validated per record) and writes every new compilation
  /// through, so the next process skips the pulse-ODE compilations entirely.
  /// A store written by a different calibration (backend fingerprint
  /// mismatch), foreign format version, or corrupted file degrades to cold
  /// compilation — never an error. On a shared cache the first attach wins;
  /// later executors reuse the already-attached store.
  std::string block_store_path;
  /// Widest support of the post-compile timeline fusion pass (core/fusion):
  /// adjacent blocks merge into single dense unitaries up to this many
  /// qubits, so the engines dispatch fewer, bigger kernels. 2 (default)
  /// fuses 1q runs and 1q-into-2q neighborhoods; 3 additionally fuses 2q
  /// neighborhoods through the dense 3q kernels; 0 or 1 disables the pass,
  /// and values above 3 clamp to 3 (no wider kernel exists). Fusion only
  /// ever applies to deterministic-unitary paths — noiseless run(),
  /// noiseless run_expectation(), and run_expectation_batch(); noisy runs
  /// keep the unfused timeline so every noise event and RNG draw stays at
  /// its original position, bit for bit.
  std::size_t fusion_max_qubits = 2;
  /// Cooperative cancellation: polled at shot-batch / lane-group boundaries
  /// of the trajectory loops and at entry of the evaluation calls. When the
  /// token fires, the in-flight evaluation throws CancelledError — partial
  /// counts are discarded (a partial histogram would be biased), and the
  /// worker is freed within one lane group. Null = never cancelled.
  std::shared_ptr<const CancelToken> cancel;
};

/// Timing/duration report of one executed program.
struct ExecutionReport {
  int makespan_dt = 0;
  int readout_dt = 0;
  std::size_t block_count = 0;
  /// Timeline length the engines actually walked after fusion (equal to
  /// block_count when the pass was disabled or did not apply).
  std::size_t fused_block_count = 0;
};

/// One block placed on the ASAP timeline in local qubit coordinates.
struct Scheduled {
  CompiledBlock block;
  std::vector<std::size_t> local;   // local qubit indices
  std::vector<int> idle_before_dt;  // per local qubit of the block
};

/// A program compiled down to the engine-independent representation: the
/// block timeline over the compressed (touched-only) register plus the
/// measurement maps. Every engine — scalar trajectory, lane-batched
/// trajectory, exact density — walks this same structure.
struct CompiledProgram {
  std::vector<Scheduled> timeline;
  std::vector<std::size_t> touched;        // sorted physical qubits
  std::vector<std::size_t> measure_phys;   // physical qubit per measured bit
  std::vector<std::size_t> measure_local;  // local qubit per measured bit
  std::vector<int> clock;                  // per-local end time
  /// Timeline slot each program op landed in (-1 for barriers/measures).
  /// Consecutive virtual blocks fold, so several ops may map to one slot —
  /// this is what lets candidate-lane batching delta-compile: a candidate
  /// that differs from the reference only in some ops' parameter values
  /// recompiles exactly those ops' slots.
  std::vector<long> op_slot;
  int makespan_dt = 0;
};

/// The machine-in-loop execution engine: compiles a Program's steps into
/// per-block unitaries (gate blocks through the backend's calibrated pulse
/// schedules, pulse blocks through the pulse simulator — both including the
/// device's coherent miscalibration), then realizes noise either as sampled
/// quantum trajectories (per-block depolarizing charges, per-qubit thermal
/// relaxation over the ASAP timeline, readout confusion) or as one exact
/// density-matrix pass over the same timeline.
class Executor {
 public:
  Executor(const backend::FakeBackend& dev, ExecutorOptions options = {});

  /// Run the program and return counts keyed in the order of
  /// program.measure_qubits (bit i = measure_qubits[i]).
  sim::Counts run(const Program& program, std::size_t shots, Rng& rng);

  /// Evaluate a diagonal objective without terminal sampling. Noiseless:
  /// one deterministic evolve, exact expectation/CVaR (shots and rng are
  /// untouched). Trajectory noise: the same fixed batch grid and per-shot
  /// child streams as run() (rng advances by exactly one draw), but each
  /// shot contributes its exact outcome distribution instead of one sample —
  /// Expectation averages per-shot normalized expectations, CVaR takes the
  /// tail of the shot-averaged distribution (readout confusion folds into
  /// the value table / the averaged distribution respectively). Density:
  /// exact objective over the folded distribution, no stochastic element at
  /// all. Deterministic for every thread and lane count.
  double run_expectation(const Program& program, std::size_t shots, Rng& rng,
                         const ObjectiveSpec& spec);

  /// Candidate-lane batching: evaluate B structurally identical programs
  /// (same gates and layout, different parameter values — SPSA pairs,
  /// simplex vertices, parameter-shift points) as B lanes of one lane-batched
  /// evolve. Blocks whose unitaries agree across candidates apply once
  /// broadcast; parameterized blocks take the per-lane kernels. Noiseless
  /// only — result l is bit-identical to run_expectation(programs[l], ...)
  /// on a scalar statevector.
  std::vector<double> run_expectation_batch(const std::vector<Program>& programs,
                                            const ObjectiveSpec& spec);

  const ExecutionReport& last_report() const { return report_; }

  /// The compiled-block cache this executor compiles into (private or
  /// injected) and its hit/miss/evict counters.
  const std::shared_ptr<serve::BlockCache>& block_cache() const { return cache_; }
  serve::BlockCache::Stats cache_stats() const { return cache_->stats(); }

 private:
  /// The single block-lowering entry point: every program step — gate or
  /// pulse — routes through here. Virtual (free diagonal) gates and explicit
  /// delays compile to exact matrices without touching the cache; everything
  /// else builds a structure key (gate kind + qubits + hexfloat parameters,
  /// or the pulse schedule's content fingerprint), probes the cache once
  /// under key_prefix_ + key, and goes to lower_schedule_block only on a
  /// miss. Calibration identity comes from the fingerprint prefix.
  CompiledBlock compile_block(const ExecOp& op);
  /// Gate front-end of compile_block: keys a native gate by name, physical
  /// qubits and exact parameters, and builds its calibrated schedule only on
  /// a miss — a hit builds no schedule.
  CompiledBlock compile_gate(const qc::Op& op);
  /// Miss-only lowering tail for every schedule-backed block: simulate (or
  /// take the exact unitary when pulse-accurate compilation is off), fill
  /// the schedule-derived metadata, insert under `cache_key`, and return the
  /// block stamped with `structure_key`. `fold_cx_phase_defect` folds the
  /// backend's static two-qubit phase error into simulated CX/RZZ blocks.
  CompiledBlock lower_schedule_block(const std::string& cache_key, std::string structure_key,
                                     serve::BlockKind kind, const pulse::Schedule& sched,
                                     const std::vector<std::size_t>& qubits,
                                     const la::CMat* exact_unitary, bool fold_cx_phase_defect);
  la::CMat simulate_block(const pulse::Schedule& physical_sched,
                          const std::vector<std::size_t>& qubits) const;

  CompiledProgram compile_program(const Program& program, std::size_t max_qubits);

  /// The noiseless final state: fuse the timeline (recording the fused
  /// length in report_), then one deterministic statevector evolve. Shared
  /// by run_noiseless (which samples it) and the noiseless path of
  /// run_expectation (which reduces it exactly).
  sim::Statevector evolve_noiseless(const CompiledProgram& cp);
  sim::Counts run_noiseless(const CompiledProgram& cp, std::size_t shots, Rng& rng);
  sim::Counts run_trajectories(const CompiledProgram& cp, std::size_t shots, Rng& rng) const;
  /// One trajectory: evolve `sv` (already reset) through the timeline and
  /// record a single readout into `out`.
  void run_one_shot(const CompiledProgram& cp, sim::Statevector& sv, Rng& rng,
                    sim::Counts& out) const;
  /// bsv.lanes() trajectories in lockstep: deterministic blocks apply once
  /// across all lanes, stochastic branches draw per lane from
  /// Rng::child(rng_base, first_shot + lane) in the scalar path's order, and
  /// terminal sampling does one probability pass (shared sorted pass for
  /// lanes that took no stochastic branch). Counts land in `out` exactly as
  /// if run_one_shot had run each lane's shot.
  void run_lane_group(const CompiledProgram& cp, sim::BatchedStatevector& bsv,
                      std::uint64_t rng_base, std::size_t first_shot,
                      sim::Counts& out) const;
  sim::Counts run_exact_density(const CompiledProgram& cp, std::size_t shots, Rng& rng) const;
  /// The exact-density outcome distribution over the measured bits,
  /// marginalized and readout-folded — shared by run_exact_density (which
  /// samples it) and the density path of run_expectation (which reduces it).
  std::vector<double> density_distribution(const CompiledProgram& cp) const;
  /// Rebuild key_prefix_ from the backend fingerprint and compile options
  /// (called at the top of every run so recalibration invalidates stale
  /// cache entries).
  void refresh_key_prefix();

  const backend::FakeBackend& dev_;
  ExecutorOptions options_;
  ExecutionReport report_;
  std::shared_ptr<serve::BlockCache> cache_;
  /// Backend-fingerprint + compile-option prefix of every cache key;
  /// refreshed per run() so recalibration invalidates stale entries.
  std::string key_prefix_;
};

}  // namespace hgp::core
