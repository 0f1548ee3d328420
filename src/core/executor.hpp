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
#include "core/fusion.hpp"
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
  /// One exact density-matrix pass with exact channels — no shot loop at
  /// all. Exact statistics for small registers (<= 10 active qubits).
  ExactDensity,
  /// Resolved by Executor::compile from each template's active-qubit count:
  /// ExactDensity at <= kAutoDensityQubits, Trajectory above.
  Auto,
};

/// Parse "trajectory" | "density" | "auto" (throws on anything else).
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
/// at 12-14 qubits on one core (perf_micro's BM_ExecutorTrajectory rows time
/// it against one-lane groups).
inline constexpr std::size_t kDefaultShotBatchLanes = 16;

/// Register caps: the most touched qubits a program may have on the
/// statevector paths (trajectories, noiseless runs, candidate lanes) and on
/// the exact density engine. Executor::compile enforces them; serve's job
/// validation checks them before any executor exists.
inline constexpr std::size_t kMaxTrajectoryQubits = 14;
inline constexpr std::size_t kMaxDensityQubits = sim::DensityMatrix::kMaxQubits;

/// Engine::Auto's crossover, against 1024 trajectory shots on one thread.
/// perf_micro's ladder pairs, BM_ExecutorExactDensity/n against
/// BM_ExecutorTrajectory/n/1/16, read 0.39 vs 4.9 ms at 6 qubits, 1.6 vs
/// 8.0 ms at 7 and 7.3 vs 16 ms at 8 (medians, shared 4-core VM). On split
/// planes the exact engine also wins the real 8-qubit programs, task 3 with
/// GO (41-66 vs 69-126 ms), but raising this moves task 3's results, so the
/// crossover stays where it was first measured (8 qubits was 31 vs 13 ms).
inline constexpr std::size_t kAutoDensityQubits = 7;

struct ExecutorOptions {
  /// Master switch: false = ideal (noiseless, exact gate matrices).
  bool noise = true;
  /// Apply the readout confusion to sampled bits.
  bool readout_error = true;
  /// Simulate gates through their calibrated pulse schedules (coherent
  /// miscalibration included). When false, gates use exact matrices but
  /// incoherent noise still applies.
  bool coherent_noise = true;
  /// Noise engine: sampled trajectories, a single exact density pass, or
  /// Auto, which compile resolves per template by its active qubits (the
  /// register cap is then the trajectory engine's). Noiseless runs ignore it.
  Engine engine = Engine::Trajectory;
  /// Worker threads for the trajectory shot loop (0 = hardware concurrency).
  /// Counts are identical for every value — threads only change wall clock.
  std::size_t num_threads = 0;
  /// Lockstep width of the trajectory engine: shots evolve in groups of
  /// this many lanes of one sim::BatchedStatevector, so each gate applies
  /// once across the group, amortizing dispatch and turning the inner loop
  /// into unit-stride vectorizable arithmetic. 0 and 1 both run one-lane
  /// groups on the same engine. Counts are bit-identical for every value
  /// (each shot's stochastic branches draw from its own child stream in the
  /// same order whatever the width); only wall clock changes.
  std::size_t shot_batch_lanes = kDefaultShotBatchLanes;
  /// Compiled-block cache shared with other executors (serve::EvalService
  /// injects its process-wide cache here). Null = the executor creates a
  /// private cache of `block_cache_capacity` entries.
  std::shared_ptr<serve::BlockCache> block_cache;
  /// LRU bound of the private per-executor cache (ignored when a shared
  /// cache is injected).
  std::size_t block_cache_capacity = 512;
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

/// A program compiled once for a run: everything its evaluations share when
/// only parameter values change between them. In the paper's hybrid model
/// the problem layer is fixed gate-level code and only the γ phase gates
/// and the mixer pulses train, so the optimizer's candidates all bind to the
/// template of the run's initial point.
///
/// Validity: a template is valid for the backend state and the executor
/// options it was compiled under. Its blocks and cache-key prefix capture
/// the calibration at compile time, so a backend recalibrated afterwards is
/// not seen by binds of this template (the Program overloads compile per
/// call and always see the current calibration). Binding it on an executor
/// of another backend object or other noise, resolved engine or fusion
/// settings throws.
/// Immutable once built: many threads may bind one template at once.
struct ProgramTemplate {
  /// The program compiled; a bind diffs a candidate against its ops.
  Program reference;
  /// Per reference op: its pulse schedule's fingerprint (0 for gate ops).
  std::vector<std::uint64_t> pulse_fp;
  /// The unfused timeline, the touched and measure maps and the clock.
  CompiledProgram program;
  /// The ops of each timeline slot, in program order: consecutive virtual
  /// gates on a qubit fold into one slot, so a slot may hold several.
  std::vector<std::vector<std::size_t>> slot_ops;
  /// Fusion grouping and the reference compositions (noiseless executors;
  /// empty otherwise).
  FusionResult fusion;
  /// Backend name + fingerprint + lowering mode: the prefix of every cache
  /// key, with the backend fingerprint hashed once.
  std::string key_prefix;
  /// The backend and executor settings it was compiled under (see above);
  /// `mode` holds the engine Auto resolved to, which its evaluations run on.
  const backend::FakeBackend* dev = nullptr;
  std::uint32_t mode = 0;
};

/// One evaluation's view of a template (defined in executor.cpp).
struct BoundProgram;

/// The machine-in-loop execution engine: compiles a Program's steps into
/// per-block unitaries (gate blocks through the backend's calibrated pulse
/// schedules, pulse blocks through the pulse simulator — both including the
/// device's coherent miscalibration), then realizes noise either as sampled
/// quantum trajectories (per-block depolarizing charges, per-qubit thermal
/// relaxation over the ASAP timeline, readout confusion) or as one exact
/// density-matrix pass over the same timeline. It keeps no per-call state,
/// so one executor may evaluate from many threads at once.
class Executor {
 public:
  Executor(const backend::FakeBackend& dev, ExecutorOptions options = {});

  /// Compile `reference` into a template: the block timeline (one cache
  /// probe per gate or pulse op), the fusion grouping and its compositions
  /// (noiseless executors), and the cache-key prefix. Every evaluation of a
  /// program with the same structure then binds to it (the overloads below
  /// taking a ProgramTemplate).
  /// Throws hgp::Error when the program touches a qubit the device does not
  /// have or measures a qubit twice.
  std::shared_ptr<const ProgramTemplate> compile(const Program& reference) const;

  /// Run the program and return counts keyed in the order of
  /// program.measure_qubits (bit i = measure_qubits[i]).
  ///
  /// The template overloads bind `program` to `tmpl` first: the op count,
  /// the measure map and every op's kind, qubits and parameter count must
  /// match the template's reference (a mismatch throws hgp::Error, never
  /// recompiles). Only the timeline slots whose ops' parameter values or
  /// pulse schedules changed are recomputed — one cache probe per changed
  /// gate or pulse block — and only the fused groups holding them
  /// re-composed; everything else is used in place. A bind draws no RNG, so
  /// results are bit-identical to the Program overload on `program`, which
  /// is compile(program) followed by the bound call.
  sim::Counts run(const ProgramTemplate& tmpl, const Program& program, std::size_t shots,
                  Rng& rng) const;
  sim::Counts run(const Program& program, std::size_t shots, Rng& rng) const;

  /// Evaluate a diagonal objective without terminal sampling. Noiseless:
  /// the program evaluates as a one-lane candidate batch — the evolve and
  /// exact expectation/CVaR of run_expectation_batch — and shots and rng
  /// are untouched. Trajectory noise: the same fixed batch grid and per-shot
  /// child streams as run() (rng advances by exactly one draw), but each
  /// shot contributes its exact outcome distribution instead of one sample —
  /// Expectation averages per-shot normalized expectations, CVaR takes the
  /// tail of the shot-averaged distribution (readout confusion folds into
  /// the value table / the averaged distribution respectively). Density:
  /// exact objective over the folded distribution, no stochastic element at
  /// all. Deterministic for every thread and lane count.
  double run_expectation(const ProgramTemplate& tmpl, const Program& program,
                         std::size_t shots, Rng& rng, const ObjectiveSpec& spec) const;
  double run_expectation(const Program& program, std::size_t shots, Rng& rng,
                         const ObjectiveSpec& spec) const;

  /// Candidate-lane batching: evaluate B structurally identical programs
  /// (same gates and layout, different parameter values — SPSA pairs,
  /// simplex vertices, parameter-shift points) as B lanes of one lane-batched
  /// evolve. A fused slot whose bound unitary is the template's on every
  /// lane (or B = 1) applies once broadcast; the others take the per-lane
  /// kernels. Noiseless only — result l is bit-identical to
  /// run_expectation(programs[l], ...), a one-lane batch. The Program-only
  /// overload compiles programs.front() as the template.
  std::vector<double> run_expectation_batch(const ProgramTemplate& tmpl,
                                            const std::vector<Program>& programs,
                                            const ObjectiveSpec& spec) const;
  std::vector<double> run_expectation_batch(const std::vector<Program>& programs,
                                            const ObjectiveSpec& spec) const;

  /// Hit/miss/evict counters of the compiled-block cache this executor
  /// compiles into (private or injected).
  serve::BlockCache::Stats cache_stats() const { return cache_->stats(); }

 private:
  /// The single block-lowering entry point for gate and pulse steps.
  /// Virtual (free diagonal) gates and explicit delays compile to exact
  /// matrices without touching the cache; everything else probes the cache
  /// once under the template's key prefix + its key (a pulse keys on
  /// `pulse_fp`, its schedule's fingerprint) and lowers only on a miss.
  std::shared_ptr<const CompiledBlock> compile_block(const ExecOp& op, std::uint64_t pulse_fp,
                                                     const ProgramTemplate& t) const;
  /// Gate front-end of compile_block: keys a native gate by name, physical
  /// qubits and exact parameters, and builds its calibrated schedule only on
  /// a miss — a hit builds no schedule.
  std::shared_ptr<const CompiledBlock> compile_gate(const qc::Op& op,
                                                    const ProgramTemplate& t) const;
  /// Miss-only lowering tail for every schedule-backed block: simulate (or
  /// take the exact unitary when pulse-accurate compilation is off), fill
  /// the schedule-derived metadata, and insert under `cache_key`.
  /// `fold_cx_phase_defect` folds the backend's static two-qubit phase error
  /// into simulated CX/RZZ blocks.
  std::shared_ptr<const CompiledBlock> lower_schedule_block(
      const std::string& cache_key, const pulse::Schedule& sched,
      const std::vector<std::size_t>& qubits, const la::CMat* exact_unitary,
      bool fold_cx_phase_defect) const;
  la::CMat simulate_block(const pulse::Schedule& physical_sched,
                          const std::vector<std::size_t>& qubits) const;

  /// The executor settings a template of `active_qubits` touched qubits
  /// depends on, its resolved engine included (ProgramTemplate::mode).
  std::uint32_t compile_mode(std::size_t active_qubits) const;
  /// The bind the template overloads share (see run()).
  BoundProgram bind(const ProgramTemplate& t, const Program& program) const;

  /// The noiseless final state: one deterministic statevector evolve over
  /// the bound fused timeline, which run() samples.
  sim::Statevector evolve_noiseless(const BoundProgram& b) const;
  sim::Counts run_trajectories(const BoundProgram& b, std::size_t shots, Rng& rng) const;
  /// bsv.lanes() trajectories in lockstep: deterministic blocks apply once
  /// across all lanes, stochastic branches draw per lane from
  /// Rng::child(rng_base, first_shot + lane) in the same order for every
  /// group width, and terminal sampling does one probability pass (shared
  /// sorted pass for lanes that took no stochastic branch). Counts land in
  /// `out` exactly as if each lane's shot had run in a one-lane group.
  void run_lane_group(const BoundProgram& b, sim::BatchedStatevector& bsv,
                      std::uint64_t rng_base, std::size_t first_shot,
                      sim::Counts& out) const;
  /// The exact-density outcome distribution over the measured bits,
  /// marginalized and readout-folded. run() samples it; run_expectation()
  /// reduces it.
  std::vector<double> density_distribution(const BoundProgram& b) const;

  const backend::FakeBackend& dev_;
  ExecutorOptions options_;
  std::shared_ptr<serve::BlockCache> cache_;
};

}  // namespace hgp::core
