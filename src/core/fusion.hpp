#pragma once

#include <vector>

#include "core/compiled_block.hpp"
#include "transpile/pass_report.hpp"

namespace hgp::core {

/// Post-compile timeline block fusion: greedily merge adjacent Scheduled
/// blocks whose combined qubit support stays within a width bound into single
/// dense unitaries, so the engines dispatch one kernel where they used to
/// dispatch a run of small ones. Order-preserving — blocks are only merged
/// with their timeline neighbors, never commuted past each other — so the
/// fused state equals the unfused state up to FP rounding of the composed
/// products. The executor therefore only fuses deterministic-unitary paths
/// (noiseless sampling, expectation, candidate-lane batches); noisy runs keep
/// the original timeline so every depolarizing charge, idle-relaxation window
/// and RNG draw stays at its original position, bit for bit.

struct FusionOptions {
  /// Widest fused support. 2 = the default (runs of 1q blocks collapse to
  /// 2x2/4x4, 1q blocks absorb into 2q neighbors); 3 additionally fuses 2q
  /// neighborhoods into 8x8 through the dense 3q kernels. 0 or 1 disables
  /// the pass. Values above 3 are clamped by the executor (no wider kernel).
  std::size_t max_qubits = 2;
};

/// One fused timeline slot's provenance: the original timeline slots it
/// merged, in apply order. Single-element = the block passed through
/// untouched. This is what lets a bind route through fused slots: an
/// evaluation recomputes only the constituent blocks whose ops changed, then
/// re-composes this slot's unitary.
struct FusedSlot {
  std::vector<std::size_t> sources;
};

struct FusionResult {
  /// The fused timeline, over the input's local register.
  std::vector<Scheduled> timeline;
  /// Parallel to timeline.
  std::vector<FusedSlot> slots;
  transpile::PassStats stats;
};

/// A constituent of a fused product, by reference: `u` acts on `local`.
struct FusePartView {
  const la::CMat* u;
  const std::vector<std::size_t>* local;
};

/// Compose parts[n-1] * ... * parts[0] on `support` (sorted local qubit
/// indices; timeline apply order: parts[0] acts first). A part's sub-index
/// bit j acts on the support position holding local[j]; support qubits
/// outside a part see the identity. Each part applies through
/// sim::Statevector's gate kernel to the accumulator held as a 2m-qubit
/// state. Deterministic — a bind calls this with an evaluation's own
/// constituent unitaries and must reproduce bitwise what fusing that
/// evaluation's freshly compiled program would produce.
la::CMat compose_fused(const FusePartView* parts, std::size_t n,
                       const std::vector<std::size_t>& support);

/// Run the fusion pass: group the timeline and compose every merged group.
/// The executor runs it once per core::ProgramTemplate; binds re-compose
/// only the groups whose constituents changed. Nothing is cached: composing
/// a 6-qubit program's groups costs about as much as cache probes and copies.
FusionResult fuse_program(const CompiledProgram& cp, const FusionOptions& opt);

}  // namespace hgp::core
