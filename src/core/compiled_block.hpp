#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/binio.hpp"
#include "linalg/matrix.hpp"

namespace hgp::core {

/// One program step compiled down to its simulated unitary plus the noise
/// bookkeeping the engines charge against it. Blocks are deterministic
/// functions of (device calibrations, compile options, structure key), which
/// is what makes them shareable across executors, optimizer candidates, and
/// concurrent runs through serve::BlockCache — and, serialized, across
/// processes and hosts through serve::BlockStore.
struct CompiledBlock {
  la::CMat unitary;                  // local to `qubits`
  std::vector<std::size_t> qubits;   // physical
  int duration_dt = 0;
  std::size_t drive_plays = 0;       // 1q depolarizing charges
  std::size_t cr_halves = 0;         // 2q depolarizing charges
  bool virtual_only = false;         // exact & free (RZ etc.)
  bool explicit_idle = false;        // Delay: relaxation + coherent drift

  /// Transient identity of this block under the executor's cache keying —
  /// the suffix of its BlockCache key (no backend-fingerprint prefix).
  /// Stamped by the compile pipeline so the fusion pass can derive cache
  /// keys for merged blocks by concatenation. NOT serialized and not
  /// cached: BlockCache clears it on insert (its map key is the one copy),
  /// and the executor re-stamps it on every cache hit.
  std::string structure_key;

  /// Append the block to `out` in the store's binary encoding. The unitary
  /// round-trips by IEEE-754 bit pattern, so a deserialized block reproduces
  /// bit-identical counts.
  void serialize(std::string& out) const;
  /// Decode one block from `in`. False (out untouched in spirit — contents
  /// unspecified) on truncated or malformed input; never throws.
  static bool deserialize(io::Reader& in, CompiledBlock& out);
};

}  // namespace hgp::core
