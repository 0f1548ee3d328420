#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace hgp::core {

/// One program step compiled down to its simulated unitary plus the noise
/// bookkeeping the engines charge against it. Blocks are deterministic
/// functions of (device calibrations, compile options, cache key), which
/// is what makes them shareable across executors, optimizer candidates, and
/// concurrent runs through serve::BlockCache.
struct CompiledBlock {
  la::CMat unitary;                  // local to `qubits`
  std::vector<std::size_t> qubits;   // physical
  int duration_dt = 0;
  std::size_t drive_plays = 0;       // 1q depolarizing charges
  std::size_t cr_halves = 0;         // 2q depolarizing charges
  bool virtual_only = false;         // exact & free (RZ etc.)
  bool explicit_idle = false;        // Delay: relaxation + coherent drift
};

/// One block placed on the ASAP timeline in local qubit coordinates.
struct Scheduled {
  CompiledBlock block;
  std::vector<std::size_t> local;   // local qubit indices
  std::vector<int> idle_before_dt;  // per local qubit of the block
};

/// A program compiled down to the engine-independent representation: the
/// block timeline over the compressed (touched-only) register plus the
/// measurement maps. Both noise engines — trajectory and exact density —
/// and the noiseless path walk this same structure.
struct CompiledProgram {
  std::vector<Scheduled> timeline;
  std::vector<std::size_t> touched;        // sorted physical qubits
  std::vector<std::size_t> measure_phys;   // physical qubit per measured bit
  std::vector<std::size_t> measure_local;  // local qubit per measured bit
  std::vector<int> clock;                  // per-local end time
  int makespan_dt = 0;
};

}  // namespace hgp::core
