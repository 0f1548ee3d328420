#pragma once

#include <vector>

#include "backend/backend.hpp"
#include "common/rng.hpp"
#include "core/executor.hpp"
#include "noise/channels.hpp"

namespace hgp::core {

/// Estimate per-qubit readout confusion by running the two M3 calibration
/// programs (all-|0> and all-|1> preparations) on the device, exactly like
/// the "initial calibration program" of the paper's §IV-D. The X gates of
/// the |1...1> preparation carry their own (small) error — the estimate is
/// what a real calibration would see, not the simulator's ground truth.
std::vector<noise::ReadoutError> calibrate_readout(const Executor& executor,
                                                   const std::vector<std::size_t>& phys_qubits,
                                                   std::size_t shots, Rng& rng);

}  // namespace hgp::core
