#pragma once

#include <cstddef>
#include <vector>

#include "noise/channels.hpp"

namespace hgp::noise {

/// Per-qubit noise parameters. T1/T2 and readout error come from the
/// backend's calibration table (the paper's Table I); frequency drift and
/// drive gain are the seeded coherent miscalibrations that the hybrid
/// model's trainable pulse parameters can learn around.
struct QubitNoise {
  double t1_us = 100.0;
  double t2_us = 100.0;
  ReadoutError readout;
  double freq_drift_ghz = 0.0;
  double drive_gain = 1.0;
};

/// Backend-level noise model used by the machine-in-loop executor. It has no
/// off switch of its own: core::ExecutorOptions::noise turns it off.
struct NoiseModel {
  std::vector<QubitNoise> qubits;
  /// Depolarizing probability charged per played single-qubit pulse.
  double dep_per_1q_pulse = 3e-4;
  /// Depolarizing probability charged per two-qubit (CR-based) block.
  double dep_per_2q_block = 1e-2;
  /// Static ZZ crosstalk between coupled pairs (GHz), active during blocks
  /// that contain both qubits.
  double zz_crosstalk_ghz = 0.0;
};

}  // namespace hgp::noise
