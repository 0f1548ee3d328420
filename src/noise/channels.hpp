#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace hgp::noise {

/// Sample the depolarizing branch of one trajectory: with probability p, a
/// uniformly random non-identity Pauli on `num_qubits` qubits. Returns 0
/// (identity, probability 1-p) or the chosen Pauli-product code (2 bits per
/// qubit, 1..4^k-1, qubit i's Pauli in bits [2i, 2i+1]). Draws one bernoulli
/// and, only when it fires, one uniform_int pick; the trajectory engine draws
/// one branch per lane from that lane's stream. Throws on p outside [0, 1].
int sample_depolarizing(std::size_t num_qubits, double p, Rng& rng);

/// Derived constants of one thermal-relaxation application over duration_ns
/// — the quantities the trajectory engine and the density engine
/// (sim::DensityMatrix::apply_thermal_relaxation) both take from here, so
/// they agree on them exactly:
///   gamma = 1 - exp(-t/T1)      amplitude-damping probability scale
///   damp  = sqrt(1 - gamma)     no-jump damping of the |1> amplitudes
///   p_z   = (1 - exp(-t/Tphi))/2 phase-flip probability (when `dephase`;
///           Tphi from 1/Tphi = 1/T2 - 1/(2 T1), T2 clamped to <= 2 T1)
/// Throws unless T1, T2 > 0; a duration <= 0 gives the identity constants.
struct RelaxationConstants {
  double gamma = 0.0;
  double damp = 1.0;
  double p_z = 0.0;
  bool dephase = false;
};
RelaxationConstants relaxation_constants(double t1_us, double t2_us, double duration_ns);

/// Asymmetric readout confusion of one qubit. Probabilities are
/// P(measured 1 | prepared 0) and P(measured 0 | prepared 1).
struct ReadoutError {
  double p1_given_0 = 0.0;
  double p0_given_1 = 0.0;
};

/// Flip the measured bits of `bits` according to each qubit's confusion.
std::uint64_t apply_readout(std::uint64_t bits, const std::vector<ReadoutError>& errors,
                            Rng& rng);

}  // namespace hgp::noise
