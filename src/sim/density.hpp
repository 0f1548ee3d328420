#pragma once

#include <vector>

#include "circuit/circuit.hpp"
#include "linalg/matrix.hpp"
#include "linalg/pauli.hpp"
#include "sim/state.hpp"

namespace hgp::sim {

/// Dense density-matrix simulator (small qubit counts). It powers the
/// executor's exact-density engine: noise channels apply as Kraus maps in a
/// single pass, so no trajectory shot loop is needed. It is also the exact
/// reference the trajectory engine's statistics are verified against, and
/// the tool for purity/entropy analyses.
class DensityMatrix final : public CircuitState<DensityMatrix> {
 public:
  explicit DensityMatrix(std::size_t num_qubits);
  static DensityMatrix from_amplitudes(const la::CVec& amplitudes);

  std::size_t num_qubits() const { return num_qubits_; }
  const la::CMat& data() const { return rho_; }

  /// rho -> A rho A† with A acting on the listed qubits (first = LSB). A
  /// need not be unitary; a lone non-unitary operator leaves rho
  /// un-normalized (see trace()).
  void apply_matrix(const la::CMat& u, const std::vector<std::size_t>& qubits);
  /// rho -> Σ_k K_k rho K_k† (Kraus maps on the listed qubits).
  void apply_kraus(const std::vector<la::CMat>& kraus,
                   const std::vector<std::size_t>& qubits);

  // ----- standard channels (exact, non-stochastic) -----
  void apply_depolarizing(const std::vector<std::size_t>& qubits, double p);
  void apply_amplitude_damping(std::size_t q, double gamma);
  void apply_phase_damping(std::size_t q, double p_z);
  /// Amplitude damping then pure dephasing over duration_ns, with the
  /// constants of noise::relaxation_constants (which rejects T1, T2 <= 0).
  void apply_thermal_relaxation(std::size_t q, double t1_us, double t2_us,
                                double duration_ns);

  std::vector<double> probabilities() const;
  double prob_one(std::size_t q) const;
  double expectation(const la::PauliSum& obs) const;
  /// Tr(rho) — 1 for any CPTP evolution.
  double trace() const;
  /// Tr(rho²) — 1 for pure states, 1/2^n for the maximally mixed state.
  double purity() const;

 private:
  std::size_t num_qubits_;
  la::CMat rho_;
};

}  // namespace hgp::sim
