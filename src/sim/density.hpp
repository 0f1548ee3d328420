#pragma once

#include <vector>

#include "circuit/circuit.hpp"
#include "linalg/matrix.hpp"
#include "linalg/pauli.hpp"
#include "sim/state.hpp"
#include "sim/statevector.hpp"

namespace hgp::sim {

/// Dense density-matrix simulator (small qubit counts). It powers the
/// executor's exact-density engine: noise channels apply exactly in a single
/// pass, so no trajectory shot loop is needed. It is also the exact reference
/// the trajectory engine's statistics are verified against, and the tool for
/// purity/entropy analyses.
///
/// rho of n qubits is stored as a Statevector of 2n qubits with entry
/// (r, c) at index r | c << n, so it runs on the statevector's gate kernels:
/// a unitary U applies as U on the row qubits and conj(U) on the column
/// qubits.
class DensityMatrix final : public CircuitState<DensityMatrix> {
 public:
  /// Most qubits a DensityMatrix holds: rho of 10 qubits is a 20-qubit
  /// vector (16 MB), 12 would be 256 MB.
  static constexpr std::size_t kMaxQubits = 10;

  explicit DensityMatrix(std::size_t num_qubits);
  static DensityMatrix from_amplitudes(const la::CVec& amplitudes);

  std::size_t num_qubits() const { return num_qubits_; }
  /// rho(row, col).
  la::cxd entry(std::uint64_t row, std::uint64_t col) const {
    return vec_.data()[row | col << num_qubits_];
  }

  /// rho -> A rho A† with A acting on the listed qubits (first = LSB). A
  /// need not be unitary; a lone non-unitary operator leaves rho
  /// un-normalized (see trace()).
  void apply_matrix(const la::CMat& u, const std::vector<std::size_t>& qubits);

  // ----- standard channels (exact, non-stochastic) -----
  /// rho -> (1 - p) rho + p/(d²-1) Σ_{P≠I} P rho P over the d = 2^k Paulis of
  /// the listed qubits, applied in its closed form.
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
  Statevector vec_;
};

}  // namespace hgp::sim
