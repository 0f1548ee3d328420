#pragma once

#include <cstdint>
#include <vector>

#include "linalg/matrix.hpp"
#include "sim/batched_statevector.hpp"

namespace hgp::sim {

/// Dense density-matrix simulator (small qubit counts). It powers the
/// executor's exact-density engine: noise channels apply exactly in a single
/// pass, so no trajectory shot loop is needed. It is also the exact reference
/// the trajectory engine's statistics are verified against.
///
/// rho of n qubits is held as a BatchedStatevector of n qubits x 2^n lanes:
/// the basis index is the column and the lane is the row, so entry (r, c)
/// sits at flat index r | c << n of the split re/im planes. A unitary U
/// applies as U on the rows, then conj(U) on the columns, a dense 1q/2q U
/// as vectorized sweeps along runs of flat index pairs (quads); a diagonal
/// unitary, each channel and each depolarizing charge is one sweep. Every
/// entry gets the same products and sums, in the same order, as the
/// 2n-qubit statevector walk (row pass, then column pass), and
/// tests/test_density.cpp pins every kernel to that walk bit for bit.
class DensityMatrix final {
 public:
  /// Most qubits a DensityMatrix holds: rho of 10 qubits is 16 MB, 12 would
  /// be 256 MB.
  static constexpr std::size_t kMaxQubits = 10;

  explicit DensityMatrix(std::size_t num_qubits);

  std::size_t num_qubits() const { return num_qubits_; }
  /// rho(row, col).
  la::cxd entry(std::uint64_t row, std::uint64_t col) const {
    return planes_.amplitude(col, row);
  }

  /// rho -> A rho A† with A acting on the listed qubits (first = LSB). A
  /// need not be unitary; a lone non-unitary operator leaves rho
  /// un-normalized.
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

  /// The diagonal of rho.
  std::vector<double> probabilities() const;

 private:
  /// Swap the basis and lane axes of the planes: rho -> rho^T.
  void transpose();
  void apply_diagonal(const la::CMat& u, const std::vector<std::size_t>& qubits);
  /// A dense 1q or 2q U on the flat bits `unit` << q of the listed qubits:
  /// unit 1 puts U on the rows, unit 2^n on the columns.
  void apply_dense(const la::CMat& u, const std::vector<std::size_t>& qubits,
                   std::uint64_t unit);
  void relax(std::size_t q, bool damp, double gamma, bool dephase, double p_z);

  std::size_t num_qubits_;
  BatchedStatevector planes_;
};

}  // namespace hgp::sim
