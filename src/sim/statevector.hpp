#pragma once

#include <cstdint>

#include "circuit/circuit.hpp"
#include "linalg/matrix.hpp"
#include "linalg/pauli.hpp"
#include "linalg/types.hpp"
#include "sim/state.hpp"

namespace hgp::sim {

/// Exact statevector of an n-qubit register with in-place gate application.
/// Little-endian: qubit q is bit q of the basis index. Gates run through the
/// scalar body in sim/kernel_structure.hpp: structured operators (diagonal,
/// anti-diagonal/X-like, permutation) are detected at apply time and
/// dispatched to specialized kernels that skip the dense matrix product. It
/// is the reference the lane-batched `BatchedStatevector` kernels match bit
/// for bit.
class Statevector final : public CircuitState<Statevector> {
 public:
  explicit Statevector(std::size_t num_qubits);

  std::size_t num_qubits() const { return num_qubits_; }
  const la::CVec& data() const { return amp_; }
  la::CVec& data() { return amp_; }

  /// Apply a dense k-qubit operator to the listed qubits (first listed qubit
  /// = least significant sub-index bit). Optimized paths for k = 1-3 plus
  /// structure-specialized kernels (diagonal / anti-diagonal / permutation).
  void apply_matrix(const la::CMat& u, const std::vector<std::size_t>& qubits);

  std::vector<double> probabilities() const;
  /// Expectation of a Pauli-sum observable.
  double expectation(const la::PauliSum& obs) const;

 private:
  std::size_t num_qubits_ = 0;
  la::CVec amp_;
};

}  // namespace hgp::sim
