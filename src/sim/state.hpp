#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/rng.hpp"

namespace hgp::sim {

/// Measurement counts keyed by the basis-state bitmask (bit q = outcome of
/// qubit q). Ordered map so printouts are deterministic.
using Counts = std::map<std::uint64_t, std::size_t>;

/// Multinomial shot sampling from a (possibly un-normalized) probability
/// vector via inverse-CDF draws located through a guide table — the one
/// sampler every state and the executor's exact-density engine share.
Counts sample_from_probabilities(const std::vector<double>& p, std::size_t shots, Rng& rng);

/// The circuit front end of `Statevector`, written over the derived state's
/// `apply_matrix`, `num_qubits` and `probabilities` (instantiated in
/// state.cpp).
template <typename State>
class CircuitState {
 public:
  /// Apply one circuit op (must be bound; Barrier/I/Delay are no-ops;
  /// Measure is rejected — use sample()).
  void apply_op(const qc::Op& op);
  /// Run a whole bound circuit.
  void run(const qc::Circuit& circuit);
  /// Sample `shots` measurement outcomes of all qubits.
  Counts sample(std::size_t shots, Rng& rng) const;
};

}  // namespace hgp::sim
