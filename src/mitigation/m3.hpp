#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "noise/channels.hpp"
#include "sim/statevector.hpp"

namespace hgp::mit {

/// Quasi-probability distribution returned by measurement mitigation
/// (entries can be negative; they sum to ~1).
struct QuasiDistribution {
  std::map<std::uint64_t, double> probs;
  /// Σ|p| ≥ 1 — the sampling-overhead metric of quasi-probabilities.
  double overhead = 1.0;
  int solver_iterations = 0;
  bool converged = false;

  /// Expectation of a diagonal observable given by a per-bitstring value.
  double expectation(const std::function<double(std::uint64_t)>& value) const;
};

/// Matrix-free measurement error mitigation (M3, Nation et al., PRX Quantum
/// 2021): restrict the assignment matrix to the subspace of *observed*
/// bitstrings, normalize its columns within the subspace, and solve
/// Ā x = p_noisy iteratively (GMRES) with the matrix applied on the fly from
/// per-qubit confusion data — no 2^n matrix is ever formed.
class M3Mitigator {
 public:
  /// `errors[i]` is the confusion of measured bit i.
  explicit M3Mitigator(std::vector<noise::ReadoutError> errors);

  /// Mitigate raw counts into a quasi-probability distribution over the
  /// observed bitstrings.
  QuasiDistribution mitigate(const sim::Counts& counts) const;

 private:
  std::vector<noise::ReadoutError> errors_;
};

}  // namespace hgp::mit
