#include "mitigation/m3.hpp"

#include <cmath>

#include "common/error.hpp"
#include "linalg/solve.hpp"

namespace hgp::mit {

double QuasiDistribution::expectation(
    const std::function<double(std::uint64_t)>& value) const {
  double e = 0.0;
  for (const auto& [bits, p] : probs) e += p * value(bits);
  return e;
}

M3Mitigator::M3Mitigator(std::vector<noise::ReadoutError> errors)
    : errors_(std::move(errors)) {
  HGP_REQUIRE(!errors_.empty(), "M3Mitigator: no confusion data");
  for (const auto& e : errors_) {
    HGP_REQUIRE(e.p1_given_0 >= 0 && e.p1_given_0 < 0.5 && e.p0_given_1 >= 0 &&
                    e.p0_given_1 < 0.5,
                "M3Mitigator: confusion probabilities must be in [0, 0.5)");
  }
}

QuasiDistribution M3Mitigator::mitigate(const sim::Counts& counts) const {
  QuasiDistribution out;
  HGP_REQUIRE(!counts.empty(), "M3Mitigator::mitigate: empty counts");

  std::vector<std::uint64_t> keys;
  keys.reserve(counts.size());
  double shots = 0.0;
  for (const auto& [bits, n] : counts) {
    keys.push_back(bits);
    shots += static_cast<double>(n);
  }
  const std::size_t k = keys.size();

  // Per-qubit single-bit assignment probabilities as one 2x2 table per bit,
  // built once per call: bit_prob[4q + 2*measured + truth].
  const std::size_t n = errors_.size();
  std::vector<double> bit_prob(4 * n);
  for (std::size_t q = 0; q < n; ++q) {
    const noise::ReadoutError& e = errors_[q];
    bit_prob[4 * q + 0] = 1.0 - e.p1_given_0;
    bit_prob[4 * q + 1] = e.p0_given_1;
    bit_prob[4 * q + 2] = e.p1_given_0;
    bit_prob[4 * q + 3] = 1.0 - e.p0_given_1;
  }
  // A[i][j] = P(measure keys[i] | true keys[j]), applied on the fly (never
  // stored: k reaches 16,384 outcomes on a 14-bit register).
  auto assignment = [&](std::size_t i, std::size_t j) {
    double p = 1.0;
    for (std::size_t q = 0; q < n; ++q)
      p *= bit_prob[4 * q + 2 * ((keys[i] >> q) & 1) + ((keys[j] >> q) & 1)];
    return p;
  };

  // Column normalization within the observed subspace keeps Ā stochastic on
  // the restricted space (the M3 trick that controls the truncation bias).
  std::vector<double> col_norm(k, 0.0);
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t i = 0; i < k; ++i) col_norm[j] += assignment(i, j);
    HGP_REQUIRE(col_norm[j] > 1e-12, "M3Mitigator: degenerate column");
  }

  auto matvec = [&](const std::vector<double>& x) {
    std::vector<double> y(k, 0.0);
    for (std::size_t i = 0; i < k; ++i) {
      double s = 0.0;
      for (std::size_t j = 0; j < k; ++j) s += assignment(i, j) / col_norm[j] * x[j];
      y[i] = s;
    }
    return y;
  };

  std::vector<double> p_noisy(k);
  for (std::size_t i = 0; i < k; ++i)
    p_noisy[i] = static_cast<double>(counts.at(keys[i])) / shots;

  const la::GmresResult sol =
      la::gmres(matvec, p_noisy, /*max_iter=*/300, /*tol=*/1e-10, /*restart=*/60);

  out.solver_iterations = sol.iterations;
  out.converged = sol.converged;
  out.overhead = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    out.probs[keys[i]] = sol.x[i];
    out.overhead += std::abs(sol.x[i]);
  }
  return out;
}

}  // namespace hgp::mit
