#include "sim/statevector.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "linalg/vec.hpp"
#include "sim/kernel_structure.hpp"

namespace hgp::sim {

using la::cxd;
using la::CMat;
using la::CVec;
using detail::Cx;
using detail::is_zero;
using detail::to_cx;

Statevector::Statevector(std::size_t num_qubits)
    : num_qubits_(num_qubits), amp_(std::size_t{1} << num_qubits, cxd{0.0, 0.0}) {
  HGP_REQUIRE(num_qubits <= 26, "Statevector: too many qubits");
  amp_[0] = 1.0;
}

Statevector Statevector::from_amplitudes(CVec amplitudes) {
  std::size_t n = 0;
  while ((std::size_t{1} << n) < amplitudes.size()) ++n;
  HGP_REQUIRE((std::size_t{1} << n) == amplitudes.size(),
              "Statevector: amplitude count is not a power of two");
  Statevector sv(n);
  sv.amp_ = std::move(amplitudes);
  return sv;
}

void Statevector::reset() {
  std::fill(amp_.begin(), amp_.end(), cxd{0.0, 0.0});
  amp_[0] = 1.0;
}

std::unique_ptr<QuantumState> Statevector::clone() const {
  return std::make_unique<Statevector>(*this);
}

namespace {

/// Statevector's storage as the scalar body's amplitude accessor.
struct ComplexAmps {
  cxd* amp;
  Cx get(std::uint64_t i) const { return to_cx(amp[i]); }
  void set(std::uint64_t i, Cx a) const { amp[i] = cxd{a.r, a.i}; }
};

}  // namespace

void Statevector::apply_matrix(const CMat& u, const std::vector<std::size_t>& qubits) {
  const std::size_t k = qubits.size();
  HGP_REQUIRE(u.rows() == (std::size_t{1} << k) && u.cols() == u.rows(),
              "apply_matrix: matrix size does not match qubit count");
  for (std::size_t q : qubits) HGP_REQUIRE(q < num_qubits_, "apply_matrix: qubit out of range");
  detail::apply_matrix_scalar(ComplexAmps{amp_.data()}, amp_.size(), u, qubits);
}

std::vector<double> Statevector::probabilities() const {
  std::vector<double> p(amp_.size());
  for (std::size_t i = 0; i < amp_.size(); ++i) p[i] = std::norm(amp_[i]);
  return p;
}

void Statevector::weighted_mass(const double* values, double& num, double& den) const {
  num = 0.0;
  den = 0.0;
  for (std::uint64_t i = 0; i < amp_.size(); ++i) {
    const double ar = amp_[i].real(), ai = amp_[i].imag();
    const double p = ar * ar + ai * ai;
    num += values[i] * p;
    den += p;
  }
}

std::uint64_t Statevector::sample_one(Rng& rng) const {
  // One shot: a single accumulate-and-compare pass, no CDF materialization.
  // The state is unit-norm (trajectory branches renormalize), so the draw is
  // against 1 with a fall-through to the last amplitude for rounding slack.
  const double x = rng.uniform();
  double acc = 0.0;
  for (std::uint64_t i = 0; i < amp_.size(); ++i) {
    acc += std::norm(amp_[i]);
    if (x < acc) return i;
  }
  return amp_.size() - 1;
}

double Statevector::expectation(const la::PauliSum& obs) const {
  HGP_REQUIRE(obs.num_qubits() == num_qubits_, "expectation: observable width mismatch");
  return obs.expectation(amp_);
}

double Statevector::prob_one(std::size_t q) const {
  HGP_REQUIRE(q < num_qubits_, "prob_one: qubit out of range");
  const std::uint64_t bit = std::uint64_t{1} << q;
  double p = 0.0;
  for (std::uint64_t i = 0; i < amp_.size(); ++i)
    if (i & bit) p += std::norm(amp_[i]);
  return p;
}

double Statevector::collapse(std::size_t q, bool outcome) {
  const double p1 = prob_one(q);
  const double p = outcome ? p1 : 1.0 - p1;
  HGP_REQUIRE(p > 1e-15, "collapse: outcome has (near-)zero probability");
  const std::uint64_t bit = std::uint64_t{1} << q;
  const double scale = 1.0 / std::sqrt(p);
  for (std::uint64_t i = 0; i < amp_.size(); ++i) {
    const bool one = (i & bit) != 0;
    if (one == outcome)
      amp_[i] *= scale;
    else
      amp_[i] = cxd{0.0, 0.0};
  }
  return p;
}

void Statevector::normalize() {
  double norm2 = 0.0;
  for (const cxd& a : amp_) norm2 += std::norm(a);
  HGP_REQUIRE(norm2 > 1e-300, "normalize: zero state");
  const double scale = 1.0 / std::sqrt(norm2);
  for (cxd& a : amp_) a *= scale;
}

void Statevector::apply_kraus_branch(const CMat& k,
                                     const std::vector<std::size_t>& qubits) {
  // Single-qubit diagonal Kraus branch (the amplitude-damping no-jump
  // operator): fuse the damp and the norm accumulation into one pass.
  if (qubits.size() == 1 && is_zero(k(0, 1)) && is_zero(k(1, 0))) {
    const std::uint64_t bit = std::uint64_t{1} << qubits[0];
    const Cx k0 = to_cx(k(0, 0)), k1 = to_cx(k(1, 1));
    const ComplexAmps amp{amp_.data()};
    double norm2 = 0.0;
    for (std::uint64_t i = 0; i < amp_.size(); ++i) {
      amp.set(i, ((i & bit) ? k1 : k0) * amp.get(i));
      norm2 += std::norm(amp_[i]);
    }
    HGP_REQUIRE(norm2 > 1e-300, "apply_kraus_branch: branch has zero weight");
    const double scale = 1.0 / std::sqrt(norm2);
    for (cxd& a : amp_) a *= scale;
    return;
  }
  QuantumState::apply_kraus_branch(k, qubits);
}

}  // namespace hgp::sim
