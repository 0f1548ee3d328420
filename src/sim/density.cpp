#include "sim/density.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "noise/channels.hpp"

namespace hgp::sim {

using la::cxd;
using la::CMat;

DensityMatrix::DensityMatrix(std::size_t num_qubits)
    : num_qubits_(num_qubits),
      rho_(std::size_t{1} << num_qubits, std::size_t{1} << num_qubits) {
  HGP_REQUIRE(num_qubits <= 10, "DensityMatrix: too many qubits for a dense matrix");
  rho_(0, 0) = 1.0;
}

DensityMatrix DensityMatrix::from_amplitudes(const la::CVec& amplitudes) {
  std::size_t n = 0;
  while ((std::size_t{1} << n) < amplitudes.size()) ++n;
  HGP_REQUIRE((std::size_t{1} << n) == amplitudes.size(),
              "DensityMatrix: amplitude count is not a power of two");
  DensityMatrix dm(n);
  for (std::size_t i = 0; i < amplitudes.size(); ++i)
    for (std::size_t j = 0; j < amplitudes.size(); ++j)
      dm.rho_(i, j) = amplitudes[i] * std::conj(amplitudes[j]);
  return dm;
}

void DensityMatrix::apply_matrix(const CMat& u, const std::vector<std::size_t>& qubits) {
  apply_kraus({u}, qubits);
}

void DensityMatrix::apply_kraus(const std::vector<CMat>& kraus,
                                const std::vector<std::size_t>& qubits) {
  // In-place block-partitioned update. rho' = Σ_k K rho K† with K acting on
  // `qubits` couples only entries that agree on every *other* qubit, so rho
  // decomposes into independent m x m blocks (m = 2^k) indexed by the rest
  // bits — each block transforms in place with two small matrix products.
  // O(4^n · |K| · m) work and O(m²) scratch, vs the dense-lift formulation's
  // O(8^n) products and O(4^n) temporaries per operator.
  HGP_REQUIRE(!kraus.empty(), "apply_kraus: empty Kraus set");
  const std::size_t k = qubits.size();
  const std::size_t m = std::size_t{1} << k;
  for (const CMat& op : kraus)
    HGP_REQUIRE(op.rows() == m && op.cols() == m, "apply_kraus: operator size mismatch");

  // offset[sub] spreads a k-bit sub-index onto the qubit positions
  // (qubits[j] carries bit j — first listed qubit is the LSB).
  std::uint64_t mask = 0;
  std::vector<std::uint64_t> offset(m, 0);
  for (std::size_t j = 0; j < k; ++j) {
    HGP_REQUIRE(qubits[j] < num_qubits_, "apply_kraus: qubit out of range");
    const std::uint64_t bit = std::uint64_t{1} << qubits[j];
    HGP_REQUIRE((mask & bit) == 0, "apply_kraus: duplicate qubit");
    mask |= bit;
  }
  for (std::size_t sub = 0; sub < m; ++sub)
    for (std::size_t j = 0; j < k; ++j)
      if ((sub >> j) & 1) offset[sub] |= std::uint64_t{1} << qubits[j];

  const std::uint64_t dim = rho_.rows();
  std::vector<cxd> block(m * m), tmp(m * m), out(m * m);
  for (std::uint64_t rb = 0; rb < dim; ++rb) {
    if (rb & mask) continue;
    for (std::uint64_t cb = 0; cb < dim; ++cb) {
      if (cb & mask) continue;
      for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < m; ++j)
          block[i * m + j] = rho_(rb | offset[i], cb | offset[j]);
      std::fill(out.begin(), out.end(), cxd{0.0, 0.0});
      for (const CMat& op : kraus) {
        // tmp = K · block, then out += tmp · K†.
        for (std::size_t a = 0; a < m; ++a)
          for (std::size_t j = 0; j < m; ++j) {
            cxd s{0.0, 0.0};
            for (std::size_t i = 0; i < m; ++i) s += op(a, i) * block[i * m + j];
            tmp[a * m + j] = s;
          }
        for (std::size_t a = 0; a < m; ++a)
          for (std::size_t b = 0; b < m; ++b) {
            cxd s{0.0, 0.0};
            for (std::size_t j = 0; j < m; ++j) s += tmp[a * m + j] * std::conj(op(b, j));
            out[a * m + b] += s;
          }
      }
      for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < m; ++j)
          rho_(rb | offset[i], cb | offset[j]) = out[i * m + j];
    }
  }
}

void DensityMatrix::apply_depolarizing(const std::vector<std::size_t>& qubits, double p) {
  HGP_REQUIRE(p >= 0.0 && p <= 1.0, "apply_depolarizing: bad probability");
  if (p == 0.0) return;
  const std::size_t k = qubits.size();
  const int paulis = 1 << (2 * static_cast<int>(k));
  std::vector<CMat> kraus;
  kraus.reserve(static_cast<std::size_t>(paulis));
  for (int pick = 0; pick < paulis; ++pick) {
    CMat op = CMat::identity(1);
    for (std::size_t j = k; j-- > 0;) {
      const int pj = (pick >> (2 * j)) & 3;
      op = la::kron(op, la::pauli_matrix(static_cast<la::Pauli>(pj)));
    }
    const double weight = pick == 0 ? 1.0 - p : p / (paulis - 1);
    kraus.push_back(op * cxd{std::sqrt(weight), 0.0});
  }
  apply_kraus(kraus, qubits);
}

void DensityMatrix::apply_amplitude_damping(std::size_t q, double gamma) {
  HGP_REQUIRE(gamma >= 0.0 && gamma <= 1.0, "apply_amplitude_damping: bad gamma");
  const CMat k0{{1, 0}, {0, std::sqrt(1.0 - gamma)}};
  const CMat k1{{0, std::sqrt(gamma)}, {0, 0}};
  apply_kraus({k0, k1}, {q});
}

void DensityMatrix::apply_phase_damping(std::size_t q, double p_z) {
  HGP_REQUIRE(p_z >= 0.0 && p_z <= 1.0, "apply_phase_damping: bad probability");
  const CMat kz = la::pauli_matrix(la::Pauli::Z) * cxd{std::sqrt(p_z), 0.0};
  const CMat ki = CMat::identity(2) * cxd{std::sqrt(1.0 - p_z), 0.0};
  apply_kraus({ki, kz}, {q});
}

void DensityMatrix::apply_thermal_relaxation(std::size_t q, double t1_us, double t2_us,
                                             double duration_ns) {
  const noise::RelaxationConstants rc = noise::relaxation_constants(t1_us, t2_us, duration_ns);
  if (duration_ns <= 0.0) return;
  apply_amplitude_damping(q, rc.gamma);
  if (rc.dephase) apply_phase_damping(q, rc.p_z);
}

std::vector<double> DensityMatrix::probabilities() const {
  std::vector<double> p(rho_.rows());
  for (std::size_t i = 0; i < rho_.rows(); ++i) p[i] = rho_(i, i).real();
  return p;
}

double DensityMatrix::expectation(const la::PauliSum& obs) const {
  HGP_REQUIRE(obs.num_qubits() == num_qubits_, "expectation: observable width mismatch");
  // Tr(rho P) per term.
  double total = 0.0;
  for (const la::PauliTerm& term : obs.terms()) {
    const CMat full = term.string.matrix();
    cxd tr{0.0, 0.0};
    for (std::size_t i = 0; i < rho_.rows(); ++i)
      for (std::size_t j = 0; j < rho_.cols(); ++j) tr += rho_(i, j) * full(j, i);
    total += term.coeff * tr.real();
  }
  return total;
}

double DensityMatrix::prob_one(std::size_t q) const {
  HGP_REQUIRE(q < num_qubits_, "prob_one: qubit out of range");
  const std::uint64_t bit = std::uint64_t{1} << q;
  double p = 0.0;
  for (std::uint64_t i = 0; i < rho_.rows(); ++i)
    if (i & bit) p += rho_(i, i).real();
  return p;
}

double DensityMatrix::trace() const { return rho_.trace().real(); }

double DensityMatrix::purity() const {
  // Tr(rho²) = Σ_ij rho_ij rho_ji; rho is Hermitian so this is Σ |rho_ij|².
  double s = 0.0;
  for (const cxd& x : rho_.data()) s += std::norm(x);
  return s;
}

}  // namespace hgp::sim
