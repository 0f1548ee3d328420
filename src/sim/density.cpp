#include "sim/density.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "noise/channels.hpp"
#include "sim/kernel_structure.hpp"

namespace hgp::sim {

using la::cxd;
using la::CMat;

namespace {

std::size_t vector_width(std::size_t num_qubits) {
  HGP_REQUIRE(num_qubits <= DensityMatrix::kMaxQubits,
              "DensityMatrix: too many qubits for a dense matrix");
  return 2 * num_qubits;
}

/// The column qubits (q + n) of distinct row qubits q of an n-qubit rho.
std::vector<std::size_t> columns_of(const std::vector<std::size_t>& qubits, std::size_t n) {
  std::vector<std::size_t> columns;
  for (std::size_t q : qubits) {
    HGP_REQUIRE(q < n, "DensityMatrix: qubit out of range");
    HGP_REQUIRE(std::count(qubits.begin(), qubits.end(), q) == 1,
                "DensityMatrix: duplicate qubit");
    columns.push_back(q + n);
  }
  return columns;
}

}  // namespace

DensityMatrix::DensityMatrix(std::size_t num_qubits)
    : num_qubits_(num_qubits), vec_(vector_width(num_qubits)) {}

DensityMatrix DensityMatrix::from_amplitudes(const la::CVec& amplitudes) {
  std::size_t n = 0;
  while ((std::size_t{1} << n) < amplitudes.size()) ++n;
  HGP_REQUIRE((std::size_t{1} << n) == amplitudes.size(),
              "DensityMatrix: amplitude count is not a power of two");
  DensityMatrix dm(n);
  la::CVec& v = dm.vec_.data();
  for (std::uint64_t r = 0; r < amplitudes.size(); ++r)
    for (std::uint64_t c = 0; c < amplitudes.size(); ++c) {
      const la::Cx z = la::to_cx(amplitudes[r]) * la::to_cx(std::conj(amplitudes[c]));
      v[r | c << n] = cxd{z.r, z.i};
    }
  return dm;
}

void DensityMatrix::apply_matrix(const CMat& u, const std::vector<std::size_t>& qubits) {
  const std::vector<std::size_t> columns = columns_of(qubits, num_qubits_);
  vec_.apply_matrix(u, qubits);
  vec_.apply_matrix(u.conj(), columns);
}

void DensityMatrix::apply_depolarizing(const std::vector<std::size_t>& qubits, double p) {
  HGP_REQUIRE(p >= 0.0 && p <= 1.0, "apply_depolarizing: bad probability");
  if (p == 0.0) return;
  // Σ_P P rho P over all d² Paulis of the qubits is d · Tr_Q(rho) ⊗ I, so
  // rho' = (1 - p d²/(d²-1)) rho + p d/(d²-1) Tr_Q(rho) ⊗ I. Each block of
  // entries that differ only on the qubits' row and column bits scales, and
  // its diagonal gains its own trace.
  const std::size_t k = qubits.size();
  const std::size_t d = std::size_t{1} << k;
  const double d2 = static_cast<double>(d * d);
  const double keep = 1.0 - p * d2 / (d2 - 1.0);
  const double mix = p * static_cast<double>(d) / (d2 - 1.0);
  std::vector<std::size_t> bits(qubits);
  for (std::size_t c : columns_of(qubits, num_qubits_)) bits.push_back(c);
  // off[a | b << k] = the offset of (row a, column b) on the qubits; the
  // block diagonal (s, s) sits at s * (d + 1).
  std::vector<std::uint64_t> off(d * d);
  detail::sub_offsets(bits, off.data());
  la::CVec& v = vec_.data();
  detail::for_each_base(v.size(), bits, [&](std::uint64_t i) {
    cxd tr{0.0, 0.0};
    for (std::size_t s = 0; s < d; ++s) tr += v[i | off[s * (d + 1)]];
    for (const std::uint64_t o : off) v[i | o] *= keep;
    for (std::size_t s = 0; s < d; ++s) v[i | off[s * (d + 1)]] += mix * tr;
  });
}

void DensityMatrix::apply_amplitude_damping(std::size_t q, double gamma) {
  HGP_REQUIRE(gamma >= 0.0 && gamma <= 1.0, "apply_amplitude_damping: bad gamma");
  HGP_REQUIRE(q < num_qubits_, "apply_amplitude_damping: qubit out of range");
  // K0 = diag(1, sqrt(1-γ)), K1 = sqrt(γ)|0><1|: the excited population
  // decays into the ground one and the coherences shrink by sqrt(1-γ).
  const std::uint64_t row = std::uint64_t{1} << q, col = row << num_qubits_;
  const double keep = std::sqrt(1.0 - gamma);
  la::CVec& v = vec_.data();
  detail::for_each_quad_base(v.size(), row, col, [&](std::uint64_t i) {
    const cxd excited = v[i | row | col];
    v[i] += gamma * excited;
    v[i | row] *= keep;
    v[i | col] *= keep;
    v[i | row | col] = (1.0 - gamma) * excited;
  });
}

void DensityMatrix::apply_phase_damping(std::size_t q, double p_z) {
  HGP_REQUIRE(p_z >= 0.0 && p_z <= 1.0, "apply_phase_damping: bad probability");
  HGP_REQUIRE(q < num_qubits_, "apply_phase_damping: qubit out of range");
  // (1 - p) rho + p Z rho Z: the coherences scale by 1 - 2p.
  const std::uint64_t row = std::uint64_t{1} << q, col = row << num_qubits_;
  const double keep = 1.0 - 2.0 * p_z;
  la::CVec& v = vec_.data();
  detail::for_each_quad_base(v.size(), row, col, [&](std::uint64_t i) {
    v[i | row] *= keep;
    v[i | col] *= keep;
  });
}

void DensityMatrix::apply_thermal_relaxation(std::size_t q, double t1_us, double t2_us,
                                             double duration_ns) {
  const noise::RelaxationConstants rc = noise::relaxation_constants(t1_us, t2_us, duration_ns);
  if (duration_ns <= 0.0) return;
  apply_amplitude_damping(q, rc.gamma);
  if (rc.dephase) apply_phase_damping(q, rc.p_z);
}

std::vector<double> DensityMatrix::probabilities() const {
  std::vector<double> p(std::size_t{1} << num_qubits_);
  for (std::uint64_t r = 0; r < p.size(); ++r) p[r] = entry(r, r).real();
  return p;
}

double DensityMatrix::expectation(const la::PauliSum& obs) const {
  HGP_REQUIRE(obs.num_qubits() == num_qubits_, "expectation: observable width mismatch");
  // Tr(rho P) per term: the trace of P rho, which is P on the row qubits.
  double total = 0.0;
  for (const la::PauliTerm& term : obs.terms()) {
    std::vector<la::Pauli> rows(2 * num_qubits_, la::Pauli::I);
    for (std::size_t q = 0; q < num_qubits_; ++q) rows[q] = term.string.op(q);
    const la::CVec p_rho = la::PauliString(rows).apply(vec_.data());
    double tr = 0.0;
    for (std::uint64_t r = 0; r < (std::uint64_t{1} << num_qubits_); ++r)
      tr += p_rho[r | r << num_qubits_].real();
    total += term.coeff * tr;
  }
  return total;
}

double DensityMatrix::prob_one(std::size_t q) const {
  HGP_REQUIRE(q < num_qubits_, "prob_one: qubit out of range");
  const std::uint64_t bit = std::uint64_t{1} << q;
  double p = 0.0;
  for (std::uint64_t r = 0; r < (std::uint64_t{1} << num_qubits_); ++r)
    if (r & bit) p += entry(r, r).real();
  return p;
}

double DensityMatrix::trace() const {
  double t = 0.0;
  for (const double p : probabilities()) t += p;
  return t;
}

double DensityMatrix::purity() const {
  // Tr(rho²) = Σ_ij rho_ij rho_ji; rho is Hermitian so this is Σ |rho_ij|².
  double s = 0.0;
  for (const cxd& x : vec_.data()) s += std::norm(x);
  return s;
}

}  // namespace hgp::sim
