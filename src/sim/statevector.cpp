#include "sim/statevector.hpp"

#include <cmath>

#include "common/error.hpp"
#include "sim/kernel_structure.hpp"

namespace hgp::sim {

using la::cxd;
using la::CMat;
using la::CVec;
using la::Cx;
using la::to_cx;

Statevector::Statevector(std::size_t num_qubits)
    : num_qubits_(num_qubits), amp_(std::size_t{1} << num_qubits, cxd{0.0, 0.0}) {
  HGP_REQUIRE(num_qubits <= 26, "Statevector: too many qubits");
  amp_[0] = 1.0;
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
  detail::require_qubits(qubits, num_qubits_, "apply_matrix");
  detail::apply_matrix_scalar(ComplexAmps{amp_.data()}, amp_.size(), u, qubits);
}

std::vector<double> Statevector::probabilities() const {
  std::vector<double> p(amp_.size());
  for (std::size_t i = 0; i < amp_.size(); ++i) p[i] = std::norm(amp_[i]);
  return p;
}

double Statevector::expectation(const la::PauliSum& obs) const {
  HGP_REQUIRE(obs.num_qubits() == num_qubits_, "expectation: observable width mismatch");
  return obs.expectation(amp_);
}

}  // namespace hgp::sim
