#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "circuit/gates.hpp"
#include "circuit/param.hpp"

namespace hgp::qc {

/// One circuit operation: a gate kind, the qubits it acts on (in the order
/// the gate matrix expects), and its (possibly symbolic) parameters.
struct Op {
  GateKind kind = GateKind::I;
  std::vector<std::size_t> qubits;
  std::vector<Param> params;

  /// Bound parameter values; all params must be constant.
  std::vector<double> constant_params() const;
};

/// A quantum circuit over n qubits: an ordered list of Ops plus a symbolic
/// parameter space (theta vector) referenced by the ops' Params.
class Circuit {
 public:
  Circuit() = default;
  explicit Circuit(std::size_t num_qubits) : num_qubits_(num_qubits) {}

  std::size_t num_qubits() const { return num_qubits_; }
  std::size_t size() const { return ops_.size(); }
  const std::vector<Op>& ops() const { return ops_; }
  std::vector<Op>& ops() { return ops_; }

  /// Number of symbolic parameters (1 + the largest Param index used).
  std::size_t num_parameters() const;
  /// Count of gates with at least two qubits.
  std::size_t count_2q() const;
  /// Count of a specific kind.
  std::size_t count(GateKind k) const;
  /// Circuit depth (longest chain of ops sharing qubits; barriers block all).
  std::size_t depth() const;

  void append(Op op);
  /// Append another circuit's ops (same width required).
  void compose(const Circuit& other);

  // ----- builder helpers -----
  Circuit& i(std::size_t q) { return add1(GateKind::I, q); }
  Circuit& x(std::size_t q) { return add1(GateKind::X, q); }
  Circuit& y(std::size_t q) { return add1(GateKind::Y, q); }
  Circuit& z(std::size_t q) { return add1(GateKind::Z, q); }
  Circuit& h(std::size_t q) { return add1(GateKind::H, q); }
  Circuit& s(std::size_t q) { return add1(GateKind::S, q); }
  Circuit& sdg(std::size_t q) { return add1(GateKind::Sdg, q); }
  Circuit& t(std::size_t q) { return add1(GateKind::T, q); }
  Circuit& tdg(std::size_t q) { return add1(GateKind::Tdg, q); }
  Circuit& sx(std::size_t q) { return add1(GateKind::SX, q); }
  Circuit& sxdg(std::size_t q) { return add1(GateKind::SXdg, q); }
  Circuit& rx(std::size_t q, Param angle) { return add1p(GateKind::RX, q, angle); }
  Circuit& ry(std::size_t q, Param angle) { return add1p(GateKind::RY, q, angle); }
  Circuit& rz(std::size_t q, Param angle) { return add1p(GateKind::RZ, q, angle); }
  Circuit& p(std::size_t q, Param angle) { return add1p(GateKind::P, q, angle); }
  Circuit& rx(std::size_t q, double a) { return rx(q, Param::constant(a)); }
  Circuit& ry(std::size_t q, double a) { return ry(q, Param::constant(a)); }
  Circuit& rz(std::size_t q, double a) { return rz(q, Param::constant(a)); }
  Circuit& u3(std::size_t q, Param theta, Param phi, Param lam);
  Circuit& cx(std::size_t control, std::size_t target);
  Circuit& cz(std::size_t a, std::size_t b);
  Circuit& swap(std::size_t a, std::size_t b);
  Circuit& rzz(std::size_t a, std::size_t b, Param angle);
  Circuit& rzz(std::size_t a, std::size_t b, double angle) {
    return rzz(a, b, Param::constant(angle));
  }
  Circuit& rxx(std::size_t a, std::size_t b, Param angle);
  Circuit& barrier();
  /// Timed idle of `duration_dt` samples on one qubit (used by DD).
  Circuit& delay(std::size_t q, int duration_dt);

  /// New circuit with every symbolic parameter replaced by its value under
  /// `theta`.
  Circuit bound(const std::vector<double>& theta) const;
  /// Adjoint circuit (constant parameters only).
  Circuit inverse() const;

  /// One-line textual summary.
  std::string str() const;

 private:
  Circuit& add1(GateKind k, std::size_t q);
  Circuit& add1p(GateKind k, std::size_t q, Param p);
  void check_qubit(std::size_t q) const;

  std::size_t num_qubits_ = 0;
  std::vector<Op> ops_;
};

}  // namespace hgp::qc
