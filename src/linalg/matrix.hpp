#pragma once

#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <string>

#include "linalg/types.hpp"

namespace hgp::la {

/// Dense row-major complex matrix. Sized for quantum operators on a handful
/// of qubits (gate matrices, pulse-block unitaries, confusion matrices) —
/// correctness and clarity over BLAS-level tuning.
class CMat {
 public:
  CMat() = default;
  CMat(std::size_t rows, std::size_t cols);
  /// Row-major nested initializer, e.g. CMat{{1,0},{0,1}}.
  CMat(std::initializer_list<std::initializer_list<cxd>> rows);

  static CMat identity(std::size_t n);
  static CMat zeros(std::size_t rows, std::size_t cols);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  cxd& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  const cxd& operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  const CVec& data() const { return data_; }
  CVec& data() { return data_; }

  CMat operator*(const CMat& rhs) const;
  CVec operator*(const CVec& v) const;
  CMat operator+(const CMat& rhs) const;
  CMat operator-(const CMat& rhs) const;
  CMat operator*(cxd alpha) const;
  CMat& operator+=(const CMat& rhs);
  CMat& operator-=(const CMat& rhs);
  CMat& operator*=(cxd alpha);

  /// Conjugate transpose.
  CMat dagger() const;
  CMat transpose() const;
  CMat conj() const;
  cxd trace() const;

  bool is_unitary(double tol = 1e-9) const;
  bool is_hermitian(double tol = 1e-9) const;

  /// Largest |a_ij - b_ij|.
  double max_abs_diff(const CMat& other) const;

  std::string str(int prec = 4) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  CVec data_;
};

/// Kronecker product, a ⊗ b (a's indices are the most significant).
CMat kron(const CMat& a, const CMat& b);

std::ostream& operator<<(std::ostream& os, const CMat& m);

}  // namespace hgp::la
