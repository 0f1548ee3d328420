#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "common/error.hpp"

namespace hgp::la {

CMat::CMat(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, cxd{0.0, 0.0}) {}

CMat::CMat(std::initializer_list<std::initializer_list<cxd>> rows) {
  rows_ = rows.size();
  cols_ = rows.begin() == rows.end() ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    HGP_REQUIRE(row.size() == cols_, "CMat: ragged initializer");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

CMat CMat::identity(std::size_t n) {
  CMat m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

CMat CMat::zeros(std::size_t rows, std::size_t cols) { return CMat(rows, cols); }

CMat CMat::operator*(const CMat& rhs) const {
  HGP_REQUIRE(cols_ == rhs.rows_, "CMat::operator*: shape mismatch");
  CMat out(rows_, rhs.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const cxd a = (*this)(i, k);
      if (a == cxd{0.0, 0.0}) continue;
      for (std::size_t j = 0; j < rhs.cols_; ++j) out(i, j) += a * rhs(k, j);
    }
  }
  return out;
}

CVec CMat::operator*(const CVec& v) const {
  HGP_REQUIRE(cols_ == v.size(), "CMat::operator*(vec): shape mismatch");
  CVec out(rows_, cxd{0.0, 0.0});
  for (std::size_t i = 0; i < rows_; ++i) {
    cxd s{0.0, 0.0};
    const cxd* row = &data_[i * cols_];
    for (std::size_t j = 0; j < cols_; ++j) s += row[j] * v[j];
    out[i] = s;
  }
  return out;
}

CMat CMat::operator+(const CMat& rhs) const {
  CMat out = *this;
  out += rhs;
  return out;
}

CMat CMat::operator-(const CMat& rhs) const {
  CMat out = *this;
  out -= rhs;
  return out;
}

CMat CMat::operator*(cxd alpha) const {
  CMat out = *this;
  out *= alpha;
  return out;
}

CMat& CMat::operator+=(const CMat& rhs) {
  HGP_REQUIRE(rows_ == rhs.rows_ && cols_ == rhs.cols_, "CMat::operator+=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

CMat& CMat::operator-=(const CMat& rhs) {
  HGP_REQUIRE(rows_ == rhs.rows_ && cols_ == rhs.cols_, "CMat::operator-=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

CMat& CMat::operator*=(cxd alpha) {
  for (cxd& x : data_) x *= alpha;
  return *this;
}

CMat CMat::dagger() const {
  CMat out(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) out(j, i) = std::conj((*this)(i, j));
  return out;
}

CMat CMat::transpose() const {
  CMat out(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) out(j, i) = (*this)(i, j);
  return out;
}

CMat CMat::conj() const {
  CMat out = *this;
  for (cxd& x : out.data_) x = std::conj(x);
  return out;
}

cxd CMat::trace() const {
  HGP_REQUIRE(rows_ == cols_, "CMat::trace: not square");
  cxd s{0.0, 0.0};
  for (std::size_t i = 0; i < rows_; ++i) s += (*this)(i, i);
  return s;
}

bool CMat::is_unitary(double tol) const {
  if (rows_ != cols_) return false;
  const CMat p = (*this) * dagger();
  return p.max_abs_diff(identity(rows_)) < tol;
}

bool CMat::is_hermitian(double tol) const {
  if (rows_ != cols_) return false;
  return max_abs_diff(dagger()) < tol;
}

double CMat::max_abs_diff(const CMat& other) const {
  HGP_REQUIRE(rows_ == other.rows_ && cols_ == other.cols_, "max_abs_diff: shape mismatch");
  double m = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i)
    m = std::max(m, std::abs(data_[i] - other.data_[i]));
  return m;
}

std::string CMat::str(int prec) const {
  std::ostringstream os;
  os << std::fixed << std::setprecision(prec);
  for (std::size_t i = 0; i < rows_; ++i) {
    os << "[";
    for (std::size_t j = 0; j < cols_; ++j) {
      const cxd& x = (*this)(i, j);
      os << (j ? ", " : "") << x.real() << (x.imag() < 0 ? "-" : "+") << std::abs(x.imag())
         << "i";
    }
    os << "]\n";
  }
  return os.str();
}

CMat kron(const CMat& a, const CMat& b) {
  CMat out(a.rows() * b.rows(), a.cols() * b.cols());
  for (std::size_t ia = 0; ia < a.rows(); ++ia)
    for (std::size_t ja = 0; ja < a.cols(); ++ja) {
      const cxd av = a(ia, ja);
      if (av == cxd{0.0, 0.0}) continue;
      for (std::size_t ib = 0; ib < b.rows(); ++ib)
        for (std::size_t jb = 0; jb < b.cols(); ++jb)
          out(ia * b.rows() + ib, ja * b.cols() + jb) = av * b(ib, jb);
    }
  return out;
}

std::ostream& operator<<(std::ostream& os, const CMat& m) { return os << m.str(); }

}  // namespace hgp::la
