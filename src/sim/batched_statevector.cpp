#include "sim/batched_statevector.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "sim/kernel_structure.hpp"

namespace hgp::sim {

using la::cxd;
using la::CMat;
using detail::for_each_one;
using detail::for_each_pair_base;

// Every gate-kernel expression in this file mirrors the scalar body
// (detail::apply_matrix_scalar in kernel_structure.hpp) term-for-term
// (products first, then the same association of sums) so that, with FP
// contraction disabled, a lane evolves bit-identically to the scalar body on
// one register. Do not "simplify" the arithmetic here without changing the
// scalar body in lockstep; tests/test_batched.cpp pins every kernel to it.

BatchedStatevector::BatchedStatevector(std::size_t num_qubits, std::size_t lanes)
    : num_qubits_(num_qubits), dim_(std::size_t{1} << num_qubits), lanes_(lanes) {
  HGP_REQUIRE(num_qubits <= 26, "BatchedStatevector: too many qubits");
  HGP_REQUIRE(lanes >= 1, "BatchedStatevector: need at least one lane");
  re_.assign(dim_ * lanes_, 0.0);
  im_.assign(dim_ * lanes_, 0.0);
  for (std::size_t l = 0; l < lanes_; ++l) re_[l] = 1.0;
  scratch_re_.resize(8 * lanes_);
  scratch_im_.resize(8 * lanes_);
  acc_.resize(lanes_);
  done_.resize(lanes_);
}

void BatchedStatevector::reset() {
  std::fill(re_.begin(), re_.end(), 0.0);
  std::fill(im_.begin(), im_.end(), 0.0);
  for (std::size_t l = 0; l < lanes_; ++l) re_[l] = 1.0;
}

cxd BatchedStatevector::amplitude(std::uint64_t i, std::size_t lane) const {
  return {re_[i * lanes_ + lane], im_[i * lanes_ + lane]};
}

void BatchedStatevector::set_amplitude(std::uint64_t i, std::size_t lane, cxd a) {
  re_[i * lanes_ + lane] = a.real();
  im_[i * lanes_ + lane] = a.imag();
}

namespace {

using la::Cx;
using detail::Structure;

/// One lane of the [basis][lane] planes as the scalar body's amplitude
/// accessor: `re`/`im` point at the lane's basis-0 entry.
struct LaneAmps {
  double* re;
  double* im;
  std::size_t stride;
  Cx get(std::uint64_t i) const { return {re[i * stride], im[i * stride]}; }
  void set(std::uint64_t i, Cx a) const {
    re[i * stride] = a.r;
    im[i * stride] = a.i;
  }
};

/// What a lane-vectorized kernel sweeps: the planes, row i of lane l at
/// re[i * lanes + l], and the 8-row gather scratch.
struct Planes {
  double* re;
  double* im;
  std::uint64_t dim;
  std::size_t lanes;
  double* sr;
  double* si;
};

// Coefficient sources. A lane-vectorized kernel fetches matrix entry (r, c)
// outside its lane loop as cf.re(r, c) / cf.im(r, c) and indexes the result
// by lane inside it.

/// One operator for every lane: each entry is a single scalar, invariant in
/// the lane loop.
struct Broadcast {
  struct Entry {
    double v;
    double operator[](std::size_t) const { return v; }
  };
  const CMat& u;
  Entry re(std::size_t r, std::size_t c) const { return {u(r, c).real()}; }
  Entry im(std::size_t r, std::size_t c) const { return {u(r, c).imag()}; }
};

/// One operator per lane (*us[l] acts on lane l): each entry is a row of
/// per-lane values, packed so the lane loop reads it unit-stride.
class PerLane {
 public:
  struct Entry {
    const double* v;
    double operator[](std::size_t l) const { return v[l]; }
  };
  explicit PerLane(const std::vector<const CMat*>& us)
      : n_(us.front()->rows()), lanes_(us.size()), re_(n_ * n_ * lanes_), im_(re_.size()) {
    for (std::size_t l = 0; l < lanes_; ++l)
      for (std::size_t e = 0; e < n_ * n_; ++e) {
        re_[e * lanes_ + l] = (*us[l])(e / n_, e % n_).real();
        im_[e * lanes_ + l] = (*us[l])(e / n_, e % n_).imag();
      }
  }
  Entry re(std::size_t r, std::size_t c) const { return {&re_[(r * n_ + c) * lanes_]}; }
  Entry im(std::size_t r, std::size_t c) const { return {&im_[(r * n_ + c) * lanes_]}; }

 private:
  std::size_t n_, lanes_;
  std::vector<double> re_, im_;
};

/// row *= c over the lanes (mirror of amp[i] *= c), with c one scalar or one
/// value per lane. The restrict-qualified parameters let the lane loop
/// vectorize without run-time alias checks.
template <typename Entry>
inline void mul_row(double* __restrict__ re, double* __restrict__ im, std::size_t L, Entry cr,
                    Entry ci) {
  for (std::size_t l = 0; l < L; ++l) {
    const double ar = re[l], ai = im[l];
    re[l] = cr[l] * ar - ci[l] * ai;
    im[l] = cr[l] * ai + ci[l] * ar;
  }
}

/// Copy the n rows i | off[s] of every lane into the gather scratch.
inline void gather_rows(const Planes& p, std::size_t n, std::uint64_t i,
                        const std::uint64_t* off, double* sr, double* si) {
  const std::size_t L = p.lanes;
  for (std::size_t s = 0; s < n; ++s) {
    const double* __restrict__ r = p.re + (i | off[s]) * L;
    const double* __restrict__ m = p.im + (i | off[s]) * L;
    for (std::size_t l = 0; l < L; ++l) {
      sr[s * L + l] = r[l];
      si[s * L + l] = m[l];
    }
  }
}

/// Diagonal, 1-3 qubits (N = 2^k): each row times its own phase.
template <std::size_t N, typename Coefs>
void lanes_diagonal(const Planes& p, const Coefs& cf, const std::uint64_t* off) {
  typename Coefs::Entry dr[N], di[N];
  for (std::size_t s = 0; s < N; ++s) {
    dr[s] = cf.re(s, s);
    di[s] = cf.im(s, s);
  }
  const std::size_t L = p.lanes;
  detail::for_each_block_base<N>(p.dim, off, [&](std::uint64_t i) {
    for (std::size_t s = 0; s < N; ++s)
      mul_row(p.re + (i | off[s]) * L, p.im + (i | off[s]) * L, L, dr[s], di[s]);
  });
}

/// Anti-diagonal 1q (X/Y-like): a paired swap with phases.
template <typename Coefs>
void lanes_antidiagonal(const Planes& p, const Coefs& cf, const std::uint64_t* off) {
  const auto p01r = cf.re(0, 1), p01i = cf.im(0, 1);
  const auto p10r = cf.re(1, 0), p10i = cf.im(1, 0);
  const std::size_t L = p.lanes;
  for_each_pair_base(p.dim, off[1], [&](std::uint64_t i) {
    double* __restrict__ r0 = p.re + i * L;
    double* __restrict__ m0 = p.im + i * L;
    double* __restrict__ r1 = p.re + (i | off[1]) * L;
    double* __restrict__ m1 = p.im + (i | off[1]) * L;
    for (std::size_t l = 0; l < L; ++l) {
      const double ar0 = r0[l], ai0 = m0[l];
      const double ar1 = r1[l], ai1 = m1[l];
      r0[l] = p01r[l] * ar1 - p01i[l] * ai1;
      m0[l] = p01r[l] * ai1 + p01i[l] * ar1;
      r1[l] = p10r[l] * ar0 - p10i[l] * ai0;
      m1[l] = p10r[l] * ai0 + p10i[l] * ar0;
    }
  });
}

/// Generalized 2q permutation: gather the four rows, scatter each to its
/// target row with its phase.
template <typename Coefs>
void lanes_permutation(const Planes& p, const Coefs& cf, const std::uint64_t* off,
                       const detail::Perm4& p4) {
  typename Coefs::Entry pr[4], pi[4];
  for (std::size_t s = 0; s < 4; ++s) {
    pr[s] = cf.re(p4.perm[s], s);
    pi[s] = cf.im(p4.perm[s], s);
  }
  const std::size_t L = p.lanes;
  detail::for_each_block_base<4>(p.dim, off, [&](std::uint64_t i) {
    gather_rows(p, 4, i, off, p.sr, p.si);
    for (std::size_t s = 0; s < 4; ++s) {
      double* __restrict__ r = p.re + (i | off[p4.perm[s]]) * L;
      double* __restrict__ m = p.im + (i | off[p4.perm[s]]) * L;
      const double* __restrict__ ar = p.sr + s * L;
      const double* __restrict__ ai = p.si + s * L;
      for (std::size_t l = 0; l < L; ++l) {
        r[l] = pr[s][l] * ar[l] - pi[s][l] * ai[l];
        m[l] = pr[s][l] * ai[l] + pi[s][l] * ar[l];
      }
    }
  });
}

/// Dense 1q: both output rows from the two input rows held in registers.
template <typename Coefs>
void lanes_dense1(const Planes& p, const Coefs& cf, const std::uint64_t* off) {
  const auto u00r = cf.re(0, 0), u00i = cf.im(0, 0);
  const auto u01r = cf.re(0, 1), u01i = cf.im(0, 1);
  const auto u10r = cf.re(1, 0), u10i = cf.im(1, 0);
  const auto u11r = cf.re(1, 1), u11i = cf.im(1, 1);
  const std::size_t L = p.lanes;
  for_each_pair_base(p.dim, off[1], [&](std::uint64_t i) {
    double* __restrict__ r0 = p.re + i * L;
    double* __restrict__ m0 = p.im + i * L;
    double* __restrict__ r1 = p.re + (i | off[1]) * L;
    double* __restrict__ m1 = p.im + (i | off[1]) * L;
    for (std::size_t l = 0; l < L; ++l) {
      const double ar0 = r0[l], ai0 = m0[l];
      const double ar1 = r1[l], ai1 = m1[l];
      r0[l] = (u00r[l] * ar0 - u00i[l] * ai0) + (u01r[l] * ar1 - u01i[l] * ai1);
      m0[l] = (u00r[l] * ai0 + u00i[l] * ar0) + (u01r[l] * ai1 + u01i[l] * ar1);
      r1[l] = (u10r[l] * ar0 - u10i[l] * ai0) + (u11r[l] * ar1 - u11i[l] * ai1);
      m1[l] = (u10r[l] * ai0 + u10i[l] * ar0) + (u11r[l] * ai1 + u11i[l] * ar1);
    }
  });
}

/// One output row of the dense 2q kernel over the lanes:
/// ((p0 + p1) + p2) + p3 with p_s = u_s * a_s, every product rounded first.
/// The restrict-qualified parameters let the lane loop vectorize without
/// run-time alias checks.
template <typename Entry>
inline void dense2_row(double* __restrict__ outr, double* __restrict__ outm,
                       const double* __restrict__ sr, const double* __restrict__ si,
                       std::size_t L, const Entry (&ur)[4], const Entry (&ui)[4]) {
  for (std::size_t l = 0; l < L; ++l) {
    const double p0r = ur[0][l] * sr[0 * L + l] - ui[0][l] * si[0 * L + l];
    const double p0i = ur[0][l] * si[0 * L + l] + ui[0][l] * sr[0 * L + l];
    const double p1r = ur[1][l] * sr[1 * L + l] - ui[1][l] * si[1 * L + l];
    const double p1i = ur[1][l] * si[1 * L + l] + ui[1][l] * sr[1 * L + l];
    const double p2r = ur[2][l] * sr[2 * L + l] - ui[2][l] * si[2 * L + l];
    const double p2i = ur[2][l] * si[2 * L + l] + ui[2][l] * sr[2 * L + l];
    const double p3r = ur[3][l] * sr[3 * L + l] - ui[3][l] * si[3 * L + l];
    const double p3i = ur[3][l] * si[3 * L + l] + ui[3][l] * sr[3 * L + l];
    outr[l] = ((p0r + p1r) + p2r) + p3r;
    outm[l] = ((p0i + p1i) + p2i) + p3i;
  }
}

/// Dense 2q: gather the four rows, then each output row by dense2_row.
template <typename Coefs>
void lanes_dense2(const Planes& p, const Coefs& cf, const std::uint64_t* off) {
  typename Coefs::Entry ur[4][4], ui[4][4];
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c) {
      ur[r][c] = cf.re(r, c);
      ui[r][c] = cf.im(r, c);
    }
  const std::size_t L = p.lanes;
  detail::for_each_block_base<4>(p.dim, off, [&](std::uint64_t i) {
    gather_rows(p, 4, i, off, p.sr, p.si);
    for (std::size_t r = 0; r < 4; ++r)
      dense2_row(p.re + (i | off[r]) * L, p.im + (i | off[r]) * L, p.sr, p.si, L, ur[r],
                 ui[r]);
  });
}

/// Dense 3q and generic k, one block base i: gather the n rows, then each
/// output row accumulated from zero over ascending s, every product rounded
/// before it is added.
template <typename Coefs>
void lanes_accumulate(const Planes& p, const Coefs& cf, std::size_t n, std::uint64_t i,
                      const std::uint64_t* off, double* sr, double* si) {
  const std::size_t L = p.lanes;
  gather_rows(p, n, i, off, sr, si);
  for (std::size_t r = 0; r < n; ++r) {
    double* __restrict__ outr = p.re + (i | off[r]) * L;
    double* __restrict__ outm = p.im + (i | off[r]) * L;
    for (std::size_t l = 0; l < L; ++l) {
      outr[l] = 0.0;
      outm[l] = 0.0;
    }
    for (std::size_t s = 0; s < n; ++s) {
      const auto cr = cf.re(r, s), ci = cf.im(r, s);
      const double* __restrict__ ar = sr + s * L;
      const double* __restrict__ ai = si + s * L;
      for (std::size_t l = 0; l < L; ++l) {
        const double pr = cr[l] * ar[l] - ci[l] * ai[l];
        const double pi = cr[l] * ai[l] + ci[l] * ar[l];
        outr[l] += pr;
        outm[l] += pi;
      }
    }
  }
}

/// The lane-vectorized kernel set, dispatched on the structure class the
/// scalar body would pick for the same operator.
template <typename Coefs>
void apply_lanes(const Planes& p, const Coefs& cf, const std::vector<std::size_t>& qubits,
                 Structure structure, const detail::Perm4& p4) {
  const std::size_t k = qubits.size();
  if (structure == Structure::Generic) {
    const std::size_t n = std::size_t{1} << k;
    std::vector<std::uint64_t> off(n);
    detail::sub_offsets(qubits, off.data());
    std::vector<double> sr(n * p.lanes), si(n * p.lanes);
    detail::for_each_base(p.dim, qubits, [&](std::uint64_t i) {
      lanes_accumulate(p, cf, n, i, off.data(), sr.data(), si.data());
    });
    return;
  }
  std::uint64_t off[8];
  detail::sub_offsets(qubits, off);
  switch (structure) {
    case Structure::Diagonal:
      if (k == 1) lanes_diagonal<2>(p, cf, off);
      if (k == 2) lanes_diagonal<4>(p, cf, off);
      if (k == 3) lanes_diagonal<8>(p, cf, off);
      return;
    case Structure::AntiDiagonal:
      lanes_antidiagonal(p, cf, off);
      return;
    case Structure::Permutation:
      lanes_permutation(p, cf, off, p4);
      return;
    default:
      if (k == 1) lanes_dense1(p, cf, off);
      if (k == 2) lanes_dense2(p, cf, off);
      if (k == 3)
        detail::for_each_block_base<8>(p.dim, off, [&](std::uint64_t i) {
          lanes_accumulate(p, cf, 8, i, off, p.sr, p.si);
        });
  }
}

}  // namespace

void BatchedStatevector::apply_matrix(const CMat& u,
                                      const std::vector<std::size_t>& qubits) {
  const std::size_t k = qubits.size();
  HGP_REQUIRE(u.rows() == (std::size_t{1} << k) && u.cols() == u.rows(),
              "BatchedStatevector::apply_matrix: matrix size mismatch");
  for (std::size_t q : qubits)
    HGP_REQUIRE(q < num_qubits_, "BatchedStatevector::apply_matrix: qubit out of range");
  detail::Perm4 p4{};
  const Structure structure = detail::classify(u, k, p4);
  apply_lanes(Planes{re_.data(), im_.data(), dim_, lanes_, scratch_re_.data(), scratch_im_.data()},
              Broadcast{u}, qubits, structure, p4);
}

void BatchedStatevector::apply_phase_ratio(std::size_t q, cxd ratio) {
  if (ratio == cxd{1.0, 0.0}) return;
  HGP_REQUIRE(q < num_qubits_, "apply_phase_ratio: qubit out of range");
  const std::uint64_t bit = std::uint64_t{1} << q;
  const double rr = ratio.real(), ri = ratio.imag();
  const std::size_t L = lanes_;
  for_each_one(dim_, bit, [&](std::uint64_t i) {
    mul_row(&re_[i * L], &im_[i * L], L, Broadcast::Entry{rr}, Broadcast::Entry{ri});
  });
}

void BatchedStatevector::masses_one(std::size_t q, double* m1) const {
  HGP_REQUIRE(q < num_qubits_, "masses_one: qubit out of range");
  const std::uint64_t bit = std::uint64_t{1} << q;
  const std::size_t L = lanes_;
  for (std::size_t l = 0; l < L; ++l) m1[l] = 0.0;
  for_each_one(dim_, bit, [&](std::uint64_t i) {
    const double* __restrict__ r = &re_[i * L];
    const double* __restrict__ m = &im_[i * L];
    for (std::size_t l = 0; l < L; ++l) m1[l] += r[l] * r[l] + m[l] * m[l];
  });
}

void BatchedStatevector::fused_mass_damp(std::size_t q, const double* scale1, double* m1) {
  HGP_REQUIRE(q < num_qubits_, "fused_mass_damp: qubit out of range");
  const std::uint64_t bit = std::uint64_t{1} << q;
  const std::size_t L = lanes_;
  for (std::size_t l = 0; l < L; ++l) m1[l] = 0.0;
  for_each_one(dim_, bit, [&](std::uint64_t i) {
    double* __restrict__ r = &re_[i * L];
    double* __restrict__ m = &im_[i * L];
    for (std::size_t l = 0; l < L; ++l) {
      const double ar = r[l], ai = m[l];
      m1[l] += ar * ar + ai * ai;
      r[l] = ar * scale1[l];
      m[l] = ai * scale1[l];
    }
  });
}

void BatchedStatevector::damp_or_jump(std::size_t q, const double* take,
                                      const double* scale1) {
  HGP_REQUIRE(q < num_qubits_, "damp_or_jump: qubit out of range");
  const std::uint64_t bit = std::uint64_t{1} << q;
  const std::size_t L = lanes_;
  for_each_one(dim_, bit, [&](std::uint64_t i) {
    double* __restrict__ r1 = &re_[i * L];
    double* __restrict__ m1p = &im_[i * L];
    double* __restrict__ r0 = &re_[(i ^ bit) * L];
    double* __restrict__ m0 = &im_[(i ^ bit) * L];
    for (std::size_t l = 0; l < L; ++l) {
      const double t = take[l];
      const double keep = 1.0 - t;
      r0[l] = keep * r0[l] + t * r1[l];
      m0[l] = keep * m0[l] + t * m1p[l];
      r1[l] *= scale1[l];
      m1p[l] *= scale1[l];
    }
  });
}

void BatchedStatevector::apply_pauli_lanes(std::size_t q, const std::uint8_t* codes) {
  HGP_REQUIRE(q < num_qubits_, "apply_pauli_lanes: qubit out of range");
  const std::uint64_t bit = std::uint64_t{1} << q;
  const std::size_t L = lanes_;
  // Literal complex products with the 0 / ±1 Pauli entries — without
  // fast-math the compiler cannot fold 0.0 * x, so each lane rounds like the
  // scalar body's anti-diagonal (X/Y) and diagonal (Z) kernels.
  for_each_pair_base(dim_, bit, [&](std::uint64_t i) {
    double* __restrict__ r0 = &re_[i * L];
    double* __restrict__ m0 = &im_[i * L];
    double* __restrict__ r1 = &re_[(i | bit) * L];
    double* __restrict__ m1 = &im_[(i | bit) * L];
    for (std::size_t l = 0; l < L; ++l) {
      const double ar0 = r0[l], ai0 = m0[l];
      const double ar1 = r1[l], ai1 = m1[l];
      switch (codes[l]) {
        case 1:  // X: u01 = u10 = 1
          r0[l] = 1.0 * ar1 - 0.0 * ai1;
          m0[l] = 1.0 * ai1 + 0.0 * ar1;
          r1[l] = 1.0 * ar0 - 0.0 * ai0;
          m1[l] = 1.0 * ai0 + 0.0 * ar0;
          break;
        case 2:  // Y: u01 = -i, u10 = i
          r0[l] = 0.0 * ar1 - (-1.0) * ai1;
          m0[l] = 0.0 * ai1 + (-1.0) * ar1;
          r1[l] = 0.0 * ar0 - 1.0 * ai0;
          m1[l] = 0.0 * ai0 + 1.0 * ar0;
          break;
        case 3:  // Z: u00 = 1, u11 = -1
          r0[l] = ar0 * 1.0 - ai0 * 0.0;
          m0[l] = ar0 * 0.0 + ai0 * 1.0;
          r1[l] = ar1 * -1.0 - ai1 * 0.0;
          m1[l] = ar1 * 0.0 + ai1 * -1.0;
          break;
        default:  // I: lane untouched
          break;
      }
    }
  });
}

void BatchedStatevector::apply_matrix_per_lane(const std::vector<const CMat*>& us,
                                               const std::vector<std::size_t>& qubits) {
  const std::size_t k = qubits.size();
  const std::size_t L = lanes_;
  HGP_REQUIRE(us.size() == L, "apply_matrix_per_lane: one operator per lane");
  const std::size_t rows = std::size_t{1} << k;
  for (const CMat* u : us)
    HGP_REQUIRE(u->rows() == rows && u->cols() == rows,
                "apply_matrix_per_lane: matrix size mismatch");
  for (std::size_t q : qubits)
    HGP_REQUIRE(q < num_qubits_, "apply_matrix_per_lane: qubit out of range");

  // Lane-vectorized when every lane is diagonal, every lane anti-diagonal,
  // or every lane dense. Permutations (whose pattern may differ by lane),
  // generic widths, and mixed classes take the scalar body lane by lane.
  detail::Perm4 p4{};
  const Structure structure = detail::classify(*us.front(), k, p4);
  bool same = structure == Structure::Diagonal || structure == Structure::AntiDiagonal ||
              structure == Structure::Dense;
  for (std::size_t l = 1; l < L && same; ++l) same = detail::classify(*us[l], k, p4) == structure;
  if (!same) {
    for (std::size_t l = 0; l < L; ++l) apply_matrix_one_lane(*us[l], qubits, l);
    return;
  }
  apply_lanes(Planes{re_.data(), im_.data(), dim_, lanes_, scratch_re_.data(), scratch_im_.data()},
              PerLane(us), qubits, structure, p4);
}

void BatchedStatevector::apply_matrix_one_lane(const CMat& u,
                                               const std::vector<std::size_t>& qubits,
                                               std::size_t lane) {
  const std::size_t k = qubits.size();
  HGP_REQUIRE(u.rows() == (std::size_t{1} << k) && u.cols() == u.rows(),
              "apply_matrix_one_lane: matrix size mismatch");
  HGP_REQUIRE(lane < lanes_, "apply_matrix_one_lane: lane out of range");
  for (std::size_t q : qubits)
    HGP_REQUIRE(q < num_qubits_, "apply_matrix_one_lane: qubit out of range");
  detail::apply_matrix_scalar(LaneAmps{&re_[lane], &im_[lane], lanes_}, dim_, u, qubits);
}

void BatchedStatevector::weighted_masses(const double* values, double* num,
                                         double* den) const {
  const std::size_t L = lanes_;
  for (std::size_t l = 0; l < L; ++l) {
    num[l] = 0.0;
    den[l] = 0.0;
  }
  for (std::uint64_t i = 0; i < dim_; ++i) {
    const double* __restrict__ r = &re_[i * L];
    const double* __restrict__ m = &im_[i * L];
    const double v = values[i];
    for (std::size_t l = 0; l < L; ++l) {
      const double p = r[l] * r[l] + m[l] * m[l];
      num[l] += v * p;
      den[l] += p;
    }
  }
}

void BatchedStatevector::accumulate_mapped(const std::uint32_t* map, double* out) const {
  const std::size_t L = lanes_;
  for (std::uint64_t i = 0; i < dim_; ++i) {
    const double* __restrict__ r = &re_[i * L];
    const double* __restrict__ m = &im_[i * L];
    double* __restrict__ o = &out[static_cast<std::size_t>(map[i]) * L];
    for (std::size_t l = 0; l < L; ++l) o[l] += r[l] * r[l] + m[l] * m[l];
  }
}

void BatchedStatevector::sample_lanes(const double* x, const std::uint8_t* active,
                                      std::uint64_t* out) const {
  const std::size_t L = lanes_;
  std::vector<double>& acc = acc_;
  std::vector<std::uint8_t>& done = done_;
  std::fill(acc.begin(), acc.end(), 0.0);
  std::size_t remaining = 0;
  for (std::size_t l = 0; l < L; ++l) {
    done[l] = active != nullptr && !active[l];
    if (!done[l]) {
      out[l] = dim_ - 1;  // rounding-slack fall-through, as in the scalar scan
      ++remaining;
    }
  }
  if (remaining == 0) return;
  for (std::uint64_t i = 0; i < dim_; ++i) {
    const double* __restrict__ r = &re_[i * L];
    const double* __restrict__ m = &im_[i * L];
    for (std::size_t l = 0; l < L; ++l) acc[l] += r[l] * r[l] + m[l] * m[l];
    for (std::size_t l = 0; l < L; ++l) {
      if (!done[l] && x[l] < acc[l]) {
        out[l] = i;
        done[l] = 1;
        --remaining;
      }
    }
    if (remaining == 0) return;
  }
}

void BatchedStatevector::sample_sorted(std::size_t ref_lane,
                                       const std::pair<double, std::size_t>* draws,
                                       std::size_t count, std::uint64_t* out) const {
  if (count == 0) return;
  const std::size_t L = lanes_;
  double acc = 0.0;
  std::size_t d = 0;
  for (std::uint64_t i = 0; i < dim_ && d < count; ++i) {
    const double ar = re_[i * L + ref_lane], ai = im_[i * L + ref_lane];
    acc += ar * ar + ai * ai;
    while (d < count && draws[d].first < acc) {
      out[draws[d].second] = i;
      ++d;
    }
  }
  for (; d < count; ++d) out[draws[d].second] = dim_ - 1;
}

}  // namespace hgp::sim
