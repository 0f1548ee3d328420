#include "sim/density.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <utility>

#include "common/error.hpp"
#include "noise/channels.hpp"
#include "sim/kernel_structure.hpp"

namespace hgp::sim {

using la::CMat;

// rho(r, c) sits at flat index r | c << n of the planes (lane r of basis row
// c), so qubit q's row bit is flat bit q and its column bit flat bit q + n.
// Every sweep in this file gives each entry the complex arithmetic the
// 2n-qubit statevector walk gave it: a unitary's row pass (the scalar body's
// products on the row bits), then its column pass (the same with conj(U) on
// the column bits); each channel's expressions as written below. With FP
// contraction off, rho stays bit-identical to that walk, which
// tests/test_density.cpp keeps as the reference.

namespace {

std::size_t checked_width(std::size_t num_qubits) {
  HGP_REQUIRE(num_qubits <= DensityMatrix::kMaxQubits,
              "DensityMatrix: too many qubits for a dense matrix");
  return num_qubits;
}

template <std::uint64_t B>
using Bit = std::integral_constant<std::uint64_t, B>;

/// f(i, len) for every run of len = b consecutive flat indices from i, below
/// `size`, with bit b clear. Runs of 1 and 2 arrive with len a compile-time
/// constant, so the compiler vectorizes across those runs instead of along
/// them.
template <typename F>
void for_each_pair_run(std::uint64_t size, std::uint64_t b, F&& f) {
  auto walk = [&](auto len) {
    for (std::uint64_t i = 0; i < size; i += 2 * b) f(i, len);
  };
  if (b == 1) return walk(Bit<1>{});
  if (b == 2) return walk(Bit<2>{});
  walk(b);
}

/// The same over the quads i, i + o1, i + o2, i + o1 + o2: runs of
/// min(o1, o2) consecutive bases with both bits clear.
template <typename F>
void for_each_quad_run(std::uint64_t size, std::uint64_t o1, std::uint64_t o2, F&& f) {
  const std::uint64_t lo = std::min(o1, o2), hi = std::max(o1, o2);
  auto walk = [&](auto len) {
    for (std::uint64_t outer = 0; outer < size; outer += 2 * hi)
      for (std::uint64_t i = outer; i < outer + hi; i += 2 * lo) f(i, len);
  };
  if (lo == 1) return walk(Bit<1>{});
  if (lo == 2) return walk(Bit<2>{});
  walk(lo);
}

/// A dense N x N operator's entries, split.
template <std::size_t N>
struct Split {
  explicit Split(const CMat& u) {
    for (std::size_t r = 0; r < N; ++r)
      for (std::size_t c = 0; c < N; ++c) {
        re[r][c] = u(r, c).real();
        im[r][c] = u(r, c).imag();
      }
  }
  double re[N][N], im[N][N];
};

/// One run of the scalar body's dense 1q product on the pairs x0[j], x1[j].
template <typename Len>
void dense1_run(double* __restrict__ r0, double* __restrict__ m0, double* __restrict__ r1,
                double* __restrict__ m1, Len len, const Split<2>& u) {
  for (std::size_t j = 0; j < len; ++j) {
    const double ar0 = r0[j], ai0 = m0[j], ar1 = r1[j], ai1 = m1[j];
    r0[j] = (u.re[0][0] * ar0 - u.im[0][0] * ai0) + (u.re[0][1] * ar1 - u.im[0][1] * ai1);
    m0[j] = (u.re[0][0] * ai0 + u.im[0][0] * ar0) + (u.re[0][1] * ai1 + u.im[0][1] * ar1);
    r1[j] = (u.re[1][0] * ar0 - u.im[1][0] * ai0) + (u.re[1][1] * ar1 - u.im[1][1] * ai1);
    m1[j] = (u.re[1][0] * ai0 + u.im[1][0] * ar0) + (u.re[1][1] * ai1 + u.im[1][1] * ar1);
  }
}

/// One run of the scalar body's dense 2q product, ((p0 + p1) + p2) + p3 per
/// output with p_s = u(r, s) a_s, on the quads x0[j] .. x3[j].
template <typename Len>
void dense2_run(double* __restrict__ r0, double* __restrict__ r1, double* __restrict__ r2,
                double* __restrict__ r3, double* __restrict__ m0, double* __restrict__ m1,
                double* __restrict__ m2, double* __restrict__ m3, Len len, const Split<4>& u) {
  for (std::size_t j = 0; j < len; ++j) {
    const double ar[4] = {r0[j], r1[j], r2[j], r3[j]};
    const double ai[4] = {m0[j], m1[j], m2[j], m3[j]};
    double outr[4], outi[4];
    for (std::size_t r = 0; r < 4; ++r) {
      double pr[4], pi[4];
      for (std::size_t s = 0; s < 4; ++s) {
        pr[s] = u.re[r][s] * ar[s] - u.im[r][s] * ai[s];
        pi[s] = u.re[r][s] * ai[s] + u.im[r][s] * ar[s];
      }
      outr[r] = ((pr[0] + pr[1]) + pr[2]) + pr[3];
      outi[r] = ((pi[0] + pi[1]) + pi[2]) + pi[3];
    }
    r0[j] = outr[0], r1[j] = outr[1], r2[j] = outr[2], r3[j] = outr[3];
    m0[j] = outi[0], m1[j] = outi[1], m2[j] = outi[2], m3[j] = outi[3];
  }
}

/// One plane's run of amplitude damping (Damp) then dephasing (Dephase)
/// over the 2 x 2 blocks x00 = (r, c), x10 = (r + b, c), x01 = (r, c + b),
/// x11 = (r + b, c + b) of one qubit.
template <bool Damp, bool Dephase, typename Len>
void relax_run(double* __restrict__ x00, double* __restrict__ x10, double* __restrict__ x01,
               double* __restrict__ x11, Len len, double gamma, double keep, double decay,
               double keep_z) {
  for (std::size_t j = 0; j < len; ++j) {
    if (Damp) {
      const double excited = x11[j];
      x00[j] += gamma * excited;
      x10[j] *= keep;
      x01[j] *= keep;
      x11[j] = decay * excited;
    }
    if (Dephase) {
      x10[j] *= keep_z;
      x01[j] *= keep_z;
    }
  }
}

/// One plane's run of the 1q depolarizing closed form over the same blocks.
template <typename Len>
void depolarize1_run(double* __restrict__ x00, double* __restrict__ x10,
                     double* __restrict__ x01, double* __restrict__ x11, Len len, double keep,
                     double mix) {
  for (std::size_t j = 0; j < len; ++j) {
    const double tr = (0.0 + x00[j]) + x11[j];
    x00[j] = x00[j] * keep + mix * tr;
    x10[j] *= keep;
    x01[j] *= keep;
    x11[j] = x11[j] * keep + mix * tr;
  }
}

/// Swap row and column of a square L x L plane in place, in 8 x 8 tiles.
void transpose_plane(double* a, std::size_t L) {
  constexpr std::size_t kTile = 8;
  for (std::size_t ib = 0; ib < L; ib += kTile)
    for (std::size_t jb = ib; jb < L; jb += kTile)
      for (std::size_t i = ib; i < std::min(ib + kTile, L); ++i)
        for (std::size_t j = jb == ib ? i + 1 : jb; j < std::min(jb + kTile, L); ++j)
          std::swap(a[i * L + j], a[j * L + i]);
}

/// The flat planes as the scalar body's amplitude accessor.
struct FlatAmps {
  double* re;
  double* im;
  la::Cx get(std::uint64_t i) const { return {re[i], im[i]}; }
  void set(std::uint64_t i, la::Cx a) const {
    re[i] = a.r;
    im[i] = a.i;
  }
};

}  // namespace

DensityMatrix::DensityMatrix(std::size_t num_qubits)
    : num_qubits_(checked_width(num_qubits)),
      planes_(num_qubits, std::size_t{1} << num_qubits) {
  // The planes start with |0> in every lane; rho = |0><0| keeps row 0 only.
  for (std::size_t r = 1; r < planes_.lanes(); ++r) planes_.set_amplitude(0, r, 0.0);
}

void DensityMatrix::apply_matrix(const CMat& u, const std::vector<std::size_t>& qubits) {
  const std::size_t k = qubits.size();
  HGP_REQUIRE(u.rows() == (std::size_t{1} << k) && u.cols() == u.rows(),
              "DensityMatrix::apply_matrix: matrix size mismatch");
  detail::require_qubits(qubits, num_qubits_, "DensityMatrix");
  detail::Perm4 p4{};
  const detail::Structure structure = detail::classify(u, k, p4);
  if (structure == detail::Structure::Diagonal) return apply_diagonal(u, qubits);
  if (structure == detail::Structure::Dense && k <= 2) {
    const std::uint64_t columns = planes_.lanes();
    if (k == 2 && std::min(qubits[0], qubits[1]) < 2) {
      // Runs of one or two rows vectorize poorly for a 2q product: run U on
      // the columns of the transposed planes instead.
      transpose();
      apply_dense(u, qubits, columns);
      transpose();
    } else {
      apply_dense(u, qubits, 1);
    }
    apply_dense(u.conj(), qubits, columns);
    return;
  }
  // Anti-diagonal, permutation and wider operators: the scalar body on the
  // row bits, then the broadcast lane kernel on the columns (the basis axis).
  const std::uint64_t size = planes_.lanes() * planes_.lanes();
  detail::apply_matrix_scalar(FlatAmps{planes_.re_plane(), planes_.im_plane()}, size, u, qubits);
  planes_.apply_matrix(u.conj(), qubits);
}

void DensityMatrix::transpose() {
  transpose_plane(planes_.re_plane(), planes_.lanes());
  transpose_plane(planes_.im_plane(), planes_.lanes());
}

void DensityMatrix::apply_dense(const CMat& u, const std::vector<std::size_t>& qubits,
                                std::uint64_t unit) {
  double* const re = planes_.re_plane();
  double* const im = planes_.im_plane();
  const std::uint64_t size = planes_.lanes() * planes_.lanes();
  if (qubits.size() == 1) {
    const Split<2> s(u);
    const std::uint64_t b = unit << qubits[0];
    for_each_pair_run(size, b, [&](std::uint64_t i, auto len) {
      dense1_run(re + i, im + i, re + i + b, im + i + b, len, s);
    });
    return;
  }
  const Split<4> s(u);
  const std::uint64_t o1 = unit << qubits[0], o2 = unit << qubits[1], o3 = o1 + o2;
  for_each_quad_run(size, o1, o2, [&](std::uint64_t i, auto len) {
    dense2_run(re + i, re + i + o1, re + i + o2, re + i + o3, im + i, im + i + o1, im + i + o2,
               im + i + o3, len, s);
  });
}

void DensityMatrix::apply_diagonal(const CMat& u, const std::vector<std::size_t>& qubits) {
  // Entry (r, c) becomes conj(d_c) (d_r rho(r, c)): the row pass's product,
  // then the column pass's, with d_x the diagonal at x's sub-index.
  const std::size_t L = planes_.lanes();
  std::vector<std::size_t> sub(L, 0);
  for (std::size_t x = 0; x < L; ++x)
    for (std::size_t j = 0; j < qubits.size(); ++j) sub[x] |= ((x >> qubits[j]) & 1) << j;
  std::vector<double> dr(L), di(L);
  for (std::size_t r = 0; r < L; ++r) {
    dr[r] = u(sub[r], sub[r]).real();
    di[r] = u(sub[r], sub[r]).imag();
  }
  for (std::size_t c = 0; c < L; ++c) {
    const double cr = u(sub[c], sub[c]).real(), ci = -u(sub[c], sub[c]).imag();
    double* __restrict__ re = planes_.re_plane() + c * L;
    double* __restrict__ im = planes_.im_plane() + c * L;
    for (std::size_t l = 0; l < L; ++l) {
      const double ar = re[l], ai = im[l];
      const double tr = dr[l] * ar - di[l] * ai, ti = dr[l] * ai + di[l] * ar;
      re[l] = cr * tr - ci * ti;
      im[l] = cr * ti + ci * tr;
    }
  }
}

void DensityMatrix::apply_depolarizing(const std::vector<std::size_t>& qubits, double p) {
  HGP_REQUIRE(p >= 0.0 && p <= 1.0, "apply_depolarizing: bad probability");
  if (p == 0.0) return;
  detail::require_qubits(qubits, num_qubits_, "DensityMatrix");
  // Σ_P P rho P over all d² Paulis of the qubits is d · Tr_Q(rho) ⊗ I, so
  // rho' = (1 - p d²/(d²-1)) rho + p d/(d²-1) Tr_Q(rho) ⊗ I. Each block of
  // entries that differ only on the qubits' row and column bits scales, and
  // its diagonal gains its own trace.
  const std::size_t k = qubits.size();
  const std::size_t d = std::size_t{1} << k;
  const double d2 = static_cast<double>(d * d);
  const double keep = 1.0 - p * d2 / (d2 - 1.0);
  const double mix = p * static_cast<double>(d) / (d2 - 1.0);
  const std::size_t L = planes_.lanes();
  if (k == 1) {
    const std::uint64_t b = std::uint64_t{1} << qubits[0], bc = b * L;
    for (double* x : {planes_.re_plane(), planes_.im_plane()})
      for_each_quad_run(L * L, b, bc, [&](std::uint64_t i, auto len) {
        depolarize1_run(x + i, x + i + b, x + i + bc, x + i + b + bc, len, keep, mix);
      });
    return;
  }
  // Wider blocks, column block by column block: the traces of its blocks,
  // indexed by their row base, then one pass per column in which every entry
  // scales and each block-diagonal one, (base + off[s], c + off[s]), gains
  // mix times its block's trace.
  std::vector<std::uint64_t> off(d);
  detail::sub_offsets(qubits, off.data());
  const std::uint64_t mask = off[d - 1];
  std::vector<double> trace(L);
  for (double* plane : {planes_.re_plane(), planes_.im_plane()}) {
    double* __restrict__ tr = trace.data();
    detail::for_each_base(L, qubits, [&](std::uint64_t c) {
      const double* __restrict__ first = plane + c * L;
      for (std::size_t l = 0; l < L - mask; ++l) tr[l] = 0.0 + first[l];
      for (std::size_t s = 1; s < d; ++s) {
        const double* __restrict__ col = plane + (c + off[s]) * L + off[s];
        for (std::size_t l = 0; l < L - mask; ++l) tr[l] += col[l];
      }
      for (std::size_t s = 0; s < d; ++s) {
        double* __restrict__ col = plane + (c + off[s]) * L;
        for (std::size_t l = 0; l < off[s]; ++l) col[l] *= keep;
        for (std::size_t l = off[s]; l < L; ++l) {
          const double x = col[l] * keep;
          col[l] = (l & mask) == off[s] ? x + mix * tr[l - off[s]] : x;
        }
      }
    });
  }
}

void DensityMatrix::relax(std::size_t q, bool damp, double gamma, bool dephase, double p_z) {
  // K0 = diag(1, sqrt(1-γ)), K1 = sqrt(γ)|0><1|: the excited population
  // decays into the ground one and the coherences shrink by sqrt(1-γ).
  // Dephasing, (1 - p) rho + p Z rho Z, then scales the coherences by 1 - 2p.
  const double keep = std::sqrt(1.0 - gamma), decay = 1.0 - gamma;
  const double keep_z = 1.0 - 2.0 * p_z;
  const std::size_t L = planes_.lanes();
  const std::uint64_t b = std::uint64_t{1} << q, bc = b * L;
  auto sweep = [&](auto damp_c, auto dephase_c) {
    for (double* x : {planes_.re_plane(), planes_.im_plane()})
      for_each_quad_run(L * L, b, bc, [&](std::uint64_t i, auto len) {
        relax_run<damp_c, dephase_c>(x + i, x + i + b, x + i + bc, x + i + b + bc, len, gamma,
                                     keep, decay, keep_z);
      });
  };
  if (!damp) return sweep(std::false_type{}, std::true_type{});
  if (dephase) return sweep(std::true_type{}, std::true_type{});
  sweep(std::true_type{}, std::false_type{});
}

void DensityMatrix::apply_amplitude_damping(std::size_t q, double gamma) {
  HGP_REQUIRE(gamma >= 0.0 && gamma <= 1.0, "apply_amplitude_damping: bad gamma");
  HGP_REQUIRE(q < num_qubits_, "apply_amplitude_damping: qubit out of range");
  relax(q, true, gamma, false, 0.0);
}

void DensityMatrix::apply_phase_damping(std::size_t q, double p_z) {
  HGP_REQUIRE(p_z >= 0.0 && p_z <= 1.0, "apply_phase_damping: bad probability");
  HGP_REQUIRE(q < num_qubits_, "apply_phase_damping: qubit out of range");
  relax(q, false, 0.0, true, p_z);
}

void DensityMatrix::apply_thermal_relaxation(std::size_t q, double t1_us, double t2_us,
                                             double duration_ns) {
  const noise::RelaxationConstants rc = noise::relaxation_constants(t1_us, t2_us, duration_ns);
  if (duration_ns <= 0.0) return;
  HGP_REQUIRE(rc.gamma >= 0.0 && rc.gamma <= 1.0, "apply_thermal_relaxation: bad gamma");
  HGP_REQUIRE(q < num_qubits_, "apply_thermal_relaxation: qubit out of range");
  relax(q, true, rc.gamma, rc.dephase, rc.p_z);
}

std::vector<double> DensityMatrix::probabilities() const {
  std::vector<double> p(planes_.lanes());
  for (std::uint64_t r = 0; r < p.size(); ++r) p[r] = entry(r, r).real();
  return p;
}

}  // namespace hgp::sim
