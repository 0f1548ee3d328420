#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/types.hpp"

namespace hgp::sim::detail {

/// Operator-structure detection, basis-index iteration, and the one scalar
/// gate kernel, shared by the `Statevector` and `BatchedStatevector`
/// backends. Both MUST dispatch identically (and then perform the same
/// complex arithmetic) for the trajectory engines to produce bit-identical
/// counts, so that logic lives here exactly once.

using la::Cx;
using la::to_cx;

inline bool is_zero(const la::cxd& x) { return x.real() == 0.0 && x.imag() == 0.0; }

/// Iterate f(i) over all basis indices with bit `b` clear — nested block
/// iteration touches exactly size/2 indices instead of a skip-test over all.
template <typename F>
inline void for_each_pair_base(std::uint64_t size, std::uint64_t b, F&& f) {
  for (std::uint64_t base = 0; base < size; base += 2 * b)
    for (std::uint64_t i = base; i < base + b; ++i) f(i);
}

/// Iterate f(i) over all basis indices with both bits clear (size/4 visits).
template <typename F>
inline void for_each_quad_base(std::uint64_t size, std::uint64_t b0, std::uint64_t b1,
                               F&& f) {
  const std::uint64_t blo = std::min(b0, b1);
  const std::uint64_t bhi = std::max(b0, b1);
  for (std::uint64_t outer = 0; outer < size; outer += 2 * bhi)
    for (std::uint64_t mid = outer; mid < outer + bhi; mid += 2 * blo)
      for (std::uint64_t i = mid; i < mid + blo; ++i) f(i);
}

/// Iterate f(i) over all basis indices with all three bits clear (size/8
/// visits) — the block-base walk of the dense 3q fusion kernels.
template <typename F>
inline void for_each_oct_base(std::uint64_t size, std::uint64_t b0, std::uint64_t b1,
                              std::uint64_t b2, F&& f) {
  std::uint64_t m[3] = {b0, b1, b2};
  std::sort(m, m + 3);
  for (std::uint64_t outer = 0; outer < size; outer += 2 * m[2])
    for (std::uint64_t mid = outer; mid < outer + m[2]; mid += 2 * m[1])
      for (std::uint64_t inner = mid; inner < mid + m[1]; inner += 2 * m[0])
        for (std::uint64_t i = inner; i < inner + m[0]; ++i) f(i);
}

/// Iterate f(i) over all basis indices with bit `b` set (size/2 visits,
/// ascending) — the |1>-subspace walk of the trajectory noise kernels.
template <typename F>
inline void for_each_one(std::uint64_t size, std::uint64_t b, F&& f) {
  for (std::uint64_t base = b; base < size; base += 2 * b)
    for (std::uint64_t i = base; i < base + b; ++i) f(i);
}

/// Sub-index offsets of a k-qubit operator: offset[s] holds the bit of
/// qubits[j] for every set bit j of s (first listed qubit = least
/// significant sub-index bit). `offset` must hold 2^k entries.
inline void sub_offsets(const std::vector<std::size_t>& qubits, std::uint64_t* offset) {
  const std::size_t n = std::size_t{1} << qubits.size();
  for (std::size_t s = 0; s < n; ++s) {
    offset[s] = 0;
    for (std::size_t j = 0; j < qubits.size(); ++j)
      if ((s >> j) & 1) offset[s] |= std::uint64_t{1} << qubits[j];
  }
}

/// Iterate f(i) over the block bases of an N x N operator (N = 2, 4, 8),
/// given its sub-index offsets: every basis index with all target bits clear.
template <std::size_t N, typename F>
inline void for_each_block_base(std::uint64_t size, const std::uint64_t* offset, F&& f) {
  static_assert(N == 2 || N == 4 || N == 8, "block walks exist for 1-3 qubits");
  if constexpr (N == 2)
    for_each_pair_base(size, offset[1], f);
  else if constexpr (N == 4)
    for_each_quad_base(size, offset[1], offset[2], f);
  else
    for_each_oct_base(size, offset[1], offset[2], offset[4], f);
}

/// Iterate f(i) over the block bases of an operator of any width — every
/// basis index with all target bits clear — by expanding each compressed
/// index (a zero bit inserted at every target position, ascending) instead
/// of a skip test over all 2^n indices.
template <typename F>
inline void for_each_base(std::uint64_t size, const std::vector<std::size_t>& qubits, F&& f) {
  std::vector<std::uint64_t> masks(qubits.size());
  for (std::size_t j = 0; j < qubits.size(); ++j) masks[j] = std::uint64_t{1} << qubits[j];
  std::sort(masks.begin(), masks.end());
  for (std::uint64_t t = 0; t < (size >> qubits.size()); ++t) {
    std::uint64_t i = t;
    for (const std::uint64_t m : masks) i = ((i & ~(m - 1)) << 1) | (i & (m - 1));
    f(i);
  }
}

/// True when the 2x2 operator is diagonal (RZ/Z-frame blocks).
inline bool is_diagonal2(const la::CMat& u) {
  return u.rows() == 2 && is_zero(u(0, 1)) && is_zero(u(1, 0));
}

/// True when a square operator of any width is diagonal.
inline bool is_diagonal_n(const la::CMat& u) {
  for (std::size_t r = 0; r < u.rows(); ++r)
    for (std::size_t c = 0; c < u.cols(); ++c)
      if (r != c && !is_zero(u(r, c))) return false;
  return true;
}

/// A generalized 4x4 permutation: exactly one non-zero per column, all
/// target rows distinct. Column c scatters to row perm[c] with phase
/// u(perm[c], c).
struct Perm4 {
  std::size_t perm[4];
};

/// Extract the generalized-permutation structure (CX/SWAP/X⊗X...). Returns
/// false for anything that must take the dense path — including non-unitary
/// operators that repeat a target row.
inline bool as_permutation4(const la::CMat& u, Perm4& out) {
  bool row_used[4] = {false, false, false, false};
  for (std::size_t c = 0; c < 4; ++c) {
    std::size_t nonzero = 0, row = 0;
    for (std::size_t r = 0; r < 4; ++r)
      if (!is_zero(u(r, c))) {
        ++nonzero;
        row = r;
      }
    if (nonzero != 1 || row_used[row]) return false;
    row_used[row] = true;
    out.perm[c] = row;
  }
  return true;
}

/// The structure classes the gate kernels specialize on.
enum class Structure {
  Diagonal,      // 1-3 qubits: one phase multiply per amplitude
  AntiDiagonal,  // 1 qubit (X/Y-like): a paired swap with phases
  Permutation,   // 2 qubits (CX/SWAP/X⊗X...): a gather/scatter with phases
  Dense,         // 1-3 qubits: the full block product
  Generic,       // any other width: the full block product, no detection
};

/// Classify a k-qubit operator, testing the classes in the order above.
/// `perm` receives the permutation when the result is Permutation.
inline Structure classify(const la::CMat& u, std::size_t k, Perm4& perm) {
  if (k == 0 || k > 3) return Structure::Generic;
  if (is_diagonal_n(u)) return Structure::Diagonal;
  if (k == 1 && is_zero(u(0, 0)) && is_zero(u(1, 1))) return Structure::AntiDiagonal;
  if (k == 2 && as_permutation4(u, perm)) return Structure::Permutation;
  return Structure::Dense;
}

/// Block kernel of the scalar body for a 1-3 qubit operator (N = 2^k).
template <std::size_t N, typename Amps>
void apply_block_scalar(const Amps& amp, std::uint64_t size, const la::CMat& u,
                        const std::vector<std::size_t>& qubits, Structure structure,
                        const Perm4& p4) {
  std::uint64_t off[N];
  sub_offsets(qubits, off);
  Cx m[N][N];
  for (std::size_t r = 0; r < N; ++r)
    for (std::size_t c = 0; c < N; ++c) m[r][c] = to_cx(u(r, c));
  auto walk = [&](auto&& f) { for_each_block_base<N>(size, off, f); };

  if (structure == Structure::Diagonal) {
    walk([&](std::uint64_t i) {
      for (std::size_t s = 0; s < N; ++s) amp.set(i | off[s], m[s][s] * amp.get(i | off[s]));
    });
    return;
  }
  if constexpr (N == 2) {
    if (structure == Structure::AntiDiagonal) {
      walk([&](std::uint64_t i) {
        const Cx a0 = amp.get(i);
        amp.set(i, m[0][1] * amp.get(i | off[1]));
        amp.set(i | off[1], m[1][0] * a0);
      });
      return;
    }
  }
  if constexpr (N == 4) {
    if (structure == Structure::Permutation) {
      walk([&](std::uint64_t i) {
        Cx a[4];
        for (std::size_t s = 0; s < 4; ++s) a[s] = amp.get(i | off[s]);
        for (std::size_t s = 0; s < 4; ++s)
          amp.set(i | off[p4.perm[s]], m[p4.perm[s]][s] * a[s]);
      });
      return;
    }
  }
  // Dense: row r = u(r,0)*a0 + u(r,1)*a1 + ..., sums associated left to
  // right. The 3q block starts from zero, as the generic path does.
  walk([&](std::uint64_t i) {
    Cx a[N];
    for (std::size_t s = 0; s < N; ++s) a[s] = amp.get(i | off[s]);
    for (std::size_t r = 0; r < N; ++r) {
      Cx acc = m[r][0] * a[0];
      if constexpr (N == 8) acc = Cx{0.0, 0.0} + acc;
      for (std::size_t s = 1; s < N; ++s) acc = acc + m[r][s] * a[s];
      amp.set(i | off[r], acc);
    }
  });
}

/// The scalar gate kernel: apply the k-qubit operator `u` to one register of
/// `size` amplitudes (first listed qubit = least significant sub-index bit),
/// dispatched on `classify`. `Amps` says where amplitude i lives — get(i)
/// reads it as a Cx, set(i, a) stores it — so `Statevector`'s interleaved
/// complex vector and one lane of `BatchedStatevector`'s split planes run
/// this one body. It is also the reference the lane-vectorized kernels are
/// tested against bit for bit.
template <typename Amps>
void apply_matrix_scalar(const Amps& amp, std::uint64_t size, const la::CMat& u,
                         const std::vector<std::size_t>& qubits) {
  const std::size_t k = qubits.size();
  Perm4 p4{};
  const Structure structure = classify(u, k, p4);
  if (k == 1) return apply_block_scalar<2>(amp, size, u, qubits, structure, p4);
  if (k == 2) return apply_block_scalar<4>(amp, size, u, qubits, structure, p4);
  if (k == 3) return apply_block_scalar<8>(amp, size, u, qubits, structure, p4);

  // Generic width: the full block product, accumulated from zero.
  const std::size_t dim = std::size_t{1} << k;
  std::vector<std::uint64_t> off(dim);
  sub_offsets(qubits, off.data());
  std::vector<Cx> local(dim);
  for_each_base(size, qubits, [&](std::uint64_t i) {
    for (std::size_t s = 0; s < dim; ++s) local[s] = amp.get(i | off[s]);
    for (std::size_t r = 0; r < dim; ++r) {
      Cx acc{0.0, 0.0};
      for (std::size_t s = 0; s < dim; ++s) acc = acc + to_cx(u(r, s)) * local[s];
      amp.set(i | off[r], acc);
    }
  });
}

}  // namespace hgp::sim::detail
