#pragma once

#include <complex>
#include <vector>

namespace hgp::la {

using cxd = std::complex<double>;
/// Dense complex vector; used for statevectors (little-endian qubit order:
/// basis index i has qubit q in bit q of i).
using CVec = std::vector<cxd>;

inline constexpr double kPi = 3.14159265358979323846;
inline constexpr cxd kI{0.0, 1.0};

/// A complex value as two doubles, with the textbook product: every partial
/// product rounded first, then re = cr*ar - ci*ai and im = cr*ai + ci*ar.
/// For finite operands std::complex's product returns exactly these values;
/// it only adds a __muldc3 call that recovers infinities from NaN results,
/// which costs a libgcc call site per multiply and blocks vectorization.
/// The gate kernels and the pulse simulator multiply through it; the
/// lane-vectorized kernels spell out the same expressions.
struct Cx {
  double r, i;
};
inline Cx operator*(Cx c, Cx a) { return {c.r * a.r - c.i * a.i, c.r * a.i + c.i * a.r}; }
inline Cx operator+(Cx a, Cx b) { return {a.r + b.r, a.i + b.i}; }
inline Cx to_cx(const cxd& z) { return {z.real(), z.imag()}; }

}  // namespace hgp::la
