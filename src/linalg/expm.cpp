#include "linalg/expm.hpp"

#include <cmath>

#include "linalg/eig.hpp"

namespace hgp::la {

CMat expm_ih(const CMat& h, double t) {
  const EigResult eg = eigh(h);
  const std::size_t n = h.rows();
  CMat d(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    const double phi = -t * eg.values[i];
    d(i, i) = cxd{std::cos(phi), std::sin(phi)};
  }
  return eg.vectors * d * eg.vectors.dagger();
}

}  // namespace hgp::la
