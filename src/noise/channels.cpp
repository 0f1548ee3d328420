#include "noise/channels.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace hgp::noise {

int sample_depolarizing(std::size_t num_qubits, double p, Rng& rng) {
  HGP_REQUIRE(p >= 0.0 && p <= 1.0, "sample_depolarizing: bad probability");
  if (!rng.bernoulli(p)) return 0;
  // Uniform non-identity Pauli on the qubit set.
  const int options = (1 << (2 * static_cast<int>(num_qubits))) - 1;
  return rng.uniform_int(1, options);
}

RelaxationConstants relaxation_constants(double t1_us, double t2_us, double duration_ns) {
  HGP_REQUIRE(t1_us > 0.0 && t2_us > 0.0, "relaxation_constants: bad T1/T2");
  RelaxationConstants rc;
  if (duration_ns <= 0.0) return rc;
  const double t_us = duration_ns * 1e-3;
  rc.gamma = 1.0 - std::exp(-t_us / t1_us);
  rc.damp = std::sqrt(1.0 - rc.gamma);
  // Pure dephasing rate; clamp T2 into the physical region.
  const double t2 = std::min(t2_us, 2.0 * t1_us);
  const double inv_tphi = 1.0 / t2 - 0.5 / t1_us;
  if (inv_tphi > 1e-12) {
    rc.dephase = true;
    rc.p_z = 0.5 * (1.0 - std::exp(-t_us * inv_tphi));
  }
  return rc;
}

std::uint64_t apply_readout(std::uint64_t bits, const std::vector<ReadoutError>& errors,
                            Rng& rng) {
  for (std::size_t q = 0; q < errors.size(); ++q) {
    const bool one = (bits >> q) & 1;
    const double p_flip = one ? errors[q].p0_given_1 : errors[q].p1_given_0;
    if (rng.bernoulli(p_flip)) bits ^= (std::uint64_t{1} << q);
  }
  return bits;
}

}  // namespace hgp::noise
