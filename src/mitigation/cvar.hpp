#pragma once

#include <functional>
#include <vector>

#include "mitigation/m3.hpp"
#include "sim/statevector.hpp"

namespace hgp::mit {

/// CVaR_α aggregation of a sampled cost (Barkoutsos et al., Quantum 2020):
/// the mean over the best α-fraction of shots. With alpha = 1 this is the
/// ordinary expectation; smaller alpha focuses the optimizer on the good
/// tail of the distribution — the paper uses α = 0.3.
/// `value` maps a measured bitstring to its cost; the best tail is the
/// highest-value one (Max-Cut maximizes cut values).
double cvar_from_counts(const sim::Counts& counts,
                        const std::function<double(std::uint64_t)>& value, double alpha);

/// CVaR over a quasi-probability distribution (post-M3): bitstrings are
/// sorted by value and quasi-weights accumulated until α of the total
/// positive weight is covered.
double cvar_from_quasi(const QuasiDistribution& quasi,
                       const std::function<double(std::uint64_t)>& value, double alpha);

/// CVaR over a dense exact outcome distribution: p[j] is the weight of
/// bitstring j and values[j] its cost (the executor's lane-native objective
/// path feeds its exact per-candidate distributions here). The tail budget
/// scales with the total weight, so unnormalized probability masses give the
/// same result as normalized ones.
double cvar_from_distribution(const std::vector<double>& p,
                              const std::vector<double>& values, double alpha);

}  // namespace hgp::mit
