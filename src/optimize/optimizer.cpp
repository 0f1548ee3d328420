#include "optimize/optimizer.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace hgp::opt {

void Bounds::clip(std::vector<double>& x) const {
  if (!active()) return;
  HGP_REQUIRE(lo.size() == x.size() && hi.size() == x.size(), "Bounds: dimension mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = std::clamp(x[i], lo[i], hi[i]);
}

OptimizeResult Optimizer::minimize_batch(const BatchObjective& f, std::vector<double> x0,
                                         const Bounds& bounds) const {
  const Objective scalar = [&f](const std::vector<double>& x) { return f({x})[0]; };
  return minimize(scalar, std::move(x0), bounds);
}

int iterations_to_converge(const OptimizeResult& result, double tol) {
  if (result.history.empty()) return result.iterations;
  // Measured against the best value seen, not the last: COBYLA's history
  // is not monotone (an incumbent refresh can end the run on a worse value).
  const double target =
      *std::min_element(result.history.begin(), result.history.end()) + std::abs(tol);
  for (std::size_t i = 0; i < result.history.size(); ++i)
    if (result.history[i] <= target) return static_cast<int>(i) + 1;
  return static_cast<int>(result.history.size());
}

}  // namespace hgp::opt
