#include "optimize/spsa.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace hgp::opt {

OptimizeResult Spsa::minimize(const BatchObjective& f, std::vector<double> x0,
                              const Bounds& bounds) const {
  const std::size_t n = x0.size();
  HGP_REQUIRE(n >= 1, "Spsa: empty parameter vector");
  Rng rng(options_.seed);
  OptimizeResult out;
  bounds.clip(x0);

  std::vector<double> x = x0;
  std::vector<double> best_x = x;
  double best_val = f({x})[0];
  out.evaluations = 1;

  for (int k = 0; k < options_.max_iterations; ++k) {
    const double ak =
        options_.a / std::pow(k + 1 + options_.stability, options_.alpha);
    const double ck = options_.c / std::pow(k + 1, options_.gamma);

    std::vector<double> delta(n);
    for (double& d : delta) d = rng.bernoulli(0.5) ? 1.0 : -1.0;

    std::vector<double> xp = x, xm = x;
    for (std::size_t j = 0; j < n; ++j) {
      xp[j] += ck * delta[j];
      xm[j] -= ck * delta[j];
    }
    bounds.clip(xp);
    bounds.clip(xm);
    // The perturbation pair is independent — one batch, two workers.
    const std::vector<double> pair = f({xp, xm});
    const double fp = pair[0];
    const double fm = pair[1];
    out.evaluations += 2;

    for (std::size_t j = 0; j < n; ++j)
      x[j] -= ak * (fp - fm) / (2.0 * ck * delta[j]);
    bounds.clip(x);

    const double fx = std::min(fp, fm);
    if (fx < best_val) {
      best_val = fx;
      best_x = fp < fm ? xp : xm;
    }
    out.history.push_back(best_val);
    ++out.iterations;
  }

  // Final evaluation at the iterate (often better than the best probe).
  // Without an iteration the iterate is x0, already evaluated.
  if (out.iterations > 0) {
    const double fx = f({x})[0];
    ++out.evaluations;
    if (fx < best_val) {
      best_val = fx;
      best_x = x;
    }
  }
  out.x = std::move(best_x);
  out.value = best_val;
  out.converged = true;
  return out;
}

}  // namespace hgp::opt
