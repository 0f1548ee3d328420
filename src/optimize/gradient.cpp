#include "optimize/gradient.hpp"

#include <cmath>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hgp::opt {

std::vector<double> central_difference_gradient(const BatchObjective& f,
                                                const std::vector<double>& x, double step,
                                                double denominator) {
  const std::size_t n = x.size();
  // One span per stencil dispatch: the 2n-point batch handed to the
  // evaluator, plus running totals of dispatches and points.
  static obs::Counter& stencil_batches =
      obs::Registry::global().counter("gradient.stencil_batches");
  static obs::Counter& stencil_points =
      obs::Registry::global().counter("gradient.stencil_points");
  obs::Span span("gradient.stencil_batch");
  stencil_batches.inc();
  stencil_points.inc(2 * n);
  std::vector<std::vector<double>> points;
  points.reserve(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> xp = x, xm = x;
    xp[i] += step;
    xm[i] -= step;
    points.push_back(std::move(xp));
    points.push_back(std::move(xm));
  }
  const std::vector<double> vals = f(points);
  HGP_REQUIRE(vals.size() == 2 * n,
              "central_difference_gradient: evaluator returned wrong batch size");
  std::vector<double> g(n);
  for (std::size_t i = 0; i < n; ++i) g[i] = (vals[2 * i] - vals[2 * i + 1]) / denominator;
  return g;
}

OptimizeResult Adam::minimize(const BatchObjective& f, std::vector<double> x0,
                              const Bounds& bounds) const {
  const std::size_t n = x0.size();
  HGP_REQUIRE(n >= 1, "Adam: empty parameter vector");
  OptimizeResult out;
  bounds.clip(x0);

  // Singleton batches for the initial point and each iterate.
  const Objective scalar = [&f](const std::vector<double>& p) { return f({p})[0]; };
  constexpr double kHalfPi = 1.5707963267948966;

  std::vector<double> x = x0, m(n, 0.0), v(n, 0.0);
  double best_val = scalar(x);
  std::vector<double> best_x = x;
  out.evaluations = 1;

  for (int k = 1; k <= options_.max_iterations; ++k) {
    // All 2·n stencil points in one call — the evaluator decides whether
    // they run as candidate lanes, pooled workers, or serially.
    const std::vector<double> g =
        options_.mode == GradientMode::ParameterShift
            ? central_difference_gradient(f, x, kHalfPi, 2.0 * std::sin(kHalfPi))
            : central_difference_gradient(f, x, options_.fd_eps, 2.0 * options_.fd_eps);
    out.evaluations += static_cast<int>(2 * n);

    for (std::size_t j = 0; j < n; ++j) {
      m[j] = options_.beta1 * m[j] + (1.0 - options_.beta1) * g[j];
      v[j] = options_.beta2 * v[j] + (1.0 - options_.beta2) * g[j] * g[j];
      const double mhat = m[j] / (1.0 - std::pow(options_.beta1, k));
      const double vhat = v[j] / (1.0 - std::pow(options_.beta2, k));
      x[j] -= options_.learning_rate * mhat / (std::sqrt(vhat) + options_.epsilon);
    }
    bounds.clip(x);

    const double fx = scalar(x);
    ++out.evaluations;
    if (fx < best_val) {
      best_val = fx;
      best_x = x;
    }
    out.history.push_back(best_val);
    ++out.iterations;
  }
  out.x = std::move(best_x);
  out.value = best_val;
  out.converged = true;
  return out;
}

}  // namespace hgp::opt
