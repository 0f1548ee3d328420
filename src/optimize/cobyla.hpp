#pragma once

#include "optimize/optimizer.hpp"

namespace hgp::opt {

/// Derivative-free linear-approximation trust-region optimizer with the
/// COBYLA control flow (Powell 1994): keep a simplex of n+1 interpolation
/// points, fit a linear model of the objective, step to the trust-region
/// boundary along the model gradient, and shrink the trust radius when the
/// model stops predicting descent. Our VQA problems are bound-constrained
/// only, so Powell's general nonlinear-constraint machinery is replaced by
/// bound clipping (documented simplification; see DESIGN.md).
class Cobyla {
 public:
  struct Options {
    int max_evaluations = 50;  // the paper caps COBYLA at 50 iterations
    double rho_begin = 0.4;
    double rho_end = 1e-4;
  };

  Cobyla() = default;
  explicit Cobyla(Options options) : options_(options) {}

  /// The n+1-point interpolation set builds as one batch; the trust-region
  /// trial points stay sequential (each depends on the refreshed model).
  OptimizeResult minimize(const BatchObjective& f, std::vector<double> x0,
                          const Bounds& bounds = {}) const;

 private:
  Options options_ = {};
};

}  // namespace hgp::opt
