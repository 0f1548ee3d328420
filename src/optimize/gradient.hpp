#pragma once

#include "optimize/optimizer.hpp"

namespace hgp::opt {

/// Central-difference gradient as one batch: all 2·n points x ± step·e_i,
/// ordered x+step·e_0, x−step·e_0, x+step·e_1, …, go out in a single
/// BatchObjective call, so a candidate-lane or worker-pool evaluator
/// amortizes every shared gate application across the whole gradient, and
/// g_i = (f(x+step·e_i) − f(x−step·e_i)) / denominator. The parameter-shift
/// rule is step π/2 over 2·sin(π/2) (exact for expectation values of
/// circuits whose gates are e^{-iθP/2}); central finite differences, for
/// pulse parameters where no shift rule applies, are step ε over 2ε.
std::vector<double> central_difference_gradient(const BatchObjective& f,
                                                const std::vector<double>& x, double step,
                                                double denominator);

/// Adam on the central-difference stencil above — the "enabling gradient
/// descent for pulse-level VQAs" baseline the paper cites. Each iteration
/// submits its gradient's 2·n points as one batch.
class Adam {
 public:
  enum class GradientMode {
    ParameterShift,
    FiniteDifference,
  };

  struct Options {
    int max_iterations = 100;
    double learning_rate = 0.1;
    double beta1 = 0.9;
    double beta2 = 0.999;
    double epsilon = 1e-8;
    GradientMode mode = GradientMode::FiniteDifference;
    double fd_eps = 1e-3;
  };

  Adam() = default;
  explicit Adam(Options options) : options_(options) {}

  /// One 2·n-candidate call per gradient, plus a singleton batch for the
  /// initial point and each iterate.
  OptimizeResult minimize(const BatchObjective& f, std::vector<double> x0,
                          const Bounds& bounds = {}) const;

 private:
  Options options_ = {};
};

}  // namespace hgp::opt
