#pragma once

#include <cstdint>

#include "optimize/optimizer.hpp"

namespace hgp::opt {

/// Simultaneous Perturbation Stochastic Approximation (Spall 1992): two
/// objective evaluations per iteration regardless of dimension, which is why
/// it is popular for shot-noisy VQA training.
class Spsa {
 public:
  struct Options {
    int max_iterations = 100;
    double a = 0.2;    // step-size numerator
    double c = 0.15;   // perturbation size
    double alpha = 0.602;
    double gamma = 0.101;
    double stability = 10.0;  // the "A" offset in the step schedule
    std::uint64_t seed = 17;
  };

  Spsa() = default;
  explicit Spsa(Options options) : options_(options) {}

  /// Each iteration's perturbation pair {x+ckΔ, x-ckΔ} is one batch. Spends
  /// 2 * max_iterations + 2 evaluations, or 1 when max_iterations is 0.
  OptimizeResult minimize(const BatchObjective& f, std::vector<double> x0,
                          const Bounds& bounds = {}) const;

 private:
  Options options_ = {};
};

}  // namespace hgp::opt
