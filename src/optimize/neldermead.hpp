#pragma once

#include "optimize/optimizer.hpp"

namespace hgp::opt {

/// Classic Nelder–Mead downhill simplex with the standard
/// reflect/expand/contract/shrink moves and bound clipping.
class NelderMead {
 public:
  struct Options {
    int max_evaluations = 200;
    double initial_step = 0.3;
    double f_tol = 1e-8;
  };

  NelderMead() = default;
  explicit NelderMead(Options options) : options_(options) {}

  /// The n+1 initial vertices and the n shrink points are batches; the
  /// reflect/expand/contract probes stay sequential (data-dependent). Spends
  /// at most max_evaluations evaluations (at least one).
  OptimizeResult minimize(const BatchObjective& f, std::vector<double> x0,
                          const Bounds& bounds = {}) const;

 private:
  Options options_ = {};
};

}  // namespace hgp::opt
