#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/cancel.hpp"
#include "optimize/batch.hpp"

namespace hgp::opt {

/// Box bounds; empty vectors mean unbounded. Optimizers clip candidates.
struct Bounds {
  std::vector<double> lo;
  std::vector<double> hi;

  bool active() const { return !lo.empty(); }
  void clip(std::vector<double>& x) const;
};

struct OptimizeResult {
  std::vector<double> x;
  double value = 0.0;
  int evaluations = 0;
  int iterations = 0;
  bool converged = false;
  /// True when a cancel token stopped the search at an iteration boundary:
  /// x/value/history reflect the best point seen so far, not a converged
  /// optimum.
  bool stopped_early = false;
  /// Best objective value after each iteration — convergence curves (the
  /// paper compares pulse-level vs hybrid training speed with these).
  std::vector<double> history;
};

/// Common interface for the derivative-free optimizers used machine-in-loop.
class Optimizer {
 public:
  virtual ~Optimizer() = default;
  virtual OptimizeResult minimize(const Objective& f, std::vector<double> x0,
                                  const Bounds& bounds = {}) const = 0;
  /// Batched entry point: independent candidates (perturbation pairs,
  /// simplex vertices, trial points) arrive as one BatchObjective call, so a
  /// parallel evaluator can run them concurrently. The default adapter feeds
  /// singleton batches through minimize(); SPSA, Nelder-Mead, and COBYLA
  /// override it with real batching whose evaluation sequence matches their
  /// serial path exactly.
  virtual OptimizeResult minimize_batch(const BatchObjective& f, std::vector<double> x0,
                                        const Bounds& bounds = {}) const;
  virtual std::string name() const = 0;
};

/// Iterations needed to get within `tol` of the best value in the history —
/// the "training time to convergence" metric of Fig. 5.
int iterations_to_converge(const OptimizeResult& result, double tol = 0.01);

}  // namespace hgp::opt
