#pragma once

#include <cstdint>
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
  /// True when the cancel token stopped the search: x/value/evaluations are
  /// the best point and the count of the batches that completed, history
  /// holds the best value after each of them, and iterations counts them —
  /// not a converged optimum.
  bool stopped_early = false;
  /// Best objective value after each iteration — convergence curves (the
  /// paper compares pulse-level vs hybrid training speed with these).
  std::vector<double> history;
};

/// Whether `name` is an optimizer minimize() runs.
bool is_optimizer_name(const std::string& name);

/// The one training entry point of run_qaoa and run_vqe: run the optimizer
/// `name` — "cobyla" | "spsa" | "neldermead" — on `f` from x0 within
/// `bounds`. Every method spends at most `max_evaluations` evaluations (at
/// least one): SPSA runs (max_evaluations - 2) / 2 iterations of two
/// evaluations each between its initial and final evaluation, its
/// perturbations drawn from `seed` (the other two draw nothing). Unknown
/// names throw hgp::Error before any evaluation.
///
/// `cancel` (null = never) is polled before every batch, and a
/// CancelledError thrown from inside a batch (an executor checkpoint) is
/// caught too. Either way the result is the record of the completed
/// batches with stopped_early set. A run the token never stops returns the
/// optimizer's own record, unchanged.
OptimizeResult minimize(const std::string& name, const BatchObjective& f,
                        std::vector<double> x0, const Bounds& bounds, int max_evaluations,
                        std::uint64_t seed, const CancelToken* cancel);

/// Iterations needed to get within `tol` of the best value in the history —
/// the "training time to convergence" metric of Fig. 5.
int iterations_to_converge(const OptimizeResult& result, double tol = 0.01);

}  // namespace hgp::opt
