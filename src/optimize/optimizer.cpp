#include "optimize/optimizer.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "optimize/cobyla.hpp"
#include "optimize/neldermead.hpp"
#include "optimize/spsa.hpp"

namespace hgp::opt {

namespace {

enum class Method { Cobyla, Spsa, NelderMead, Unknown };

/// The name table: the only place an optimizer name is compared.
Method method_named(const std::string& name) {
  if (name == "cobyla") return Method::Cobyla;
  if (name == "spsa") return Method::Spsa;
  if (name == "neldermead") return Method::NelderMead;
  return Method::Unknown;
}

}  // namespace

void Bounds::clip(std::vector<double>& x) const {
  if (!active()) return;
  HGP_REQUIRE(lo.size() == x.size() && hi.size() == x.size(), "Bounds: dimension mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = std::clamp(x[i], lo[i], hi[i]);
}

bool is_optimizer_name(const std::string& name) {
  return method_named(name) != Method::Unknown;
}

OptimizeResult minimize(const std::string& name, const BatchObjective& f,
                        std::vector<double> x0, const Bounds& bounds, int max_evaluations,
                        std::uint64_t seed, const CancelToken* cancel) {
  const Method method = method_named(name);
  HGP_REQUIRE(method != Method::Unknown, "opt::minimize: unknown optimizer '" + name + "'");

  // The record of the completed batches, updated after each one returns.
  // Pure observation: it never changes a value or the evaluation order, so
  // a run the token never stops is bit-identical to the optimizer alone.
  OptimizeResult record;
  record.x = x0;
  record.stopped_early = true;
  const BatchObjective recorded = [&](const std::vector<std::vector<double>>& xs) {
    if (cancel != nullptr) cancel->check();
    std::vector<double> vals = f(xs);
    for (std::size_t i = 0; i < vals.size(); ++i) {
      if (record.evaluations == 0 || vals[i] < record.value) {
        record.value = vals[i];
        record.x = xs[i];
      }
      ++record.evaluations;
    }
    record.history.push_back(record.value);
    ++record.iterations;
    return vals;
  };

  try {
    if (method == Method::Cobyla) {
      Cobyla::Options o;
      o.max_evaluations = max_evaluations;
      return Cobyla(o).minimize(recorded, std::move(x0), bounds);
    }
    if (method == Method::Spsa) {
      Spsa::Options o;
      // Two evaluations per iteration, between the initial and final ones.
      o.max_iterations = std::max(0, (max_evaluations - 2) / 2);
      o.seed = seed;
      return Spsa(o).minimize(recorded, std::move(x0), bounds);
    }
    NelderMead::Options o;
    o.max_evaluations = max_evaluations;
    return NelderMead(o).minimize(recorded, std::move(x0), bounds);
  } catch (const CancelledError&) {
    // Polled above, or thrown by an executor checkpoint mid-batch: the
    // optimizer's own state unwinds, and the completed batches remain.
  }
  return record;
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
