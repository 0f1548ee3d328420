#include "optimize/neldermead.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/error.hpp"

namespace hgp::opt {

OptimizeResult NelderMead::minimize(const BatchObjective& f, std::vector<double> x0,
                                    const Bounds& bounds) const {
  const std::size_t n = x0.size();
  HGP_REQUIRE(n >= 1, "NelderMead: empty parameter vector");
  OptimizeResult out;
  bounds.clip(x0);

  int evals = 0;
  auto eval = [&](std::vector<double> x) {
    bounds.clip(x);
    ++evals;
    return std::pair(f({x})[0], x);
  };

  // Initial simplex: x0 plus one step along each axis, all independent —
  // one batch of n+1 candidates, capped at the budget (x0 at least). The
  // vertices beyond it keep +inf and sort last; no step follows them.
  std::vector<std::vector<double>> pts(n + 1, x0);
  std::vector<double> vals(n + 1, std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < n; ++i) {
    pts[i + 1][i] += options_.initial_step;
    bounds.clip(pts[i + 1]);
  }
  const int initial = std::clamp(options_.max_evaluations, 1, static_cast<int>(n) + 1);
  const std::vector<double> first = f({pts.begin(), pts.begin() + initial});
  std::copy(first.begin(), first.end(), vals.begin());
  evals += initial;

  std::vector<std::size_t> order(n + 1);
  auto sort_simplex = [&] {
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return vals[a] < vals[b]; });
  };

  while (evals < options_.max_evaluations) {
    sort_simplex();
    out.history.push_back(vals[order[0]]);
    if (std::abs(vals[order[n]] - vals[order[0]]) < options_.f_tol) {
      out.converged = true;
      break;
    }

    const std::size_t worst = order[n];
    // Centroid of all but the worst.
    std::vector<double> centroid(n, 0.0);
    for (std::size_t k = 0; k <= n; ++k) {
      if (k == worst) continue;
      for (std::size_t j = 0; j < n; ++j) centroid[j] += pts[k][j];
    }
    for (double& c : centroid) c /= static_cast<double>(n);

    auto along = [&](double coef) {
      std::vector<double> x(n);
      for (std::size_t j = 0; j < n; ++j)
        x[j] = centroid[j] + coef * (pts[worst][j] - centroid[j]);
      return x;
    };

    auto [fr, xr] = eval(along(-1.0));  // reflection
    if (evals >= options_.max_evaluations) {
      // No budget for an expansion or contraction: keep the reflection
      // where it beats the worst vertex.
      if (fr < vals[worst]) {
        pts[worst] = xr;
        vals[worst] = fr;
      }
      ++out.iterations;
      break;
    }
    if (fr < vals[order[0]]) {
      auto [fe, xe] = eval(along(-2.0));  // expansion
      if (fe < fr) {
        pts[worst] = xe;
        vals[worst] = fe;
      } else {
        pts[worst] = xr;
        vals[worst] = fr;
      }
      ++out.iterations;
      continue;
    }
    if (fr < vals[order[n - 1]]) {
      pts[worst] = xr;
      vals[worst] = fr;
      ++out.iterations;
      continue;
    }
    // Contraction (outside if reflection helped over worst, else inside).
    const bool outside = fr < vals[worst];
    auto [fc, xc] = eval(along(outside ? -0.5 : 0.5));
    if (fc < std::min(fr, vals[worst])) {
      pts[worst] = xc;
      vals[worst] = fc;
      ++out.iterations;
      continue;
    }
    // Shrink toward the best vertex: the surviving vertices move
    // independently — one batch, capped at the remaining budget (vertices
    // beyond it keep their old position and value, as in the serial path).
    const std::size_t best = order[0];
    std::vector<std::size_t> shrunk;
    for (std::size_t k = 0;
         k <= n && evals + static_cast<int>(shrunk.size()) < options_.max_evaluations;
         ++k) {
      if (k == best) continue;
      for (std::size_t j = 0; j < n; ++j)
        pts[k][j] = pts[best][j] + 0.5 * (pts[k][j] - pts[best][j]);
      bounds.clip(pts[k]);
      shrunk.push_back(k);
    }
    std::vector<std::vector<double>> batch;
    batch.reserve(shrunk.size());
    for (std::size_t k : shrunk) batch.push_back(pts[k]);
    if (!batch.empty()) {
      const std::vector<double> batch_vals = f(batch);
      for (std::size_t i = 0; i < shrunk.size(); ++i) vals[shrunk[i]] = batch_vals[i];
      evals += static_cast<int>(shrunk.size());
    }
    ++out.iterations;
  }

  sort_simplex();
  out.x = pts[order[0]];
  out.value = vals[order[0]];
  out.evaluations = evals;
  return out;
}

}  // namespace hgp::opt
