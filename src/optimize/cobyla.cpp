#include "optimize/cobyla.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/matrix.hpp"
#include "linalg/solve.hpp"

namespace hgp::opt {

namespace {

/// Solve the n x n linear interpolation system for the model gradient g:
/// (x_i - x_base) · g = f_i - f_base. Returns false on singularity.
bool model_gradient(const std::vector<std::vector<double>>& pts,
                    const std::vector<double>& vals, std::size_t base,
                    std::vector<double>& g) {
  const std::size_t n = pts[0].size();
  la::CMat a(n, n);
  la::CVec b(n);
  std::size_t row = 0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (i == base) continue;
    for (std::size_t j = 0; j < n; ++j) a(row, j) = pts[i][j] - pts[base][j];
    b[row] = vals[i] - vals[base];
    ++row;
  }
  g.assign(n, 0.0);
  try {
    const la::CVec sol = la::lu_solve(a, b);
    for (std::size_t j = 0; j < n; ++j) g[j] = sol[j].real();
  } catch (const Error&) {
    return false;
  }
  return true;
}

double dist2(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += (a[i] - b[i]) * (a[i] - b[i]);
  return s;
}

}  // namespace

OptimizeResult Cobyla::minimize(const BatchObjective& f, std::vector<double> x0,
                                const Bounds& bounds) const {
  const std::size_t n = x0.size();
  HGP_REQUIRE(n >= 1, "Cobyla: empty parameter vector");
  OptimizeResult out;
  bounds.clip(x0);

  double rho = options_.rho_begin;
  int evals = 0;
  auto eval = [&](const std::vector<double>& x) {
    ++evals;
    return f({x})[0];
  };

  // Interpolation set: x0 plus rho steps along each axis. Each later
  // iteration costs exactly one evaluation (Powell's budget discipline; the
  // paper runs COBYLA with a 50-evaluation cap on 19+ parameters). The set
  // is mutually independent — one batch, capped at the evaluation budget
  // (points beyond it keep +inf, so none is reported as the best; no
  // iteration follows them).
  std::vector<std::vector<double>> pts(n + 1, x0);
  std::vector<double> vals(n + 1, std::numeric_limits<double>::infinity());
  {
    const std::size_t budget = static_cast<std::size_t>(
        std::max(0, options_.max_evaluations));
    const std::size_t initial = std::min(n + 1, budget == 0 ? std::size_t{1} : budget);
    for (std::size_t i = 0; i + 1 < initial; ++i) {
      pts[i + 1][i] += rho;
      bounds.clip(pts[i + 1]);
    }
    std::vector<std::vector<double>> batch(pts.begin(),
                                           pts.begin() + static_cast<long>(initial));
    const std::vector<double> batch_vals = f(batch);
    for (std::size_t i = 0; i < initial; ++i) vals[i] = batch_vals[i];
    evals += static_cast<int>(initial);
  }

  auto best_index = [&]() {
    return static_cast<std::size_t>(std::min_element(vals.begin(), vals.end()) - vals.begin());
  };
  auto replace_index = [&](std::size_t best) {
    // Replace the worst value; break ties toward the point furthest from the
    // incumbent to keep the simplex from collapsing.
    std::size_t worst = best == 0 ? 1 : 0;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      if (i == best) continue;
      if (vals[i] > vals[worst] ||
          (vals[i] == vals[worst] && dist2(pts[i], pts[best]) > dist2(pts[worst], pts[best])))
        worst = i;
    }
    return worst;
  };

  out.history.push_back(vals[best_index()]);
  Rng geometry_rng(0xC0B71Aull);
  int no_progress = 0;
  int since_refresh = 0;

  while (evals < options_.max_evaluations && rho > options_.rho_end) {
    // Noisy objectives: an incumbent whose stored value was a lucky draw
    // anchors the search forever. Refresh it periodically so the model keeps
    // comparing against an honest estimate.
    if (++since_refresh >= 6 && evals + 1 < options_.max_evaluations) {
      const std::size_t b = best_index();
      vals[b] = eval(pts[b]);
      since_refresh = 0;
    }
    const std::size_t best = best_index();
    std::vector<double> g;
    std::vector<double> cand = pts[best];

    if (model_gradient(pts, vals, best, g)) {
      double gnorm = 0.0;
      for (double v : g) gnorm += v * v;
      gnorm = std::sqrt(gnorm);
      if (gnorm > 1e-14) {
        for (std::size_t j = 0; j < n; ++j) cand[j] -= rho * g[j] / gnorm;
      } else {
        for (std::size_t j = 0; j < n; ++j)
          cand[j] += rho * geometry_rng.normal() / std::sqrt(double(n));
      }
    } else {
      // Degenerate geometry: probe a random direction at the trust radius.
      for (std::size_t j = 0; j < n; ++j)
        cand[j] += rho * geometry_rng.normal() / std::sqrt(double(n));
    }
    bounds.clip(cand);

    double fc = eval(cand);
    bool improved = fc < vals[best];
    if (improved && evals < options_.max_evaluations && !g.empty()) {
      // Expansion: a successful trust-region step often under-shoots early
      // in training; probe further along the same direction.
      double gnorm = 0.0;
      for (double v : g) gnorm += v * v;
      gnorm = std::sqrt(gnorm);
      if (gnorm > 1e-14) {
        std::vector<double> cand2 = pts[best];
        for (std::size_t j = 0; j < n; ++j) cand2[j] -= 2.5 * rho * g[j] / gnorm;
        bounds.clip(cand2);
        const double fc2 = eval(cand2);
        if (fc2 < fc) {
          fc = fc2;
          cand = std::move(cand2);
        }
      }
    }
    const std::size_t victim = replace_index(best);
    if (fc < vals[victim]) {
      pts[victim] = std::move(cand);
      vals[victim] = fc;
    }
    if (improved) {
      no_progress = 0;
    } else if (++no_progress >= 3) {
      // Shot-noisy objectives produce spurious "no improvement" verdicts;
      // be patient before trusting them enough to shrink the radius.
      rho *= 0.7;
      no_progress = 0;
    }

    ++out.iterations;
    out.history.push_back(vals[best_index()]);
  }

  const std::size_t best = best_index();
  out.x = pts[best];
  out.value = vals[best];
  out.evaluations = evals;
  out.converged = rho <= options_.rho_end;
  return out;
}

}  // namespace hgp::opt
