#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "optimize/cobyla.hpp"
#include "optimize/duration_search.hpp"
#include "optimize/gradient.hpp"
#include "optimize/neldermead.hpp"
#include "optimize/spsa.hpp"

using namespace hgp;
using opt::Bounds;

namespace {

double sphere(const std::vector<double>& x) {
  double s = 0.0;
  for (double v : x) s += (v - 0.5) * (v - 0.5);
  return s;
}

double rosenbrock(const std::vector<double>& x) {
  double s = 0.0;
  for (std::size_t i = 0; i + 1 < x.size(); ++i)
    s += 100.0 * std::pow(x[i + 1] - x[i] * x[i], 2) + std::pow(1.0 - x[i], 2);
  return s;
}

/// A 1D cost with the shape of a noisy VQA landscape.
double cosine_valley(const std::vector<double>& x) {
  return -std::cos(x[0] - 1.0) - 0.5 * std::cos(2.0 * (x[0] - 1.0));
}

}  // namespace

TEST(Cobyla, MinimizesSphere) {
  opt::Cobyla::Options o;
  o.max_evaluations = 200;
  const opt::Cobyla c(o);
  const auto r = c.minimize(opt::serial_batch(sphere), {0.0, 0.0, 0.0});
  EXPECT_LT(r.value, 1e-3);
  for (double v : r.x) EXPECT_NEAR(v, 0.5, 0.05);
  EXPECT_LE(r.evaluations, 200);
}

TEST(Cobyla, RespectsBounds) {
  opt::Cobyla::Options o;
  o.max_evaluations = 150;
  const opt::Cobyla c(o);
  Bounds b;
  b.lo = {0.7, -1.0};
  b.hi = {2.0, 1.0};
  const auto r = c.minimize(opt::serial_batch(sphere), {1.0, 0.0}, b);
  // Optimum (0.5) is outside: should end at the boundary x0 = 0.7.
  EXPECT_NEAR(r.x[0], 0.7, 0.02);
  EXPECT_NEAR(r.x[1], 0.5, 0.05);
}

TEST(Cobyla, HistoryIsMonotone) {
  const opt::Cobyla c;
  const auto r = c.minimize(opt::serial_batch(sphere), {0.0, 0.0});
  ASSERT_FALSE(r.history.empty());
  for (std::size_t i = 1; i < r.history.size(); ++i)
    EXPECT_LE(r.history[i], r.history[i - 1] + 1e-12);
}

TEST(Cobyla, SurvivesNoisyObjective) {
  Rng rng(3);
  auto noisy = [&](const std::vector<double>& x) { return cosine_valley(x) + 0.01 * rng.normal(); };
  opt::Cobyla::Options o;
  o.max_evaluations = 60;
  const opt::Cobyla c(o);
  const auto r = c.minimize(opt::serial_batch(noisy), {0.0});
  EXPECT_NEAR(r.x[0], 1.0, 0.35);
}

TEST(NelderMead, MinimizesRosenbrock2d) {
  opt::NelderMead::Options o;
  o.max_evaluations = 2000;
  const opt::NelderMead nm(o);
  const auto r = nm.minimize(opt::serial_batch(rosenbrock), {-1.0, 1.0});
  EXPECT_LT(r.value, 1e-4);
  EXPECT_NEAR(r.x[0], 1.0, 0.05);
  EXPECT_NEAR(r.x[1], 1.0, 0.05);
}

TEST(NelderMead, ConvergenceFlagOnFlatFunction) {
  const opt::NelderMead nm;
  const auto r = nm.minimize(opt::serial_batch([](const std::vector<double>&) { return 1.0; }),
                             {0.0, 0.0});
  EXPECT_TRUE(r.converged);
  EXPECT_DOUBLE_EQ(r.value, 1.0);
}

TEST(Spsa, MinimizesSphereUnderNoise) {
  Rng rng(5);
  auto noisy = [&](const std::vector<double>& x) { return sphere(x) + 0.02 * rng.normal(); };
  opt::Spsa::Options o;
  o.max_iterations = 400;
  o.a = 0.3;
  const opt::Spsa s(o);
  const auto r = s.minimize(opt::serial_batch(noisy), {0.0, 0.0, 0.0, 0.0});
  for (double v : r.x) EXPECT_NEAR(v, 0.5, 0.15);
}

TEST(OptimizerBudget, EveryMethodKeepsToItsBudget) {
  // One budget rule for every method opt::minimize runs, counted where the
  // evaluations land: at most max_evaluations reach the objective, at every
  // budget — one below an initial simplex, or at the edge of a two-probe
  // Nelder–Mead step — and the result reports exactly the calls made, and
  // a value the objective returned at its point.
  for (const char* name : {"cobyla", "spsa", "neldermead"})
    for (const std::size_t n : {std::size_t{2}, std::size_t{6}})
      for (const int budget : {1, 2, 4, 10, 50}) {
        int calls = 0;
        const opt::OptimizeResult r = opt::minimize(
            name, opt::serial_batch([&](const std::vector<double>& x) {
              ++calls;
              return sphere(x);
            }),
            std::vector<double>(n, 0.0), {}, budget, 7, nullptr);
        EXPECT_LE(calls, budget) << name << " n=" << n << " budget=" << budget;
        EXPECT_EQ(r.evaluations, calls) << name << " n=" << n << " budget=" << budget;
        EXPECT_EQ(r.value, sphere(r.x)) << name << " n=" << n << " budget=" << budget;
      }
}

TEST(Adam, FiniteDifferenceOnSphere) {
  opt::Adam::Options o;
  o.max_iterations = 150;
  const opt::Adam a(o);
  const auto r = a.minimize(opt::serial_batch(sphere), {0.0, 0.0});
  EXPECT_LT(r.value, 1e-3);
}

TEST(Adam, GradientSubmitsOneBatchPerIteration) {
  // Both gradient modes send their 2·n stencil points per iteration as ONE
  // BatchObjective call (a candidate-lane evaluator then runs them as lanes
  // of a single evolve), never as 2·n singleton calls.
  for (const auto mode :
       {opt::Adam::GradientMode::ParameterShift, opt::Adam::GradientMode::FiniteDifference}) {
    std::size_t calls = 0;
    std::vector<std::size_t> batch_sizes;
    const opt::BatchObjective f = [&](const std::vector<std::vector<double>>& xs) {
      ++calls;
      batch_sizes.push_back(xs.size());
      std::vector<double> out;
      out.reserve(xs.size());
      for (const auto& x : xs) out.push_back(sphere(x));
      return out;
    };
    opt::Adam::Options o;
    o.max_iterations = 5;
    o.mode = mode;
    const auto r = opt::Adam(o).minimize(f, {0.1, 0.9, -0.4});
    EXPECT_EQ(r.iterations, 5);
    EXPECT_EQ(r.evaluations, 1 + 5 * (6 + 1));
    for (std::size_t s : batch_sizes) {
      if (s != 1) {
        EXPECT_EQ(s, 6u);  // gradient batches: 2 * 3 params
      }
    }
    // 1 initial probe + per iteration (1 gradient batch + 1 value probe).
    EXPECT_EQ(calls, 11u);
  }
}

TEST(Gradient, ParameterShiftExactForSinusoid) {
  // f(x) = cos(x): parameter-shift with s = π/2 gives exactly -sin(x).
  auto f = [](const std::vector<double>& x) { return std::cos(x[0]); };
  const double kHalfPi = 1.5707963267948966;
  for (double x0 : {-1.0, 0.0, 0.7, 2.2}) {
    const auto g = opt::central_difference_gradient(opt::serial_batch(f), {x0}, kHalfPi,
                                                    2.0 * std::sin(kHalfPi));
    EXPECT_NEAR(g[0], -std::sin(x0), 1e-12) << x0;
  }
}

TEST(Gradient, FiniteDifferenceAccuracy) {
  auto f = [](const std::vector<double>& x) { return x[0] * x[0] * x[0]; };
  const auto g = opt::central_difference_gradient(opt::serial_batch(f), {2.0}, 1e-4, 2e-4);
  EXPECT_NEAR(g[0], 12.0, 1e-5);
}

TEST(DurationSearch, FindsThreshold) {
  // Score degrades below 96dt; keep_fraction 0.97 must stop at 96.
  auto score = [](int d) { return d >= 96 ? 1.0 : 0.5; };
  const auto r = opt::binary_search_duration(score, 320, 32, 0.97);
  EXPECT_EQ(r.best_duration, 96);
  EXPECT_DOUBLE_EQ(r.baseline_score, 1.0);
  // log2(10) ≈ 3-4 probes + baseline.
  EXPECT_LE(r.trace.size(), 6u);
}

TEST(DurationSearch, KeepsFullDurationWhenNothingShorterWorks) {
  auto score = [](int d) { return d >= 320 ? 1.0 : 0.0; };
  const auto r = opt::binary_search_duration(score, 320, 32, 0.97);
  EXPECT_EQ(r.best_duration, 320);
}

TEST(DurationSearch, GranularityRespected) {
  auto score = [](int d) { return d >= 100 ? 1.0 : 0.0; };  // true threshold off-grid
  const auto r = opt::binary_search_duration(score, 320, 32, 0.9);
  EXPECT_EQ(r.best_duration % 32, 0);
  EXPECT_EQ(r.best_duration, 128);  // smallest multiple of 32 above 100
  EXPECT_THROW(opt::binary_search_duration(score, 100, 32, 0.9), Error);
}

TEST(IterationsToConverge, FindsFirstWithinTolerance) {
  opt::OptimizeResult r;
  r.history = {-0.1, -0.4, -0.55, -0.56, -0.56};
  r.iterations = 5;
  EXPECT_EQ(opt::iterations_to_converge(r, 0.02), 3);
}

TEST(IterationsToConverge, MeasuresAgainstTheBestValueNotTheLast) {
  // COBYLA's history is not monotone: a refreshed incumbent can end the run
  // on a worse value, which must not make the first evaluation "converged".
  opt::OptimizeResult r;
  r.history = {-0.3, -0.5, -0.6, -0.28};
  r.iterations = 4;
  EXPECT_EQ(opt::iterations_to_converge(r, 0.02), 3);
}
