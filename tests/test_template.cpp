// Run-scoped program templates: the model names the ops each θ entry reads;
// an evaluation bound to a template compiled at another θ returns exactly
// what compiling its own program does, on every engine path; a θ of the
// wrong length is rejected; and one template serves concurrent binds from
// many threads.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "backend/presets.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/executor.hpp"
#include "core/models.hpp"
#include "graph/instances.hpp"
#include "serve/block_cache.hpp"

using namespace hgp;
using core::Engine;
using core::ExecOp;
using core::Executor;
using core::ExecutorOptions;
using core::ObjectiveKind;
using core::ObjectiveSpec;
using core::Program;

namespace {

const backend::FakeBackend& toronto() {
  static const backend::FakeBackend dev = backend::make_toronto();
  return dev;
}

/// The objective's value function reads the graph, so the instance outlives
/// every spec.
const graph::Instance& task1() {
  static const graph::Instance inst = graph::paper_task1();
  return inst;
}

core::QaoaModel model_of(core::ModelKind kind, core::ModelConfig cfg = {}) {
  return core::QaoaModel::build(task1().graph, toronto(), kind, cfg);
}

/// x0 moved by a parameter-dependent step, so every γ, β and pulse knob
/// changes.
std::vector<double> moved(const std::vector<double>& x0, double k) {
  std::vector<double> x = x0;
  for (std::size_t j = 0; j < x.size(); ++j)
    x[j] += k * 0.017 * static_cast<double>(j % 4 + 1) * (j % 2 ? -1.0 : 1.0);
  return x;
}

ObjectiveSpec spec_of(ObjectiveKind kind) {
  ObjectiveSpec spec;
  spec.kind = kind;
  spec.value = [](std::uint64_t bits) { return task1().graph.cut_value(bits); };
  return spec;
}

/// Whether an op differs between two instantiations: gate parameters bit for
/// bit, pulse schedules by fingerprint (a's is `fp_a`) and duration.
bool op_differs(const ExecOp& a, std::uint64_t fp_a, const ExecOp& b) {
  if (a.is_pulse)
    return fp_a != b.schedule.fingerprint() || a.schedule.duration() != b.schedule.duration();
  for (std::size_t i = 0; i < a.gate.params.size(); ++i) {
    const double va = a.gate.params[i].value(), vb = b.gate.params[i].value();
    if (std::memcmp(&va, &vb, sizeof va) != 0) return true;
  }
  return false;
}

}  // namespace

TEST(ProgramTemplate, ParameterMapNamesExactlyTheOpsEachEntryMoves) {
  // Moving θ[j] alone changes exactly the ops parameter_ops() lists for j:
  // none it leaves out (a bind would reuse a stale block) and none it adds
  // (a bind would probe more than it must). Every model, GO off and on,
  // p = 1 and 2, and a hybrid mixer that trains only its amplitude. The
  // pulse-level model instantiates in ~1-2.5 ms per θ and has ~200 entries
  // per layer, so its GO-on case runs at p = 1 only.
  struct Case {
    core::ModelKind kind;
    bool go;
    int p;
    bool amp_only;
  };
  std::vector<Case> cases;
  for (const core::ModelKind kind :
       {core::ModelKind::GateLevel, core::ModelKind::Hybrid, core::ModelKind::PulseLevel})
    for (const bool go : {false, true})
      for (const int p : {1, 2})
        if (kind != core::ModelKind::PulseLevel || !go || p == 1)
          cases.push_back({kind, go, p, false});
  cases.push_back({core::ModelKind::Hybrid, false, 1, true});
  for (const Case& c : cases) {
    core::ModelConfig cfg;
    cfg.gate_optimization = c.go;
    cfg.p = c.p;
    cfg.train_phase = cfg.train_freq = !c.amp_only;
    const core::QaoaModel model = model_of(c.kind, cfg);
    const std::string where = core::model_name(c.kind) + (c.go ? " GO" : " raw") +
                              " p=" + std::to_string(c.p) + (c.amp_only ? " amp only" : "");
    const std::vector<double> x0 = model.initial_parameters();
    const Program p0 = model.instantiate(x0);
    std::vector<std::uint64_t> fp0;
    for (const ExecOp& op : p0.ops) fp0.push_back(op.is_pulse ? op.schedule.fingerprint() : 0);
    const std::vector<std::vector<std::size_t>> ops_of = model.parameter_ops();
    ASSERT_EQ(ops_of.size(), x0.size()) << where;
    for (std::size_t j = 0; j < x0.size(); ++j) {
      std::vector<double> x = x0;
      x[j] += x[j] + 0.0625 <= model.bounds().hi[j] ? 0.0625 : -0.0625;
      const Program p1 = model.instantiate(x);
      ASSERT_EQ(p1.ops.size(), p0.ops.size()) << where;
      std::vector<std::size_t> changed;
      for (std::size_t k = 0; k < p0.ops.size(); ++k)
        if (op_differs(p0.ops[k], fp0[k], p1.ops[k])) changed.push_back(k);
      EXPECT_FALSE(changed.empty()) << where << " θ[" << j << "] moves nothing";
      EXPECT_EQ(changed, ops_of[j]) << where << " θ[" << j << "] "
                                    << model.parameters()[j].name;
    }
  }
}

TEST(ProgramTemplate, MovingOneEntryProbesOnlyItsSlots) {
  // One hybrid mixer amplitude moves one pulse slot: the first run at the
  // moved θ misses on that block alone, and the second hits on it alone.
  const core::QaoaModel model = model_of(core::ModelKind::Hybrid);
  const std::vector<double> x0 = model.initial_parameters();
  ASSERT_EQ(model.parameters()[1].name, "theta_0_q0");
  std::vector<double> x = x0;
  x[1] += 0.0625;
  for (const bool noise : {false, true}) {
    ExecutorOptions opts;
    opts.noise = noise;
    opts.num_threads = 1;
    const Executor ex(toronto(), opts);
    const auto tmpl = ex.compile(model, x0);
    Rng rng(7);
    const serve::BlockCache::Stats s0 = ex.cache_stats();
    ex.run(*tmpl, x, 16, rng);
    const serve::BlockCache::Stats s1 = ex.cache_stats();
    EXPECT_EQ(s1.misses - s0.misses, 1u) << "noise=" << noise;
    EXPECT_EQ(s1.pulse_misses - s0.pulse_misses, 1u) << "noise=" << noise;
    EXPECT_EQ(s1.hits, s0.hits) << "noise=" << noise;
    ex.run(*tmpl, x, 16, rng);
    const serve::BlockCache::Stats s2 = ex.cache_stats();
    EXPECT_EQ(s2.misses, s1.misses) << "noise=" << noise;
    EXPECT_EQ(s2.hits - s1.hits, 1u) << "noise=" << noise;
    EXPECT_EQ(s2.pulse_hits - s1.pulse_hits, 1u) << "noise=" << noise;
    // θ0 itself dirties nothing and probes nothing.
    ex.run(*tmpl, x0, 16, rng);
    const serve::BlockCache::Stats s3 = ex.cache_stats();
    EXPECT_EQ(s3.hits + s3.misses, s2.hits + s2.misses) << "noise=" << noise;
  }
}

TEST(ProgramTemplate, BindMatchesFreshCompile) {
  // Template at θ0, bind at a moved θ: counts, RNG advance and objective
  // values equal the Program overload at that θ (==, not near), and a batch
  // equals the batch bound to a template compiled at its first θ. The exact
  // density engine has no lanes and, like every noisy path, never fuses, so
  // it runs once per model, and its CVaR (the same distribution as its
  // Expectation, reduced differently) is left to the other engines: its
  // ~0.2 s passes would dominate the test otherwise.
  for (const core::ModelKind kind :
       {core::ModelKind::GateLevel, core::ModelKind::Hybrid, core::ModelKind::PulseLevel}) {
    const core::QaoaModel model = model_of(kind);
    const std::vector<double> x0 = model.initial_parameters();
    const std::vector<double> x1 = moved(x0, 1.0);
    const Program p1 = model.instantiate(x1);
    const std::vector<std::vector<double>> batch = {x1, x0, moved(x0, -0.5)};
    for (const bool noise : {false, true}) {
      // One cache per noise mode: the two modes lower blocks differently.
      ExecutorOptions opts;
      opts.noise = noise;
      opts.num_threads = 1;
      opts.block_cache = std::make_shared<serve::BlockCache>(4096);
      for (const Engine engine : {Engine::Trajectory, Engine::ExactDensity}) {
        if (!noise && engine == Engine::ExactDensity) continue;  // same noiseless path
        for (const std::size_t fusion : {std::size_t{0}, std::size_t{2}, std::size_t{3}}) {
          for (const std::size_t lanes : {std::size_t{1}, std::size_t{7}, std::size_t{16}}) {
            if (engine == Engine::ExactDensity && (lanes > 1 || fusion > 0)) continue;
            opts.engine = engine;
            opts.fusion_max_qubits = fusion;
            opts.shot_batch_lanes = lanes;
            Executor ex(toronto(), opts);
            const auto tmpl = ex.compile(model, x0);
            const std::string where = core::model_name(kind) + " noise=" +
                                      std::to_string(noise) + " " + core::engine_name(engine) +
                                      " fusion=" + std::to_string(fusion) +
                                      " lanes=" + std::to_string(lanes);
            Rng bound_rng(5), fresh_rng(5);
            EXPECT_EQ(ex.run(*tmpl, x1, 96, bound_rng), ex.run(p1, 96, fresh_rng)) << where;
            EXPECT_EQ(bound_rng.next_u64(), fresh_rng.next_u64()) << where;
            for (const ObjectiveKind ok : {ObjectiveKind::Expectation, ObjectiveKind::CVaR}) {
              if (engine == Engine::ExactDensity && ok == ObjectiveKind::CVaR) continue;
              Rng r0(9), r1(9);
              EXPECT_EQ(ex.run_expectation(*tmpl, x1, 96, r0, spec_of(ok)),
                        ex.run_expectation(p1, 96, r1, spec_of(ok)))
                  << where << " " << core::objective_name(ok);
            }
            if (noise) continue;
            const auto tmpl1 = ex.compile(model, x1);
            for (const ObjectiveKind ok : {ObjectiveKind::Expectation, ObjectiveKind::CVaR})
              EXPECT_EQ(ex.run_expectation_batch(*tmpl, batch, spec_of(ok)),
                        ex.run_expectation_batch(*tmpl1, batch, spec_of(ok)))
                  << where << " " << core::objective_name(ok);
          }
        }
      }
    }
  }
}

TEST(ProgramTemplate, StructureMismatchThrows) {
  // A model template binds only a θ of the model's length; a Program
  // template binds only the empty θ; and a template is valid only for the
  // backend and executor options it was compiled under.
  const core::QaoaModel model = model_of(core::ModelKind::GateLevel);
  const std::vector<double> x0 = model.initial_parameters();
  ExecutorOptions opts;
  opts.noise = false;
  Executor ex(toronto(), opts);
  const auto tmpl = ex.compile(model, x0);
  const ObjectiveSpec spec = spec_of(ObjectiveKind::Expectation);
  Rng rng(3);
  ASSERT_NO_THROW(ex.run(*tmpl, x0, 16, rng));

  std::vector<double> shorter = x0, longer = x0;
  shorter.pop_back();
  longer.push_back(0.0);
  for (const std::vector<double>& bad : {shorter, longer}) {
    const std::string where = "size " + std::to_string(bad.size());
    EXPECT_THROW(ex.run(*tmpl, bad, 16, rng), Error) << where;
    EXPECT_THROW(ex.run_expectation(*tmpl, bad, 16, rng, spec), Error) << where;
    EXPECT_THROW(ex.run_expectation_batch(*tmpl, {x0, bad}, spec), Error) << where;
  }

  const auto program_tmpl = ex.compile(model.instantiate(x0));
  EXPECT_NO_THROW(ex.run(*program_tmpl, {}, 16, rng));
  EXPECT_THROW(ex.run(*program_tmpl, x0, 16, rng), Error);

  Executor noisy(toronto(), ExecutorOptions{});
  EXPECT_THROW(noisy.run(*tmpl, x0, 16, rng), Error);
  const backend::FakeBackend other = backend::make_toronto();
  Executor other_ex(other, opts);
  EXPECT_THROW(other_ex.run(*tmpl, x0, 16, rng), Error);
}

TEST(ProgramTemplate, SharedAcrossThreads) {
  // One hybrid template bound from 4 threads at once (each with its own
  // executor on one shared cache) equals binding the same θs serially.
  const core::QaoaModel model = model_of(core::ModelKind::Hybrid);
  const std::vector<double> x0 = model.initial_parameters();
  std::vector<std::vector<double>> thetas;
  for (int k = 0; k < 8; ++k) thetas.push_back(moved(x0, 0.25 * k));
  for (const bool noise : {false, true}) {
    ExecutorOptions opts;
    opts.noise = noise;
    opts.num_threads = 1;
    opts.block_cache = std::make_shared<serve::BlockCache>(4096);
    const auto tmpl = Executor(toronto(), opts).compile(model, x0);

    auto evaluate = [&](Executor& ex, std::size_t k) {
      Rng rng(100 + k);
      const sim::Counts counts = ex.run(*tmpl, thetas[k], 64, rng);
      const double value =
          ex.run_expectation(*tmpl, thetas[k], 64, rng, spec_of(ObjectiveKind::Expectation));
      return std::make_pair(counts, value);
    };
    std::vector<std::pair<sim::Counts, double>> serial(thetas.size()), parallel(thetas.size());
    Executor serial_ex(toronto(), opts);
    for (std::size_t k = 0; k < thetas.size(); ++k) serial[k] = evaluate(serial_ex, k);

    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        Executor ex(toronto(), opts);
        for (std::size_t k = t; k < thetas.size(); k += 4) parallel[k] = evaluate(ex, k);
      });
    }
    for (std::thread& th : threads) th.join();
    for (std::size_t k = 0; k < thetas.size(); ++k)
      EXPECT_EQ(parallel[k], serial[k]) << "noise=" << noise << " k=" << k;
  }
}
