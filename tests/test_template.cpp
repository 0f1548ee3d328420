// Run-scoped program templates: an evaluation bound to a template compiled
// at another θ returns exactly what compiling its own program does, on every
// engine path; a candidate whose structure differs is rejected; and one
// template serves concurrent binds from many threads.
#include <gtest/gtest.h>

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

/// QaoaModel keeps a pointer to its graph, so the instance outlives it.
const graph::Instance& task1() {
  static const graph::Instance inst = graph::paper_task1();
  return inst;
}

core::QaoaModel model_of(core::ModelKind kind) {
  return core::QaoaModel::build(task1().graph, toronto(), kind, core::ModelConfig{});
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

}  // namespace

TEST(ProgramTemplate, BindMatchesFreshCompile) {
  // Template at θ0, bind at a moved θ: counts, RNG advance and objective
  // values equal the Program overload at that θ (==, not near). The exact
  // density engine has no lanes and, like every noisy path, never fuses, so
  // it runs once per model, and its CVaR (the same distribution as its
  // Expectation, reduced differently) is left to the other engines: its
  // ~0.2 s passes would dominate the test otherwise.
  for (const core::ModelKind kind :
       {core::ModelKind::GateLevel, core::ModelKind::Hybrid, core::ModelKind::PulseLevel}) {
    const core::QaoaModel model = model_of(kind);
    const std::vector<double> x0 = model.initial_parameters();
    const Program p0 = model.instantiate(x0);
    const Program p1 = model.instantiate(moved(x0, 1.0));
    const std::vector<Program> batch = {p1, p0, model.instantiate(moved(x0, -0.5))};
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
            const auto tmpl = ex.compile(p0);
            const std::string where = core::model_name(kind) + " noise=" +
                                      std::to_string(noise) + " " + core::engine_name(engine) +
                                      " fusion=" + std::to_string(fusion) +
                                      " lanes=" + std::to_string(lanes);
            Rng bound_rng(5), fresh_rng(5);
            EXPECT_EQ(ex.run(*tmpl, p1, 96, bound_rng), ex.run(p1, 96, fresh_rng)) << where;
            EXPECT_EQ(bound_rng.next_u64(), fresh_rng.next_u64()) << where;
            for (const ObjectiveKind ok : {ObjectiveKind::Expectation, ObjectiveKind::CVaR}) {
              if (engine == Engine::ExactDensity && ok == ObjectiveKind::CVaR) continue;
              Rng r0(9), r1(9);
              EXPECT_EQ(ex.run_expectation(*tmpl, p1, 96, r0, spec_of(ok)),
                        ex.run_expectation(p1, 96, r1, spec_of(ok)))
                  << where << " " << core::objective_name(ok);
            }
            if (noise) continue;
            for (const ObjectiveKind ok : {ObjectiveKind::Expectation, ObjectiveKind::CVaR})
              EXPECT_EQ(ex.run_expectation_batch(*tmpl, batch, spec_of(ok)),
                        ex.run_expectation_batch(batch, spec_of(ok)))
                  << where << " " << core::objective_name(ok);
          }
        }
      }
    }
  }
}

TEST(ProgramTemplate, StructureMismatchThrows) {
  const core::QaoaModel model = model_of(core::ModelKind::GateLevel);
  const Program p0 = model.instantiate(model.initial_parameters());
  ExecutorOptions opts;
  opts.noise = false;
  Executor ex(toronto(), opts);
  const auto tmpl = ex.compile(p0);
  const ObjectiveSpec spec = spec_of(ObjectiveKind::Expectation);
  Rng rng(3);
  ASSERT_NO_THROW(ex.run(*tmpl, p0, 16, rng));

  std::size_t gate = 0;  // first SX: a gate op every mutation below can edit
  while (p0.ops[gate].is_pulse || p0.ops[gate].gate.kind != qc::GateKind::SX) ++gate;
  std::vector<Program> bad(5, p0);
  bad[0].ops.pop_back();                          // op count
  bad[1].ops[gate].gate.kind = qc::GateKind::X;   // gate kind
  bad[2].ops[gate].gate.qubits[0] += 1;           // qubit
  bad[3].measure_qubits.pop_back();               // measure map
  std::swap(bad[4].measure_qubits.front(), bad[4].measure_qubits.back());
  for (std::size_t i = 0; i < bad.size(); ++i) {
    EXPECT_THROW(ex.run(*tmpl, bad[i], 16, rng), Error) << "mutation " << i;
    EXPECT_THROW(ex.run_expectation(*tmpl, bad[i], 16, rng, spec), Error) << "mutation " << i;
    EXPECT_THROW(ex.run_expectation_batch(*tmpl, {p0, bad[i]}, spec), Error)
        << "mutation " << i;
  }

  // A changed block duration moves the timeline: not a bind either.
  Program delay;
  delay.ops.push_back(ExecOp::from_gate(qc::Op{qc::GateKind::SX, {0}, {}}));
  delay.ops.push_back(
      ExecOp::from_gate(qc::Op{qc::GateKind::Delay, {0}, {qc::Param::constant(160)}}));
  delay.measure_qubits = {0};
  Program longer = delay;
  longer.ops[1].gate.params[0] = qc::Param::constant(320);
  const auto delay_tmpl = ex.compile(delay);
  EXPECT_THROW(ex.run(*delay_tmpl, longer, 16, rng), Error);

  // A template is valid only for the backend and executor options it was
  // compiled under.
  Executor noisy(toronto(), ExecutorOptions{});
  EXPECT_THROW(noisy.run(*tmpl, p0, 16, rng), Error);
  const backend::FakeBackend other = backend::make_toronto();
  Executor other_ex(other, opts);
  EXPECT_THROW(other_ex.run(*tmpl, p0, 16, rng), Error);
}

TEST(ProgramTemplate, SharedAcrossThreads) {
  // One hybrid template bound from 4 threads at once (each with its own
  // executor on one shared cache) equals binding the same programs serially.
  const core::QaoaModel model = model_of(core::ModelKind::Hybrid);
  const std::vector<double> x0 = model.initial_parameters();
  std::vector<Program> progs;
  for (int k = 0; k < 8; ++k) progs.push_back(model.instantiate(moved(x0, 0.25 * k)));
  for (const bool noise : {false, true}) {
    ExecutorOptions opts;
    opts.noise = noise;
    opts.num_threads = 1;
    opts.block_cache = std::make_shared<serve::BlockCache>(4096);
    const auto tmpl = Executor(toronto(), opts).compile(model.instantiate(x0));

    auto evaluate = [&](Executor& ex, std::size_t k) {
      Rng rng(100 + k);
      const sim::Counts counts = ex.run(*tmpl, progs[k], 64, rng);
      const double value =
          ex.run_expectation(*tmpl, progs[k], 64, rng, spec_of(ObjectiveKind::Expectation));
      return std::make_pair(counts, value);
    };
    std::vector<std::pair<sim::Counts, double>> serial(progs.size()), parallel(progs.size());
    Executor serial_ex(toronto(), opts);
    for (std::size_t k = 0; k < progs.size(); ++k) serial[k] = evaluate(serial_ex, k);

    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        Executor ex(toronto(), opts);
        for (std::size_t k = t; k < progs.size(); k += 4) parallel[k] = evaluate(ex, k);
      });
    }
    for (std::thread& th : threads) th.join();
    for (std::size_t k = 0; k < progs.size(); ++k)
      EXPECT_EQ(parallel[k], serial[k]) << "noise=" << noise << " k=" << k;
  }
}
