#include "core/workflow.hpp"

#include "common/error.hpp"
#include "core/calibration_run.hpp"
#include "core/qaoa.hpp"
#include "mitigation/cvar.hpp"
#include "mitigation/m3.hpp"

namespace hgp::core {

namespace {

/// Candidates packed per lane-batched evolve when a noiseless non-sample
/// run evaluates an optimizer batch. Values are bit-identical for every
/// lane and worker count, so this sets speed only.
constexpr std::size_t kCandidateLanes = 16;

/// The configured cost metric: plain expectation / M3 / CVaR, over counts
/// keyed in virtual qubit order.
double scored_cost(const sim::Counts& counts, const graph::Graph& g, const RunConfig& cfg,
                   const mit::M3Mitigator* m3) {
  auto cut = [&](std::uint64_t bits) { return g.cut_value(bits); };
  if (m3 != nullptr) {
    const mit::QuasiDistribution quasi = m3->mitigate(counts);
    if (cfg.cvar) return mit::cvar_from_quasi(quasi, cut, cfg.cvar_alpha);
    return quasi.expectation(cut);
  }
  if (cfg.cvar) return mit::cvar_from_counts(counts, cut, cfg.cvar_alpha);
  return cut_expectation(g, counts);
}

}  // namespace

RunResult run_qaoa(const graph::Instance& instance, const backend::FakeBackend& dev,
                   ModelKind kind, const RunConfig& config,
                   opt::BatchDispatcher* dispatcher,
                   std::shared_ptr<serve::BlockCache> block_cache) {
  ModelConfig mcfg = config.model;
  mcfg.gate_optimization = config.gate_optimization;
  const QaoaModel model = QaoaModel::build(instance.graph, dev, kind, mcfg);

  ExecutorOptions eopt;
  eopt.noise = config.noise;
  eopt.engine = engine_from_name(config.engine);
  eopt.num_threads = config.executor_threads;
  eopt.shot_batch_lanes = config.shot_batch_lanes;
  eopt.fusion_max_qubits = config.fusion;
  // The run's one executor evaluates every candidate, from any dispatcher
  // worker, into one cache: across optimizer iterations only the
  // parameter-bearing blocks recompile. A service-injected cache extends
  // the sharing to every concurrent run of a sweep.
  eopt.block_cache = block_cache
                         ? std::move(block_cache)
                         : std::make_shared<serve::BlockCache>(eopt.block_cache_capacity);
  eopt.cancel = config.cancel;
  const Executor executor(dev, eopt);
  Rng rng(config.seed);

  const ObjectiveKind okind = objective_from_name(config.objective);
  HGP_REQUIRE(okind == ObjectiveKind::Sample || !config.m3,
              "run_qaoa: M3 mitigation operates on sampled counts — use the "
              "'sample' objective");
  ObjectiveSpec spec;
  spec.kind = okind == ObjectiveKind::Sample ? ObjectiveKind::Expectation : okind;
  spec.value = [&g = instance.graph](std::uint64_t bits) { return g.cut_value(bits); };
  spec.cvar_alpha = config.cvar_alpha;

  // Compile the run once: every candidate evaluation and the final one bind
  // their θ to this template, and recompute only the slots the model says
  // those entries reach. `dev` and `model` are held unchanged for the whole
  // run, which keeps the template valid.
  const std::shared_ptr<const ProgramTemplate> tmpl =
      executor.compile(model, model.initial_parameters());

  // M3 readout calibration (paper §IV-D): estimate the per-qubit confusion
  // by running the all-|0> and all-|1> calibration programs on the device.
  std::unique_ptr<mit::M3Mitigator> m3;
  if (config.m3) {
    Rng cal_rng(config.seed ^ 0xCA11ull);
    m3 = std::make_unique<mit::M3Mitigator>(calibrate_readout(
        executor, tmpl->program.measure_phys, config.calibration_shots, cal_rng));
  }

  const opt::BatchObjective objective = [&](const std::vector<std::vector<double>>& xs) {
    if (okind != ObjectiveKind::Sample && !config.noise) {
      // Lane-native, zero-noise path: the batch's candidates bind one
      // template, so they pack as lanes of one batched evolve — every
      // block no θ entry moved applies once for the whole group. Fully
      // deterministic (no rng draw), and value i is bit-identical to a
      // scalar evaluation of candidate i alone, for any group or worker
      // count.
      std::vector<double> vals(xs.size());
      std::vector<std::function<void()>> tasks;
      for (std::size_t start = 0; start < xs.size(); start += kCandidateLanes) {
        const std::size_t count = std::min(kCandidateLanes, xs.size() - start);
        tasks.push_back([&, start, count] {
          const std::vector<std::vector<double>> lanes(xs.begin() + start,
                                                       xs.begin() + start + count);
          const std::vector<double> v = executor.run_expectation_batch(*tmpl, lanes, spec);
          for (std::size_t i = 0; i < count; ++i) vals[start + i] = -v[i];
        });
      }
      if (dispatcher != nullptr) {
        dispatcher->run(tasks);
      } else {
        for (std::function<void()>& task : tasks) task();
      }
      return vals;
    }
    // One parent draw per batch; candidate i samples its own child stream.
    // Values therefore depend only on the batch structure, never on which
    // worker (or how many) evaluated them.
    const std::uint64_t base = rng.next_u64();
    return opt::parallel_map(dispatcher, xs.size(), [&](std::size_t i) {
      Rng candidate_rng = Rng::child(base, i);
      if (okind != ObjectiveKind::Sample)
        return -executor.run_expectation(*tmpl, xs[i], config.shots, candidate_rng, spec);
      const sim::Counts counts = executor.run(*tmpl, xs[i], config.shots, candidate_rng);
      return -scored_cost(counts, instance.graph, config, m3.get());
    });
  };

  opt::OptimizeResult opt_result =
      opt::minimize(config.optimizer, objective, model.initial_parameters(), model.bounds(),
                    config.max_evaluations, config.seed ^ 0x5B5Aull,  // SPSA's stream
                    config.cancel.get());
  bool cancelled = opt_result.stopped_early;

  // Final evaluation at the optimum with a fresh sampling seed, under the
  // same objective mode the training used. A cancelled run skips it — the
  // point of cancelling is to stop spending shots — and reports the best
  // completed training evaluation instead.
  double final_cost = -opt_result.value;
  if (!cancelled) {
    try {
      Rng final_rng(config.seed ^ 0xF1A5ull);
      if (okind != ObjectiveKind::Sample) {
        final_cost = executor.run_expectation(*tmpl, opt_result.x, config.shots, final_rng, spec);
      } else {
        const sim::Counts final_counts =
            executor.run(*tmpl, opt_result.x, config.shots, final_rng);
        final_cost = scored_cost(final_counts, instance.graph, config, m3.get());
      }
    } catch (const CancelledError&) {
      cancelled = true;
      final_cost = -opt_result.value;
    }
  }

  RunResult out;
  out.model = model_name(kind);
  out.final_cost = final_cost;
  out.ar = approximation_ratio(final_cost, instance.max_cut);
  out.optimizer = std::move(opt_result);
  out.iterations_to_converge = opt::iterations_to_converge(out.optimizer, 0.02);
  out.mixer_layer_duration_dt = model.mixer_layer_duration_dt();
  out.makespan_dt = tmpl->program.makespan_dt;
  out.swap_count = model.swap_count();
  out.num_parameters = model.num_parameters();
  if (cancelled) {
    out.cancelled = true;
    out.cancel_reason =
        config.cancel ? cancel_reason_name(config.cancel->reason()) : "cancelled";
  }
  return out;
}

DurationSearchOutcome optimize_mixer_duration(const graph::Instance& instance,
                                              const backend::FakeBackend& dev,
                                              const RunConfig& config,
                                              double keep_fraction) {
  HGP_REQUIRE(config.model.p >= 1, "optimize_mixer_duration: bad config");
  DurationSearchOutcome out;

  auto score_at = [&](int duration_dt) {
    RunConfig c = config;
    c.model.mixer_duration_dt = duration_dt;
    const RunResult r = run_qaoa(instance, dev, ModelKind::Hybrid, c);
    return r.ar;
  };

  out.search = opt::binary_search_duration(score_at, config.model.mixer_duration_dt, 32,
                                           keep_fraction);
  RunConfig final_cfg = config;
  final_cfg.model.mixer_duration_dt = out.search.best_duration;
  out.final_run = run_qaoa(instance, dev, ModelKind::Hybrid, final_cfg);
  return out;
}

}  // namespace hgp::core
