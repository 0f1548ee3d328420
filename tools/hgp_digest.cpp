// hgp_digest — print every executor and training output of a fixed set of
// paper programs as one hexfloat line per (program, configuration, output).
//
// Two builds of the library that are meant to behave identically must print
// byte-identical digests; tools/digest_diff.sh builds two git refs and diffs
// their output. The digest uses the executor's Program overloads, run_qaoa
// and JobService, and its batch rows bind θs to a model template where the
// library has one (Executor::compile(model, θ0)) and batch Programs where it
// does not, so one source builds against old and new libraries alike. Cache
// traffic is deliberately left out: it is not an output, and
// layout-changing refactors move it.
//
//   hgp_digest            # prints the digest on stdout (~1 min on one core)
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "backend/presets.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/executor.hpp"
#include "core/models.hpp"
#include "core/workflow.hpp"
#include "graph/instances.hpp"
#include "serve/job_service.hpp"

using namespace hgp;

namespace {

const backend::FakeBackend& toronto() {
  static const backend::FakeBackend dev = backend::make_toronto();
  return dev;
}

const graph::Instance& task1() {
  static const graph::Instance inst = graph::paper_task1();
  return inst;
}

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::string hex(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) out += (i ? "," : "") + hex(v[i]);
  return out + "]";
}

std::string counts_str(const sim::Counts& c) {
  std::string out;
  for (const auto& [bits, n] : c) out += " " + std::to_string(bits) + ":" + std::to_string(n);
  return out;
}

std::string next_draw(Rng& rng) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(rng.next_u64()));
  return buf;
}

/// x0 moved by a fixed, parameter-dependent step (k scales it).
std::vector<double> moved(const std::vector<double>& x0, double k) {
  std::vector<double> x = x0;
  for (std::size_t j = 0; j < x.size(); ++j)
    x[j] += k * 0.013 * static_cast<double>(j % 5 + 1) * (j % 2 ? -1.0 : 1.0);
  return x;
}

core::ObjectiveSpec spec_of(core::ObjectiveKind kind) {
  core::ObjectiveSpec spec;
  spec.kind = kind;
  spec.value = [](std::uint64_t bits) { return task1().graph.cut_value(bits); };
  spec.cvar_alpha = 0.3;
  return spec;
}

struct Config {
  bool noise;
  std::string engine;  // by name, so a library without the engine still builds
  std::size_t lanes, threads, fusion;
  std::string name() const {
    return std::string("noise=") + (noise ? "1" : "0") + " engine=" + engine +
           " lanes=" + std::to_string(lanes) + " threads=" + std::to_string(threads) +
           " fusion=" + std::to_string(fusion);
  }
};

/// Whether Ex binds θ to a template compiled from a model.
template <typename Ex, typename = void>
struct BindsTheta : std::false_type {};
template <typename Ex>
struct BindsTheta<Ex, std::void_t<decltype(std::declval<const Ex&>().compile(
                          std::declval<const core::QaoaModel&>(), std::vector<double>{}))>>
    : std::true_type {};

/// Candidate-lane batches of B moved θs, bound to one template compiled at
/// `theta` (a library without model templates compiles the batch's first
/// program, which is the same program).
template <typename Ex>
void digest_batches(const std::string& head, const Ex& ex, const core::QaoaModel& model,
                    const std::vector<double>& theta) {
  [[maybe_unused]] std::shared_ptr<const core::ProgramTemplate> tmpl;
  if constexpr (BindsTheta<Ex>::value) tmpl = ex.compile(model, theta);
  for (const std::size_t B : {std::size_t{1}, std::size_t{3}, std::size_t{7}}) {
    std::vector<std::vector<double>> thetas;
    for (std::size_t l = 0; l < B; ++l)
      thetas.push_back(moved(theta, 0.5 * static_cast<double>(l)));
    for (const core::ObjectiveKind kind : {core::ObjectiveKind::Expectation,
                                           core::ObjectiveKind::CVaR}) {
      std::vector<double> v;
      if constexpr (BindsTheta<Ex>::value) {
        v = ex.run_expectation_batch(*tmpl, thetas, spec_of(kind));
      } else {
        std::vector<core::Program> progs;
        for (const std::vector<double>& x : thetas) progs.push_back(model.instantiate(x));
        v = ex.run_expectation_batch(progs, spec_of(kind));
      }
      std::printf("%s batch B=%zu %s %s\n", head.c_str(), B,
                  core::objective_name(kind).c_str(), hex(v).c_str());
    }
  }
}

/// Executor outputs of one program under one configuration.
void digest_program(const std::string& tag, const core::QaoaModel& model,
                    const std::vector<double>& theta, const Config& c) {
  const std::string head = tag + " " + c.name();
  core::ExecutorOptions opts;
  opts.noise = c.noise;
  try {
    opts.engine = core::engine_from_name(c.engine);
  } catch (const Error& e) {  // a library that predates the engine
    std::printf("%s %s\n", head.c_str(), e.what());
    return;
  }
  opts.shot_batch_lanes = c.lanes;
  opts.num_threads = c.threads;
  opts.fusion_max_qubits = c.fusion;
  core::Executor ex(toronto(), opts);
  const core::Program prog = model.instantiate(theta);
  const std::size_t shots = c.noise ? 256 : 1024;

  Rng rng(17);
  const sim::Counts counts = ex.run(prog, shots, rng);
  std::printf("%s run%s next=%s\n", head.c_str(), counts_str(counts).c_str(),
              next_draw(rng).c_str());
  for (const core::ObjectiveKind kind : {core::ObjectiveKind::Expectation,
                                         core::ObjectiveKind::CVaR}) {
    Rng erng(23);
    const double v = ex.run_expectation(prog, shots, erng, spec_of(kind));
    std::printf("%s %s %s next=%s\n", head.c_str(), core::objective_name(kind).c_str(),
                hex(v).c_str(), next_draw(erng).c_str());
  }
  if (!c.noise) digest_batches(head, ex, model, theta);
}

void digest_run(const std::string& tag, const core::RunResult& r) {
  std::printf("%s x=%s history=%s evals=%d final=%s ar=%s cancelled=%d\n", tag.c_str(),
              hex(r.optimizer.x).c_str(), hex(r.optimizer.history).c_str(),
              r.optimizer.evaluations, hex(r.final_cost).c_str(), hex(r.ar).c_str(),
              r.cancelled ? 1 : 0);
}

core::RunConfig short_run(const std::string& objective, bool noise) {
  core::RunConfig cfg;
  cfg.shots = 256;
  cfg.max_evaluations = 10;
  cfg.executor_threads = 1;
  cfg.objective = objective;
  cfg.noise = noise;
  cfg.seed = 41;
  return cfg;
}

}  // namespace

int main() {
  const core::ModelKind kinds[] = {core::ModelKind::GateLevel, core::ModelKind::Hybrid,
                                   core::ModelKind::PulseLevel};

  // Executor outputs: every model at x0 and at a moved θ, over the engine
  // grid. The density engine ignores lanes and threads, so it runs them at 1,
  // and so does auto, which the task-1 programs resolve to density.
  std::vector<Config> grid;
  for (const bool noise : {false, true})
    for (const std::size_t lanes : {std::size_t{1}, std::size_t{7}, std::size_t{16}})
      for (const std::size_t threads : {std::size_t{1}, std::size_t{3}})
        for (const std::size_t fusion : {std::size_t{0}, std::size_t{2}, std::size_t{3}})
          grid.push_back({noise, "trajectory", lanes, threads, fusion});
  for (const char* engine : {"density", "auto"})
    for (const std::size_t fusion : {std::size_t{0}, std::size_t{2}, std::size_t{3}})
      grid.push_back({true, engine, 1, 1, fusion});

  for (const core::ModelKind kind : kinds) {
    const core::QaoaModel model =
        core::QaoaModel::build(task1().graph, toronto(), kind, core::ModelConfig{});
    const std::vector<double> x0 = model.initial_parameters();
    for (int m = 0; m < 2; ++m) {
      const std::string tag = core::model_name(kind) + (m ? "@moved" : "@x0");
      for (const Config& c : grid) digest_program(tag, model, m ? moved(x0, 1.0) : x0, c);
    }
  }

  // Short training runs: the optimizer trace per model x objective x noise,
  // on the default engine, and noisy on trajectories by name.
  for (const core::ModelKind kind : kinds)
    for (const char* objective : {"sample", "expectation", "cvar"}) {
      const std::string tag = "run_qaoa " + core::model_name(kind) + " objective=" + objective;
      for (const bool noise : {false, true})
        digest_run(tag + " noise=" + (noise ? "1" : "0"),
                   core::run_qaoa(task1(), toronto(), kind, short_run(objective, noise)));
      core::RunConfig trajectory = short_run(objective, true);
      trajectory.engine = "trajectory";
      digest_run(tag + " noise=1 engine=trajectory",
                 core::run_qaoa(task1(), toronto(), kind, trajectory));
    }

  // One JobService twin of noiseless gate and hybrid jobs on two workers.
  serve::JobService::Options so;
  so.num_workers = 2;
  serve::JobService service(so);
  std::vector<serve::JobHandle> handles;
  for (const core::ModelKind kind : {core::ModelKind::GateLevel, core::ModelKind::Hybrid}) {
    serve::JobRequest req;
    req.run.label = core::model_name(kind);
    req.run.instance = task1();
    req.run.dev = &toronto();
    req.run.kind = kind;
    req.run.config = short_run("sample", false);
    handles.push_back(service.submit(std::move(req)));
  }
  for (std::size_t i = 0; i < handles.size(); ++i) {
    const serve::JobOutcome o = handles[i].outcome.get();
    digest_run("job_service " + std::to_string(i) + " state=" + serve::job_state_name(o.state),
               o.result);
  }
  return 0;
}
