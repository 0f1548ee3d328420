// Table II as a service workload: queue a small model × optimizer grid onto
// one serve::JobService and await the outcomes. Every run's optimizer
// candidates and all concurrent runs share the worker pool and the
// compiled-block cache, so identical gate blocks compile once for the whole
// grid — the per-evaluation cost drops to the parameter-bearing blocks.
//
//   build/example_sweep_table2 [workers] [task] [evals]
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "backend/presets.hpp"
#include "common/table.hpp"
#include "serve/job.hpp"
#include "serve/job_service.hpp"

int main(int argc, char** argv) {
  using namespace hgp;

  const std::size_t workers = argc > 1 ? std::stoul(argv[1]) : 4;
  const int task = argc > 2 ? std::stoi(argv[2]) : 1;
  const int evals = argc > 3 ? std::stoi(argv[3]) : 20;

  const graph::Instance instance = task == 1   ? graph::paper_task1()
                                   : task == 2 ? graph::paper_task2()
                                               : graph::paper_task3();
  const backend::FakeBackend dev = backend::make_toronto();

  std::printf("== %s on %s: %zu-worker sweep ==\n", instance.name.c_str(),
              dev.name().c_str(), workers);

  std::vector<serve::JobRequest> jobs;
  for (const auto kind : {core::ModelKind::GateLevel, core::ModelKind::Hybrid}) {
    for (const std::string optimizer : {"cobyla", "spsa", "neldermead"}) {
      core::RunConfig cfg;
      cfg.max_evaluations = evals;
      cfg.optimizer = optimizer;
      jobs.push_back(
          {{core::model_name(kind) + "/" + optimizer, instance, &dev, kind, cfg}});
    }
  }

  serve::JobService svc(serve::JobService::Options{workers, 8192});
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<serve::JobHandle> handles;
  for (const serve::JobRequest& job : jobs) handles.push_back(svc.submit(job));
  std::vector<core::RunResult> results;
  for (const serve::JobHandle& handle : handles) {
    const serve::JobOutcome outcome = handle.outcome.get();
    if (outcome.state != serve::JobState::Completed) {
      std::fprintf(stderr, "job %llu ended %s: %s\n", static_cast<unsigned long long>(handle.id),
                   serve::job_state_name(outcome.state).c_str(), outcome.error.message.c_str());
      return 1;
    }
    results.push_back(outcome.result);
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  Table table({"run", "AR", "evals", "converged@", "makespan (dt)"});
  for (std::size_t i = 0; i < jobs.size(); ++i)
    table.add_row({jobs[i].run.label, Table::pct(results[i].ar),
                   std::to_string(results[i].optimizer.evaluations),
                   std::to_string(results[i].iterations_to_converge),
                   std::to_string(results[i].makespan_dt)});
  std::printf("%s\n", table.str().c_str());

  const serve::BlockCache::Stats cache = svc.cache_stats();
  std::printf("%zu runs in %.2f s on %zu workers\n", jobs.size(), elapsed,
              svc.service().num_workers());
  std::printf("shared block cache: %llu hits / %llu misses (hit rate %.1f%%)\n",
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.misses), 100.0 * cache.hit_rate());
  return 0;
}
