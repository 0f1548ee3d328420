// Throughput, overhead and correctness of the job layer: the same 6-run grid
// executes (a) inline (plain run_qaoa, the pre-job-layer reference), (b)
// through JobService with every job under one tenant (the deficit-round-robin
// queue degenerates to FIFO), and (c) through JobService split across two
// tenants (DRR actually interleaving). Reports the inline/FIFO wall-clock
// speedup — the service pool's throughput floor — and the DRR/FIFO ratio —
// the price of fair scheduling — both gated against
// bench/baselines/BENCH_jobs.json, verifies both service runs are
// bit-identical to the inline reference, and checks the scheduler's
// fair-share pop order deterministically.
//
//   bench_jobs [workers]             (default 4)
//   HGP_SHOTS / HGP_EVALS            scale the per-run budget (smoke mode)
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "backend/presets.hpp"
#include "bench_util.hpp"
#include "serve/job.hpp"
#include "serve/job_service.hpp"

using namespace hgp;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

bool same_result(const core::RunResult& a, const core::RunResult& b) {
  return a.ar == b.ar && a.final_cost == b.final_cost &&
         a.optimizer.value == b.optimizer.value && a.optimizer.x == b.optimizer.x &&
         a.optimizer.history == b.optimizer.history;
}

/// Run the whole grid through a fresh JobService, tagging job i with
/// tenant_of(i). Returns wall seconds; outcomes land in `results`.
double run_through_service(const std::vector<serve::SweepJob>& jobs, std::size_t workers,
                           const std::function<std::string(std::size_t)>& tenant_of,
                           std::vector<core::RunResult>& results) {
  serve::JobService svc(serve::JobService::Options{workers, 8192});
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<serve::JobHandle> handles;
  handles.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    serve::SweepJob job = jobs[i];
    job.tenant = tenant_of(i);
    handles.push_back(svc.submit(serve::JobRequest{std::move(job)}));
  }
  results.clear();
  for (serve::JobHandle& h : handles) {
    serve::JobOutcome outcome = h.outcome.get();
    if (outcome.state != serve::JobState::Completed) {
      std::printf("job %llu ended %s: %s\n", static_cast<unsigned long long>(h.id),
                  serve::job_state_name(outcome.state).c_str(),
                  outcome.error.message.c_str());
      std::exit(1);
    }
    results.push_back(std::move(outcome.result));
  }
  return seconds_since(t0);
}

/// Deterministic fair-share check on the scheduler itself: tenant A floods
/// four jobs, tenant B submits one — DRR must serve B second, not last.
bool fair_pop_order() {
  serve::FairJobQueue q;
  std::vector<std::string> served;
  for (int i = 0; i < 4; ++i) q.push("A", 1.0, 0, [&served] { served.push_back("A"); });
  q.push("B", 1.0, 0, [&served] { served.push_back("B"); });
  std::function<void()> task;
  while (q.pop(task)) task();
  return served == std::vector<std::string>{"A", "B", "A", "A", "A"};
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t workers = argc > 1 ? std::stoul(argv[1]) : 4;

  const backend::FakeBackend dev = backend::make_toronto();
  core::RunConfig base = benchutil::base_config();
  base.executor_threads = 1;  // parallelism comes from the service pool here

  // Two copies of the 3-config sweep grid — one per tenant in the DRR run.
  std::vector<serve::SweepJob> jobs;
  for (int copy = 0; copy < 2; ++copy) {
    const std::string tag = copy == 0 ? "/a" : "/b";
    core::RunConfig cobyla = base;
    jobs.push_back({"task1/gate/cobyla" + tag, graph::paper_task1(), &dev,
                    core::ModelKind::GateLevel, cobyla});
    core::RunConfig spsa = base;
    spsa.optimizer = "spsa";
    jobs.push_back({"task1/hybrid/spsa" + tag, graph::paper_task1(), &dev,
                    core::ModelKind::Hybrid, spsa});
    core::RunConfig nm = base;
    nm.optimizer = "neldermead";
    jobs.push_back({"task2/gate/neldermead" + tag, graph::paper_task2(), &dev,
                    core::ModelKind::GateLevel, nm});
  }

  benchutil::header("serve::JobService — job-layer overhead and fair scheduling");
  std::printf("%zu jobs, %zu workers, %zu shots, %d evals per run\n\n", jobs.size(),
              workers, base.shots, base.max_evaluations);

  // Inline reference: the exact numbers the job layer must reproduce.
  const auto t_plain = std::chrono::steady_clock::now();
  std::vector<core::RunResult> plain;
  for (const serve::SweepJob& job : jobs)
    plain.push_back(core::run_qaoa(job.instance, *job.dev, job.kind, job.config));
  const double plain_s = seconds_since(t_plain);

  // One tenant: the DRR ring has a single stop, i.e. plain FIFO dispatch.
  std::vector<core::RunResult> fifo;
  const double fifo_s =
      run_through_service(jobs, workers, [](std::size_t) { return "solo"; }, fifo);

  // Two tenants: the scheduler actually rotates the ring every dequeue.
  std::vector<core::RunResult> drr;
  const double drr_s = run_through_service(
      jobs, workers, [&](std::size_t i) { return i < jobs.size() / 2 ? "a" : "b"; }, drr);

  bool identical = fifo.size() == plain.size() && drr.size() == plain.size();
  for (std::size_t i = 0; identical && i < plain.size(); ++i)
    identical = same_result(fifo[i], plain[i]) && same_result(drr[i], plain[i]);

  const bool fairness = fair_pop_order();
  const double speedup = fifo_s > 0.0 ? plain_s / fifo_s : 0.0;
  const double overhead = fifo_s > 0.0 ? drr_s / fifo_s : 0.0;

  for (std::size_t i = 0; i < jobs.size(); ++i)
    std::printf("  %-26s AR %.1f%%  (%d evals)\n", jobs[i].label.c_str(),
                100.0 * drr[i].ar, drr[i].optimizer.evaluations);
  std::printf("\nplain %.3f s | fifo (1 tenant) %.3f s | drr (2 tenants) %.3f s\n",
              plain_s, fifo_s, drr_s);
  std::printf("pool speedup %.2fx | scheduler overhead %.3fx | bit-identical: %s | "
              "fair pop order: %s\n",
              speedup, overhead, identical ? "yes" : "NO", fairness ? "yes" : "NO");

  std::ofstream json("BENCH_jobs.json");
  json << "{\n"
       << "  \"bench\": \"jobs\",\n"
       << "  \"jobs\": " << jobs.size() << ",\n"
       << "  \"workers\": " << workers << ",\n"
       << "  \"shots\": " << base.shots << ",\n"
       << "  \"evals\": " << base.max_evaluations << ",\n"
       << "  \"plain_s\": " << plain_s << ",\n"
       << "  \"fifo_s\": " << fifo_s << ",\n"
       << "  \"drr_s\": " << drr_s << ",\n"
       << "  \"speedup\": " << speedup << ",\n"
       << "  \"overhead_ratio\": " << overhead << ",\n"
       << "  \"bit_identical\": " << (identical ? "true" : "false") << ",\n"
       << "  \"fair_pop_order\": " << (fairness ? "true" : "false") << "\n"
       << "}\n";
  std::printf("wrote BENCH_jobs.json\n");
  return identical && fairness ? 0 : 1;
}
