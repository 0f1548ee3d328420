#pragma once

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "optimize/batch.hpp"
#include "serve/block_cache.hpp"

namespace hgp::serve {

/// Weighted-fair job queue: per-tenant FIFO/priority queues served by
/// deficit round-robin, so one tenant's 1000-job sweep cannot starve another
/// tenant's single run — tenant t drains jobs in proportion to its weight
/// while backlogged, and an idle tenant accumulates no credit. Within a
/// tenant, higher priority runs first; equal priorities keep submission
/// order. Not internally synchronized: EvalService guards it with its queue
/// mutex. Pop order is fully deterministic for a given push sequence.
class FairJobQueue {
 public:
  void push(const std::string& tenant, double weight, int priority,
            std::function<void()> task);
  /// Next task under deficit round-robin; false when empty.
  bool pop(std::function<void()>& out);
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t tenant_count() const { return tenants_.size(); }

 private:
  struct Tenant {
    double weight = 1.0;
    /// DRR credit: topped up by `weight` once per round-robin stop, spent 1
    /// per job served. Cleared when the tenant drains.
    double deficit = 0.0;
    /// True while this tenant is the ring cursor's current stop and has
    /// already received this stop's top-up.
    bool topped_up = false;
    /// Priority buckets, higher first; FIFO within a bucket.
    std::map<int, std::deque<std::function<void()>>, std::greater<int>> buckets;
    std::size_t count = 0;
  };

  std::unordered_map<std::string, Tenant> tenants_;
  /// Backlogged tenants in round-robin order; drained tenants drop out (and
  /// forfeit their remaining deficit).
  std::vector<std::string> ring_;
  std::size_t cursor_ = 0;
  std::size_t size_ = 0;
};

/// The batched evaluation service: one worker pool plus one shared
/// compiled-block cache serving many concurrent VQA workloads — gate blocks
/// and pulse blocks alike, so concurrent hybrid runs share compiled pulse
/// mixers at repeated candidate angles (per-kind traffic visible via
/// cache_stats()).
///
/// Two kinds of work flow through it:
///   - *candidate batches* (opt::BatchDispatcher::run): the independent
///     objective evaluations an optimizer iteration produces. The submitting
///     thread helps drain the candidate queue while it waits, so a batch
///     submitted from inside a pool job can never deadlock the pool.
///   - *jobs* (post): long-lived run-level tasks (one JobService run each)
///     on the weighted-fair job queue. Workers prefer candidates over jobs,
///     so in-flight runs finish their evaluations before new runs start.
///
/// Determinism: the service only changes *where* tasks execute, never what
/// they compute — callers key every stochastic input to a candidate's index
/// (Rng::child streams), so any worker count yields bit-identical results.
class EvalService : public opt::BatchDispatcher {
 public:
  struct Options {
    /// Worker threads (0 = hardware concurrency), started by the constructor
    /// and joined by the destructor.
    std::size_t num_workers = 0;
    /// LRU bound of the shared compiled-block cache.
    std::size_t cache_capacity = 8192;
  };

  EvalService() : EvalService(Options{}) {}
  explicit EvalService(Options options);
  ~EvalService() override;

  EvalService(const EvalService&) = delete;
  EvalService& operator=(const EvalService&) = delete;

  /// Worker threads of the fixed pool.
  std::size_t num_workers() const { return workers_.size(); }

  /// The process-wide compiled-block cache shared by every executor running
  /// on this service (inject via ExecutorOptions::block_cache).
  const std::shared_ptr<BlockCache>& block_cache() const { return cache_; }
  BlockCache::Stats cache_stats() const { return cache_->stats(); }

  /// opt::BatchDispatcher: run all candidate tasks, possibly in parallel,
  /// and return when every one has finished. The first exception thrown by a
  /// task of this batch is rethrown here.
  void run(std::vector<std::function<void()>>& tasks) override;

  /// Scheduling metadata of one queued job. Jobs of one tenant share that
  /// tenant's deficit-round-robin budget; `weight` scales it (last submit
  /// wins), `priority` orders jobs within the tenant (higher first).
  struct SubmitOptions {
    std::string tenant = "default";
    double weight = 1.0;
    int priority = 0;
  };

  /// Queue a task on the fair job queue. There is no future: the job layer
  /// tracks completion through its own Job promise.
  void post(const SubmitOptions& options, std::function<void()> task);

 private:
  /// One in-flight candidate batch: tasks decrement `remaining`; the first
  /// failure is captured for the submitting thread.
  struct Batch {
    std::size_t remaining = 0;
    std::exception_ptr error;
  };

  void worker_loop();
  /// Pop one task under `lock` (candidates first, then jobs — jobs only when
  /// `jobs_too`), run it unlocked. False when both queues are empty.
  bool run_one(std::unique_lock<std::mutex>& lock, bool jobs_too);

  /// Process-wide "service.*" series (resolved once at construction):
  /// queue depth, candidate/job enqueue-to-dequeue wait, worker busy/idle
  /// nanoseconds (utilization = busy / (busy + idle)), and helping steals
  /// (candidates the submitting thread drained itself while waiting on its
  /// own batch).
  struct Metrics {
    obs::Counter* candidates_submitted;
    obs::Counter* jobs_submitted;
    obs::Counter* helping_steals;
    obs::Counter* worker_busy_ns;
    obs::Counter* worker_idle_ns;
    obs::Gauge* queue_depth;
    obs::Gauge* workers;
    obs::Histogram* candidate_wait_ns;
    obs::Histogram* job_wait_ns;
  };
  Metrics metrics_;

  std::shared_ptr<BlockCache> cache_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> candidates_;
  /// Per-tenant weighted-fair job queue (was a plain FIFO deque; the DRR
  /// ring keeps heavy tenants from starving light ones).
  FairJobQueue jobs_;
  bool stop_ = false;
  /// Started by the constructor; the destructor joins them after they drain
  /// both queues.
  std::vector<std::thread> workers_;
};

}  // namespace hgp::serve
