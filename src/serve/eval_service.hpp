#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <list>
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
    /// Worker threads (0 = hardware concurrency). With an adaptive pool
    /// (max_workers > 0) this is the *initial* size, clamped into
    /// [min_workers, max_workers].
    std::size_t num_workers = 0;
    /// LRU bound of the shared compiled-block cache.
    std::size_t cache_capacity = 8192;
    /// Adaptive pool: when max_workers > 0 a manager thread re-sizes the
    /// pool against the queue-depth/utilization signals the service already
    /// maintains — each adapt_interval tick with work still queued spawns
    /// workers (up to max_workers), and a sustained idle queue retires one
    /// (down to min_workers; a worker only retires when both queues are
    /// empty, never mid-task). 0 = fixed pool of num_workers. Re-sizing
    /// changes only where tasks run, never what they compute, so results
    /// stay bit-identical while the pool breathes.
    std::size_t min_workers = 1;
    std::size_t max_workers = 0;
    std::chrono::milliseconds adapt_interval{25};
  };

  EvalService() : EvalService(Options{}) {}
  explicit EvalService(Options options);
  ~EvalService() override;

  EvalService(const EvalService&) = delete;
  EvalService& operator=(const EvalService&) = delete;

  /// Workers currently alive (retired workers leave this count the moment
  /// they exit). Fixed pools never change it; adaptive pools breathe between
  /// min_workers and max_workers.
  std::size_t num_workers() const { return alive_count_.load(std::memory_order_acquire); }
  /// Pool grow/shrink event counts since construction (adaptive mode).
  std::size_t pool_grow_events() const { return grow_events_.load(std::memory_order_acquire); }
  std::size_t pool_shrink_events() const { return shrink_events_.load(std::memory_order_acquire); }

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

  /// Jobs currently queued (excludes candidates and running jobs).
  std::size_t queued_jobs() const;

 private:
  /// One in-flight candidate batch: tasks decrement `remaining`; the first
  /// failure is captured for the submitting thread.
  struct Batch {
    std::size_t remaining = 0;
    std::exception_ptr error;
  };

  /// One pool thread. The slot outlives the thread (it lives in workers_
  /// until the manager or destructor reaps it); `exited` flips once the
  /// thread is past its last touch of service state, so a join on it never
  /// blocks behind pool work.
  struct WorkerSlot {
    std::thread thread;
    std::atomic<bool> exited{false};
  };

  void worker_loop(WorkerSlot* slot);
  /// Adaptive-mode manager: re-sizes the pool each adapt_interval tick and
  /// reaps exited worker threads.
  void manager_loop();
  /// Start one worker. Caller holds mutex_.
  void spawn_worker();
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
    obs::Counter* pool_grows;
    obs::Counter* pool_shrinks;
    obs::Gauge* queue_depth;
    obs::Gauge* workers;
    obs::Histogram* candidate_wait_ns;
    obs::Histogram* job_wait_ns;
  };
  Metrics metrics_;

  std::shared_ptr<BlockCache> cache_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> candidates_;
  /// Per-tenant weighted-fair job queue (was a plain FIFO deque; the DRR
  /// ring keeps heavy tenants from starving light ones).
  FairJobQueue jobs_;
  bool stop_ = false;
  /// Worker slots; a std::list so slot addresses stay stable while the pool
  /// grows and shrinks. Guarded by mutex_.
  std::list<WorkerSlot> workers_;
  /// Workers alive (mutex_-guarded master copy + lock-free mirror).
  std::size_t alive_workers_ = 0;
  std::atomic<std::size_t> alive_count_{0};
  /// Pending retirements: an idle worker that sees one decrements it and
  /// exits. Guarded by mutex_.
  std::size_t retire_requests_ = 0;
  std::atomic<std::size_t> grow_events_{0};
  std::atomic<std::size_t> shrink_events_{0};
  /// Adaptive bounds ([min, max]; max == 0 means fixed) and tick length.
  std::size_t min_workers_ = 1;
  std::size_t max_workers_ = 0;
  std::chrono::milliseconds adapt_interval_{25};
  std::thread manager_;
};

}  // namespace hgp::serve
