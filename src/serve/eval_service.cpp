#include "serve/eval_service.hpp"

#include <algorithm>

namespace hgp::serve {

void FairJobQueue::push(const std::string& tenant, double weight, int priority,
                        std::function<void()> task) {
  Tenant& t = tenants_[tenant];
  // Weight updates take effect immediately (last submit wins); clamp so a
  // degenerate weight cannot stall the round-robin top-up loop.
  t.weight = std::max(weight, 1e-3);
  if (t.count == 0) {
    ring_.push_back(tenant);
    t.deficit = 0.0;
    t.topped_up = false;
  }
  t.buckets[priority].push_back(std::move(task));
  ++t.count;
  ++size_;
}

bool FairJobQueue::pop(std::function<void()>& out) {
  if (size_ == 0) return false;
  // The ring holds only backlogged tenants, and every full pass tops each
  // one up by its weight, so some deficit reaches 1 in bounded passes.
  for (;;) {
    if (cursor_ >= ring_.size()) cursor_ = 0;
    Tenant& t = tenants_[ring_[cursor_]];
    if (!t.topped_up) {
      t.deficit += t.weight;
      t.topped_up = true;
    }
    if (t.deficit < 1.0) {
      // This stop's credit is spent — move on, keeping the remainder.
      t.topped_up = false;
      ++cursor_;
      continue;
    }
    t.deficit -= 1.0;
    auto bucket = t.buckets.begin();
    out = std::move(bucket->second.front());
    bucket->second.pop_front();
    if (bucket->second.empty()) t.buckets.erase(bucket);
    --t.count;
    --size_;
    if (t.count == 0) {
      // Drained: leave the ring and forfeit leftover credit, so an idle
      // tenant cannot bank an unfair burst for later.
      t.deficit = 0.0;
      t.topped_up = false;
      ring_.erase(ring_.begin() + static_cast<long>(cursor_));
    } else if (t.deficit < 1.0) {
      t.topped_up = false;
      ++cursor_;
    }
    return true;
  }
}

EvalService::EvalService(Options options)
    : cache_(std::make_shared<BlockCache>(options.cache_capacity)),
      min_workers_(std::max<std::size_t>(1, options.min_workers)),
      max_workers_(options.max_workers),
      adapt_interval_(options.adapt_interval) {
  obs::Registry& reg = obs::Registry::global();
  metrics_.candidates_submitted = &reg.counter("service.candidates_submitted");
  metrics_.jobs_submitted = &reg.counter("service.jobs_submitted");
  metrics_.helping_steals = &reg.counter("service.helping_steals");
  metrics_.worker_busy_ns = &reg.counter("service.worker_busy_ns");
  metrics_.worker_idle_ns = &reg.counter("service.worker_idle_ns");
  metrics_.pool_grows = &reg.counter("service.pool_grows");
  metrics_.pool_shrinks = &reg.counter("service.pool_shrinks");
  metrics_.queue_depth = &reg.gauge("service.queue_depth");
  metrics_.workers = &reg.gauge("service.workers");
  metrics_.candidate_wait_ns = &reg.histogram("service.candidate_wait_ns");
  metrics_.job_wait_ns = &reg.histogram("service.job_wait_ns");

  std::size_t n = options.num_workers != 0
                      ? options.num_workers
                      : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  if (max_workers_ != 0) {
    // Adaptive mode: a max below min is a config slip, not a mode; resolve
    // it in min's favor and clamp the starting size into the band.
    max_workers_ = std::max(max_workers_, min_workers_);
    n = std::min(std::max(n, min_workers_), max_workers_);
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < n; ++i) spawn_worker();
  }
  if (max_workers_ != 0) manager_ = std::thread([this] { manager_loop(); });
}

EvalService::~EvalService() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  if (manager_.joinable()) manager_.join();
  for (WorkerSlot& slot : workers_)
    if (slot.thread.joinable()) slot.thread.join();
}

void EvalService::spawn_worker() {
  workers_.emplace_back();
  WorkerSlot* slot = &workers_.back();
  ++alive_workers_;
  alive_count_.store(alive_workers_, std::memory_order_release);
  metrics_.workers->set(static_cast<std::int64_t>(alive_workers_));
  slot->thread = std::thread([this, slot] { worker_loop(slot); });
}

void EvalService::manager_loop() {
  // Consecutive ticks with both queues empty; one shrink per kIdleTicks run
  // so the pool decays gradually instead of collapsing on the first gap.
  constexpr std::size_t kIdleTicks = 4;
  std::size_t idle_ticks = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_) {
    // There is no dedicated manager CV: cv_ is notified on every enqueue and
    // on stop, and the wait_for timeout is the adaptation tick. Spurious
    // wakes just re-evaluate the same policy a little early.
    cv_.wait_for(lock, adapt_interval_, [&] { return stop_; });
    if (stop_) break;

    // Reap exited workers (retired ones; the list never shrinks otherwise).
    // `exited` flips after the thread's last touch of pool state, so these
    // joins return promptly.
    for (auto it = workers_.begin(); it != workers_.end();) {
      if (it->exited.load(std::memory_order_acquire) && it->thread.joinable()) {
        it->thread.join();
        it = workers_.erase(it);
      } else {
        ++it;
      }
    }

    const std::size_t depth = candidates_.size() + jobs_.size();
    if (depth > 0) {
      idle_ticks = 0;
      // Work outlasted a whole tick with every worker busy: grow toward the
      // backlog, bounded by max_workers. Pending retirements are cancelled
      // first — un-asking an idle worker beats spawning a fresh thread.
      std::size_t want = std::min(max_workers_, alive_workers_ - retire_requests_ + depth);
      while (retire_requests_ > 0 && alive_workers_ - retire_requests_ < want)
        --retire_requests_;
      while (alive_workers_ < want) {
        spawn_worker();
        metrics_.pool_grows->inc();
        grow_events_.fetch_add(1, std::memory_order_acq_rel);
      }
    } else if (alive_workers_ - retire_requests_ > min_workers_ &&
               ++idle_ticks >= kIdleTicks) {
      idle_ticks = 0;
      ++retire_requests_;
      metrics_.pool_shrinks->inc();
      shrink_events_.fetch_add(1, std::memory_order_acq_rel);
      cv_.notify_all();
    }
  }
}

bool EvalService::run_one(std::unique_lock<std::mutex>& lock, bool jobs_too) {
  std::function<void()> task;
  if (!candidates_.empty()) {
    task = std::move(candidates_.front());
    candidates_.pop_front();
  } else if (!jobs_too || !jobs_.pop(task)) {
    return false;
  }
  metrics_.queue_depth->set(static_cast<std::int64_t>(candidates_.size() + jobs_.size()));
  lock.unlock();
  // Busy time accrues to whoever runs the task — worker or helping
  // submitter — so busy+idle over the workers tracks pool utilization.
  const std::uint64_t t0 = obs::enabled() ? obs::now_ns() : 0;
  task();
  if (t0 != 0) metrics_.worker_busy_ns->inc(obs::now_ns() - t0);
  lock.lock();
  return true;
}

void EvalService::worker_loop(WorkerSlot* slot) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    const std::uint64_t t0 = obs::enabled() ? obs::now_ns() : 0;
    cv_.wait(lock, [&] {
      return stop_ || retire_requests_ > 0 || !candidates_.empty() || !jobs_.empty();
    });
    if (t0 != 0) metrics_.worker_idle_ns->inc(obs::now_ns() - t0);
    if (!run_one(lock, /*jobs_too=*/true)) {
      if (stop_) break;
      // Retirement is taken only with both queues empty: a worker never
      // abandons queued work, so shrinking cannot delay a running job.
      if (retire_requests_ > 0) {
        --retire_requests_;
        break;
      }
    }
  }
  --alive_workers_;
  alive_count_.store(alive_workers_, std::memory_order_release);
  metrics_.workers->set(static_cast<std::int64_t>(alive_workers_));
  slot->exited.store(true, std::memory_order_release);
}

void EvalService::post(const SubmitOptions& options, std::function<void()> task) {
  const std::uint64_t t_enq = obs::enabled() ? obs::now_ns() : 0;
  std::function<void()> wrapped = [this, t_enq, task = std::move(task)] {
    if (t_enq != 0) metrics_.job_wait_ns->record(obs::now_ns() - t_enq);
    task();
  };
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    jobs_.push(options.tenant, options.weight, options.priority, std::move(wrapped));
    metrics_.jobs_submitted->inc();
    metrics_.queue_depth->set(static_cast<std::int64_t>(candidates_.size() + jobs_.size()));
  }
  cv_.notify_all();
}

std::size_t EvalService::queued_jobs() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return jobs_.size();
}

void EvalService::run(std::vector<std::function<void()>>& tasks) {
  if (tasks.empty()) return;
  if (tasks.size() == 1 || num_workers() == 0) {
    // Nothing to fan out — run inline (exceptions propagate directly).
    for (std::function<void()>& task : tasks) task();
    return;
  }

  auto batch = std::make_shared<Batch>();
  batch->remaining = tasks.size();
  const std::uint64_t t_enq = obs::enabled() ? obs::now_ns() : 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::function<void()>& fn : tasks) {
      candidates_.push_back([this, batch, t_enq, fn = std::move(fn)] {
        if (t_enq != 0) metrics_.candidate_wait_ns->record(obs::now_ns() - t_enq);
        try {
          fn();
        } catch (...) {
          const std::lock_guard<std::mutex> inner(mutex_);
          if (!batch->error) batch->error = std::current_exception();
        }
        {
          const std::lock_guard<std::mutex> inner(mutex_);
          --batch->remaining;
        }
        cv_.notify_all();
      });
    }
    metrics_.candidates_submitted->inc(tasks.size());
    metrics_.queue_depth->set(static_cast<std::int64_t>(candidates_.size() + jobs_.size()));
  }
  cv_.notify_all();

  // Help drain the candidate queue while waiting: a batch submitted from a
  // job running on the pool makes progress even when every worker is busy,
  // so nested submission cannot deadlock.
  std::unique_lock<std::mutex> lock(mutex_);
  while (batch->remaining > 0) {
    if (run_one(lock, /*jobs_too=*/false))
      metrics_.helping_steals->inc();
    else
      cv_.wait(lock, [&] { return batch->remaining == 0 || !candidates_.empty(); });
  }
  if (batch->error) std::rethrow_exception(batch->error);
}

}  // namespace hgp::serve
