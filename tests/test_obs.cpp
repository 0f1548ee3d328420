// The hgp::obs telemetry layer: histogram bucket semantics, sharded counter
// aggregation under contention, span nesting and ring-buffer overflow in the
// tracer, the disabled-mode near-no-op contract, exporter round-trips, and
// the torn-read-safe BlockCache stats that back the registry series. Every
// suite here is named Obs* so the sanitizer matrix can select the whole
// layer with one gtest filter.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstddef>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "backend/presets.hpp"
#include "common/rng.hpp"
#include "core/executor.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "serve/block_cache.hpp"

using namespace hgp;

namespace {

/// Save/restore the process-wide telemetry flag around a test body.
struct EnabledGuard {
  explicit EnabledGuard(bool on) : prev_(obs::enabled()) { obs::set_enabled(on); }
  ~EnabledGuard() { obs::set_enabled(prev_); }
  bool prev_;
};

/// Minimal structural JSON validator — enough to prove the exporter emits a
/// parseable document (balanced, correctly quoted, numbers where numbers
/// belong), without pulling in a JSON library.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string();
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) return number();
    return literal("true") || literal("false") || literal("null");
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') return ++pos_, true;
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') return ++pos_, true;
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') return ++pos_, true;
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') return ++pos_, true;
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    for (++pos_; pos_ < s_.size(); ++pos_) {
      if (s_[pos_] == '\\') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '"') return ++pos_, true;
    }
    return false;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() && (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                                s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }
  bool literal(const char* lit) {
    const std::string l(lit);
    if (s_.compare(pos_, l.size(), l) != 0) return false;
    pos_ += l.size();
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

TEST(ObsMetrics, HistogramBucketBoundariesAreLeInclusive) {
  obs::Histogram h({10, 100, 1000});
  // Boundary values land in their own bucket (Prometheus `le` semantics).
  for (std::uint64_t v : {std::uint64_t{5}, std::uint64_t{10}, std::uint64_t{11},
                          std::uint64_t{100}, std::uint64_t{101}, std::uint64_t{5000}})
    h.record_always(v);

  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum(), 5u + 10u + 11u + 100u + 101u + 5000u);
  const std::vector<std::uint64_t> buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(buckets[0], 2u);      // 5, 10 <= 10
  EXPECT_EQ(buckets[1], 2u);      // 11, 100 <= 100
  EXPECT_EQ(buckets[2], 1u);      // 101 <= 1000
  EXPECT_EQ(buckets[3], 1u);      // 5000 -> +Inf

  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.bucket_counts(), std::vector<std::uint64_t>(4, 0));
}

TEST(ObsMetrics, ShardedCounterAggregatesAcrossThreads) {
  const EnabledGuard on(true);
  obs::Counter c;
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t)
    workers.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
    });
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(c.value(), kThreads * kPerThread);
  c.inc(42);
  EXPECT_EQ(c.value(), kThreads * kPerThread + 42);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsMetrics, GaugeLastWriteWins) {
  const EnabledGuard on(true);
  obs::Gauge g;
  g.set(7);
  g.add(-3);
  EXPECT_EQ(g.value(), 4);
  g.set(-100);
  EXPECT_EQ(g.value(), -100);
}

TEST(ObsMetrics, RegistryReturnsSameInstanceForSameName) {
  obs::Registry reg;
  obs::Counter& a = reg.counter("x.hits");
  obs::Counter& b = reg.counter("x.hits");
  EXPECT_EQ(&a, &b);
  obs::Histogram& h1 = reg.histogram("x.lat", {1, 2, 3});
  obs::Histogram& h2 = reg.histogram("x.lat");  // bounds apply on first registration only
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds(), (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(ObsTrace, SpanParentChildNesting) {
  const EnabledGuard on(true);
  std::uint64_t outer_id = 0, inner_id = 0;
  {
    obs::Span outer("obs_test.outer");
    outer_id = outer.id();
    ASSERT_NE(outer_id, 0u);
    {
      obs::Span inner("obs_test.inner");
      inner_id = inner.id();
    }
    // After the child finishes, this thread's open span is the outer again:
    // a new sibling parents under outer, not under the finished inner.
    obs::Span sibling("obs_test.sibling");
    EXPECT_NE(sibling.id(), 0u);
  }

  const std::vector<obs::SpanRecord> records = obs::Tracer::global().snapshot();
  const obs::SpanRecord* outer_rec = nullptr;
  const obs::SpanRecord* inner_rec = nullptr;
  const obs::SpanRecord* sibling_rec = nullptr;
  for (const obs::SpanRecord& r : records) {
    const std::string name = r.name;
    if (name == "obs_test.outer" && r.id == outer_id) outer_rec = &r;
    if (name == "obs_test.inner" && r.id == inner_id) inner_rec = &r;
    if (name == "obs_test.sibling") sibling_rec = &r;
  }
  ASSERT_NE(outer_rec, nullptr);
  ASSERT_NE(inner_rec, nullptr);
  ASSERT_NE(sibling_rec, nullptr);
  EXPECT_EQ(inner_rec->parent, outer_id);
  EXPECT_EQ(sibling_rec->parent, outer_id);
  EXPECT_LE(outer_rec->start_ns, inner_rec->start_ns);
  EXPECT_LE(inner_rec->end_ns, outer_rec->end_ns);
}

TEST(ObsTrace, SpanFeedsLatencyHistogram) {
  const EnabledGuard on(true);
  obs::Histogram h(obs::default_latency_bounds_ns());
  { obs::Span s("obs_test.timed", &h); }
  EXPECT_EQ(h.count(), 1u);
}

TEST(ObsTrace, RingOverflowDropsOldest) {
  obs::Tracer ring(8);
  for (std::uint64_t i = 1; i <= 12; ++i) {
    obs::SpanRecord r;
    r.id = i;
    r.name = "obs_test.overflow";
    ring.record(r);
  }
  EXPECT_EQ(ring.total_recorded(), 12u);
  EXPECT_EQ(ring.dropped(), 4u);
  const std::vector<obs::SpanRecord> records = ring.snapshot();
  ASSERT_EQ(records.size(), 8u);
  // Oldest-first retention of the newest capacity records: ids 5..12.
  for (std::size_t i = 0; i < records.size(); ++i) EXPECT_EQ(records[i].id, i + 5);

  ring.clear();
  EXPECT_EQ(ring.total_recorded(), 0u);
  EXPECT_TRUE(ring.snapshot().empty());
}

TEST(ObsTrace, ConcurrentRecordAndSnapshotNeverTears) {
  obs::Tracer ring(16);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      obs::SpanRecord r;
      r.id = ++i;
      r.start_ns = i * 2;
      r.end_ns = i * 2 + 1;
      r.name = "obs_test.concurrent";
      ring.record(r);
    }
  });
  // Every surviving record must be internally consistent (end = start + 1):
  // a torn read would pair one record's start with another's end.
  for (int k = 0; k < 200; ++k) {
    for (const obs::SpanRecord& r : ring.snapshot()) {
      EXPECT_EQ(r.end_ns, r.start_ns + 1);
      EXPECT_EQ(r.start_ns, r.id * 2);
    }
  }
  stop.store(true);
  writer.join();
}

TEST(ObsGating, DisabledInstrumentsEmitNothing) {
  const EnabledGuard off(false);
  obs::Counter c;
  c.inc(1000);
  EXPECT_EQ(c.value(), 0u);

  obs::Gauge g;
  g.set(55);
  g.add(5);
  EXPECT_EQ(g.value(), 0);

  obs::Histogram h({10, 100});
  h.record(50);
  EXPECT_EQ(h.count(), 0u);

  const std::uint64_t before = obs::Tracer::global().total_recorded();
  {
    obs::Span s("obs_test.disabled");
    EXPECT_EQ(s.id(), 0u);
  }
  EXPECT_EQ(obs::Tracer::global().total_recorded(), before);
}

TEST(ObsGating, UngatedPathsStillCount) {
  const EnabledGuard off(false);
  obs::Counter c;
  c.add(3);  // always-on path (BlockCache per-instance stats use this)
  EXPECT_EQ(c.value(), 3u);
  obs::Histogram h({10});
  h.record_always(4);
  EXPECT_EQ(h.count(), 1u);
}

TEST(ObsExport, JsonSnapshotIsParseable) {
  const EnabledGuard on(true);
  obs::Registry reg;
  reg.counter("exec.shots").inc(123);
  reg.gauge("pool.depth").set(-4);
  obs::Histogram& h = reg.histogram("job.latency_ns", {1000, 1000000});
  h.record(500);
  h.record(2000000);

  const std::string json = reg.to_json();
  JsonChecker checker(json);
  EXPECT_TRUE(checker.valid()) << json;
  // Spot-check content, not just structure.
  EXPECT_NE(json.find("\"exec.shots\":123"), std::string::npos) << json;
  EXPECT_NE(json.find("\"pool.depth\":-4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"+Inf\""), std::string::npos) << json;

  const std::string prom = reg.to_prometheus();
  EXPECT_NE(prom.find("hgp_exec_shots 123"), std::string::npos) << prom;
  EXPECT_NE(prom.find("# TYPE hgp_job_latency_ns histogram"), std::string::npos) << prom;
  EXPECT_NE(prom.find("hgp_job_latency_ns_bucket{le=\"+Inf\"} 2"), std::string::npos) << prom;
  EXPECT_NE(prom.find("hgp_job_latency_ns_count 2"), std::string::npos) << prom;
}

TEST(ObsExport, ResetZeroesValuesButKeepsAddresses) {
  const EnabledGuard on(true);
  obs::Registry reg;
  obs::Counter& c = reg.counter("a.b");
  c.inc(9);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(&reg.counter("a.b"), &c);
}

TEST(ObsBlockCacheStats, ConcurrentStatsReadsAreTornFree) {
  serve::BlockCache cache(64);
  core::CompiledBlock block;
  constexpr int kWorkers = 4;
  constexpr std::uint64_t kLookupsPerWorker = 20000;
  std::atomic<int> done{0};

  // Hammer find()/insert() from workers while a poller reads stats() — under
  // TSan this proves the snapshot is race-free; the invariant checks prove
  // the counters never tear (hits+misses can only grow).
  std::vector<std::thread> workers;
  for (int t = 0; t < kWorkers; ++t)
    workers.emplace_back([&cache, &block, &done, t] {
      for (std::uint64_t i = 0; i < kLookupsPerWorker; ++i) {
        const std::string key = "k" + std::to_string(t) + "_" + std::to_string(i % 128);
        if (cache.find(key) == nullptr) cache.insert(key, block);
      }
      done.fetch_add(1, std::memory_order_release);
    });

  std::uint64_t last_lookups = 0;
  while (done.load(std::memory_order_acquire) < kWorkers) {
    const serve::BlockCache::Stats s = cache.stats();
    const std::uint64_t lookups = s.hits + s.misses;
    EXPECT_GE(lookups, last_lookups);
    EXPECT_LE(s.size, 64u);
    last_lookups = lookups;
  }
  for (std::thread& w : workers) w.join();

  const serve::BlockCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, kWorkers * kLookupsPerWorker);
}

TEST(ObsExecutor, CountsBitIdenticalTelemetryOnVsOff) {
  const backend::FakeBackend dev = backend::make_toronto();
  core::Program prog;
  prog.ops.push_back(core::ExecOp::from_gate(qc::Op{qc::GateKind::SX, {0}, {}}));
  prog.ops.push_back(core::ExecOp::from_gate(qc::Op{qc::GateKind::CX, {0, 1}, {}}));
  prog.measure_qubits = {0, 1};

  sim::Counts off_counts, on_counts;
  {
    const EnabledGuard off(false);
    core::Executor ex(dev, core::ExecutorOptions{});
    Rng rng(17);
    off_counts = ex.run(prog, 256, rng);
  }
  {
    const EnabledGuard on(true);
    core::Executor ex(dev, core::ExecutorOptions{});
    Rng rng(17);
    on_counts = ex.run(prog, 256, rng);
  }
  EXPECT_EQ(off_counts, on_counts);

  // And the instrumented run actually reported: the process-wide executor
  // series saw those shots go by.
  EXPECT_GE(obs::Registry::global().counter("executor.shots").value(), 256u);
}

TEST(ObsExecutor, ExactDensityEvaluationRecordsOneDensitySample) {
  // Every exact evaluation opens one executor.density span: a run() and a
  // run_expectation() on the density engine each add one sample to
  // executor.density_ns, and telemetry leaves both results bit-identical.
  const backend::FakeBackend dev = backend::make_toronto();
  core::Program prog;
  prog.ops.push_back(core::ExecOp::from_gate(qc::Op{qc::GateKind::SX, {0}, {}}));
  prog.ops.push_back(core::ExecOp::from_gate(qc::Op{qc::GateKind::CX, {0, 1}, {}}));
  prog.measure_qubits = {0, 1};
  core::ExecutorOptions opts;
  opts.engine = core::Engine::ExactDensity;
  core::ObjectiveSpec spec;
  spec.value = [](std::uint64_t bits) { return static_cast<double>(bits); };

  obs::Histogram& density = obs::Registry::global().histogram("executor.density_ns");
  sim::Counts counts[2];
  double values[2];
  for (const bool on : {false, true}) {
    const EnabledGuard guard(on);
    core::Executor ex(dev, opts);
    Rng rng(17);
    const std::uint64_t before = density.count();
    counts[on] = ex.run(prog, 256, rng);
    EXPECT_EQ(density.count() - before, on ? 1u : 0u);
    values[on] = ex.run_expectation(prog, 256, rng, spec);
    EXPECT_EQ(density.count() - before, on ? 2u : 0u);
  }
  EXPECT_EQ(counts[0], counts[1]);
  EXPECT_EQ(values[0], values[1]);
}

TEST(ObsExecutor, LaneGroupSeriesCountTheGroupsWalked) {
  // 600 shots on the fixed 256-shot batch grid are batches of 256, 256 and
  // 88 shots, and each batch walks ceil(batch / lanes) lane groups: 600 at
  // one lane, 37 + 37 + 13 at 7, 16 + 16 + 6 at 16. The counter moves by
  // exactly that, and the throughput gauges are both taken over one clock,
  // so groups/s : shots/s is that count : 600 up to their integer rounding.
  const backend::FakeBackend dev = backend::make_toronto();
  core::Program prog;
  prog.ops.push_back(core::ExecOp::from_gate(qc::Op{qc::GateKind::SX, {0}, {}}));
  prog.ops.push_back(core::ExecOp::from_gate(qc::Op{qc::GateKind::CX, {0, 1}, {}}));
  prog.measure_qubits = {0, 1};
  const std::int64_t shots = 600;

  const EnabledGuard on(true);
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& groups = reg.counter("executor.lane_groups");
  obs::Gauge& groups_per_s = reg.gauge("executor.lane_groups_per_s");
  obs::Gauge& shots_per_s = reg.gauge("executor.trajectory_shots_per_s");
  for (const auto& [lanes, walked] :
       {std::pair<std::size_t, std::int64_t>{1, 600}, {7, 87}, {16, 38}}) {
    core::ExecutorOptions opts;
    opts.shot_batch_lanes = lanes;
    opts.num_threads = 2;
    core::Executor ex(dev, opts);
    Rng rng(5);
    groups_per_s.set(0);
    shots_per_s.set(0);
    const std::uint64_t before = groups.value();
    ex.run(prog, static_cast<std::size_t>(shots), rng);
    EXPECT_EQ(groups.value() - before, static_cast<std::uint64_t>(walked)) << "lanes=" << lanes;
    const std::int64_t gps = groups_per_s.value(), sps = shots_per_s.value();
    EXPECT_GT(gps, 0) << "lanes=" << lanes;
    EXPECT_LE(std::abs(gps * shots - sps * walked), shots + walked) << "lanes=" << lanes;
  }
}
