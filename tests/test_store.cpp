// The persistent compiled-block store: round-trip bit-exactness, per-record
// validation (truncated / corrupted / wrong-version / wrong-fingerprint files
// degrade to cold compilation without crashing), executor warm-start across
// cache instances (the cross-process story), write-through from concurrent
// sweep workers, and the store-load stats counters.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "backend/presets.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/executor.hpp"
#include "core/workflow.hpp"
#include "graph/instances.hpp"
#include "serve/block_cache.hpp"
#include "serve/block_store.hpp"
#include "serve/job.hpp"
#include "serve/job_service.hpp"

using namespace hgp;
using core::CompiledBlock;
using core::ExecOp;
using core::Executor;
using core::ExecutorOptions;
using core::Program;
using serve::BlockCache;
using serve::BlockKind;
using serve::BlockStore;

namespace {

const backend::FakeBackend& toronto() {
  static const backend::FakeBackend dev = backend::make_toronto();
  return dev;
}

/// Fresh per-test store path under gtest's temp dir.
std::string store_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "hgp_store_" + name + ".bin";
  std::remove(path.c_str());
  return path;
}

/// A hybrid-layer-style program: cacheable gate blocks (SX, CX, RZZ) plus a
/// trainable pulse-mixer block, so a store round trip covers both kinds.
Program hybrid_program(double amp) {
  pulse::Schedule s("mixer");
  const pulse::Channel d = pulse::Channel::drive(0);
  s.append(pulse::ShiftPhase{0.3, d});
  s.append(pulse::Play{pulse::PulseShape::gaussian(64, amp, 16.0), d});
  s.append(pulse::ShiftPhase{-0.3, d});
  Program prog;
  prog.ops.push_back(ExecOp::from_gate(qc::Op{qc::GateKind::SX, {0}, {}}));
  prog.ops.push_back(ExecOp::from_gate(qc::Op{qc::GateKind::CX, {0, 1}, {}}));
  prog.ops.push_back(
      ExecOp::from_gate(qc::Op{qc::GateKind::RZZ, {0, 1}, {qc::Param::constant(0.7)}}));
  prog.ops.push_back(ExecOp::from_pulse({0}, s));
  prog.measure_qubits = {0, 1};
  return prog;
}

/// Synthetic block with exactly representable entries (value equality in
/// round-trip checks is then a bit-pattern statement).
CompiledBlock make_block(double seed, std::size_t dim) {
  CompiledBlock b;
  b.unitary = la::CMat(dim, dim);
  for (std::size_t r = 0; r < dim; ++r)
    for (std::size_t c = 0; c < dim; ++c)
      b.unitary(r, c) = la::cxd{seed + 0.25 * static_cast<double>(r),
                                -0.5 * static_cast<double>(c)};
  b.qubits = {1, 3};
  b.duration_dt = 176;
  b.drive_plays = 2;
  b.cr_halves = 1;
  b.virtual_only = false;
  b.explicit_idle = (dim == 2);
  return b;
}

void expect_block_eq(const CompiledBlock& a, const CompiledBlock& b) {
  EXPECT_EQ(a.qubits, b.qubits);
  EXPECT_EQ(a.duration_dt, b.duration_dt);
  EXPECT_EQ(a.drive_plays, b.drive_plays);
  EXPECT_EQ(a.cr_halves, b.cr_halves);
  EXPECT_EQ(a.virtual_only, b.virtual_only);
  EXPECT_EQ(a.explicit_idle, b.explicit_idle);
  ASSERT_EQ(a.unitary.rows(), b.unitary.rows());
  ASSERT_EQ(a.unitary.cols(), b.unitary.cols());
  // Bit-exact round trip, not approximate: the cross-process bit-identical
  // guarantee needs the very same IEEE-754 patterns back.
  EXPECT_EQ(a.unitary.data(), b.unitary.data());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

core::RunConfig tiny_config() {
  core::RunConfig cfg;
  cfg.shots = 64;
  cfg.max_evaluations = 6;
  cfg.executor_threads = 1;
  return cfg;
}

}  // namespace

TEST(BlockStore, SaveLoadRoundTripIsBitExact) {
  const std::string path = store_path("roundtrip");
  BlockCache cache(64);
  cache.insert("gate/a", make_block(0.125, 4), BlockKind::Gate);
  cache.insert("pulse/b", make_block(-2.0, 2), BlockKind::Pulse);
  EXPECT_EQ(cache.save(path, 0xABCDu), 2u);

  BlockCache loaded(64);
  const BlockCache::StoreReport report = loaded.load(path, 0xABCDu);
  EXPECT_TRUE(report.header_ok);
  EXPECT_TRUE(report.fingerprint_ok);
  EXPECT_EQ(report.loaded, 2u);
  EXPECT_EQ(report.skipped, 0u);

  const auto a = loaded.find("gate/a", BlockKind::Gate);
  const auto b = loaded.find("pulse/b", BlockKind::Pulse);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  expect_block_eq(*a, make_block(0.125, 4));
  expect_block_eq(*b, make_block(-2.0, 2));
}

TEST(BlockStore, FingerprintMismatchLoadsNothing) {
  const std::string path = store_path("fingerprint");
  BlockCache cache(64);
  cache.insert("k", make_block(1.0, 2));
  cache.save(path, 0x1111u);

  BlockCache other(64);
  const BlockCache::StoreReport report = other.load(path, 0x2222u);
  EXPECT_TRUE(report.header_ok);
  EXPECT_FALSE(report.fingerprint_ok);
  EXPECT_EQ(report.loaded, 0u);
  EXPECT_EQ(other.stats().size, 0u);
}

TEST(BlockStore, WrongVersionOrMagicLoadsNothing) {
  const std::string path = store_path("version");
  BlockCache cache(64);
  cache.insert("k", make_block(1.0, 2));
  cache.save(path, 7u);

  std::string bytes = read_file(path);
  ASSERT_GT(bytes.size(), 16u);
  bytes[4] ^= 0x01;  // bump the format version field
  write_file(path, bytes);
  BlockCache v(64);
  const BlockCache::StoreReport version_report = v.load(path, 7u);
  EXPECT_FALSE(version_report.header_ok);
  EXPECT_EQ(version_report.loaded, 0u);

  bytes[4] ^= 0x01;
  bytes[0] ^= 0xFF;  // now corrupt the magic instead
  write_file(path, bytes);
  BlockCache m(64);
  EXPECT_FALSE(m.load(path, 7u).header_ok);
  EXPECT_EQ(m.stats().size, 0u);
}

TEST(BlockStore, TruncatedFileLoadsValidPrefixOnly) {
  const std::string path = store_path("truncated");
  BlockCache cache(64);
  cache.insert("a", make_block(1.0, 2));
  cache.insert("b", make_block(2.0, 2));
  cache.insert("c", make_block(3.0, 2));
  cache.save(path, 5u);
  const std::string full = read_file(path);

  // Every cut length must load a prefix without crashing, never more than
  // the records fully present, and the whole file loads all three.
  for (const double fraction : {0.1, 0.4, 0.7, 0.95}) {
    const std::size_t cut = static_cast<std::size_t>(full.size() * fraction);
    write_file(path, full.substr(0, cut));
    BlockCache partial(64);
    const BlockCache::StoreReport report = partial.load(path, 5u);
    EXPECT_LE(report.loaded, 3u);
    EXPECT_EQ(report.loaded, partial.stats().size);
  }
  write_file(path, full);
  BlockCache whole(64);
  EXPECT_EQ(whole.load(path, 5u).loaded, 3u);
}

TEST(BlockStore, CorruptedRecordIsSkippedOthersLoad) {
  const std::string path = store_path("corrupt");
  BlockCache cache(64);
  cache.insert("a", make_block(1.0, 2));
  cache.insert("b", make_block(2.0, 2));
  cache.insert("c", make_block(3.0, 2));
  cache.save(path, 5u);

  std::string bytes = read_file(path);
  bytes[bytes.size() / 2] ^= 0xFF;  // bit rot inside the middle record
  write_file(path, bytes);

  BlockCache loaded(64);
  const BlockCache::StoreReport report = loaded.load(path, 5u);
  EXPECT_EQ(report.loaded + report.skipped, 3u);
  EXPECT_GE(report.skipped, 1u);
  EXPECT_LE(report.skipped, 2u);  // framing survives a body flip
  EXPECT_EQ(loaded.stats().size, report.loaded);
}

TEST(BlockStore, FusedRecordFromOlderBuildIsSkipped) {
  // Older builds also cached fused blocks, as kind-2 records of the same v2
  // format. Kind 2 is unknown now: such a record is skipped like any
  // malformed one, and the gate and pulse records around it still load.
  const std::string path = store_path("fused_kind");
  BlockCache cache(64);
  cache.insert("gate/a", make_block(0.5, 4), BlockKind::Gate);
  cache.insert("pulse/b", make_block(1.5, 2), BlockKind::Pulse);
  cache.insert("fuse[a;b]", make_block(2.5, 4), BlockKind::Gate);
  ASSERT_EQ(cache.save(path, 9u), 3u);

  // Re-tag the last record (saved oldest first) as kind 2 and re-checksum
  // it, exactly as an older build wrote a fused block.
  std::string bytes = read_file(path);
  std::size_t pos = 16, last = 0;
  std::uint32_t len = 0;
  while (pos < bytes.size()) {
    last = pos;
    std::memcpy(&len, &bytes[pos], sizeof len);
    pos += 12 + len;
  }
  ASSERT_EQ(pos, bytes.size());
  std::string body = bytes.substr(last + 12, len);
  ASSERT_EQ(body[0], 0);  // written as a gate record
  body[0] = 2;
  const std::uint64_t checksum = io::fnv1a(body);
  std::memcpy(&bytes[last + 4], &checksum, sizeof checksum);
  bytes.replace(last + 12, len, body);
  write_file(path, bytes);

  BlockCache loaded(64);
  const BlockCache::StoreReport report = loaded.load(path, 9u);
  EXPECT_TRUE(report.header_ok);
  EXPECT_EQ(report.loaded, 2u);
  EXPECT_EQ(report.skipped, 1u);
  EXPECT_NE(loaded.find("gate/a", BlockKind::Gate), nullptr);
  EXPECT_NE(loaded.find("pulse/b", BlockKind::Pulse), nullptr);
  EXPECT_EQ(loaded.find("fuse[a;b]"), nullptr);
}

TEST(BlockStore, MissingFileDegradesToCold) {
  BlockCache cache(64);
  const BlockCache::StoreReport report =
      cache.load(store_path("missing"), 1u);
  EXPECT_FALSE(report.header_ok);
  EXPECT_EQ(report.loaded, 0u);
}

TEST(BlockStore, ExecutorWarmStartCompilesZeroBlocks) {
  // "Process" 1: cold-compile a hybrid layer with write-through persistence.
  const std::string path = store_path("warmstart");
  const Program prog = hybrid_program(0.2);
  {
    ExecutorOptions opts;
    opts.block_store_path = path;
    opts.num_threads = 1;
    Executor writer(toronto(), opts);
    Rng rng(3);
    writer.run(prog, 32, rng);
    EXPECT_GT(writer.cache_stats().misses, 0u);
    EXPECT_EQ(writer.cache_stats().store_hits, 0u);
  }

  // "Process" 2: a fresh cache warm-starts from the store — zero pulse (and
  // gate) compilations for the same calibration, counts bit-identical.
  ExecutorOptions opts;
  opts.block_store_path = path;
  opts.num_threads = 1;
  Executor warm(toronto(), opts);
  Rng warm_rng(3);
  const sim::Counts warm_counts = warm.run(prog, 512, warm_rng);
  const BlockCache::Stats stats = warm.cache_stats();
  EXPECT_EQ(stats.misses, 0u);  // nothing compiled in-process
  EXPECT_EQ(stats.pulse_misses, 0u);
  EXPECT_GT(stats.store_loaded, 0u);
  EXPECT_EQ(stats.store_hits, stats.hits);
  EXPECT_GE(stats.store_hit_rate(), 0.95);

  ExecutorOptions cold_opts;
  cold_opts.num_threads = 1;
  Executor cold(toronto(), cold_opts);
  Rng cold_rng(3);
  EXPECT_EQ(warm_counts, cold.run(prog, 512, cold_rng));
}

TEST(BlockStore, RecalibratedBackendTakesOverStoreNonDestructively) {
  const std::string path = store_path("recal");
  {
    ExecutorOptions opts;
    opts.block_store_path = path;
    opts.num_threads = 1;
    Executor writer(toronto(), opts);
    Rng rng(3);
    writer.run(hybrid_program(0.2), 32, rng);
  }
  BlockCache probe(256);
  const std::size_t written = probe.load(path, toronto().fingerprint()).loaded;
  ASSERT_GT(written, 0u);

  // A drifted device has a different fingerprint: it must not replay the
  // old blocks, and its write-through takes the header over while keeping
  // the existing records on disk (record ownership is per key, so each
  // calibration keeps loading exactly its own blocks).
  backend::FakeBackend drifted = backend::make_toronto();
  drifted.mutable_noise_model().qubits[0].freq_drift_ghz += 1e-4;
  ASSERT_NE(drifted.fingerprint(), toronto().fingerprint());
  ExecutorOptions opts;
  opts.block_store_path = path;
  opts.num_threads = 1;
  Executor ex(drifted, opts);
  Rng rng(3);
  ex.run(hybrid_program(0.2), 32, rng);
  const BlockCache::Stats stats = ex.cache_stats();
  EXPECT_EQ(stats.store_loaded, 0u);  // nothing of the old device loaded
  EXPECT_GT(stats.misses, 0u);        // it compiled cold

  // The store header now belongs to the drifted calibration, but record
  // ownership is per key: the drifted device loads its own blocks, and the
  // original calibration still loads every block it wrote — the takeover
  // destroyed nothing and hid nothing.
  BlockCache drifted_cache(256);
  const BlockCache::StoreReport drifted_report =
      drifted_cache.load(path, drifted.fingerprint());
  EXPECT_TRUE(drifted_report.fingerprint_ok);
  // Ownership is per record: the drifted device loads exactly its own
  // blocks; the old device's records are skipped, not merged.
  EXPECT_GT(drifted_report.loaded, 0u);
  EXPECT_GE(drifted_report.skipped, written);
  BlockCache old_cache(256);
  const BlockCache::StoreReport old_report =
      old_cache.load(path, toronto().fingerprint());
  EXPECT_FALSE(old_report.fingerprint_ok);  // header no longer ours...
  EXPECT_EQ(old_report.loaded, written);    // ...but our records still load
}

TEST(BlockStore, EvictedThenRecompiledKeysDoNotGrowTheFile) {
  // Write-through dedups on the key, not on cache residency: a block the
  // LRU evicted and a later compile re-inserted must not append a duplicate
  // record per round trip.
  const std::string path = store_path("dedup");
  BlockCache cache(1);  // capacity 1: every other insert evicts
  cache.attach_store(path, 7u);
  cache.insert("a", make_block(1.0, 2));
  cache.insert("b", make_block(2.0, 2));  // evicts a
  const std::size_t size_after_two = read_file(path).size();
  cache.insert("a", make_block(1.0, 2));  // recompiled after eviction
  cache.insert("b", make_block(2.0, 2));
  EXPECT_EQ(read_file(path).size(), size_after_two);

  BlockCache loaded(64);
  const BlockCache::StoreReport report = loaded.load(path, 7u);
  EXPECT_EQ(report.loaded, 2u);
  EXPECT_EQ(report.skipped, 0u);
}

TEST(BlockStore, TornTailIsTruncatedSoLaterAppendsStayReadable) {
  // A writer killed mid-append leaves a half record at the end of the file.
  // The next attach must truncate it away — otherwise every record appended
  // after the tear would be framed behind garbage and unreadable.
  const std::string path = store_path("torntail");
  {
    ExecutorOptions opts;
    opts.block_store_path = path;
    opts.num_threads = 1;
    Executor writer(toronto(), opts);
    Rng rng(3);
    writer.run(hybrid_program(0.2), 32, rng);
  }
  BlockCache probe(256);
  const std::size_t written = probe.load(path, toronto().fingerprint()).loaded;
  std::string bytes = read_file(path);
  write_file(path, bytes + std::string(7, '\x7f'));  // torn half-record

  // Second process: warm-starts from the intact prefix and appends a block
  // the first run never compiled (a new mixer amplitude).
  ExecutorOptions opts;
  opts.block_store_path = path;
  opts.num_threads = 1;
  Executor ex(toronto(), opts);
  Rng rng(3);
  ex.run(hybrid_program(0.9), 32, rng);
  EXPECT_EQ(ex.cache_stats().store_loaded, written);

  // Third process: every record — old and post-tear — loads cleanly.
  BlockCache final_cache(256);
  const BlockCache::StoreReport report = final_cache.load(path, toronto().fingerprint());
  EXPECT_EQ(report.skipped, 0u);
  EXPECT_GT(report.loaded, written);
}

TEST(BlockStore, GarbageFileIsResetNotFatal) {
  const std::string path = store_path("garbage");
  write_file(path, "this is not a block store at all");
  ExecutorOptions opts;
  opts.block_store_path = path;
  opts.num_threads = 1;
  Executor ex(toronto(), opts);
  Rng rng(3);
  ex.run(hybrid_program(0.2), 32, rng);  // compiles cold, no crash

  BlockCache loaded(64);
  const BlockCache::StoreReport report = loaded.load(path, toronto().fingerprint());
  EXPECT_TRUE(report.header_ok);  // write-through rewrote a valid store
  EXPECT_GT(report.loaded, 0u);
}

TEST(BlockStore, StatsSeparateDiskWarmedFromInProcessHits) {
  const std::string path = store_path("stats");
  const Program prog = hybrid_program(0.4);
  {
    ExecutorOptions opts;
    opts.block_store_path = path;
    opts.num_threads = 1;
    Executor writer(toronto(), opts);
    Rng rng(3);
    writer.run(prog, 32, rng);
    // Write-through process: repeated blocks hit in memory, not from disk.
    writer.run(prog, 32, rng);
    const BlockCache::Stats s = writer.cache_stats();
    EXPECT_GT(s.hits, 0u);
    EXPECT_EQ(s.store_hits, 0u);
    EXPECT_EQ(s.store_misses, s.misses);
  }
  // No store anywhere: the counters stay zero.
  ExecutorOptions plain;
  plain.num_threads = 1;
  Executor cold(toronto(), plain);
  Rng rng(3);
  cold.run(prog, 32, rng);
  cold.run(prog, 32, rng);
  const BlockCache::Stats s = cold.cache_stats();
  EXPECT_EQ(s.store_hits, 0u);
  EXPECT_EQ(s.store_misses, 0u);
  EXPECT_EQ(s.store_loaded, 0u);
}

TEST(BlockStore, ConcurrentSweepWriteThroughProducesLoadableStore) {
  // Several workers write through one attached store while training
  // concurrently; the resulting file must be a valid store that warm-starts
  // a later sweep to bit-identical results.
  const std::string path = store_path("sweep");
  const graph::Instance inst = graph::paper_task1();
  std::vector<serve::JobRequest> jobs;
  for (const char* optimizer : {"cobyla", "spsa", "neldermead"}) {
    serve::JobRequest request{{std::string("job/") + optimizer, inst, &toronto(),
                               core::ModelKind::Hybrid, tiny_config()}};
    request.run.config.optimizer = optimizer;
    jobs.push_back(std::move(request));
  }

  serve::JobService::Options opts;
  opts.num_workers = 4;
  opts.block_store_path = path;
  const auto run_all = [&](serve::JobService& svc) {
    std::vector<serve::JobHandle> handles;
    for (const serve::JobRequest& request : jobs) handles.push_back(svc.submit(request));
    std::vector<core::RunResult> results;
    for (const serve::JobHandle& handle : handles) {
      const serve::JobOutcome outcome = handle.outcome.get();
      EXPECT_EQ(outcome.state, serve::JobState::Completed) << outcome.error.message;
      results.push_back(outcome.result);
    }
    return results;
  };
  std::vector<core::RunResult> first;
  {
    serve::JobService svc(opts);
    first = run_all(svc);
    EXPECT_EQ(svc.service().block_store_path(), path);
    EXPECT_GT(svc.cache_stats().misses, 0u);
  }

  // Second "process": same sweep, fresh service, warm from disk.
  serve::JobService warm_svc(opts);
  const std::vector<core::RunResult> second = run_all(warm_svc);
  const BlockCache::Stats stats = warm_svc.cache_stats();
  EXPECT_GT(stats.store_loaded, 0u);
  EXPECT_GT(stats.store_hits, 0u);
  EXPECT_GE(stats.store_hit_rate(), 0.95);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].ar, second[i].ar);
    EXPECT_EQ(first[i].final_cost, second[i].final_cost);
    EXPECT_EQ(first[i].optimizer.x, second[i].optimizer.x);
    EXPECT_EQ(first[i].optimizer.history, second[i].optimizer.history);
  }
}

TEST(BlockStore, BlocksCompiledBeforeAttachArePersistedOnAttach) {
  // A shared cache can hold blocks compiled before any store was attached
  // (another tenant's run started first, without persistence). Attaching
  // replays that backlog into the file, so nothing already paid for is
  // missing from the next process's warm start.
  const std::string path = store_path("backlog");
  BlockCache cache(64);
  cache.insert("early", make_block(1.0, 2));  // compiled pre-attach
  cache.attach_store(path, 7u);
  BlockCache loaded(64);
  EXPECT_EQ(loaded.load(path, 7u).loaded, 1u);
  EXPECT_NE(loaded.find("early"), nullptr);
}

TEST(BlockStore, MultiBackendSharedCachePersistsEachCalibrationsBlocks) {
  // Two backends share one cache and one store (a mixed sweep). Records are
  // stamped with the fingerprint of the backend that compiled them — not
  // whoever attached first — so each calibration later warm-starts with
  // exactly its own blocks, deterministically.
  const std::string path = store_path("multibackend");
  backend::FakeBackend drifted = backend::make_toronto();
  drifted.mutable_noise_model().qubits[0].freq_drift_ghz += 1e-4;
  {
    auto cache = std::make_shared<BlockCache>(512);
    ExecutorOptions opts;
    opts.block_cache = cache;
    opts.block_store_path = path;
    opts.num_threads = 1;
    Executor a(toronto(), opts);  // attaches; header carries toronto
    Executor b(drifted, opts);    // re-attach is a no-op
    Rng ra(3), rb(3);
    a.run(hybrid_program(0.2), 32, ra);
    b.run(hybrid_program(0.2), 32, rb);
  }
  // Fresh "processes": each backend compiles nothing on its warm start.
  for (const backend::FakeBackend* dev :
       {&toronto(), static_cast<const backend::FakeBackend*>(&drifted)}) {
    ExecutorOptions opts;
    opts.block_store_path = path;
    opts.num_threads = 1;
    Executor warm(*dev, opts);
    Rng rng(3);
    warm.run(hybrid_program(0.2), 32, rng);
    EXPECT_EQ(warm.cache_stats().misses, 0u);
    EXPECT_GT(warm.cache_stats().store_loaded, 0u);
  }
}

TEST(BlockStore, StaleAttacherDoesNotTruncateFreshAppends) {
  // Attacher A truncates a torn tail and appends record X. Attacher B, whose
  // load pass ran before A's append (stale valid_bytes), must re-validate
  // the tail and keep X instead of chopping the file back to its own offset.
  const std::string path = store_path("staletrunc");
  const std::uint64_t fp = 9u;
  BlockCache writer(64);
  writer.attach_store(path, fp);
  writer.insert("a", make_block(1.0, 2));
  write_file(path, read_file(path) + std::string(5, '\x55'));  // torn tail

  const BlockStore::LoadReport before =
      BlockStore::load_file(path, fp, [](const std::string&, BlockKind,
                                         std::uint64_t, core::CompiledBlock) {});
  // A: truncates the tear, appends X.
  BlockStore a(path, fp, BlockStore::Mode::Append, before.valid_bytes);
  a.append("x", BlockKind::Gate, make_block(4.0, 2));
  // B: constructed with the now-stale offset.
  BlockStore b(path, fp, BlockStore::Mode::Append, before.valid_bytes);

  BlockCache check(64);
  const BlockCache::StoreReport report = check.load(path, fp);
  EXPECT_EQ(report.loaded, 2u);  // "a" and the post-tear "x" both survive
  EXPECT_EQ(report.skipped, 0u);
  EXPECT_NE(check.find("x"), nullptr);
}

TEST(BlockStore, SaveOntoAttachedStorePathIsRejected) {
  // Renaming a snapshot over the live appender's inode would silently send
  // every later write-through append into an unlinked file.
  const std::string path = store_path("saveclash");
  BlockCache cache(64);
  cache.attach_store(path, 3u);
  cache.insert("k", make_block(1.0, 2));
  EXPECT_THROW(cache.save(path, 3u), Error);
  EXPECT_GT(cache.save(store_path("saveclash_other"), 3u), 0u);  // elsewhere ok
}

TEST(BlockStore, AttachIsFirstWinsAndIdempotent) {
  const std::string path = store_path("attach");
  auto cache = std::make_shared<BlockCache>(64);
  const std::uint64_t fp = toronto().fingerprint();
  BlockCache::StoreReport first = cache->attach_store(path, fp);
  EXPECT_TRUE(first.attached);
  EXPECT_EQ(cache->store_path(), path);
  // Re-attach (another executor of the same sweep): cheap no-op.
  BlockCache::StoreReport again = cache->attach_store(path, fp);
  EXPECT_TRUE(again.attached);
  EXPECT_EQ(again.loaded, 0u);
  // A different path does not replace the attached store.
  cache->attach_store(store_path("attach_other"), fp);
  EXPECT_EQ(cache->store_path(), path);
}

TEST(BlockStore, CompactionDropsEvictedRecordsAndRoundTripsResidents) {
  // Append-only write-through never reclaims records the LRU has evicted:
  // across many runs the file accretes dead entries. compact_store() rewrites
  // it down to the cache's residents — which must come back bit-exact — and
  // the file must actually shrink.
  const std::string path = store_path("compact");
  BlockCache cache(2);  // capacity 2: inserts 3..6 evict 1..4
  cache.attach_store(path, 7u);
  for (int i = 0; i < 6; ++i)
    cache.insert("k" + std::to_string(i), make_block(0.5 * i, 2));
  const std::size_t grown = read_file(path).size();
  {
    BlockCache full(64);
    EXPECT_EQ(full.load(path, 7u).loaded, 6u);  // all six records on disk
  }

  EXPECT_EQ(cache.compact_store(), 2u);
  EXPECT_LT(read_file(path).size(), grown);

  BlockCache loaded(64);
  const BlockCache::StoreReport report = loaded.load(path, 7u);
  EXPECT_TRUE(report.header_ok);
  EXPECT_EQ(report.loaded, 2u);
  EXPECT_EQ(report.skipped, 0u);
  for (int i = 4; i < 6; ++i) {
    const auto b = loaded.find("k" + std::to_string(i));
    ASSERT_NE(b, nullptr) << i;
    expect_block_eq(*b, make_block(0.5 * i, 2));
  }
  EXPECT_EQ(loaded.find("k0"), nullptr);

  // The appender stays live on the same inode: post-compaction compiles keep
  // persisting, including re-compiles of keys the compaction dropped.
  cache.insert("k0", make_block(0.0, 2));
  BlockCache again(64);
  EXPECT_EQ(again.load(path, 7u).loaded, 3u);
  ASSERT_NE(again.find("k0"), nullptr);
}

TEST(BlockStore, CompactionKeepsOtherCalibrationsRecords) {
  // Records another backend fingerprint owns cannot be judged live or dead
  // from this cache — compaction must carry them through verbatim.
  const std::string path = store_path("compact_foreign");
  {
    BlockCache old_cal(64);
    old_cal.attach_store(path, 1u);
    old_cal.insert("old_a", make_block(1.0, 2), BlockKind::Gate, 1u);
    old_cal.insert("old_b", make_block(2.0, 4), BlockKind::Pulse, 1u);
  }
  BlockCache new_cal(1);  // capacity 1 so the first new insert gets evicted
  new_cal.attach_store(path, 2u);  // takeover: old records stay on disk
  new_cal.insert("new_a", make_block(3.0, 2), BlockKind::Gate, 2u);
  new_cal.insert("new_b", make_block(4.0, 2), BlockKind::Gate, 2u);
  EXPECT_EQ(new_cal.compact_store(), 3u);  // 2 foreign + 1 resident

  BlockCache as_old(64);
  EXPECT_EQ(as_old.load(path, 1u).loaded, 2u);
  const auto a = as_old.find("old_a", BlockKind::Gate);
  ASSERT_NE(a, nullptr);
  expect_block_eq(*a, make_block(1.0, 2));

  BlockCache as_new(64);
  EXPECT_EQ(as_new.load(path, 2u).loaded, 1u);
  EXPECT_EQ(as_new.find("new_a"), nullptr);  // evicted, hence compacted away
  ASSERT_NE(as_new.find("new_b"), nullptr);
}

TEST(BlockStore, CompactionWithoutStoreIsANoOp) {
  BlockCache cache(8);
  cache.insert("a", make_block(1.0, 2));
  EXPECT_EQ(cache.compact_store(), 0u);
}
