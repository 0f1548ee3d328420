#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/compiled_block.hpp"
#include "obs/metrics.hpp"
#include "serve/block_kind.hpp"

namespace hgp::serve {

/// Thread-safe, LRU-bounded map from structure keys to compiled blocks.
///
/// The key encodes everything a block's unitary depends on. Calibration
/// identity comes from the prefix: the backend fingerprint (every
/// calibration and coherent-noise field the schedules and the pulse
/// simulator read) plus the compile options. The suffix names the block:
/// gate kind, physical qubits and exact (hexfloat) parameters, or a pulse
/// schedule's content fingerprint and duration. One cache can therefore be
/// shared process-wide: across optimizer candidates of one run, across
/// COBYLA iterations (only parameter-bearing blocks recompile), and across
/// the concurrent runs of a sweep (including the pulse mixer blocks of
/// hybrid runs at repeated candidate angles). A hit is one hash probe; the
/// executor builds a gate's calibrated schedule only on a miss. Values are
/// immutable and handed out as shared_ptr, so eviction never invalidates a
/// block another thread is still holding. Each entry holds its key once,
/// in the map. Only gate and pulse blocks are cached: fused unitaries are
/// composed once per core::ProgramTemplate and re-composed per bind, never
/// looked up.
class BlockCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;    // total = gate + pulse
    std::uint64_t misses = 0;  // total = gate + pulse
    std::uint64_t evictions = 0;
    std::uint64_t gate_hits = 0;
    std::uint64_t gate_misses = 0;
    std::uint64_t pulse_hits = 0;
    std::uint64_t pulse_misses = 0;
    std::size_t size = 0;
    std::size_t capacity = 0;

    double hit_rate() const {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
    }
  };

  explicit BlockCache(std::size_t capacity = 4096);

  /// Look up a block, refreshing its LRU position. Null on miss. `kind`
  /// selects which per-kind hit/miss counters the lookup charges.
  std::shared_ptr<const core::CompiledBlock> find(const std::string& key,
                                                  BlockKind kind = BlockKind::Gate);

  /// Insert (or refresh) a block and return the cached instance. Two workers
  /// racing to compile the same key both insert identical blocks — last one
  /// wins, which is benign.
  std::shared_ptr<const core::CompiledBlock> insert(const std::string& key,
                                                    core::CompiledBlock block);

  /// Torn-read-safe traffic snapshot: the counters are atomics read without
  /// the cache lock (only size takes it), so polling stats from a monitor
  /// thread while workers hammer find()/insert() is race-free. The snapshot
  /// is not one consistent cut — counters advance independently.
  Stats stats() const;
  std::size_t capacity() const { return capacity_; }

 private:
  /// LRU order as pointers to the map's own keys: unordered_map nodes never
  /// move, so the pointers stay valid across rehash, and each key is stored
  /// once.
  using LruList = std::list<const std::string*>;

  struct Entry {
    std::shared_ptr<const core::CompiledBlock> block;
    LruList::iterator lru_pos;
  };

  mutable std::mutex mutex_;
  LruList lru_;  // front = most recently used
  std::unordered_map<std::string, Entry> map_;
  std::size_t capacity_;
  /// Traffic counters are atomics, not lock-guarded ints: stats() snapshots
  /// them without taking mutex_, so a monitoring thread polling a busy cache
  /// never tears a read and never contends with the workers' lookups. Each
  /// instance additionally mirrors its traffic into the process-wide
  /// obs::Registry ("block_cache.*" series, gated on obs::enabled()).
  std::atomic<std::uint64_t> gate_hits_{0};
  std::atomic<std::uint64_t> gate_misses_{0};
  std::atomic<std::uint64_t> pulse_hits_{0};
  std::atomic<std::uint64_t> pulse_misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  /// Process-wide registry mirrors (shared by every cache instance).
  struct RegistryMirror {
    obs::Counter* gate_hits;
    obs::Counter* gate_misses;
    obs::Counter* pulse_hits;
    obs::Counter* pulse_misses;
    obs::Counter* evictions;
    obs::Gauge* size;
  };
  RegistryMirror reg_;
};

}  // namespace hgp::serve
