#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include <atomic>

#include "core/compiled_block.hpp"
#include "obs/metrics.hpp"
#include "serve/block_kind.hpp"
#include "serve/block_store.hpp"

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
///
/// The cache also survives across processes: save()/load() snapshot it
/// through serve::BlockStore's versioned on-disk format, and attach_store()
/// additionally write-throughs every new compilation so long-lived services
/// persist incrementally. Stats separate disk-warmed hits (store_hits) from
/// purely in-process ones.
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
    /// Hits served by an entry that came off disk rather than an in-process
    /// compilation (subset of `hits`).
    std::uint64_t store_hits = 0;
    /// Misses charged while a store load had been attempted — compilations
    /// the store failed to avoid (subset of `misses`; 0 when no store is in
    /// play).
    std::uint64_t store_misses = 0;
    /// Cumulative records merged from disk by load()/attach_store().
    std::uint64_t store_loaded = 0;
    std::size_t size = 0;
    std::size_t capacity = 0;

    double hit_rate() const {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
    }
    double pulse_hit_rate() const {
      const std::uint64_t total = pulse_hits + pulse_misses;
      return total == 0 ? 0.0 : static_cast<double>(pulse_hits) / static_cast<double>(total);
    }
    double store_hit_rate() const {
      const std::uint64_t total = store_hits + store_misses;
      return total == 0 ? 0.0 : static_cast<double>(store_hits) / static_cast<double>(total);
    }
  };

  /// Outcome of a load()/attach_store() pass (BlockStore::LoadReport's
  /// record counts plus whether write-through is now active).
  struct StoreReport {
    std::size_t loaded = 0;       // records merged into this cache
    std::size_t skipped = 0;      // checksum/parse/truncation rejects
    bool header_ok = false;       // magic + format version matched
    bool fingerprint_ok = false;  // backend fingerprint matched
    bool attached = false;        // write-through appender is active
  };

  explicit BlockCache(std::size_t capacity = 4096);
  ~BlockCache();

  /// Look up a block, refreshing its LRU position. Null on miss. `kind`
  /// selects which per-kind hit/miss counters the lookup charges.
  std::shared_ptr<const core::CompiledBlock> find(const std::string& key,
                                                  BlockKind kind = BlockKind::Gate);

  /// Insert (or refresh) a block and return the cached instance. Two workers
  /// racing to compile the same key both insert identical blocks — last one
  /// wins, which is benign. A *new* key is also appended to the attached
  /// store, if any (write-through). `fingerprint` records which backend the
  /// block was compiled for — it is stamped into the store record so a
  /// multi-backend cache persists every block under its own calibration
  /// (0 = unattributed; store records then carry the attach/save
  /// fingerprint).
  std::shared_ptr<const core::CompiledBlock> insert(const std::string& key,
                                                    core::CompiledBlock block,
                                                    BlockKind kind = BlockKind::Gate,
                                                    std::uint64_t fingerprint = 0);

  /// Snapshot every resident entry to `path` in BlockStore's format
  /// (atomic replace). Returns the number of records written.
  std::size_t save(const std::string& path, std::uint64_t fingerprint) const;

  /// Merge `path`'s records into this cache. Per-record validation: a
  /// version/fingerprint/checksum mismatch skips entries (never throws), so
  /// a stale or corrupted store degrades to cold compilation. Loaded
  /// entries are flagged as disk-warmed for the store_hits accounting.
  StoreReport load(const std::string& path, std::uint64_t fingerprint);

  /// load() + open `path` for incremental write-through: every subsequently
  /// compiled (new-key) block is appended, so a long-lived service persists
  /// as it runs. One store per cache, first attach wins — re-attaching the
  /// same path is a cheap no-op (concurrent executors of one sweep all call
  /// this), a different path is ignored. A missing or invalidated
  /// (recalibrated) file is reset to a fresh store.
  StoreReport attach_store(const std::string& path, std::uint64_t fingerprint);

  /// Compact the attached write-through store down to this cache's resident
  /// entries (BlockStore::compact): records this calibration appended but
  /// the LRU has since evicted are dropped from the file, other
  /// calibrations' records are kept, and residents are rewritten in LRU
  /// order (oldest first, like save(), so a loader reconstructs the same
  /// ranking). A block compiled concurrently with the pass stays resident
  /// in the cache and is re-persisted by the next write-through or
  /// compaction. Returns the compacted file's record count; 0 when no store
  /// is attached (or the rewrite failed).
  std::size_t compact_store();

  /// Path of the attached write-through store ("" when none).
  std::string store_path() const;

  /// Torn-read-safe traffic snapshot: the counters are atomics read without
  /// the cache lock (only size takes it), so polling stats from a monitor
  /// thread while workers hammer find()/insert() is race-free. The snapshot
  /// is not one consistent cut — counters advance independently.
  Stats stats() const;
  std::size_t capacity() const { return capacity_; }
  void clear();

 private:
  /// LRU order as pointers to the map's own keys: unordered_map nodes never
  /// move, so the pointers stay valid across rehash, and each key is stored
  /// once.
  using LruList = std::list<const std::string*>;

  struct Entry {
    std::shared_ptr<const core::CompiledBlock> block;
    LruList::iterator lru_pos;
    BlockKind kind = BlockKind::Gate;
    std::uint64_t fingerprint = 0;  // backend the block was compiled for
    bool from_store = false;        // merged from disk, not compiled here
  };

  /// Insert under the held lock; returns true when the key was new.
  bool insert_locked(const std::string& key,
                     std::shared_ptr<const core::CompiledBlock> block, BlockKind kind,
                     std::uint64_t fingerprint, bool from_store);
  /// Shared load pass of load()/attach_store(): merge records, flip store
  /// tracking on, and return the full file report (incl. the resume offset
  /// attach_store needs). `loaded_keys`, when non-null, collects every
  /// delivered key so the attach path can seed the appender's dedup set.
  BlockStore::LoadReport load_impl(const std::string& path, std::uint64_t fingerprint,
                                   std::vector<std::string>* loaded_keys);

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
  std::atomic<std::uint64_t> store_hits_{0};
  std::atomic<std::uint64_t> store_misses_{0};
  std::atomic<std::uint64_t> store_loaded_{0};
  /// Process-wide registry mirrors (shared by every cache instance).
  struct RegistryMirror {
    obs::Counter* gate_hits;
    obs::Counter* gate_misses;
    obs::Counter* pulse_hits;
    obs::Counter* pulse_misses;
    obs::Counter* evictions;
    obs::Counter* store_hits;
    obs::Counter* store_misses;
    obs::Counter* store_loaded;
    obs::Gauge* size;
  };
  RegistryMirror reg_;
  /// True once a store load was attempted (even an unsuccessful one) —
  /// misses after that point are compilations the store failed to avoid.
  bool store_tracking_ = false;
  /// True once attach_store ran, successfully or not, so re-attaches from
  /// later executors are cheap no-ops either way.
  bool store_attempted_ = false;
  /// Serializes whole attach_store() passes (load + possible file reset) so
  /// two racing attachers cannot truncate the file under each other; held
  /// strictly outside mutex_.
  std::mutex attach_mutex_;
  std::shared_ptr<BlockStore> store_;  // write-through appender (may be null)
};

}  // namespace hgp::serve
