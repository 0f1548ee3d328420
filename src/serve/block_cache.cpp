#include "serve/block_cache.hpp"

#include <filesystem>
#include <tuple>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "serve/block_store.hpp"

namespace hgp::serve {

namespace {

/// Path equality by filesystem identity, not spelling — "store.bin" and
/// "./store.bin" are the same inode.
bool same_path(const std::string& a, const std::string& b) {
  std::error_code ec;
  const auto ca = std::filesystem::weakly_canonical(a, ec);
  if (ec) return a == b;
  const auto cb = std::filesystem::weakly_canonical(b, ec);
  if (ec) return a == b;
  return ca == cb;
}

BlockCache::StoreReport to_store_report(const BlockStore::LoadReport& r) {
  BlockCache::StoreReport out;
  out.loaded = r.loaded;
  out.skipped = r.skipped;
  out.header_ok = r.header_ok;
  out.fingerprint_ok = r.fingerprint_ok;
  return out;
}

}  // namespace

BlockCache::BlockCache(std::size_t capacity) : capacity_(capacity) {
  HGP_REQUIRE(capacity >= 1, "BlockCache: capacity must be positive");
  // Registry handles resolve once here; the hot paths then pay only a
  // gated sharded increment per mirror update.
  obs::Registry& reg = obs::Registry::global();
  reg_.gate_hits = &reg.counter("block_cache.gate_hits");
  reg_.gate_misses = &reg.counter("block_cache.gate_misses");
  reg_.pulse_hits = &reg.counter("block_cache.pulse_hits");
  reg_.pulse_misses = &reg.counter("block_cache.pulse_misses");
  reg_.evictions = &reg.counter("block_cache.evictions");
  reg_.store_hits = &reg.counter("block_cache.store_hits");
  reg_.store_misses = &reg.counter("block_cache.store_misses");
  reg_.store_loaded = &reg.counter("block_cache.store_loaded");
  reg_.size = &reg.gauge("block_cache.size");
}

BlockCache::~BlockCache() = default;

std::shared_ptr<const core::CompiledBlock> BlockCache::find(const std::string& key,
                                                            BlockKind kind) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = map_.find(key);
  if (it == map_.end()) {
    if (kind == BlockKind::Pulse) {
      pulse_misses_.fetch_add(1, std::memory_order_relaxed);
      reg_.pulse_misses->inc();
    } else {
      gate_misses_.fetch_add(1, std::memory_order_relaxed);
      reg_.gate_misses->inc();
    }
    if (store_tracking_) {
      store_misses_.fetch_add(1, std::memory_order_relaxed);
      reg_.store_misses->inc();
    }
    return nullptr;
  }
  if (kind == BlockKind::Pulse) {
    pulse_hits_.fetch_add(1, std::memory_order_relaxed);
    reg_.pulse_hits->inc();
  } else {
    gate_hits_.fetch_add(1, std::memory_order_relaxed);
    reg_.gate_hits->inc();
  }
  if (it->second.from_store) {
    store_hits_.fetch_add(1, std::memory_order_relaxed);
    reg_.store_hits->inc();
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  return it->second.block;
}

bool BlockCache::insert_locked(const std::string& key,
                               std::shared_ptr<const core::CompiledBlock> block,
                               BlockKind kind, std::uint64_t fingerprint,
                               bool from_store) {
  const auto [slot, fresh] = map_.try_emplace(key);
  Entry& entry = slot->second;
  entry.block = std::move(block);
  entry.kind = kind;
  entry.fingerprint = fingerprint;
  if (!fresh) {
    lru_.splice(lru_.begin(), lru_, entry.lru_pos);
    return false;
  }
  entry.from_store = from_store;
  lru_.push_front(&slot->first);
  entry.lru_pos = lru_.begin();
  while (map_.size() > capacity_) {
    // Erase through the map iterator: the LRU tail points into the very
    // node being erased, so it must not be the key erase() compares with.
    const auto victim = map_.find(*lru_.back());
    lru_.pop_back();
    map_.erase(victim);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    reg_.evictions->inc();
  }
  reg_.size->set(static_cast<std::int64_t>(map_.size()));
  return true;
}

std::shared_ptr<const core::CompiledBlock> BlockCache::insert(const std::string& key,
                                                              core::CompiledBlock block,
                                                              BlockKind kind,
                                                              std::uint64_t fingerprint) {
  auto shared = std::make_shared<const core::CompiledBlock>(std::move(block));
  std::shared_ptr<BlockStore> store;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (insert_locked(key, shared, kind, fingerprint, /*from_store=*/false))
      store = store_;
  }
  // Write-through happens off the cache lock: disk latency never blocks
  // concurrent lookups, and the store serializes appends on its own mutex.
  // The record is stamped with the compiling backend's fingerprint, so a
  // multi-backend cache persists every block under its own calibration.
  if (store) store->append(key, kind, *shared, fingerprint);
  return shared;
}

std::size_t BlockCache::save(const std::string& path, std::uint64_t fingerprint) const {
  std::vector<BlockStore::SaveEntry> entries;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    // Snapshotting onto the attached store's path would rename over the
    // live appender's inode: its later write-through appends would land in
    // the unlinked file and silently vanish.
    HGP_REQUIRE(!store_ || !same_path(store_->path(), path),
                "BlockCache::save: cannot snapshot onto the attached "
                "write-through store path (detach or pick another file)");
    entries.reserve(map_.size());
    // Snapshot in LRU order, oldest first, so a loader replaying the file
    // front-to-back reconstructs the same LRU ranking (the hottest entries
    // end up most recently used and survive a smaller-capacity load).
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      const Entry& e = map_.at(**it);
      entries.emplace_back(**it, e.kind, e.fingerprint, e.block);
    }
  }
  return BlockStore::save_file(path, fingerprint, entries);
}

BlockStore::LoadReport BlockCache::load_impl(const std::string& path,
                                             std::uint64_t fingerprint,
                                             std::vector<std::string>* loaded_keys) {
  const BlockStore::LoadReport r = BlockStore::load_file(
      path, fingerprint,
      [this, loaded_keys](const std::string& key, BlockKind kind,
                          std::uint64_t record_fp, core::CompiledBlock block) {
        if (loaded_keys != nullptr) loaded_keys->push_back(key);
        auto shared = std::make_shared<const core::CompiledBlock>(std::move(block));
        const std::lock_guard<std::mutex> lock(mutex_);
        insert_locked(key, std::move(shared), kind, record_fp, /*from_store=*/true);
      });
  const std::lock_guard<std::mutex> lock(mutex_);
  store_tracking_ = true;
  store_loaded_.fetch_add(r.loaded, std::memory_order_relaxed);
  reg_.store_loaded->inc(r.loaded);
  return r;
}

BlockCache::StoreReport BlockCache::load(const std::string& path,
                                         std::uint64_t fingerprint) {
  return to_store_report(load_impl(path, fingerprint, nullptr));
}

BlockCache::StoreReport BlockCache::attach_store(const std::string& path,
                                                 std::uint64_t fingerprint) {
  const std::lock_guard<std::mutex> attach_lock(attach_mutex_);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    // First attach wins — successful or not: every executor of a sweep
    // calls this with the service-configured path, so re-attachment must
    // stay cheap even when the path is unwritable (otherwise every job
    // would re-parse the whole file just to fail the open again).
    if (store_attempted_) {
      StoreReport out;
      out.attached = static_cast<bool>(store_);
      return out;
    }
    store_attempted_ = true;
  }
  std::vector<std::string> loaded_keys;
  const BlockStore::LoadReport r = load_impl(path, fingerprint, &loaded_keys);
  StoreReport report = to_store_report(r);
  // Missing/foreign-format files restart from scratch; a valid store from
  // another calibration is taken over non-destructively (header restamped,
  // records kept — each calibration still loads exactly its own, keyed by
  // fingerprint); our own store resumes appending after its last intact
  // record.
  const BlockStore::Mode mode = !r.header_ok ? BlockStore::Mode::Reset
                                : !r.fingerprint_ok ? BlockStore::Mode::Takeover
                                                    : BlockStore::Mode::Append;
  auto store = std::make_shared<BlockStore>(path, fingerprint, mode, r.valid_bytes);
  if (store->ok()) {
    // Seed the dedup set with everything the load delivered so write-through
    // never re-appends a record that is already on disk.
    for (const std::string& key : loaded_keys) store->note_existing(key);
    // Blocks other executors compiled into this cache before the store was
    // attached (e.g. through a service cache whose first store-configured
    // run arrived late) would otherwise never be persisted — replay them
    // now; append() dedups against what the load already saw.
    std::vector<BlockStore::SaveEntry> backlog;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      for (const auto& [key, entry] : map_)
        if (!entry.from_store)
          backlog.emplace_back(key, entry.kind, entry.fingerprint, entry.block);
      store_ = store;
    }
    for (const auto& [key, kind, fp, block] : backlog)
      store->append(key, kind, *block, fp);
    report.attached = true;
  }
  return report;
}

std::size_t BlockCache::compact_store() {
  std::shared_ptr<BlockStore> store;
  std::vector<BlockStore::SaveEntry> entries;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!store_) return 0;
    store = store_;
    entries.reserve(map_.size());
    // LRU order, oldest first — same convention as save().
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      const Entry& e = map_.at(**it);
      entries.emplace_back(**it, e.kind, e.fingerprint, e.block);
    }
  }
  // Off the cache lock, like write-through appends: the store serializes
  // the rewrite on its own mutex and the exclusive flock.
  return store->compact(entries);
}

std::string BlockCache::store_path() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return store_ ? store_->path() : std::string();
}

BlockCache::Stats BlockCache::stats() const {
  // Counters are atomics: read lock-free so stats polling never contends
  // with (or tears against) concurrent find()/insert() traffic. Only the
  // map size needs the lock.
  Stats s;
  s.gate_hits = gate_hits_.load(std::memory_order_relaxed);
  s.gate_misses = gate_misses_.load(std::memory_order_relaxed);
  s.pulse_hits = pulse_hits_.load(std::memory_order_relaxed);
  s.pulse_misses = pulse_misses_.load(std::memory_order_relaxed);
  s.hits = s.gate_hits + s.pulse_hits;
  s.misses = s.gate_misses + s.pulse_misses;
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.store_hits = store_hits_.load(std::memory_order_relaxed);
  s.store_misses = store_misses_.load(std::memory_order_relaxed);
  s.store_loaded = store_loaded_.load(std::memory_order_relaxed);
  s.capacity = capacity_;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    s.size = map_.size();
  }
  return s;
}

void BlockCache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  map_.clear();
  lru_.clear();
  reg_.size->set(0);
}

}  // namespace hgp::serve
