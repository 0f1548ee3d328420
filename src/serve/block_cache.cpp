#include "serve/block_cache.hpp"

#include <utility>

#include "common/error.hpp"

namespace hgp::serve {

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
  reg_.size = &reg.gauge("block_cache.size");
}

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
    return nullptr;
  }
  if (kind == BlockKind::Pulse) {
    pulse_hits_.fetch_add(1, std::memory_order_relaxed);
    reg_.pulse_hits->inc();
  } else {
    gate_hits_.fetch_add(1, std::memory_order_relaxed);
    reg_.gate_hits->inc();
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  return it->second.block;
}

std::shared_ptr<const core::CompiledBlock> BlockCache::insert(const std::string& key,
                                                              core::CompiledBlock block) {
  auto shared = std::make_shared<const core::CompiledBlock>(std::move(block));
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto [slot, fresh] = map_.try_emplace(key);
  Entry& entry = slot->second;
  entry.block = shared;
  if (!fresh) {
    lru_.splice(lru_.begin(), lru_, entry.lru_pos);
    return shared;
  }
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
  return shared;
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
  s.capacity = capacity_;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    s.size = map_.size();
  }
  return s;
}

}  // namespace hgp::serve
