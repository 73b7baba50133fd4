#include "oregami/server/result_cache.hpp"

#include <algorithm>

#include "oregami/server/telemetry.hpp"
#include "oregami/support/hash.hpp"

namespace oregami::server {

ResultCache::ResultCache(std::size_t capacity, int shards) {
  capacity_ = std::max<std::size_t>(1, capacity);
  std::size_t n = shards <= 0 ? 1 : static_cast<std::size_t>(shards);
  n = std::min<std::size_t>(n, 256);
  n = std::min(n, capacity_);  // every shard must hold >= 1 entry
  per_shard_capacity_ = (capacity_ + n - 1) / n;
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ResultCache::Shard& ResultCache::shard_of(std::uint64_t digest) const {
  // Top bits: FNV-1a mixes high bits well, and the map's own bucketing
  // uses the low bits, so shard and bucket choice stay independent.
  const std::size_t index =
      static_cast<std::size_t>(digest >> 48) % shards_.size();
  return *shards_[index];
}

ResultCache::Shard& ResultCache::front_shard_of(std::string_view key) const {
  Fnv1a h;
  h.bytes(key.data(), key.size());
  return shard_of(h.digest());
}

OutcomePtr ResultCache::find_locked(Shard& shard, std::uint64_t digest) {
  const auto it = shard.map.find(digest);
  if (it == shard.map.end()) {
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
  return it->second.outcome;
}

OutcomePtr ResultCache::lookup(std::uint64_t digest) {
  Shard& shard = shard_of(digest);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  return find_locked(shard, digest);
}

ResultCache::Claim ResultCache::claim(std::uint64_t digest) {
  Shard& shard = shard_of(digest);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  Claim claim{find_locked(shard, digest), {}};
  if (claim.hit == nullptr) {
    // try_emplace registers a new flight only when none is in the air.
    if (const auto [it, fresh] = shard.inflight.try_emplace(digest); !fresh) {
      claim.join = it->second.future;
    }
  }
  return claim;
}

void ResultCache::publish(std::uint64_t digest, OutcomePtr outcome) {
  insert(digest, outcome);
  Shard& shard = shard_of(digest);
  std::promise<OutcomePtr> promise;
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    promise = std::move(shard.inflight.extract(digest).mapped().promise);
  }
  promise.set_value(std::move(outcome));
}

void ResultCache::insert(std::uint64_t digest, OutcomePtr outcome) {
  Shard& shard = shard_of(digest);
  std::int64_t evicted = 0;
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.map.find(digest);
    if (it != shard.map.end()) {
      it->second.outcome = std::move(outcome);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
    } else {
      shard.lru.push_front(digest);
      shard.map.emplace(digest,
                        Shard::Slot{std::move(outcome), shard.lru.begin()});
      while (shard.map.size() > per_shard_capacity_) {
        const std::uint64_t victim = shard.lru.back();
        shard.lru.pop_back();
        shard.map.erase(victim);
        ++evicted;
      }
    }
  }
  if (evicted > 0) {
    evictions_.fetch_add(evicted, std::memory_order_relaxed);
    if (metrics::enabled()) {
      server_metrics().cache_evictions.add(evicted);
    }
  }
}

std::optional<std::uint64_t> ResultCache::front_lookup(std::string_view key) {
  Shard& shard = front_shard_of(key);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.front.find(key);
  if (it == shard.front.end()) {
    return std::nullopt;
  }
  shard.front_lru.splice(shard.front_lru.begin(), shard.front_lru, it->second);
  return it->second->second;
}

void ResultCache::front_record(std::string key, std::uint64_t digest) {
  Shard& shard = front_shard_of(key);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  if (const auto it = shard.front.find(key); it != shard.front.end()) {
    it->second->second = digest;
    shard.front_lru.splice(shard.front_lru.begin(), shard.front_lru,
                           it->second);
    return;
  }
  shard.front_lru.emplace_front(std::move(key), digest);
  shard.front.emplace(shard.front_lru.front().first, shard.front_lru.begin());
  if (shard.front.size() > per_shard_capacity_) {
    shard.front.erase(shard.front_lru.back().first);
    shard.front_lru.pop_back();
  }
}

bool ResultCache::contains(std::uint64_t digest) const {
  const Shard& shard = shard_of(digest);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  return shard.map.find(digest) != shard.map.end();
}

std::vector<std::pair<std::uint64_t, OutcomePtr>>
ResultCache::snapshot_entries() const {
  std::vector<std::pair<std::uint64_t, OutcomePtr>> entries;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    for (const auto& [digest, slot] : shard->map) {
      entries.emplace_back(digest, slot.outcome);
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return entries;
}

ResultCache::Stats ResultCache::stats() const {
  Stats s;
  s.evictions = evictions_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    s.size += static_cast<std::int64_t>(shard->map.size());
    s.front_size += static_cast<std::int64_t>(shard->front.size());
  }
  return s;
}

}  // namespace oregami::server
