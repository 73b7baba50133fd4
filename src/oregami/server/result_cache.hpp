// The content-addressed result cache behind the mapping server:
// digest -> finished job outcome, sharded and mutex-striped so
// concurrent workers rarely contend, LRU-bounded per shard so the
// resident set stays capped no matter how long the daemon lives.
//
// Design:
//   * a digest picks its shard by its top bits (the FNV-1a avalanche
//     makes them uniform); each shard owns an independent mutex, an
//     open-addressed map digest -> entry, and an intrusive LRU order;
//   * capacity is split evenly across shards (per-shard bound =
//     ceil(capacity / shards)), so the global bound holds within one
//     shard's worth of slack and eviction never takes a global lock;
//   * values are shared_ptr<const Outcome>: a hit hands back a
//     refcount, never a copy, and an entry evicted mid-use stays alive
//     until its last reader drops it;
//   * single-flight: claim() decides hit, join or compute under the
//     shard lock, so exactly one caller computes each digest and
//     identical concurrent callers join its future; hit/miss tallies
//     are the caller's (the server keeps its own).
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace oregami::server {

/// The cached portion of a finished job: everything deterministic that
/// a result line needs, and nothing else (routes are re-derivable and
/// heavy, so only the task placement is kept).
struct CachedOutcome {
  /// False when the mapping stage failed deterministically (e.g.
  /// infeasible); error outcomes are cached too, so repeated bad jobs
  /// are also O(1) and hit/miss accounting stays schedule-independent.
  bool ok = false;
  int error_code = 0;        ///< per-job error code (wire.hpp) when !ok
  std::string error;         ///< error message when !ok
  std::string strategy;      ///< winning MapStrategy name when ok
  std::int64_t completion = 0;
  std::int64_t external_ipc = 0;
  std::int64_t max_load = 0;
  int num_procs = 0;
  std::vector<int> proc_of_task;
};

using OutcomePtr = std::shared_ptr<const CachedOutcome>;

class ResultCache {
 public:
  struct Stats {
    std::int64_t evictions = 0;
    std::int64_t size = 0;  ///< current resident entries
  };

  /// What claim() decided for a digest: a resident `hit`, a `join` onto
  /// the identical computation in flight, or neither -- the caller now
  /// computes the outcome and must hand it to publish().
  struct Claim {
    OutcomePtr hit;
    std::shared_future<OutcomePtr> join;
    [[nodiscard]] bool computes() const { return !hit && !join.valid(); }
  };

  /// `capacity` = max resident entries (>= 1), split across `shards`
  /// stripes (clamped to [1, 256] and to <= capacity so every shard
  /// can hold at least one entry).
  explicit ResultCache(std::size_t capacity = 1024, int shards = 8);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Looks up `digest`, refreshing its LRU position. nullptr on miss.
  [[nodiscard]] OutcomePtr lookup(std::uint64_t digest);

  /// Inserts (or refreshes) `digest`; evicts the shard's LRU tail when
  /// the shard is over its bound. Re-inserting an existing digest
  /// replaces the value without counting an eviction.
  void insert(std::uint64_t digest, OutcomePtr outcome);

  /// Single-flight lookup: one shard lock decides hit, join or compute.
  [[nodiscard]] Claim claim(std::uint64_t digest);

  /// Inserts the outcome of a computing claim() and wakes its joiners;
  /// call it exactly once per such claim.
  void publish(std::uint64_t digest, OutcomePtr outcome);

  /// True when `digest` is resident (no LRU refresh, no counter).
  [[nodiscard]] bool contains(std::uint64_t digest) const;

  /// Every resident entry, sorted by digest: a deterministic snapshot
  /// for the persistence layer's compaction (the shared_ptr values
  /// keep entries alive across concurrent eviction). Takes each
  /// shard's lock in turn, never all at once.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, OutcomePtr>>
  snapshot_entries() const;

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] int num_shards() const {
    return static_cast<int>(shards_.size());
  }

 private:
  struct Shard {
    mutable std::mutex mutex;
    /// Most-recent first; nodes own the digest for O(1) erase-by-map.
    std::list<std::uint64_t> lru;
    struct Slot {
      OutcomePtr outcome;
      std::list<std::uint64_t>::iterator lru_it;
    };
    std::unordered_map<std::uint64_t, Slot> map;
    /// Digests claimed for computation and not yet published.
    struct Flight {
      std::promise<OutcomePtr> promise;
      std::shared_future<OutcomePtr> future = promise.get_future().share();
    };
    std::unordered_map<std::uint64_t, Flight> inflight;
  };

  /// Shards are owned through pointers, so a const cache still hands
  /// out a lockable shard.
  [[nodiscard]] Shard& shard_of(std::uint64_t digest) const;
  /// The body of lookup(); the caller holds `shard.mutex`.
  [[nodiscard]] static OutcomePtr find_locked(Shard& shard,
                                              std::uint64_t digest);

  std::size_t capacity_ = 0;
  std::size_t per_shard_capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::int64_t> evictions_{0};
};

}  // namespace oregami::server
