// The mapping server's storage layer: FNV-1a digest combinators, the
// canonical job digest, the sharded LRU result cache, and the
// concurrency primitives behind the serve loop (ThreadSafeQueue,
// ThreadPool::pending). The digest pins here are the cache-format
// contract: if one breaks, bump oregami::kDigestVersion instead of
// editing the constant.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "oregami/arch/topology_spec.hpp"
#include "oregami/larcs/compiler.hpp"
#include "oregami/larcs/parser.hpp"
#include "oregami/larcs/programs.hpp"
#include "oregami/server/digest.hpp"
#include "oregami/server/result_cache.hpp"
#include "oregami/support/hash.hpp"
#include "oregami/support/thread_pool.hpp"
#include "oregami/support/thread_safe_queue.hpp"

namespace oregami::server {
namespace {

// ---------------------------------------------------------------- hash

TEST(Fnv1a, EmptyInputIsOffsetBasis) {
  Fnv1a h;
  EXPECT_EQ(h.digest(), Fnv1a::kOffset);
}

TEST(Fnv1a, MatchesReferenceVectors) {
  // Classic FNV-1a 64-bit test vectors.
  Fnv1a a;
  a.bytes("a", 1);
  EXPECT_EQ(a.digest(), 0xaf63dc4c8601ec8cULL);
  Fnv1a foobar;
  foobar.bytes("foobar", 6);
  EXPECT_EQ(foobar.digest(), 0x85944171f73967e8ULL);
}

TEST(Fnv1a, LengthPrefixPreventsConcatenationAliasing) {
  Fnv1a ab_c;
  ab_c.str("ab");
  ab_c.str("c");
  Fnv1a a_bc;
  a_bc.str("a");
  a_bc.str("bc");
  EXPECT_NE(ab_c.digest(), a_bc.digest());
}

TEST(Fnv1a, IntegersFoldAsFixedWidthLittleEndian) {
  Fnv1a via_u64;
  via_u64.u64(0x0102030405060708ULL);
  Fnv1a via_bytes;
  const unsigned char le[8] = {8, 7, 6, 5, 4, 3, 2, 1};
  via_bytes.bytes(le, 8);
  EXPECT_EQ(via_u64.digest(), via_bytes.digest());
}

TEST(Fnv1a, DigestHexIsSixteenLowercaseZeroPadded) {
  EXPECT_EQ(digest_hex(0), "0000000000000000");
  EXPECT_EQ(digest_hex(0xdeadbeefULL), "00000000deadbeef");
  EXPECT_EQ(digest_hex(0xFFFFFFFFFFFFFFFFULL), "ffffffffffffffff");
}

TEST(Fnv1a, CanonicalBytesKeepExactlyTheBytesTheHashFolds) {
  const auto fold = [](auto& h) {
    h.u64(0x0123456789abcdefULL);
    h.i32(-2);
    h.boolean(true);
    h.str("front");
  };
  Fnv1a folded;
  fold(folded);
  CanonicalBytes kept;
  fold(kept);
  const std::string bytes = kept.take();
  EXPECT_EQ(bytes.size(), 8u * 4 + 5);
  Fnv1a rehashed;
  rehashed.bytes(bytes.data(), bytes.size());
  EXPECT_EQ(rehashed.digest(), folded.digest());
}

// --------------------------------------------------------- job digest

struct DigestInputs {
  larcs::CompiledProgram compiled;
  Topology topo;
};

DigestInputs compile_catalog(const std::string& name,
                             const std::string& topo_spec) {
  for (const auto& entry : larcs::programs::catalog()) {
    if (entry.name != name) continue;
    const larcs::Program ast = larcs::parse_program(entry.source);
    std::map<std::string, long> binds(entry.example_bindings.begin(),
                                      entry.example_bindings.end());
    return DigestInputs{larcs::compile(ast, binds),
                        parse_topology_spec(topo_spec)};
  }
  throw std::runtime_error("no catalog program " + name);
}

TEST(JobDigest, PinnedForJacobiMesh4x4Defaults) {
  // The cache-key format contract. oregami_map --digest prints the
  // same value; tests/cli_exit_codes.cmake and the server e2e rely on
  // cross-binary agreement.
  const DigestInputs in = compile_catalog("jacobi", "mesh:4x4");
  const MapperOptions options;
  EXPECT_EQ(digest_hex(job_digest(in.compiled.graph, in.topo, options)),
            "7bb2d7d76f7682a2");
}

TEST(JobDigest, StableAcrossRecompiles) {
  const DigestInputs a = compile_catalog("nbody", "mesh:4x4");
  const DigestInputs b = compile_catalog("nbody", "mesh:4x4");
  const MapperOptions options;
  EXPECT_EQ(job_digest(a.compiled.graph, a.topo, options),
            job_digest(b.compiled.graph, b.topo, options));
}

TEST(JobDigest, SensitiveToProgramTopologyAndOptions) {
  const DigestInputs jacobi = compile_catalog("jacobi", "mesh:4x4");
  const DigestInputs sor = compile_catalog("sor", "mesh:4x4");
  const DigestInputs ring = compile_catalog("jacobi", "ring:16");
  const MapperOptions defaults;
  const std::uint64_t base =
      job_digest(jacobi.compiled.graph, jacobi.topo, defaults);
  EXPECT_NE(base, job_digest(sor.compiled.graph, sor.topo, defaults));
  EXPECT_NE(base, job_digest(ring.compiled.graph, ring.topo, defaults));

  MapperOptions portfolio;
  portfolio.portfolio = 4;
  EXPECT_NE(base,
            job_digest(jacobi.compiled.graph, jacobi.topo, portfolio));
}

TEST(JobDigest, ExecutionWidthDoesNotChangeTheKey) {
  // `jobs` is how fast we compute, not what we compute: two requests
  // differing only in worker count must share a cache entry.
  const DigestInputs in = compile_catalog("jacobi", "mesh:4x4");
  MapperOptions serial;
  serial.jobs = 1;
  MapperOptions wide;
  wide.jobs = 8;
  EXPECT_EQ(job_digest(in.compiled.graph, in.topo, serial),
            job_digest(in.compiled.graph, in.topo, wide));
}

// -------------------------------------------------------- result cache

std::shared_ptr<const CachedOutcome> outcome_with(int completion) {
  auto o = std::make_shared<CachedOutcome>();
  o->ok = true;
  o->completion = completion;
  return o;
}

TEST(ResultCache, MissThenHit) {
  ResultCache cache(8, 2);
  EXPECT_EQ(cache.lookup(42), nullptr);
  cache.insert(42, outcome_with(7));
  const auto hit = cache.lookup(42);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->completion, 7);
  EXPECT_EQ(cache.stats().size, 1);
}

TEST(ResultCache, ReinsertReplacesWithoutEviction) {
  ResultCache cache(8, 1);
  cache.insert(1, outcome_with(10));
  cache.insert(1, outcome_with(20));
  EXPECT_EQ(cache.lookup(1)->completion, 20);
  EXPECT_EQ(cache.stats().evictions, 0);
  EXPECT_EQ(cache.stats().size, 1);
}

TEST(ResultCache, EvictsLeastRecentlyUsedFirst) {
  // Single shard so the LRU order is global and observable.
  ResultCache cache(3, 1);
  cache.insert(1, outcome_with(1));
  cache.insert(2, outcome_with(2));
  cache.insert(3, outcome_with(3));
  ASSERT_NE(cache.lookup(1), nullptr);  // refresh 1; LRU tail is now 2
  cache.insert(4, outcome_with(4));
  EXPECT_FALSE(cache.contains(2));
  EXPECT_TRUE(cache.contains(1));
  EXPECT_TRUE(cache.contains(3));
  EXPECT_TRUE(cache.contains(4));
  EXPECT_EQ(cache.stats().evictions, 1);
}

TEST(ResultCache, BoundHoldsUnderChurn) {
  // Property: resident size never exceeds shards * ceil(cap/shards),
  // whatever the insert sequence.
  ResultCache cache(16, 4);
  const std::size_t slack_bound =
      static_cast<std::size_t>(cache.num_shards()) *
      ((cache.capacity() + cache.num_shards() - 1) /
       static_cast<std::size_t>(cache.num_shards()));
  for (std::uint64_t i = 0; i < 500; ++i) {
    // Spread across shards: shard index comes from the top bits.
    cache.insert(i * 0x9e3779b97f4a7c15ULL, outcome_with(1));
    EXPECT_LE(static_cast<std::size_t>(cache.stats().size), slack_bound);
  }
  EXPECT_GT(cache.stats().evictions, 0);
}

TEST(ResultCache, EvictedEntryStaysAliveForExistingReaders) {
  ResultCache cache(1, 1);
  cache.insert(1, outcome_with(11));
  const auto held = cache.lookup(1);
  cache.insert(2, outcome_with(22));  // evicts 1
  EXPECT_FALSE(cache.contains(1));
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(held->completion, 11);  // refcount kept it alive
}

TEST(ResultCache, ShardCountClampedToCapacity) {
  ResultCache tiny(2, 64);
  EXPECT_LE(tiny.num_shards(), 2);
  ResultCache one(1, 8);
  EXPECT_EQ(one.num_shards(), 1);
}

TEST(ResultCache, ConcurrentHammerIsRaceFreeAndConsistent) {
  // TSan-checked in CI: 8 threads mixing hits, misses, inserts and
  // evictions on a small cache. The assertions are deliberately weak
  // (totals add up, bound holds) -- the real check is no data race.
  ResultCache cache(32, 4);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 2000;
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  std::atomic<int> lookups{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &ready, &lookups, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      for (int i = 0; i < kOpsPerThread; ++i) {
        const auto digest =
            static_cast<std::uint64_t>((t * kOpsPerThread + i) % 64) *
            0x9e3779b97f4a7c15ULL;
        lookups.fetch_add(1);
        if (cache.lookup(digest) == nullptr) {
          cache.insert(digest, outcome_with(i));
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(lookups.load(), kThreads * kOpsPerThread);
  EXPECT_LE(cache.stats().size, 32 + 4);  // capacity + one-per-shard slack
}

TEST(ResultCache, SingleFlightComputesOnceAndJoinersShareThePointer) {
  // TSan-checked in CI: 8 threads claim one digest at once. Exactly one
  // computes; every other one joins its flight (or, if it arrives after
  // the publish, hits), and all of them end up holding the same pointer.
  ResultCache cache(8, 2);
  constexpr std::uint64_t kDigest = 0x9e3779b97f4a7c15ULL;
  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::atomic<int> computed{0};
  std::atomic<int> joined{0};
  std::vector<std::shared_ptr<const CachedOutcome>> seen(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      const ResultCache::Claim claim = cache.claim(kDigest);
      if (claim.computes()) {
        computed.fetch_add(1);
        // Hold the flight open until every other thread has claimed, so
        // they all have to join it.
        while (joined.load() + computed.load() < kThreads) {
          std::this_thread::yield();
        }
        seen[t] = outcome_with(42);
        cache.publish(kDigest, seen[t]);
      } else {
        EXPECT_EQ(claim.hit, nullptr);
        joined.fetch_add(1);
        seen[t] = claim.join.valid() ? claim.join.get() : claim.hit;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(computed.load(), 1);
  EXPECT_EQ(joined.load(), kThreads - 1);
  for (const auto& outcome : seen) {
    ASSERT_NE(outcome, nullptr);
    EXPECT_EQ(outcome, seen.front());
  }
  // A later claim hits the published entry.
  const ResultCache::Claim later = cache.claim(kDigest);
  EXPECT_FALSE(later.computes());
  EXPECT_EQ(later.hit, seen.front());
  EXPECT_EQ(cache.lookup(kDigest), seen.front());
}

TEST(ResultCache, FrontKeysCompareTheirBytesInFull) {
  // One shard, so every key shares one table: keys that are prefixes of
  // each other, or differ in one byte, still resolve to their own digest.
  ResultCache cache(64, 1);
  const std::vector<std::string> keys = {"", "a", "ab", "abc", "abd",
                                         std::string("a\0c", 3)};
  for (std::size_t i = 0; i < keys.size(); ++i) {
    cache.front_record(keys[i], 100 + i);
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(cache.front_lookup(keys[i]), 100 + i) << i;
  }
  EXPECT_EQ(cache.front_lookup("abcd"), std::nullopt);
  EXPECT_EQ(cache.stats().front_size, static_cast<std::int64_t>(keys.size()));
  EXPECT_EQ(cache.stats().size, 0);  // front keys are not entries
}

TEST(ResultCache, FrontKeysShareTheLruBound) {
  ResultCache cache(3, 1);
  cache.front_record("one", 1);
  cache.front_record("two", 2);
  cache.front_record("three", 3);
  ASSERT_EQ(cache.front_lookup("one"), 1u);  // refresh; LRU tail is "two"
  cache.front_record("four", 4);
  EXPECT_EQ(cache.front_lookup("two"), std::nullopt);
  EXPECT_EQ(cache.front_lookup("one"), 1u);
  EXPECT_EQ(cache.front_lookup("four"), 4u);
  EXPECT_EQ(cache.stats().front_size, 3);
  cache.front_record("four", 44);  // re-recording replaces in place
  EXPECT_EQ(cache.front_lookup("four"), 44u);
  EXPECT_EQ(cache.stats().front_size, 3);
  EXPECT_EQ(cache.stats().evictions, 0);  // entry evictions only
}

TEST(ResultCache, FrontKeyHammerIsRaceFreeAndBounded) {
  // TSan-checked in CI: 8 threads look up and record a small key set
  // on a cache too small to hold it, so keys are evicted mid-use.
  ResultCache cache(16, 4);
  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      for (int i = 0; i < 2000; ++i) {
        const int k = (t * 7 + i) % 48;
        const std::string key = "request-" + std::to_string(k);
        const auto digest = cache.front_lookup(key);
        if (!digest) {
          cache.front_record(key, static_cast<std::uint64_t>(k));
        } else if (*digest != static_cast<std::uint64_t>(k)) {
          wrong.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_LE(cache.stats().front_size, 16);
}

// ---------------------------------------------------- ThreadSafeQueue

TEST(ThreadSafeQueue, FifoWithinSingleProducer) {
  ThreadSafeQueue<int> q;
  q.push(1);
  q.push(2);
  q.push(3);
  EXPECT_EQ(q.pop(), std::optional<int>(1));
  EXPECT_EQ(q.pop(), std::optional<int>(2));
  EXPECT_EQ(q.pop(), std::optional<int>(3));
}

TEST(ThreadSafeQueue, TryPushRespectsCapacity) {
  ThreadSafeQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));  // full
  EXPECT_EQ(q.pop(), std::optional<int>(1));
  EXPECT_TRUE(q.try_push(3));
}

TEST(ThreadSafeQueue, CloseDrainsThenReturnsNullopt) {
  ThreadSafeQueue<int> q;
  q.push(7);
  q.close();
  EXPECT_FALSE(q.push(8));  // rejected after close
  EXPECT_EQ(q.pop(), std::optional<int>(7));
  EXPECT_EQ(q.pop(), std::nullopt);
  EXPECT_TRUE(q.closed());
}

TEST(ThreadSafeQueue, CloseWakesBlockedConsumer) {
  ThreadSafeQueue<int> q;
  std::thread consumer([&q] { EXPECT_EQ(q.pop(), std::nullopt); });
  q.close();
  consumer.join();
}

TEST(ThreadSafeQueue, BoundedHandoffDeliversEverythingInOrder) {
  // Producer outruns a capacity-4 queue; backpressure must not drop or
  // reorder.
  ThreadSafeQueue<int> q(4);
  constexpr int kItems = 1000;
  std::vector<int> got;
  got.reserve(kItems);
  std::thread consumer([&q, &got] {
    while (auto v = q.pop()) {
      got.push_back(*v);
    }
  });
  for (int i = 0; i < kItems; ++i) {
    EXPECT_TRUE(q.push(i));
  }
  q.close();
  consumer.join();
  ASSERT_EQ(got.size(), kItems);
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
}

// ------------------------------------------------- ThreadPool pending

TEST(ThreadPool, PendingTracksSubmittedMinusFinished) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.pending(), 0);
  std::atomic<bool> release{false};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(pool.submit([&release] {
      while (!release.load()) {
        std::this_thread::yield();
      }
    }));
  }
  EXPECT_EQ(pool.pending(), 4);  // 2 running + 2 queued
  release.store(true);
  for (auto& f : futures) f.get();
  // Workers decrement after completing the job body; getting the
  // future guarantees the body ran, then the counter lands at 0.
  while (pool.pending() != 0) {
    std::this_thread::yield();
  }
  EXPECT_EQ(pool.pending(), 0);
}

}  // namespace
}  // namespace oregami::server
