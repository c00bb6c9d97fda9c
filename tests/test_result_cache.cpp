// Tests for the engine-level result cache (src/tvg/result_cache.hpp)
// and its QueryEngine wiring:
//  * a cache hit returns a value equal to a cold run, for every cached
//    entry point (journey / analytics / acceptance; closures are never
//    cached);
//  * LRU eviction holds the entry count at capacity and counts
//    evictions;
//  * hit/miss stats counters are exact on a deterministic sequence;
//  * sweep keys canonicalize (implicit "all sources" = explicit list,
//    thread count and frontier direction excluded);
//  * per-edge invalidation drops exactly the entries whose footprint a
//    mutation touches;
//  * concurrent hammering of one hot key is safe (run under TSan/ASan in
//    CI) and every thread sees the cold-run value;
//  * property test: a caching engine and a cache-disabled engine agree
//    result-for-result on randomized query streams with repeats.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <thread>
#include <vector>

#include "tvg/generators.hpp"
#include "tvg/query_engine.hpp"
#include "tvg/result_cache.hpp"

namespace {

using namespace tvg;

TimeVaryingGraph test_graph(std::uint64_t seed) {
  RandomScheduledParams params;
  params.nodes = 9;
  params.edges = 24;
  params.horizon = 40;
  params.seed = seed;
  return make_random_scheduled(params);
}

TEST(ResultCache, JourneyHitEqualsColdRun) {
  const TimeVaryingGraph g = test_graph(1);
  const QueryEngine cached(g);
  const QueryEngine cold(g, 1, CacheConfig::disabled());
  ASSERT_TRUE(cached.cache_enabled());
  ASSERT_FALSE(cold.cache_enabled());
  for (const JourneyQuery& q :
       {JourneyQuery::foremost(0, 0).to(4).under(Policy::wait()),
        JourneyQuery::foremost(1, 2).under(Policy::bounded_wait(3)),
        JourneyQuery::shortest(0, 5, 0).under(Policy::wait()),
        JourneyQuery::fastest(0, 3, 0, 20).under(Policy::no_wait())}) {
    const JourneyResult first = cached.run(q);   // miss
    const JourneyResult second = cached.run(q);  // hit
    EXPECT_EQ(first, second);
    EXPECT_EQ(first, cold.run(q));
  }
  const CacheStats stats = cached.cache_stats();
  EXPECT_EQ(stats.hits, 4u);
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.entries, 4u);
  EXPECT_EQ(cold.cache_stats().hits + cold.cache_stats().misses, 0u);
}

TEST(ResultCache, TryCachedCountsOnlyHitsAndEqualsRun) {
  const TimeVaryingGraph g = test_graph(1);
  const QueryEngine engine(g);
  const JourneyQuery q = JourneyQuery::foremost(0, 0).under(Policy::wait());

  // A probe miss is left for the run() that follows it to count.
  EXPECT_FALSE(engine.try_cached(q).has_value());
  EXPECT_EQ(engine.cache_stats().misses, 0u);
  const JourneyResult cold = engine.run(q);
  EXPECT_EQ(engine.cache_stats().misses, 1u);

  const std::optional<JourneyResult> hit = engine.try_cached(q);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, cold);
  const CacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);

  const QueryEngine uncached(g, 1, CacheConfig::disabled());
  (void)uncached.run(q);
  EXPECT_FALSE(uncached.try_cached(q).has_value());
}

TEST(ResultCache, ClosureAndAcceptHitsEqualColdRuns) {
  const TimeVaryingGraph g = test_graph(2);
  const QueryEngine cached(g);
  const QueryEngine cold(g, 1, CacheConfig::disabled());

  ClosureQuery cq;
  cq.limits = SearchLimits::up_to(100);
  const ClosureResult closure_first = cached.closure(cq);
  EXPECT_EQ(closure_first, cached.closure(cq));
  EXPECT_EQ(closure_first, cold.closure(cq));

  AcceptSpec spec;
  spec.initial = {0};
  spec.accepting = {1, 2};
  spec.policy = Policy::wait();
  spec.horizon = 60;
  const std::vector<Word> words{"a", "ab", "ba", "abb"};
  const auto accept_first = cached.accepts(spec, words);
  EXPECT_EQ(accept_first, cached.accepts(spec, words));
  EXPECT_EQ(accept_first, cold.accepts(spec, words));

  // Closure row blocks are never cached: only the accepts count.
  const CacheStats stats = cached.cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ResultCache, SweepKeyCanonicalizesSourcesAndIgnoresThreads) {
  const TimeVaryingGraph g = test_graph(3);
  const QueryEngine engine(g);
  KReachabilityQuery all_implicit;
  all_implicit.closure.limits = SearchLimits::up_to(100);
  all_implicit.closure.threads = 1;
  all_implicit.k = 2;
  const KReachabilityResult first = engine.k_reachability(all_implicit);

  KReachabilityQuery all_explicit = all_implicit;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    all_explicit.closure.sources.push_back(v);
  }
  // Scheduling knobs: not part of the key.
  all_explicit.closure.threads = 2;
  all_explicit.closure.direction.mode = FrontierMode::kPullOnly;
  const KReachabilityResult second = engine.k_reachability(all_explicit);
  EXPECT_EQ(first, second);
  const CacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(ResultCache, EvictsLeastRecentlyUsedAtCapacity) {
  const TimeVaryingGraph g = test_graph(4);
  CacheConfig config;
  config.capacity = 4;
  config.shards = 1;  // one stripe so the LRU order is global
  const QueryEngine engine(g, 1, config);
  for (NodeId target = 0; target < 8; ++target) {
    (void)engine.run(JourneyQuery::foremost(0, 0).to(target));
  }
  CacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.entries, 4u);
  EXPECT_EQ(stats.evictions, 4u);
  EXPECT_EQ(stats.misses, 8u);
  // Targets 4..7 are resident (hits); 0..3 were evicted (misses again).
  for (NodeId target = 4; target < 8; ++target) {
    (void)engine.run(JourneyQuery::foremost(0, 0).to(target));
  }
  stats = engine.cache_stats();
  EXPECT_EQ(stats.hits, 4u);
  EXPECT_EQ(stats.misses, 8u);
  for (NodeId target = 0; target < 4; ++target) {
    (void)engine.run(JourneyQuery::foremost(0, 0).to(target));
  }
  stats = engine.cache_stats();
  EXPECT_EQ(stats.hits, 4u);
  EXPECT_EQ(stats.misses, 12u);
  EXPECT_EQ(stats.entries, 4u);
}

TEST(ResultCache, ByteBudgetEvictsLruTail) {
  // Store-level check of the byte-weighted accounting: with a budget of
  // 100 bytes on one shard, 30-byte entries fit three at a time and a
  // fourth insert evicts the least recently used.
  CacheConfig config;
  config.capacity = 64;  // entry count never binds in this test
  config.max_bytes = 100;
  config.shards = 1;
  ResultCache cache(config);
  auto key_for = [](NodeId target) {
    return QueryKey::journey(JourneyQuery::foremost(0, 0).to(target));
  };
  auto value = std::make_shared<const int>(7);
  for (NodeId target = 0; target < 3; ++target) {
    cache.insert(key_for(target), value, 30);
  }
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.bytes, 90u);
  EXPECT_EQ(stats.evictions, 0u);
  cache.insert(key_for(3), value, 30);  // 120 > 100: evict one
  stats = cache.stats();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.bytes, 90u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(cache.find(key_for(0)), nullptr);  // the LRU tail
  EXPECT_NE(cache.find(key_for(3)), nullptr);
  // A single value over the whole shard budget is rejected outright —
  // caching it would wipe the shard and still not fit.
  cache.insert(key_for(4), value, 101);
  stats = cache.stats();
  EXPECT_EQ(stats.oversized_rejects, 1u);
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(cache.find(key_for(4)), nullptr);
  // A refresh that grows an entry re-balances the budget.
  cache.insert(key_for(3), value, 80);  // 80 + 2*30 > 100
  stats = cache.stats();
  EXPECT_LE(stats.bytes, 100u);
  EXPECT_NE(cache.find(key_for(3)), nullptr);
}

TEST(ResultCache, ByteBudgetBoundsClosureHeavyEngines) {
  // Engine-level: distinct untargeted foremost scans each cache an
  // n-sized arrival row, far heavier than one targeted journey entry; a
  // byte budget keeps the resident set bounded where the default
  // count-based accounting would happily hold `capacity` of them.
  const TimeVaryingGraph g = test_graph(6);
  const std::size_t row_entry =
      sizeof(JourneyResult) + g.node_count() * sizeof(Time);
  CacheConfig config;
  config.capacity = 1024;
  config.max_bytes = 4 * row_entry;  // room for a few rows, not 64
  config.shards = 1;
  const auto scan = [](Time t0) {
    return JourneyQuery::foremost(static_cast<NodeId>(t0 % 9), t0)
        .within(SearchLimits::up_to(200));
  };
  const QueryEngine engine(g, 1, config);
  for (Time t0 = 0; t0 < 64; ++t0) (void)engine.run(scan(t0));
  const CacheStats stats = engine.cache_stats();
  EXPECT_LE(stats.bytes, config.max_bytes);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.entries, 0u);
  EXPECT_LT(stats.entries, 64u);
  // Count-based default (max_bytes = 0): all 64 rows stay resident and
  // no byte accounting is reported.
  const QueryEngine unbounded(g, 1, CacheConfig{});
  for (Time t0 = 0; t0 < 64; ++t0) (void)unbounded.run(scan(t0));
  EXPECT_EQ(unbounded.cache_stats().entries, 64u);
  EXPECT_EQ(unbounded.cache_stats().bytes, 0u);
}

TEST(ResultCache, ClearDropsEntriesAndKeepsCounters) {
  const TimeVaryingGraph g = test_graph(5);
  const QueryEngine engine(g);
  (void)engine.run(JourneyQuery::foremost(0, 0).to(1));
  ASSERT_EQ(engine.cache_stats().entries, 1u);
  engine.clear_cache();
  CacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.misses, 1u);
  (void)engine.run(JourneyQuery::foremost(0, 0).to(1));
  EXPECT_EQ(engine.cache_stats().misses, 2u);
}

TEST(ResultCache, QueryKeyDistinguishesQueriesAndWordOrder) {
  const auto base = JourneyQuery::foremost(0, 0).to(1);
  EXPECT_EQ(QueryKey::journey(base), QueryKey::journey(base));
  auto other = base;
  other.start_time = 1;
  EXPECT_FALSE(QueryKey::journey(base) == QueryKey::journey(other));
  auto shortest = JourneyQuery::shortest(0, 1, 0);
  EXPECT_FALSE(QueryKey::journey(base) == QueryKey::journey(shortest));

  // Non-semantic fields are canonicalized away: depart_hi is only read
  // by kFastest, Policy::bound only by kBoundedWait.
  auto stale_window = base;
  stale_window.depart_hi = 30;  // e.g. a struct reused from a fastest run
  EXPECT_EQ(QueryKey::journey(base), QueryKey::journey(stale_window));
  auto fastest_a = JourneyQuery::fastest(0, 1, 0, 20);
  auto fastest_b = JourneyQuery::fastest(0, 1, 0, 30);
  EXPECT_FALSE(QueryKey::journey(fastest_a) == QueryKey::journey(fastest_b));
  auto stale_bound = base;  // base's policy is the default Policy::wait()
  stale_bound.policy = Policy{WaitingPolicy::kWait, /*bound=*/7};
  EXPECT_EQ(QueryKey::journey(base), QueryKey::journey(stale_bound));

  AcceptSpec spec;
  spec.initial = {0};
  spec.accepting = {1};
  const std::vector<Word> ab{"a", "b"};
  const std::vector<Word> ba{"b", "a"};
  const std::vector<Word> joined{"ab"};
  EXPECT_EQ(QueryKey::accept(spec, ab), QueryKey::accept(spec, ab));
  EXPECT_FALSE(QueryKey::accept(spec, ab) == QueryKey::accept(spec, ba));
  // Length prefixes keep ["a","b"] distinct from ["ab"].
  EXPECT_FALSE(QueryKey::accept(spec, ab) == QueryKey::accept(spec, joined));
}

TEST(ResultCache, QueryKeysAreConsistentWithEquality) {
  // QueryKey is the one canonical encoding of a request: equal queries
  // key equal, a semantic field change splits the key, and a field the
  // query's shape never reads does not.
  const auto q1 = JourneyQuery::fastest(0, 1, 2, 9).under(Policy::wait());
  auto q2 = q1;
  EXPECT_EQ(q1, q2);
  EXPECT_EQ(QueryKey::journey(q1), QueryKey::journey(q2));
  q2.depart_hi = 10;
  EXPECT_FALSE(q1 == q2);
  EXPECT_FALSE(QueryKey::journey(q1) == QueryKey::journey(q2));

  const auto under = [](Policy p) {
    return QueryKey::journey(JourneyQuery::foremost(0, 0).under(p));
  };
  const Policy p1 = Policy::bounded_wait(4);
  EXPECT_EQ(p1, Policy::bounded_wait(4));
  EXPECT_EQ(under(p1), under(Policy::bounded_wait(4)));
  EXPECT_FALSE(under(Policy::wait()) == under(Policy::no_wait()));
  EXPECT_FALSE(under(Policy::bounded_wait(4)) ==
               under(Policy::bounded_wait(5)));
  // Policy::bound is only read by kBoundedWait: a stale bound differs
  // under ==, yet keys the same entry.
  const Policy stale{WaitingPolicy::kWait, /*bound=*/7};
  EXPECT_FALSE(stale == Policy::wait());
  EXPECT_EQ(under(stale), under(Policy::wait()));

  const SearchLimits l1 = SearchLimits::up_to(100);
  EXPECT_EQ(l1, SearchLimits::up_to(100));
  EXPECT_EQ(QueryKey::journey(JourneyQuery::foremost(0, 0).within(l1)),
            QueryKey::journey(
                JourneyQuery::foremost(0, 0).within(SearchLimits::up_to(100))));

  AcceptSpec s1;
  s1.initial = {0, 2};
  AcceptSpec s2 = s1;
  EXPECT_EQ(s1, s2);
  const std::vector<Word> words{"ab"};
  EXPECT_EQ(QueryKey::accept(s1, words), QueryKey::accept(s2, words));

  KReachabilityQuery k1;
  k1.closure.sources = {3, 1};
  KReachabilityQuery k2 = k1;
  EXPECT_EQ(k1, k2);
  EXPECT_EQ(QueryKey::k_reachability(k1, k1.closure.sources),
            QueryKey::k_reachability(k2, k2.closure.sources));
  BetweennessQuery b1;
  b1.sources = {3, 1};
  BetweennessQuery b2 = b1;
  EXPECT_EQ(b1, b2);
  EXPECT_EQ(QueryKey::betweenness(b1, b1.sources),
            QueryKey::betweenness(b2, b2.sources));
}

TEST(ResultCache, ConcurrentHotKeyHammeringIsSafeAndConsistent) {
  const TimeVaryingGraph g = test_graph(7);
  const QueryEngine engine(g);
  const QueryEngine cold(g, 1, CacheConfig::disabled());
  const auto hot = JourneyQuery::foremost(0, 0).under(Policy::wait());
  const JourneyResult expected = cold.run(hot);
  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  std::vector<int> mismatches(kThreads, 0);
  {
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        for (int i = 0; i < kIters; ++i) {
          // One cold-able side query per thread keeps insert/evict/find
          // interleavings in play alongside the hot key.
          if (i % 16 == 0) {
            (void)engine.run(JourneyQuery::foremost(
                static_cast<NodeId>(t % 4), i % 8));
          }
          if (!(engine.run(hot) == expected)) ++mismatches[t];
        }
      });
    }
    for (std::thread& w : workers) w.join();
  }
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << t;
  const CacheStats stats = engine.cache_stats();
  EXPECT_GE(stats.hits, static_cast<std::uint64_t>(kThreads * kIters / 2));
}

TEST(ResultCache, StatsSnapshotsAreConsistentUnderConcurrentTraffic) {
  // Regression guard for cache_stats() during traffic: each shard's
  // counters are snapshotted under that shard's lock, so a concurrent
  // reader must never observe torn or non-monotone aggregates (e.g. a
  // hit counted before its lookup, or totals that go backwards between
  // two stats() calls).
  const TimeVaryingGraph g = test_graph(9);
  CacheConfig config;
  config.capacity = 32;  // small: concurrent evictions stay in play
  config.shards = 4;
  const QueryEngine engine(g, 1, config);
  constexpr int kWriters = 6;
  constexpr int kIters = 300;

  // Every engine.run below counts here BEFORE the lookup it causes, so
  // at any instant issued >= hits + misses seen by a stats() reader.
  std::atomic<std::uint64_t> issued{0};
  std::atomic<bool> done{false};
  std::atomic<int> violations{0};

  std::thread reader([&] {
    CacheStats last;
    while (!done.load(std::memory_order_acquire)) {
      const CacheStats now = engine.cache_stats();
      const bool monotone = now.hits >= last.hits &&
                            now.misses >= last.misses &&
                            now.evictions >= last.evictions;
      if (!monotone) violations.fetch_add(1, std::memory_order_relaxed);
      if (now.hits + now.misses > issued.load(std::memory_order_acquire)) {
        violations.fetch_add(1, std::memory_order_relaxed);
      }
      last = now;
      std::this_thread::yield();
    }
  });
  {
    std::vector<std::thread> writers;
    writers.reserve(kWriters);
    for (int t = 0; t < kWriters; ++t) {
      writers.emplace_back([&, t] {
        for (int i = 0; i < kIters; ++i) {
          const auto q = JourneyQuery::foremost(
              static_cast<NodeId>((t + i) % 8), i % 6);
          issued.fetch_add(1, std::memory_order_release);
          (void)engine.run(q);
        }
      });
    }
    for (std::thread& w : writers) w.join();
  }
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(violations.load(), 0);
  // Quiescent accounting: every issued lookup is exactly one hit or one
  // miss, and the entry count respects capacity.
  const CacheStats final_stats = engine.cache_stats();
  EXPECT_EQ(final_stats.hits + final_stats.misses, issued.load());
  EXPECT_EQ(issued.load(), std::uint64_t{kWriters} * kIters);
  EXPECT_LE(final_stats.entries, config.capacity);
}

TEST(ResultCache, CachingAndUncachedEnginesAgreeOnRandomStreams) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const TimeVaryingGraph g = test_graph(10 + seed);
    CacheConfig small;
    small.capacity = 16;  // force evictions mid-stream
    small.shards = 2;
    const QueryEngine cached(g, 1, small);
    const QueryEngine cold(g, 1, CacheConfig::disabled());

    std::mt19937_64 rng(seed * 77);
    // A pool of 24 distinct queries, sampled with heavy repetition.
    std::vector<JourneyQuery> pool;
    for (int i = 0; i < 24; ++i) {
      const auto src = static_cast<NodeId>(rng() % g.node_count());
      const auto dst = static_cast<NodeId>(rng() % g.node_count());
      const Time t0 = static_cast<Time>(rng() % 10);
      const Policy policy = (i % 3 == 0)   ? Policy::wait()
                            : (i % 3 == 1) ? Policy::no_wait()
                                           : Policy::bounded_wait(i % 5);
      switch (i % 4) {
        case 0:
          pool.push_back(JourneyQuery::foremost(src, t0).under(policy));
          break;
        case 1:
          pool.push_back(JourneyQuery::foremost(src, t0).to(dst).under(policy));
          break;
        case 2:
          pool.push_back(JourneyQuery::shortest(src, dst, t0).under(policy));
          break;
        default:
          pool.push_back(
              JourneyQuery::fastest(src, dst, t0, t0 + 15).under(policy));
          break;
      }
      pool.back().within(SearchLimits::up_to(80));
    }
    for (int step = 0; step < 300; ++step) {
      const JourneyQuery& q = pool[rng() % pool.size()];
      EXPECT_EQ(cached.run(q), cold.run(q)) << "seed=" << seed
                                            << " step=" << step;
    }
    // Interleave the other entry points through the same small cache.
    ClosureQuery cq;
    cq.limits = SearchLimits::up_to(80);
    EXPECT_EQ(cached.closure(cq), cold.closure(cq));
    EXPECT_EQ(cached.closure(cq), cold.closure(cq));
    const CacheStats stats = cached.cache_stats();
    EXPECT_GT(stats.hits, 0u);
    EXPECT_GT(stats.evictions, 0u);
  }
}

TEST(ResultCache, InvalidateKeysTouchingDropsByFootprintOnly) {
  // Store-level check of the per-edge staleness contract: after a write
  // stamp, an entry computed before it dies at its next lookup iff its
  // footprint intersects a touched endpoint's partition.
  ResultCache cache(CacheConfig{});
  auto key_for = [](NodeId target) {
    return QueryKey::journey(JourneyQuery::foremost(0, 0).to(target));
  };
  auto value = std::make_shared<const int>(1);
  cache.insert(key_for(0), value, 1, footprint_bit(0) | footprint_bit(1), 0);
  cache.insert(key_for(1), value, 1, footprint_bit(2) | footprint_bit(3), 0);
  cache.insert(key_for(2), value, 1, kFootprintAll, 0);
  ASSERT_EQ(cache.stats().entries, 3u);

  // A write to edge 2 -> 3 at sequence 1. The stamp walks nothing.
  cache.stamp(footprint_bit(2) | footprint_bit(3), 1);
  EXPECT_EQ(cache.stats().entries, 3u);
  EXPECT_EQ(cache.stats().invalidations, 0u);
  // {2,3} intersects, kFootprintAll intersects everything, {0,1} survives.
  EXPECT_NE(cache.find(key_for(0)), nullptr);
  EXPECT_EQ(cache.find(key_for(1)), nullptr);
  EXPECT_EQ(cache.find(key_for(2)), nullptr);
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.invalidations, 2u);
  EXPECT_EQ(stats.survivors, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  // The survivor is now known valid as of sequence 1: a second hit does
  // not count it again.
  EXPECT_NE(cache.find(key_for(0)), nullptr);
  EXPECT_EQ(cache.stats().survivors, 1u);

  // Partitions alias mod 64: node 65 lands in partition 1, so the {0,1}
  // entry is (conservatively, correctly) dropped by a far-away edge.
  cache.stamp(footprint_bit(65) | footprint_bit(70), 2);
  EXPECT_EQ(cache.find(key_for(0)), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 3u);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ResultCache, StaleInsertMissesAndNewerEntryWins) {
  ResultCache cache(CacheConfig{});
  const QueryKey key = QueryKey::journey(JourneyQuery::foremost(0, 0).to(2));
  const std::uint64_t footprint = footprint_bit(0) | footprint_bit(2);

  // Computed at sequence 5; a write at 6 touches its footprint before
  // the insert lands. The insert goes in, and the lookup misses.
  cache.stamp(footprint_bit(2), 6);
  cache.insert(key, std::make_shared<const int>(5), 1, footprint, 5);
  EXPECT_EQ(cache.find(key), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);

  // Computed at 6, after that write: served.
  cache.insert(key, std::make_shared<const int>(6), 1, footprint, 6);
  auto hit = cache.find(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*static_cast<const int*>(hit.get()), 6);

  // A slower reader's result computed at 5 never replaces the entry
  // computed at 6; one computed at 7 does.
  cache.insert(key, std::make_shared<const int>(5), 1, footprint, 5);
  hit = cache.find(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*static_cast<const int*>(hit.get()), 6);
  cache.insert(key, std::make_shared<const int>(7), 1, footprint, 7);
  hit = cache.find(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*static_cast<const int*>(hit.get()), 7);
  EXPECT_EQ(cache.stats().entries, 1u);

  // probe() drops a stale entry too, without counting the miss.
  cache.stamp(footprint_bit(0), 8);
  EXPECT_EQ(cache.probe(key), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 2u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(ResultCache, NoHitOlderThanACompletedWrite) {
  // The engine-level invariant: once apply returns, no lookup serves a
  // result computed before that write on a footprint it touched. Readers
  // keep computing (and inserting) the journey on captures that race the
  // writer; after every apply the writer's own run must see the write.
  TimeVaryingGraph g;
  g.add_nodes(2);
  const EdgeId e =
      g.add_edge(0, 1, 'a', Presence::always(), Latency::constant(1));
  QueryEngine engine(std::move(g), 1);
  const auto q = JourneyQuery::foremost(0, 0).to(1);
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) (void)engine.run(q);
    });
  }
  for (Time k = 2; k < 300; ++k) {
    engine.override_latency(e, Latency::constant(k));
    const Time arrival = engine.run(q).arrival;
    EXPECT_EQ(arrival, k) << "after write " << k;
    if (arrival != k) break;
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& r : readers) r.join();
  EXPECT_GT(engine.cache_stats().invalidations, 0u);
}

TEST(ResultCache, ConcurrentInvalidationUnderTrafficIsSafeAndAccounted) {
  // A stamping thread races inserts and finds (run under TSan in CI);
  // the quiescent accounting below catches lost updates either way.
  CacheConfig config;
  config.shards = 4;
  config.capacity = 4096;  // never binds: evictions stay out of the way
  ResultCache cache(config);
  constexpr int kWriters = 4;
  constexpr int kIters = 400;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> sequence{0};

  std::thread stamper([&] {
    std::mt19937_64 rng(99);
    while (!stop.load(std::memory_order_acquire)) {
      const auto v = static_cast<NodeId>(rng() % 64);
      // One stamping thread: sequences stay increasing.
      cache.stamp(
          footprint_bit(v) | footprint_bit(static_cast<NodeId>((v + 1) % 64)),
          sequence.fetch_add(1, std::memory_order_acq_rel) + 1);
      std::this_thread::yield();
    }
  });
  {
    std::vector<std::thread> writers;
    writers.reserve(kWriters);
    for (int t = 0; t < kWriters; ++t) {
      writers.emplace_back([&, t] {
        auto value = std::make_shared<const int>(t);
        for (int i = 0; i < kIters; ++i) {
          // Unique key per insert: a refresh would break the quiescent
          // accounting below.
          const auto target = static_cast<NodeId>(t * kIters + i);
          const QueryKey key =
              QueryKey::journey(JourneyQuery::foremost(0, 0).to(target));
          cache.insert(key, value, 1, footprint_bit(target) | footprint_bit(0),
                       sequence.load(std::memory_order_acquire));
          (void)cache.find(key);
        }
      });
    }
    for (std::thread& w : writers) w.join();
  }
  stop.store(true, std::memory_order_release);
  stamper.join();

  // Nothing was evicted, so every entry ever inserted is either resident
  // now or was dropped stale at its lookup; every lookup was a hit or a
  // miss, and every stale drop was a miss.
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.entries + stats.invalidations,
            std::uint64_t{kWriters} * kIters);
  EXPECT_EQ(stats.hits + stats.misses, std::uint64_t{kWriters} * kIters);
  EXPECT_EQ(stats.misses, stats.invalidations);
  EXPECT_LE(stats.survivors, stats.hits);
}

TEST(ResultCache, BatchRunServesHitsAndComputesMisses) {
  const TimeVaryingGraph g = test_graph(20);
  const QueryEngine engine(g);
  std::vector<JourneyQuery> queries;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    queries.push_back(JourneyQuery::foremost(0, 0).to(v));
  }
  // Warm half the batch through single runs.
  for (std::size_t i = 0; i < queries.size() / 2; ++i) {
    (void)engine.run(queries[i]);
  }
  const auto warm_misses = engine.cache_stats().misses;
  const auto batched = engine.run(queries, /*threads=*/2);
  const CacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.misses, warm_misses + queries.size() - queries.size() / 2);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(batched[i], engine.run(queries[i])) << i;
  }
}

}  // namespace
