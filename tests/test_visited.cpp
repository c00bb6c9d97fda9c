// Tests for the exact visited-state bookkeeping of the journey search
// engine (visited.hpp), plus a regression locking config_bfs to exact
// (node, time) dedup: the seed engine inserted only a 64-bit *hash* of
// each configuration into its visited set, so a collision could silently
// drop a reachable configuration and corrupt reachability under NoWait /
// BoundedWait.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "tvg/algorithms.hpp"
#include "tvg/generators.hpp"
#include "tvg/journey.hpp"
#include "tvg/visited.hpp"

namespace tvg {
namespace {

TEST(ConfigVisitedSet, InsertIsExactAndIdempotent) {
  ConfigVisitedSet set;
  EXPECT_TRUE(set.empty());
  EXPECT_TRUE(set.insert(3, 7));
  EXPECT_FALSE(set.insert(3, 7));
  EXPECT_TRUE(set.insert(3, 8));
  EXPECT_TRUE(set.insert(4, 7));
  EXPECT_EQ(set.size(), 3u);
  EXPECT_TRUE(set.contains(3, 7));
  EXPECT_TRUE(set.contains(3, 8));
  EXPECT_TRUE(set.contains(4, 7));
  EXPECT_FALSE(set.contains(4, 8));
  set.clear();
  EXPECT_TRUE(set.empty());
  EXPECT_FALSE(set.contains(3, 7));
}

TEST(ConfigVisitedSet, PackIsInjectiveOnDomainCorners) {
  const NodeId vmax = ConfigVisitedSet::kMaxPackedNode;
  const Time tmax = ConfigVisitedSet::kMaxPackedTime;
  EXPECT_TRUE(ConfigVisitedSet::packable(0, 0));
  EXPECT_TRUE(ConfigVisitedSet::packable(vmax, tmax));
  EXPECT_FALSE(ConfigVisitedSet::packable(vmax + 1, 0));
  EXPECT_FALSE(ConfigVisitedSet::packable(0, tmax + 1));
  EXPECT_FALSE(ConfigVisitedSet::packable(0, Time{-1}));
  EXPECT_FALSE(ConfigVisitedSet::packable(0, kTimeInfinity));

  std::set<std::uint64_t> keys;
  for (NodeId v : {NodeId{0}, NodeId{1}, vmax}) {
    for (Time t : {Time{0}, Time{1}, tmax}) {
      keys.insert(ConfigVisitedSet::pack(v, t));
    }
  }
  EXPECT_EQ(keys.size(), 9u);
}

TEST(ConfigVisitedSet, AliasingPairsBeyondPackedRangeStayDistinct) {
  // (1, 0) packs to 1 << 40. Without the range guard, (0, 1 << 40) would
  // produce the same key — the injected-collision shape the hash-only
  // seed dedup could never rule out. Both must stay distinct members.
  ConfigVisitedSet set;
  const Time aliasing_time = Time{1} << ConfigVisitedSet::kPackedTimeBits;
  EXPECT_TRUE(set.insert(1, 0));
  EXPECT_TRUE(set.insert(0, aliasing_time));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.contains(1, 0));
  EXPECT_TRUE(set.contains(0, aliasing_time));
  EXPECT_FALSE(set.contains(1, aliasing_time));
  EXPECT_FALSE(set.contains(0, Time{0}));

  // Node ids beyond the packed range take the fallback path and stay
  // exact and idempotent there too.
  const NodeId big = ConfigVisitedSet::kMaxPackedNode + 1;
  EXPECT_TRUE(set.insert(big, 5));
  EXPECT_FALSE(set.insert(big, 5));
  EXPECT_TRUE(set.insert(big, 6));
  EXPECT_TRUE(set.contains(big, 5));
  EXPECT_FALSE(set.contains(big, 7));
  EXPECT_EQ(set.size(), 4u);
}

TEST(ConfigVisitedSet, DenseGridIsExact) {
  ConfigVisitedSet set;
  constexpr NodeId kNodes = 64;
  constexpr Time kTimes = 512;
  for (NodeId v = 0; v < kNodes; ++v) {
    for (Time t = 0; t < kTimes; ++t) {
      ASSERT_TRUE(set.insert(v, t)) << "dropped (" << v << ", " << t << ")";
    }
  }
  EXPECT_EQ(set.size(), static_cast<std::size_t>(kNodes) * kTimes);
  for (NodeId v = 0; v < kNodes; ++v) {
    for (Time t = 0; t < kTimes; ++t) {
      ASSERT_FALSE(set.insert(v, t)) << "re-admitted (" << v << ", " << t
                                     << ")";
    }
  }
}

TEST(ConfigAdmission, ClampsHorizonAndRejectsSentinel) {
  ConfigAdmission adm(10);
  EXPECT_TRUE(adm.admit(0, 10));
  EXPECT_FALSE(adm.admit(0, 11));
  EXPECT_FALSE(adm.admit(0, kTimeInfinity));
  EXPECT_FALSE(adm.admit(0, 10));  // already visited
  EXPECT_TRUE(adm.admit(1, 10));
  EXPECT_EQ(adm.visited().size(), 2u);
}

TEST(ConfigAdmission, InfiniteHorizonStillRejectsSentinel) {
  ConfigAdmission adm(kTimeInfinity);
  EXPECT_TRUE(adm.admit(0, kTimeInfinity - 1));
  EXPECT_FALSE(adm.admit(0, kTimeInfinity));
  EXPECT_EQ(adm.visited().size(), 1u);
}

// Regression for the exact-visited-set fix: force many distinct
// (node, time) configurations through config_bfs (dense periodic
// schedules under BoundedWait) and check its arrivals against the
// Wait-policy Dijkstra path, which never relies on config dedup. With the
// waiting bound set to the full horizon the two policies admit the same
// journeys inside the window, so any disagreement means the BFS dropped
// or duplicated a configuration.
TEST(ConfigBfsRegression, BoundedWaitAgreesWithWaitDijkstra) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    RandomPeriodicParams params;
    params.nodes = 12;
    params.edges = 48;
    params.period = 6;
    params.density = 0.6;
    params.max_latency = 1;
    params.seed = seed;
    const TimeVaryingGraph g = make_random_periodic(params);
    ASSERT_TRUE(g.all_constant_latency());

    SearchLimits limits;
    limits.horizon = 64;
    const Policy bounded = Policy::bounded_wait(limits.horizon);

    SearchWorkspace ws;
    for (NodeId src = 0; src < g.node_count(); ++src) {
      const ForemostTree bfs =
          foremost_arrivals(g, src, 0, bounded, limits, ws);
      const ForemostTree dij =
          foremost_arrivals(g, src, 0, Policy::wait(), limits, ws);
      ASSERT_FALSE(bfs.truncated) << "seed=" << seed << " src=" << src;
      ASSERT_FALSE(dij.truncated) << "seed=" << seed << " src=" << src;
      for (NodeId v = 0; v < g.node_count(); ++v) {
        EXPECT_EQ(bfs.arrival[v], dij.arrival[v])
            << "seed=" << seed << " src=" << src << " node=" << v;
        if (bfs.arrival[v] == kTimeInfinity) continue;
        const auto j = bfs.journey_to(v);
        ASSERT_TRUE(j.has_value())
            << "seed=" << seed << " src=" << src << " node=" << v;
        const auto valid = validate_journey(g, *j, bounded);
        EXPECT_TRUE(valid.ok)
            << "seed=" << seed << " src=" << src << " node=" << v << ": "
            << valid.reason;
        if (v != src) {
          EXPECT_EQ(j->arrival(g), bfs.arrival[v])
              << "seed=" << seed << " src=" << src << " node=" << v;
        }
      }
    }
  }
}

// The explored configuration list itself must be duplicate-free: under
// exact dedup every (node, time) appears at most once.
TEST(ConfigBfsRegression, ExploredConfigsAreDuplicateFree) {
  RandomPeriodicParams params;
  params.nodes = 10;
  params.edges = 40;
  params.period = 5;
  params.density = 0.7;
  params.max_latency = 1;
  params.seed = 42;
  const TimeVaryingGraph g = make_random_periodic(params);

  SearchLimits limits;
  limits.horizon = 96;
  SearchWorkspace ws;
  const ForemostTree tree =
      foremost_arrivals(g, 0, 0, Policy::bounded_wait(7), limits, ws);
  ASSERT_FALSE(tree.truncated);

  std::set<std::pair<NodeId, Time>> seen;
  for (const auto& c : tree.configs) {
    EXPECT_TRUE(seen.emplace(c.node, c.time).second)
        << "duplicate config (" << c.node << ", " << c.time << ")";
  }
  EXPECT_GT(seen.size(), g.node_count());  // genuinely many configs/node
}

}  // namespace
}  // namespace tvg
