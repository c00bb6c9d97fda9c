// Property tests for the bit-parallel multi-source reachability kernel
// (detail::Kernels<FrozenView>::multi_source_foremost, read_core.hpp)
// and its QueryEngine::closure wiring:
//  * packed rows are bit-identical to per-source foremost_scan on
//    randomized graphs, across all three policies, in both compiled
//    schedule modes (bitmask segments and endpoint runs), at bounded
//    horizons and at horizons past the calendar queue's ring (none at
//    all, and 2^15);
//  * source counts from 1 to 130 cross the 64-lane word boundaries
//    (1 word partial, exactly 1, 2 words, 3 words partial), with
//    duplicate sources allowed;
//  * fallback edges mixed in (exact-predicate schedules, non-constant
//    latencies) route the whole sweep through the per-source serial
//    path, which must still agree;
//  * tiny budgets make the packed guards fire, and the fallback then
//    reproduces serial truncation bit for bit (rows AND flags);
//  * the engine's word-group sharding stays bit-identical to serial at
//    any thread count across word boundaries.
#include <gtest/gtest.h>

#include <initializer_list>
#include <vector>

#include "tvg/algorithms.hpp"
#include "tvg/generators.hpp"
#include "tvg/latency.hpp"
#include "tvg/presence.hpp"
#include "tvg/query_engine.hpp"
#include "tvg/read_core.hpp"
#include "tvg/schedule_index.hpp"

namespace {

using namespace tvg;

struct Rows {
  std::vector<std::vector<Time>> rows;
  std::vector<char> truncated;

  friend bool operator==(const Rows&, const Rows&) = default;
};

Rows serial_rows(const TimeVaryingGraph& g, const std::vector<NodeId>& sources,
                 Time start_time, Policy policy, SearchLimits limits) {
  Rows out;
  out.rows.resize(sources.size());
  out.truncated.resize(sources.size());
  SearchWorkspace ws;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const ForemostScan scan =
        foremost_scan(g, sources[i], start_time, policy, limits, ws);
    out.rows[i].assign(scan.arrival.begin(), scan.arrival.end());
    out.truncated[i] = scan.truncated ? 1 : 0;
  }
  return out;
}

Rows packed_rows(const TimeVaryingGraph& g, const std::vector<NodeId>& sources,
                 Time start_time, Policy policy, SearchLimits limits) {
  Rows out;
  out.rows.resize(sources.size());
  out.truncated.resize(sources.size());
  SearchWorkspace ws;
  detail::Kernels<FrozenView>::multi_source_foremost(
      FrozenView(g), sources, start_time, policy, limits, {}, ws.arenas(),
      out.rows, out.truncated);
  return out;
}

/// `count` sources cycling over the node set with a stride, so word
/// boundaries see repeats and non-monotone node orders.
std::vector<NodeId> cycling_sources(const TimeVaryingGraph& g,
                                    std::size_t count) {
  std::vector<NodeId> sources(count);
  for (std::size_t i = 0; i < count; ++i) {
    sources[i] = static_cast<NodeId>((i * 7 + 3) % g.node_count());
  }
  return sources;
}

void expect_all_counts_match(const TimeVaryingGraph& g, Time start_time,
                             SearchLimits limits, const char* label,
                             std::initializer_list<Policy> policies = {
                                 Policy::no_wait(), Policy::bounded_wait(3),
                                 Policy::wait()}) {
  for (const Policy policy : policies) {
    for (const std::size_t count : {1u, 63u, 64u, 65u, 128u, 130u}) {
      const auto sources = cycling_sources(g, count);
      const Rows serial = serial_rows(g, sources, start_time, policy, limits);
      const Rows packed = packed_rows(g, sources, start_time, policy, limits);
      ASSERT_EQ(packed, serial)
          << label << " policy=" << policy.to_string()
          << " sources=" << count;
    }
  }
}

TEST(MultiSourceForemost, MatchesSerialOnBitmaskSchedules) {
  // Period 12 <= 512: both compiled segments are presence bitmasks.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    RandomPeriodicParams params;
    params.nodes = 14;
    params.edges = 40;
    params.period = 12;
    params.seed = seed;
    const TimeVaryingGraph g = make_random_periodic(params);
    expect_all_counts_match(g, 0, SearchLimits::up_to(200), "periodic");
  }
}

TEST(MultiSourceForemost, MatchesSerialPastTheCalendarRing) {
  // No horizon (the default SearchLimits) and 2^15, past the queue's
  // 2^14-instant ring. NoWait / BoundedWait never run out of states on
  // a periodic graph, so they run under a config cap that ends the
  // walks (and fires the packed guard); Wait keeps the default budget.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    RandomPeriodicParams params;
    params.nodes = 14;
    params.edges = 40;
    params.period = 12;
    params.seed = seed;
    const TimeVaryingGraph g = make_random_periodic(params);
    for (const Time horizon : {kTimeInfinity, Time{1} << 15}) {
      const SearchLimits limits = SearchLimits::up_to(horizon);
      expect_all_counts_match(g, 0, limits, "periodic-far", {Policy::wait()});
      SearchLimits capped = limits;
      capped.max_configs = 1 << 9;
      expect_all_counts_match(g, 0, capped, "periodic-far-capped",
                              {Policy::no_wait(), Policy::bounded_wait(3)});
    }
  }
}

TEST(MultiSourceForemost, OverflowEntersTheRingWhileItIsBusy) {
  // A chain whose hops are 1000 instants apart keeps the calendar ring
  // holding one item from t = 0 to t = 40001, while the first hop also
  // queues w at 20000, past the 2^14-instant ring, through the
  // overflow. w must come off the queue at 20000, ahead of its later
  // arrival over the chain at 30002.
  TimeVaryingGraph g;
  const NodeId c0 = g.add_nodes(42);
  const NodeId w = c0 + 41;
  for (NodeId i = 0; i < 40; ++i) {
    g.add_edge(c0 + i, c0 + i + 1, 'a',
               Presence::at_times({1000 * (static_cast<Time>(i) + 1)}),
               Latency::constant(1));
  }
  g.add_edge(c0, w, 'a', Presence::at_times({0}), Latency::constant(20000));
  g.add_edge(c0 + 30, w, 'a', Presence::always(), Latency::constant(1));
  expect_all_counts_match(g, 0, SearchLimits{}, "busy-ring");
  const Rows packed = packed_rows(g, {c0}, 0, Policy::wait(), SearchLimits{});
  EXPECT_EQ(packed.rows[0][w], 20000);
  EXPECT_EQ(packed.rows[0][c0 + 40], 40001);
}

TEST(MultiSourceForemost, MatchesSerialOnEndpointRunSchedules) {
  // Period 600 > kMaxBitmaskBits: the pattern compiles to endpoint runs,
  // exercising the cursor-driven departure walks inside the packed
  // kernel.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    RandomPeriodicParams params;
    params.nodes = 10;
    params.edges = 30;
    params.period = 600;
    params.density = 0.05;
    params.seed = seed;
    const TimeVaryingGraph g = make_random_periodic(params);
    expect_all_counts_match(g, 0, SearchLimits::up_to(2000), "endpoint-run");
  }
}

TEST(MultiSourceForemost, MatchesSerialOnScheduledWithUnboundedHorizon) {
  // Finite-window schedules with horizon = infinity: both kernels run
  // their calendar queues over an unbounded window, and serial NoWait /
  // BoundedWait its configuration BFS; rows must agree for every policy.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    RandomScheduledParams params;
    params.nodes = 9;
    params.edges = 28;
    params.horizon = 50;
    params.seed = seed;
    const TimeVaryingGraph g = make_random_scheduled(params);
    expect_all_counts_match(g, 0, SearchLimits{}, "scheduled-unbounded");
  }
}

TEST(MultiSourceForemost, MatchesSerialOnMarkovianTraces) {
  EdgeMarkovianParams params;
  params.nodes = 48;
  params.initial_on = 1.0 / 48;
  params.p_birth = 0.02;
  params.p_death = 0.5;
  params.horizon = 64;
  params.seed = 9;
  const TimeVaryingGraph g = make_edge_markovian(params);
  expect_all_counts_match(g, 0, SearchLimits::up_to(120), "markovian");
}

TEST(MultiSourceForemost, PredicateEdgeFallsBackPerSource) {
  RandomPeriodicParams params;
  params.nodes = 8;
  params.edges = 20;
  params.seed = 4;
  TimeVaryingGraph g = make_random_periodic(params);
  // One exact-predicate edge makes the graph ineligible for lane
  // packing (all_semi_periodic() is false); the kernel must route every
  // word through the per-source serial path and still agree.
  g.add_edge(0, 1, 'a',
             Presence::predicate([](Time t) { return t % 5 == 0; }, "mod5"),
             Latency::constant(1));
  ASSERT_FALSE(g.schedule_index().all_semi_periodic());
  expect_all_counts_match(g, 0, SearchLimits::up_to(100), "predicate-mixed");
}

TEST(MultiSourceForemost, NonConstantLatencyFallsBackPerSource) {
  RandomPeriodicParams params;
  params.nodes = 8;
  params.edges = 20;
  params.seed = 5;
  TimeVaryingGraph g = make_random_periodic(params);
  // A non-constant (affine) ζ breaks the Wait-mode dominance the packed
  // Dijkstra relies on; the graph-wide gate falls back for all policies.
  g.add_edge(1, 2, 'b', Presence::always(), Latency::affine(1, 0));
  ASSERT_FALSE(g.schedule_index().all_latency_constant());
  expect_all_counts_match(g, 0, SearchLimits::up_to(100), "latency-mixed");
}

TEST(MultiSourceForemost, TinyBudgetsFallBackBitIdentical) {
  // Budgets small enough that serial searches truncate: the packed
  // guards must fire and the fallback must reproduce serial rows AND
  // truncation flags exactly.
  RandomPeriodicParams params;
  params.nodes = 12;
  params.edges = 36;
  params.seed = 6;
  const TimeVaryingGraph g = make_random_periodic(params);
  for (const std::size_t max_configs : {std::size_t{1}, std::size_t{3},
                                        std::size_t{9}}) {
    SearchLimits limits = SearchLimits::up_to(150);
    limits.max_configs = max_configs;
    for (const Policy policy :
         {Policy::no_wait(), Policy::bounded_wait(2), Policy::wait()}) {
      const auto sources = cycling_sources(g, 70);
      const Rows serial = serial_rows(g, sources, 0, policy, limits);
      const Rows packed = packed_rows(g, sources, 0, policy, limits);
      ASSERT_EQ(packed, serial) << "max_configs=" << max_configs
                                << " policy=" << policy.to_string();
    }
  }
}

TEST(MultiSourceForemost, StartPastHorizonReachesNothing) {
  RandomPeriodicParams params;
  params.nodes = 6;
  params.seed = 7;
  const TimeVaryingGraph g = make_random_periodic(params);
  const auto sources = cycling_sources(g, 65);
  const SearchLimits limits = SearchLimits::up_to(10);
  const Rows packed = packed_rows(g, sources, 50, Policy::wait(), limits);
  EXPECT_EQ(packed, serial_rows(g, sources, 50, Policy::wait(), limits));
  for (const auto& row : packed.rows) {
    for (const Time t : row) EXPECT_EQ(t, kTimeInfinity);
  }
}

TEST(MultiSourceForemost, ValidatesArguments) {
  TimeVaryingGraph g;
  g.add_nodes(3);
  g.add_static_edge(0, 1, 'a');
  SearchWorkspace ws;
  const auto run = [&](const std::vector<NodeId>& sources,
                       std::vector<std::vector<Time>>& rows,
                       std::vector<char>& truncated) {
    detail::Kernels<FrozenView>::multi_source_foremost(
        FrozenView(g), sources, 0, Policy::wait(), {}, {}, ws.arenas(), rows,
        truncated);
  };
  const std::vector<NodeId> sources{0, 1};
  std::vector<std::vector<Time>> rows(1);  // wrong size
  std::vector<char> truncated(2);
  EXPECT_THROW(run(sources, rows, truncated), std::invalid_argument);
  rows.resize(2);
  truncated.resize(1);  // wrong size
  EXPECT_THROW(run(sources, rows, truncated), std::invalid_argument);
  truncated.resize(2);
  const std::vector<NodeId> bad{0, 9};
  EXPECT_THROW(run(bad, rows, truncated), std::out_of_range);
}

TEST(MultiSourceClosure, EngineShardsWordGroupsBitIdenticalAcrossThreads) {
  // 130 sources = 3 lane words; the engine shards WORDS across workers,
  // so rows must be bit-identical to the serial sweep at any thread
  // count (and to the kernel run on one workspace).
  EdgeMarkovianParams params;
  params.nodes = 70;
  params.initial_on = 1.0 / 70;
  params.p_birth = 0.015;
  params.p_death = 0.5;
  params.horizon = 64;
  params.seed = 11;
  const TimeVaryingGraph g = make_edge_markovian(params);
  const SearchLimits limits = SearchLimits::up_to(120);
  for (const Policy policy :
       {Policy::no_wait(), Policy::bounded_wait(3), Policy::wait()}) {
    const auto sources = cycling_sources(g, 130);
    const Rows serial = serial_rows(g, sources, 0, policy, limits);
    QueryEngine engine(g, 0, CacheConfig::disabled());
    for (const unsigned threads : {1u, 2u, 8u}) {
      ClosureQuery q;
      q.sources = sources;
      q.policy = policy;
      q.limits = limits;
      q.threads = threads;
      const ClosureResult result = engine.closure(q);
      ASSERT_EQ(result.rows, serial.rows)
          << "policy=" << policy.to_string() << " threads=" << threads;
      bool any_truncated = false;
      for (const char c : serial.truncated) any_truncated |= c != 0;
      EXPECT_EQ(result.truncated, any_truncated);
    }
  }
}

}  // namespace
