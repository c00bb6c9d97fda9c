// Property tests for the direction-optimized (push/pull) packed kernel
// and the QueryEngine analytics suite layered on it:
//  * direction-optimized rows are bit-identical to per-source
//    foremost_scan across push-only / pull-only / auto-switch modes, in
//    dense (pull-favorable) and sparse (push-favorable) regimes, for
//    source counts crossing the 64-lane word boundaries;
//  * the pull gate is conservative: non-uniform latencies, non-Wait
//    policies, and exhaustible budgets all degrade to the push/serial
//    paths and still agree bit for bit (rows AND truncation flags);
//  * the analytics entry points (k_reachability, influence_spread,
//    betweenness, centrality) are deterministic at 1/2/8 threads, match
//    hand-computed reductions of the serial rows, and share cached
//    closure rows across analytics on identical source sets.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <initializer_list>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "tvg/algorithms.hpp"
#include "tvg/generators.hpp"
#include "tvg/latency.hpp"
#include "tvg/metrics.hpp"
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
                 Time start_time, Policy policy, SearchLimits limits,
                 DirectionOptions direction) {
  Rows out;
  out.rows.resize(sources.size());
  out.truncated.resize(sources.size());
  SearchWorkspace ws;
  detail::Kernels<FrozenView>::multi_source_foremost(
      FrozenView(g), sources, start_time, policy, limits, direction,
      ws.arenas(), out.rows, out.truncated);
  return out;
}

std::vector<NodeId> cycling_sources(const TimeVaryingGraph& g,
                                    std::size_t count) {
  std::vector<NodeId> sources(count);
  for (std::size_t i = 0; i < count; ++i) {
    sources[i] = static_cast<NodeId>((i * 7 + 3) % g.node_count());
  }
  return sources;
}

/// The three frontier modes plus an eager auto-switch (pull_density = 0
/// flips to pull at the first drained instant) — every one must be
/// row-invisible.
std::vector<DirectionOptions> all_direction_options() {
  DirectionOptions auto_default;
  DirectionOptions auto_eager;
  auto_eager.pull_density = 0.0;
  DirectionOptions push;
  push.mode = FrontierMode::kPushOnly;
  DirectionOptions pull;
  pull.mode = FrontierMode::kPullOnly;
  return {auto_default, auto_eager, push, pull};
}

void expect_modes_match(const TimeVaryingGraph& g, Time start_time,
                        SearchLimits limits, const char* label,
                        std::initializer_list<Policy> policies = {
                            Policy::no_wait(), Policy::bounded_wait(3),
                            Policy::wait()}) {
  for (const Policy policy : policies) {
    for (const std::size_t count : {1u, 63u, 64u, 65u, 130u}) {
      const auto sources = cycling_sources(g, count);
      const Rows serial = serial_rows(g, sources, start_time, policy, limits);
      for (const DirectionOptions& direction : all_direction_options()) {
        const Rows packed =
            packed_rows(g, sources, start_time, policy, limits, direction);
        ASSERT_EQ(packed, serial)
            << label << " policy=" << policy.to_string()
            << " sources=" << count
            << " mode=" << static_cast<int>(direction.mode)
            << " pull_density=" << direction.pull_density;
      }
    }
  }
}

TimeVaryingGraph dense_zipf(std::uint64_t seed) {
  ZipfPeriodicParams params;
  params.nodes = 60;
  params.avg_degree = 5.0;
  params.zipf_exponent = 0.8;
  params.period = 6;
  params.density = 0.9;  // frontier saturates in a few instants
  params.seed = seed;
  return make_zipf_periodic(params);
}

TimeVaryingGraph sparse_zipf(std::uint64_t seed) {
  ZipfPeriodicParams params;
  params.nodes = 60;
  params.avg_degree = 2.0;
  params.zipf_exponent = 1.2;
  params.period = 8;
  params.density = 0.15;  // push-favorable: the frontier stays thin
  params.seed = seed;
  return make_zipf_periodic(params);
}

/// Horizons past the calendar queue's 2^14-instant ring: none at all
/// (the default SearchLimits) and 2^15. Wait runs with the default
/// budget, so its words stay pull-eligible. NoWait / BoundedWait never
/// run out of states on a periodic graph, so they run (when `bfs_too`)
/// under a config cap that ends the walks and fires the packed guard.
void expect_far_horizons_match(const TimeVaryingGraph& g, const char* label,
                               bool bfs_too) {
  for (const Time horizon : {kTimeInfinity, Time{1} << 15}) {
    const SearchLimits limits = SearchLimits::up_to(horizon);
    expect_modes_match(g, 0, limits, label, {Policy::wait()});
    if (!bfs_too) continue;
    SearchLimits capped = limits;
    capped.max_configs = 1 << 9;
    expect_modes_match(g, 0, capped, label,
                       {Policy::no_wait(), Policy::bounded_wait(3)});
  }
}

/// A finite-window graph with unit latencies plus two extra nodes that
/// only far-future presences reach: `early_or_late` through an edge
/// present only at {5, 1000000}, `late` through one present from 2^20
/// on (and from `early_or_late`). Their arrivals lie past the calendar
/// ring (the overflow path), and a pull sweep must jump the idle gap to
/// reach them. `long_latency` adds an edge of latency 2^15, which sends
/// NoWait / BoundedWait packets through the overflow too (and closes
/// the pull gate).
TimeVaryingGraph far_future_graph(std::uint64_t seed, bool long_latency) {
  RandomScheduledParams params;
  params.nodes = 12;
  params.edges = 30;
  params.horizon = 48;
  params.max_latency = 1;
  params.seed = seed;
  TimeVaryingGraph g = make_random_scheduled(params);
  const NodeId early_or_late = g.add_nodes(2);
  const NodeId late = early_or_late + 1;
  g.add_edge(1, early_or_late, 'a', Presence::at_times({5, 1000000}),
             Latency::constant(1));
  g.add_edge(3, late, 'b', Presence::eventually_always(Time{1} << 20),
             Latency::constant(1));
  g.add_edge(early_or_late, late, 'a', Presence::always(),
             Latency::constant(1));
  if (long_latency) {
    g.add_edge(5, 6, 'a', Presence::intervals(IntervalSet::single(0, 40)),
               Latency::constant(Time{1} << 15));
  }
  return g;
}

TEST(UniformLatency, ScheduleIndexDetectsTheSharedConstant) {
  // The zipf generator stamps one constant latency on every edge.
  ZipfPeriodicParams params;
  params.nodes = 12;
  params.latency = 2;
  params.seed = 3;
  const TimeVaryingGraph uniform = make_zipf_periodic(params);
  EXPECT_EQ(uniform.schedule_index().uniform_constant_latency(), 2);

  // Two disagreeing constants: no shared value.
  TimeVaryingGraph mixed;
  mixed.add_nodes(3);
  mixed.add_edge(0, 1, 'a', Presence::always(), Latency::constant(1));
  mixed.add_edge(1, 2, 'a', Presence::always(), Latency::constant(2));
  EXPECT_EQ(mixed.schedule_index().uniform_constant_latency(), -1);

  // A time-dependent ζ disqualifies even a lone edge.
  TimeVaryingGraph affine;
  affine.add_nodes(2);
  affine.add_edge(0, 1, 'a', Presence::always(), Latency::affine(1, 1));
  EXPECT_EQ(affine.schedule_index().uniform_constant_latency(), -1);

  // No edges: nothing to share.
  TimeVaryingGraph empty;
  empty.add_nodes(2);
  EXPECT_EQ(empty.schedule_index().uniform_constant_latency(), -1);
}

TEST(DirectionOptimizedForemost, ModesMatchSerialOnDenseGraphs) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const TimeVaryingGraph g = dense_zipf(seed);
    ASSERT_EQ(g.schedule_index().uniform_constant_latency(), 1);
    expect_modes_match(g, 0, SearchLimits::up_to(48), "dense-zipf");
    expect_far_horizons_match(g, "dense-zipf-far", seed == 1);
  }
}

TEST(DirectionOptimizedForemost, ModesMatchSerialOnSparseGraphs) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const TimeVaryingGraph g = sparse_zipf(seed);
    expect_modes_match(g, 0, SearchLimits::up_to(64), "sparse-zipf");
    expect_far_horizons_match(g, "sparse-zipf-far", seed == 1);
  }
}

TEST(DirectionOptimizedForemost, ModesMatchSerialOnFarFuturePresences) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (const bool long_latency : {false, true}) {
      const TimeVaryingGraph g = far_future_graph(seed, long_latency);
      ASSERT_TRUE(g.schedule_index().all_semi_periodic());
      ASSERT_EQ(g.schedule_index().uniform_constant_latency(),
                long_latency ? -1 : 1);
      for (const Time horizon :
           {kTimeInfinity, Time{1} << 15, Time{1} << 21}) {
        expect_modes_match(g, 0, SearchLimits::up_to(horizon),
                           long_latency ? "far-future-long" : "far-future");
      }
    }
  }
  // The far arrivals really are in the rows.
  const TimeVaryingGraph g = far_future_graph(1, false);
  const Rows rows = serial_rows(g, cycling_sources(g, 14), 0, Policy::wait(),
                                SearchLimits{});
  bool far = false;
  for (const auto& row : rows.rows) {
    for (const Time t : row) far |= t != kTimeInfinity && t > (Time{1} << 14);
  }
  EXPECT_TRUE(far);
}

TEST(DirectionOptimizedForemost, PullOnlyUnboundedSweepEndsOverUnreachableNodes) {
  // Nodes no lane can reach keep a pull word's unfinalized list
  // non-empty for good; with no horizon, only the idle-instant skip
  // rule ends the sweep. One node is isolated, one is reachable only
  // from an unreachable tail, and one hangs off a never-present edge
  // and an edge present once.
  TimeVaryingGraph g = dense_zipf(4);
  const NodeId island = g.add_nodes(4);
  const NodeId orphan_tail = island + 1;
  const NodeId orphan_head = island + 2;
  const NodeId blocked = island + 3;
  g.add_edge(orphan_tail, orphan_head, 'a', Presence::always(),
             Latency::constant(1));
  g.add_edge(0, blocked, 'a', Presence::never(), Latency::constant(1));
  g.add_edge(1, blocked, 'a', Presence::at_times({2}), Latency::constant(1));
  ASSERT_TRUE(g.schedule_index().all_semi_periodic());
  ASSERT_EQ(g.schedule_index().uniform_constant_latency(), 1);

  DirectionOptions pull;
  pull.mode = FrontierMode::kPullOnly;
  std::vector<NodeId> sources(64);  // every source in the Zipf part
  for (std::size_t i = 0; i < sources.size(); ++i) {
    sources[i] = static_cast<NodeId>((i * 7 + 3) % island);
  }
  const Rows serial =
      serial_rows(g, sources, 0, Policy::wait(), SearchLimits{});
  EXPECT_EQ(packed_rows(g, sources, 0, Policy::wait(), SearchLimits{}, pull),
            serial);
  for (const auto& row : serial.rows) {
    EXPECT_EQ(row[island], kTimeInfinity);
    EXPECT_EQ(row[orphan_head], kTimeInfinity);
  }
  expect_modes_match(g, 0, SearchLimits{}, "unreachable-unbounded",
                     {Policy::wait()});
}

TEST(DirectionOptimizedForemost, ModesMatchSerialOnMarkovianTraces) {
  // Interval schedules (not periodic) with the shared unit latency: the
  // pull gate stays open, over a bursty non-stationary frontier.
  EdgeMarkovianParams params;
  params.nodes = 48;
  params.initial_on = 1.0 / 48;
  params.p_birth = 0.02;
  params.p_death = 0.5;
  params.horizon = 64;
  params.seed = 9;
  const TimeVaryingGraph g = make_edge_markovian(params);
  ASSERT_EQ(g.schedule_index().uniform_constant_latency(), 1);
  expect_modes_match(g, 0, SearchLimits::up_to(120), "markovian");
}

TEST(DirectionOptimizedForemost, NonUniformLatencyKeepsTheGateShut) {
  // max_latency 3 draws several distinct constants: pull-only must
  // silently run the push path and still agree.
  RandomPeriodicParams params;
  params.nodes = 14;
  params.edges = 50;
  params.period = 8;
  params.max_latency = 3;
  params.seed = 2;
  const TimeVaryingGraph g = make_random_periodic(params);
  ASSERT_EQ(g.schedule_index().uniform_constant_latency(), -1);
  expect_modes_match(g, 0, SearchLimits::up_to(80), "non-uniform-latency");
}

TEST(DirectionOptimizedForemost, TinyBudgetsFallBackBitIdentical) {
  // An exhaustible budget closes the pull gate AND re-arms the packet
  // guard; when it fires, the per-source fallback must reproduce serial
  // truncation exactly — in every mode.
  const TimeVaryingGraph g = dense_zipf(6);
  for (const std::size_t max_configs :
       {std::size_t{1}, std::size_t{3}, std::size_t{9}}) {
    SearchLimits limits = SearchLimits::up_to(48);
    limits.max_configs = max_configs;
    for (const DirectionOptions& direction : all_direction_options()) {
      const auto sources = cycling_sources(g, 70);
      const Rows serial = serial_rows(g, sources, 0, Policy::wait(), limits);
      const Rows packed =
          packed_rows(g, sources, 0, Policy::wait(), limits, direction);
      ASSERT_EQ(packed, serial)
          << "max_configs=" << max_configs
          << " mode=" << static_cast<int>(direction.mode);
    }
  }
}

TEST(AnalyticsEngine, KReachabilityMatchesSerialCountsAcrossThreads) {
  const TimeVaryingGraph g = dense_zipf(11);
  const auto sources = cycling_sources(g, 65);
  const SearchLimits limits = SearchLimits::up_to(48);
  const Rows serial = serial_rows(g, sources, 0, Policy::wait(), limits);
  std::vector<std::uint32_t> expected_counts(g.node_count(), 0);
  for (const auto& row : serial.rows) {
    for (std::size_t v = 0; v < row.size(); ++v) {
      expected_counts[v] += row[v] != kTimeInfinity ? 1u : 0u;
    }
  }
  QueryEngine engine(g, 0, CacheConfig::disabled());
  for (const unsigned threads : {1u, 2u, 8u}) {
    KReachabilityQuery q;
    q.closure.sources = sources;
    q.closure.limits = limits;
    q.closure.threads = threads;
    q.k = 3;
    const KReachabilityResult result = engine.k_reachability(q);
    ASSERT_EQ(result.counts, expected_counts) << "threads=" << threads;
    for (const NodeId v : result.nodes) {
      EXPECT_GE(result.counts[v], q.k);
    }
    EXPECT_TRUE(std::is_sorted(result.nodes.begin(), result.nodes.end()));
    std::size_t over_k = 0;
    for (const std::uint32_t c : expected_counts) over_k += c >= q.k ? 1 : 0;
    EXPECT_EQ(result.nodes.size(), over_k);
  }
}

TEST(AnalyticsEngine, InfluenceSpreadMatchesUnionConesAcrossThreads) {
  const TimeVaryingGraph g = dense_zipf(12);
  const SearchLimits limits = SearchLimits::up_to(48);
  InfluenceQuery q;
  q.source_sets = {{3, 10, 17}, {5}, {}};
  q.sample_times = {2, 8, 20, 48};
  q.limits = limits;
  // Expected: per set, the min-fold of its serial rows thresholded at
  // each sample instant.
  InfluenceResult expected;
  expected.spread.resize(q.source_sets.size());
  expected.total.assign(q.source_sets.size(), 0);
  for (std::size_t s = 0; s < q.source_sets.size(); ++s) {
    expected.spread[s].assign(q.sample_times.size(), 0);
    if (q.source_sets[s].empty()) continue;
    const Rows rows =
        serial_rows(g, q.source_sets[s], 0, Policy::wait(), limits);
    for (std::size_t v = 0; v < g.node_count(); ++v) {
      Time m = kTimeInfinity;
      for (const auto& row : rows.rows) m = std::min(m, row[v]);
      if (m == kTimeInfinity) continue;
      ++expected.total[s];
      for (std::size_t j = 0; j < q.sample_times.size(); ++j) {
        if (m <= q.sample_times[j]) ++expected.spread[s][j];
      }
    }
  }
  QueryEngine engine(g, 0, CacheConfig::disabled());
  for (const unsigned threads : {1u, 2u, 8u}) {
    q.threads = threads;
    const InfluenceResult result = engine.influence_spread(q);
    ASSERT_EQ(result.spread, expected.spread) << "threads=" << threads;
    ASSERT_EQ(result.total, expected.total) << "threads=" << threads;
    // Curves are monotone in the (ascending) sample instants.
    for (const auto& curve : result.spread) {
      EXPECT_TRUE(std::is_sorted(curve.begin(), curve.end()));
    }
  }
}

TEST(AnalyticsEngine, BetweennessCountsInteriorWitnessPaths) {
  // Static chain 0 -> 1 -> 2 -> 3: from source 0 the witness tree routes
  // targets {2, 3} through node 1 and {3} through node 2; from source 1,
  // {3} through node 2. Endpoints never score.
  TimeVaryingGraph g;
  g.add_nodes(4);
  g.add_static_edge(0, 1, 'a');
  g.add_static_edge(1, 2, 'a');
  g.add_static_edge(2, 3, 'a');
  QueryEngine engine(g, 0, CacheConfig::disabled());
  BetweennessQuery q;  // empty sources = every node
  const BetweennessResult result = engine.betweenness(q);
  ASSERT_EQ(result.score.size(), 4u);
  EXPECT_EQ(result.score[0], 0.0);
  EXPECT_EQ(result.score[1], 2.0);
  EXPECT_EQ(result.score[2], 2.0);
  EXPECT_EQ(result.score[3], 0.0);
  EXPECT_FALSE(result.truncated);
}

TEST(AnalyticsEngine, BetweennessAndCentralityDeterministicAcrossThreads) {
  const TimeVaryingGraph g = dense_zipf(13);
  const SearchLimits limits = SearchLimits::up_to(48);
  QueryEngine engine(g, 0, CacheConfig::disabled());

  BetweennessQuery bq;
  bq.sources = cycling_sources(g, 40);
  bq.limits = limits;
  bq.threads = 1;
  const BetweennessResult b1 = engine.betweenness(bq);
  CentralityQuery cq;
  cq.closure.sources = cycling_sources(g, 33);
  cq.closure.limits = limits;
  cq.closure.threads = 1;
  const CentralityResult c1 = engine.centrality(cq);
  for (const double s : c1.score) {
    EXPECT_GT(s, 0.0);  // damping floor keeps every score positive
  }
  for (const unsigned threads : {2u, 8u}) {
    bq.threads = threads;
    cq.closure.threads = threads;
    EXPECT_EQ(engine.betweenness(bq).score, b1.score)
        << "threads=" << threads;
    EXPECT_EQ(engine.centrality(cq).score, c1.score)
        << "threads=" << threads;
  }
}

TEST(AnalyticsEngine, AnalyticsShareCachedClosureRows) {
  // Closure row blocks are no longer cached, so analytics on one source
  // set no longer share rows; what stays cached is each analytic's own
  // result, keyed on the canonical sweep.
  const TimeVaryingGraph g = dense_zipf(14);
  const SearchLimits limits = SearchLimits::up_to(48);
  QueryEngine engine(g);  // cache on
  const std::vector<NodeId> set = cycling_sources(g, 10);

  KReachabilityQuery kq;
  kq.closure.sources = set;
  kq.closure.limits = limits;
  kq.k = 2;
  const KReachabilityResult first = engine.k_reachability(kq);

  // Repeated analytics requests are themselves cache hits.
  const std::uint64_t hits_mid = engine.cache_stats().hits;
  EXPECT_EQ(engine.k_reachability(kq), first);
  EXPECT_GT(engine.cache_stats().hits, hits_mid);
}

// ---------------------------------------------------------------------------
// The all-pairs folds over QueryEngine::closure_fold: connectivity,
// diameter and characteristic distance must answer exactly what the
// engine's materialized closure rows say, at any thread count, on
// lane-packed and per-source words alike, and when the stop fires.
// ---------------------------------------------------------------------------

/// Answers derived from the engine's materialized closure rows.
struct AllPairs {
  std::optional<Time> diameter;  // nullopt = some pair unreachable
  std::optional<double> distance;
};

AllPairs from_closure_rows(const QueryEngine& engine, Time start_time,
                           Policy policy, SearchLimits limits) {
  ClosureQuery q;
  q.start_time = start_time;
  q.policy = policy;
  q.limits = limits;
  const ClosureResult closure = engine.closure(q);
  Time diameter = 0;
  bool connected = true;
  for (const std::vector<Time>& row : closure.rows) {
    for (const Time t : row) {
      if (t == kTimeInfinity) {
        connected = false;
      } else {
        diameter = std::max(diameter, sat_sub(t, start_time));
      }
    }
  }
  AllPairs out;
  if (connected) out.diameter = diameter;
  out.distance = characteristic_temporal_distance(closure.rows, start_time);
  return out;
}

/// The engine folds' answers, checked against `expected`.
void expect_folds_match(const QueryEngine& engine, Time start_time,
                        Policy policy, SearchLimits limits,
                        const AllPairs& expected) {
  EXPECT_EQ(temporal_diameter(engine, start_time, policy, limits),
            expected.diameter);
  EXPECT_EQ(temporally_connected(engine, start_time, policy, limits),
            expected.diameter.has_value());
}

/// A directed ring of always-present edges (Wait and NoWait both connect
/// every pair) plus seeded random periodic chords: 130 nodes = three
/// closure words. `ineligible` adds one exact-predicate chord, which
/// turns lane packing off and makes every word a single source.
TimeVaryingGraph ring_with_chords(std::uint64_t seed, bool ineligible) {
  RandomPeriodicParams params;
  params.nodes = 130;
  params.edges = 200;
  params.period = 6;
  params.density = 0.3;
  params.max_latency = 2;
  params.seed = seed;
  TimeVaryingGraph g = make_random_periodic(params);
  for (NodeId v = 0; v < params.nodes; ++v) {
    g.add_edge(v, static_cast<NodeId>((v + 1) % params.nodes), 'r',
               Presence::always(), Latency::constant(1));
  }
  if (ineligible) {
    g.add_edge(5, 90, 'p',
               Presence::predicate([](Time t) { return t % 7 == 3; }, "mod7"),
               Latency::constant(1));
  }
  return g;
}

TEST(AnalyticsEngine, AllPairsFoldsMatchClosureRowsAcrossThreads) {
  constexpr Time kHorizon = 100;  // the diameters here are 20-30
  const SearchLimits limits = SearchLimits::up_to(kHorizon);
  for (const bool ineligible : {false, true}) {
    const TimeVaryingGraph g = ring_with_chords(21, ineligible);
    ASSERT_EQ(g.schedule_index().all_semi_periodic(), !ineligible);
    // Per-source NoWait config searches are slow; Wait covers the
    // single-source words.
    const std::vector<Policy> policies =
        ineligible ? std::vector<Policy>{Policy::wait()}
                   : std::vector<Policy>{Policy::wait(), Policy::no_wait()};
    for (const Policy policy : policies) {
      SCOPED_TRACE(std::string(ineligible ? "predicate" : "packed") + " " +
                   policy.to_string());
      const QueryEngine reference(g, 1, CacheConfig::disabled());
      const AllPairs expected = from_closure_rows(reference, 2, policy, limits);
      ASSERT_TRUE(expected.diameter.has_value());
      for (const unsigned threads : {1u, 2u, 4u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        const QueryEngine engine(g, threads, CacheConfig::disabled());
        expect_folds_match(engine, 2, policy, limits, expected);
      }
      EXPECT_EQ(temporal_diameter(g, 2, policy, limits), expected.diameter);
      EXPECT_TRUE(temporally_connected(g, 2, policy, limits));
      EXPECT_EQ(characteristic_temporal_distance(g, 2, policy, kHorizon),
                expected.distance);
    }
  }
  // On a mutated engine the folds read the overlay: cutting one ring
  // edge must show up exactly as the engine's own closure rows say.
  QueryEngine live(ring_with_chords(22, false), 4, CacheConfig::disabled());
  live.remove_edge(static_cast<EdgeId>(live.edge_count() - 1));
  expect_folds_match(live, 0, Policy::wait(), limits,
                     from_closure_rows(live, 0, Policy::wait(), limits));
}

TEST(AnalyticsEngine, AllPairsFoldsStopInTheFirstWordWhenDisconnected) {
  // Node 0 is a sink: source 0's row (the first word's first row) has
  // an unreachable pair, so the sweep stops there.
  for (const bool ineligible : {false, true}) {
    const TimeVaryingGraph g = ring_with_chords(23, ineligible);
    const SearchLimits limits = SearchLimits::up_to(100);
    TimeVaryingGraph sink;
    sink.add_nodes(g.node_count());
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      const Edge& edge = g.edge(e);
      if (edge.from == 0) continue;
      sink.add_edge(edge.from, edge.to, edge.label, edge.presence,
                    edge.latency);
    }
    const QueryEngine reference(sink, 1, CacheConfig::disabled());
    const AllPairs expected =
        from_closure_rows(reference, 0, Policy::wait(), limits);
    ASSERT_FALSE(expected.diameter.has_value());
    for (const unsigned threads : {1u, 2u, 4u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      const QueryEngine engine(sink, threads, CacheConfig::disabled());
      expect_folds_match(engine, 0, Policy::wait(), limits, expected);
      // A stopping fold: words not yet started are skipped, so at most
      // one word per worker reaches it. Words run in no fixed order, so
      // the one that stops may be the short tail word (130 = 64 + 64 + 2
      // sources); without lane packing a word is one source.
      const std::size_t unit = ineligible ? 1 : 64;
      std::atomic<std::size_t> calls{0};
      ClosureQuery q;
      q.limits = limits;
      engine.closure_fold(q, [&](std::size_t lo,
                                 std::span<std::vector<Time>> rows) {
        ++calls;
        EXPECT_EQ(lo % unit, 0u);
        EXPECT_EQ(rows.size(), std::min(unit, sink.node_count() - lo));
        return false;
      });
      EXPECT_GE(calls.load(), 1u);
      EXPECT_LE(calls.load(), threads);
    }
    EXPECT_EQ(characteristic_temporal_distance(sink, 0, Policy::wait(), 100),
              expected.distance);
  }
}

TEST(AnalyticsEngine, ThrowingFoldPropagatesAndReturnsItsLeases) {
  for (const bool ineligible : {false, true}) {
    const TimeVaryingGraph g = ring_with_chords(24, ineligible);
    ClosureQuery q;
    q.limits = SearchLimits::up_to(100);
    const ClosureResult expected =
        QueryEngine(g, 1, CacheConfig::disabled()).closure(q);
    for (const unsigned threads : {1u, 4u}) {
      const QueryEngine engine(g, threads, CacheConfig::disabled());
      EXPECT_THROW(
          engine.closure_fold(q,
                              [](std::size_t lo, std::span<std::vector<Time>>)
                                  -> bool {
                                if (lo >= 64) throw std::runtime_error("fold");
                                return true;
                              }),
          std::runtime_error);
      EXPECT_EQ(engine.closure(q), expected) << "threads=" << threads;
    }
  }
}

}  // namespace
