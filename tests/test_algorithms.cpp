// Unit tests for temporal reachability and journey optimization —
// foremost / shortest / fastest under all three waiting policies, and the
// dominance asymmetry that separates Wait from the others. Witness
// forests come from the frozen-graph kernel entry points; shortest,
// fastest and reachability rows come through the QueryEngine.
#include <gtest/gtest.h>

#include <stdexcept>

#include "tvg/algorithms.hpp"
#include "tvg/generators.hpp"
#include "tvg/query_engine.hpp"

namespace tvg {
namespace {

// The classic store-carry-forward example: u-v exists early, v-w late.
struct Relay {
  TimeVaryingGraph g;
  NodeId u, v, w;
};

Relay make_relay() {
  Relay r;
  r.u = r.g.add_node("u");
  r.v = r.g.add_node("v");
  r.w = r.g.add_node("w");
  r.g.add_edge(r.u, r.v, 'a', Presence::intervals(IntervalSet::single(0, 2)),
               Latency::constant(1));
  r.g.add_edge(r.v, r.w, 'b', Presence::intervals(IntervalSet::single(8, 10)),
               Latency::constant(1));
  return r;
}

/// reached[v] iff v's foremost arrival from `src` (departing at 0) is
/// finite: the engine's untargeted foremost row.
std::vector<bool> reached(const QueryEngine& engine, NodeId src,
                          Policy policy, SearchLimits limits) {
  const JourneyResult row = engine.run(
      JourneyQuery::foremost(src, 0).under(policy).within(limits));
  std::vector<bool> out(row.arrivals.size());
  for (std::size_t v = 0; v < out.size(); ++v) {
    out[v] = row.arrivals[v] != kTimeInfinity;
  }
  return out;
}

TEST(Foremost, WaitBridgesTemporalGaps) {
  const Relay r = make_relay();
  SearchWorkspace ws;
  const ForemostTree t =
      foremost_arrivals(r.g, r.u, 0, Policy::wait(), {}, ws);
  EXPECT_EQ(t.arrival[r.u], 0);
  EXPECT_EQ(t.arrival[r.v], 1);
  EXPECT_EQ(t.arrival[r.w], 9);  // waits at v until 8
}

TEST(Foremost, NoWaitCannotBridge) {
  const Relay r = make_relay();
  SearchWorkspace ws;
  const ForemostTree t = foremost_arrivals(
      r.g, r.u, 0, Policy::no_wait(), SearchLimits::up_to(100), ws);
  EXPECT_EQ(t.arrival[r.v], 1);
  EXPECT_EQ(t.arrival[r.w], kTimeInfinity);
}

TEST(Foremost, BoundedWaitBridgesIffBoundSuffices) {
  const Relay r = make_relay();
  // The LATEST arrival at v is 2 (departing uv at 1 — bounded-wait
  // reachability is non-monotone in arrival time!), so the vw window
  // [8,10) is reachable iff 2 + d >= 8, i.e. d >= 6.
  SearchWorkspace ws;
  const ForemostTree t5 = foremost_arrivals(
      r.g, r.u, 0, Policy::bounded_wait(5), SearchLimits::up_to(100), ws);
  EXPECT_EQ(t5.arrival[r.w], kTimeInfinity);
  const ForemostTree t6 = foremost_arrivals(
      r.g, r.u, 0, Policy::bounded_wait(6), SearchLimits::up_to(100), ws);
  EXPECT_EQ(t6.arrival[r.w], 9);
}

TEST(Foremost, WitnessJourneysValidate) {
  const Relay r = make_relay();
  SearchWorkspace ws;
  const ForemostTree t = foremost_arrivals(r.g, r.u, 0, Policy::wait(), {}, ws);
  const auto j = t.journey_to(r.w);
  ASSERT_TRUE(j.has_value());
  EXPECT_TRUE(validate_journey(r.g, *j, Policy::wait()).ok);
  EXPECT_EQ(j->arrival(r.g), 9);
  EXPECT_EQ(j->hops(), 2u);
  EXPECT_EQ(t.journey_to(r.u)->hops(), 0u);
}

TEST(Foremost, UnreachableGivesNoJourney) {
  const Relay r = make_relay();
  SearchWorkspace ws;
  const ForemostTree t = foremost_arrivals(
      r.g, r.w, 0, Policy::wait(), SearchLimits::up_to(1000), ws);
  EXPECT_EQ(t.arrival[r.u], kTimeInfinity);
  EXPECT_EQ(t.journey_to(r.u), std::nullopt);
}

TEST(Foremost, LaterArrivalCanWinUnderNoWait) {
  // The dominance failure that forces configuration search under NoWait:
  // the direct early arrival at m misses the m->z edge; a slower route
  // arrives exactly on time.
  TimeVaryingGraph g;
  const NodeId s = g.add_node("s");
  const NodeId m = g.add_node("m");
  const NodeId z = g.add_node("z");
  g.add_edge(s, m, 'a', Presence::always(), Latency::constant(1));  // m @1
  g.add_edge(s, m, 'b', Presence::always(), Latency::constant(5));  // m @5
  g.add_edge(m, z, 'c', Presence::at_times({5}), Latency::constant(1));
  SearchWorkspace ws;
  const ForemostTree t = foremost_arrivals(
      g, s, 0, Policy::no_wait(), SearchLimits::up_to(100), ws);
  EXPECT_EQ(t.arrival[m], 1);  // earliest arrival at m...
  EXPECT_EQ(t.arrival[z], 6);  // ...but z is reached via the @5 arrival
  const auto j = t.journey_to(z);
  ASSERT_TRUE(j.has_value());
  EXPECT_TRUE(validate_journey(g, *j, Policy::no_wait()).ok);
  EXPECT_EQ(j->word(g), "bc");
}

TEST(Shortest, PrefersFewerHopsOverEarlierArrival) {
  TimeVaryingGraph g;
  const NodeId s = g.add_node();
  const NodeId a = g.add_node();
  const NodeId t = g.add_node();
  // Two-hop fast path and one-hop slow path.
  g.add_edge(s, a, 'x', Presence::always(), Latency::constant(1));
  g.add_edge(a, t, 'x', Presence::always(), Latency::constant(1));
  g.add_edge(s, t, 'y', Presence::always(), Latency::constant(50));
  const QueryEngine engine(g);
  const auto j = engine.run(JourneyQuery::shortest(s, t, 0)).journey;
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j->hops(), 1u);
  EXPECT_EQ(j->word(g), "y");
}

TEST(Shortest, WorksUnderNoWait) {
  const Relay r = make_relay();
  const QueryEngine engine(r.g);
  EXPECT_EQ(engine
                .run(JourneyQuery::shortest(r.u, r.w, 0)
                         .under(Policy::no_wait())
                         .within(SearchLimits::up_to(50)))
                .journey,
            std::nullopt);
  const auto j = engine.run(JourneyQuery::shortest(r.u, r.w, 0)).journey;
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j->hops(), 2u);
}

TEST(Shortest, SourceEqualsTargetIsEmpty) {
  const Relay r = make_relay();
  const QueryEngine engine(r.g);
  const auto j = engine.run(JourneyQuery::shortest(r.u, r.u, 3)).journey;
  ASSERT_TRUE(j.has_value());
  EXPECT_TRUE(j->empty());
}

TEST(Fastest, MinimizesDurationNotArrival) {
  // Departing later is faster: an early slow window and a late fast one.
  TimeVaryingGraph g;
  const NodeId s = g.add_node();
  const NodeId t = g.add_node();
  g.add_edge(s, t, 'a', Presence::at_times({0}), Latency::constant(20));
  g.add_edge(s, t, 'b', Presence::at_times({10}), Latency::constant(2));
  const QueryEngine engine(g);
  const auto j =
      engine.run(JourneyQuery::fastest(s, t, 0, 15).within(SearchLimits::up_to(64)))
          .journey;
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j->word(g), "b");
  EXPECT_EQ(j->duration(g), 2);
  EXPECT_EQ(j->legs.front().departure, 10);
}

TEST(Fastest, MultiHopDuration) {
  const Relay r = make_relay();
  // Departing at 1 (last uv instant) minimizes time spent waiting at v.
  const QueryEngine engine(r.g);
  const auto j = engine
                     .run(JourneyQuery::fastest(r.u, r.w, 0, 20)
                              .within(SearchLimits::up_to(200)))
                     .journey;
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j->legs.front().departure, 1);
  EXPECT_EQ(j->duration(r.g), 9 - 1);
}

TEST(Reachability, SetAndClosureAgree) {
  const Relay r = make_relay();
  const QueryEngine engine(r.g);
  const auto reach = reached(engine, r.u, Policy::wait(), {});
  EXPECT_TRUE(reach[r.u]);
  EXPECT_TRUE(reach[r.v]);
  EXPECT_TRUE(reach[r.w]);
  const auto closure = engine.closure({}).rows;
  EXPECT_EQ(closure[r.u][r.w], 9);
  EXPECT_EQ(closure[r.w][r.u], kTimeInfinity);
}

TEST(Reachability, TemporallyConnectedNeedsAllPairs) {
  const Relay r = make_relay();
  EXPECT_FALSE(temporally_connected(r.g, 0, Policy::wait(),
                                    SearchLimits::up_to(100)));
  // Close the cycle: w -> u always available. All journeys start at 0,
  // so w reaches u at 1, still in time for uv's [0,2) window: connected.
  TimeVaryingGraph g = r.g;
  g.add_edge(r.w, r.u, 'c', Presence::always(), Latency::constant(1));
  EXPECT_TRUE(
      temporally_connected(g, 0, Policy::wait(), SearchLimits::up_to(100)));
  // Starting at t=2 instead, the uv window is gone: disconnected.
  EXPECT_FALSE(
      temporally_connected(g, 2, Policy::wait(), SearchLimits::up_to(100)));
  // With recurrent (periodic) edges, connectivity holds.
  TimeVaryingGraph h;
  const NodeId a = h.add_node();
  const NodeId b = h.add_node();
  const NodeId c = h.add_node();
  h.add_edge(a, b, 'x', Presence::periodic(4, IntervalSet::from_points({0})),
             Latency::constant(1));
  h.add_edge(b, c, 'x', Presence::periodic(4, IntervalSet::from_points({2})),
             Latency::constant(1));
  h.add_edge(c, a, 'x', Presence::periodic(4, IntervalSet::from_points({1})),
             Latency::constant(1));
  EXPECT_TRUE(temporally_connected(h, 0, Policy::wait(),
                                   SearchLimits::up_to(1000)));
  const auto diam = temporal_diameter(h, 0, Policy::wait(),
                                      SearchLimits::up_to(1000));
  ASSERT_TRUE(diam.has_value());
  EXPECT_GT(*diam, 0);
}

TEST(Reachability, DiameterIsNulloptWhenDisconnected) {
  const Relay r = make_relay();
  EXPECT_EQ(temporal_diameter(r.g, 0, Policy::wait(),
                              SearchLimits::up_to(100)),
            std::nullopt);
}

TEST(Reachability, WaitDominatesNoWaitOnRandomGraphs) {
  // Monotonicity property: anything NoWait reaches, Wait reaches too.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    EdgeMarkovianParams params;
    params.nodes = 10;
    params.horizon = 40;
    params.seed = seed;
    const TimeVaryingGraph g = make_edge_markovian(params);
    const QueryEngine engine(g);
    for (NodeId src = 0; src < 3 && src < g.node_count(); ++src) {
      const auto nowait = reached(engine, src, Policy::no_wait(),
                                  SearchLimits::up_to(60));
      const auto wait =
          reached(engine, src, Policy::wait(), SearchLimits::up_to(60));
      for (NodeId v = 0; v < g.node_count(); ++v) {
        EXPECT_LE(nowait[v], wait[v])
            << "seed=" << seed << " src=" << src << " v=" << v;
      }
    }
  }
}

TEST(Reachability, BoundedWaitIsMonotoneInBound) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    EdgeMarkovianParams params;
    params.nodes = 8;
    params.horizon = 30;
    params.seed = seed;
    const TimeVaryingGraph g = make_edge_markovian(params);
    const QueryEngine engine(g);
    std::size_t prev = 0;
    for (Time d : {0, 2, 5, 10, 30}) {
      const auto reach = reached(engine, 0, Policy::bounded_wait(d),
                                 SearchLimits::up_to(50));
      const auto count = static_cast<std::size_t>(
          std::count(reach.begin(), reach.end(), true));
      EXPECT_GE(count, prev) << "seed=" << seed << " d=" << d;
      prev = count;
    }
  }
}

TEST(SearchLimits, TruncationIsReported) {
  // A generous always-on clique under BoundedWait explodes configs.
  TimeVaryingGraph g;
  g.add_nodes(4);
  for (NodeId u = 0; u < 4; ++u) {
    for (NodeId v = 0; v < 4; ++v) {
      if (u != v) {
        g.add_edge(u, v, 'a', Presence::always(), Latency::constant(1));
      }
    }
  }
  SearchLimits limits;
  limits.horizon = 1000;
  limits.max_configs = 16;
  SearchWorkspace ws;
  const ForemostTree t =
      foremost_arrivals(g, 0, 0, Policy::bounded_wait(3), limits, ws);
  EXPECT_TRUE(t.truncated);
}

TEST(Fastest, ReportsCandidateTruncation) {
  // Shrinking latency makes the last departure the unique optimum, so a
  // truncated candidate scan returns a non-optimal journey — which must
  // be flagged instead of silent.
  TimeVaryingGraph g;
  const NodeId s = g.add_node();
  const NodeId t = g.add_node();
  g.add_edge(s, t, 'a', Presence::intervals(IntervalSet::single(0, 100)),
             Latency::function([](Time dep) { return 100 - dep; },
                               "shrinking"));
  SearchLimits limits;
  limits.horizon = 300;
  limits.max_fastest_candidates = 8;
  const QueryEngine engine(g);
  const JourneyResult truncated =
      engine.run(JourneyQuery::fastest(s, t, 0, 99).within(limits));
  EXPECT_TRUE(truncated.truncated);
  ASSERT_TRUE(truncated.journey.has_value());
  EXPECT_GT(truncated.journey->duration(g), 1);

  SearchLimits full = limits;
  full.max_fastest_candidates = 4096;
  const JourneyResult exact =
      engine.run(JourneyQuery::fastest(s, t, 0, 99).within(full));
  EXPECT_FALSE(exact.truncated);
  ASSERT_TRUE(exact.journey.has_value());
  EXPECT_EQ(exact.journey->legs.front().departure, 99);
  EXPECT_EQ(exact.journey->duration(g), 1);
  EXPECT_EQ(exact.duration, 1);
}

TEST(BoundedWait, HorizonClampsDepartureWindow) {
  // The waiting bound would allow departing at 6, but the search horizon
  // clips the window first (max_departure(t) vs horizon clamping).
  TimeVaryingGraph g;
  const NodeId u = g.add_node();
  const NodeId v = g.add_node();
  g.add_edge(u, v, 'a', Presence::eventually_always(6), Latency::constant(1));
  SearchWorkspace ws;
  const ForemostTree clipped = foremost_arrivals(
      g, u, 0, Policy::bounded_wait(10), SearchLimits::up_to(5), ws);
  EXPECT_EQ(clipped.arrival[v], kTimeInfinity);
  const ForemostTree open = foremost_arrivals(
      g, u, 0, Policy::bounded_wait(10), SearchLimits::up_to(7), ws);
  EXPECT_EQ(open.arrival[v], 7);
}

TEST(BoundedWait, InfiniteHorizonEnumeratesFiniteSchedules) {
  // horizon == kTimeInfinity leaves the window [t, t + bound]; the
  // enumeration must terminate once the schedule runs out of events.
  TimeVaryingGraph g;
  const NodeId u = g.add_node();
  const NodeId v = g.add_node();
  g.add_edge(u, v, 'a', Presence::at_times({40}), Latency::constant(2));
  SearchWorkspace ws;
  const ForemostTree t =
      foremost_arrivals(g, u, 0, Policy::bounded_wait(50), {}, ws);
  EXPECT_EQ(t.arrival[v], 42);
  EXPECT_FALSE(t.truncated);
  const ForemostTree miss =
      foremost_arrivals(g, u, 0, Policy::bounded_wait(30), {}, ws);
  EXPECT_EQ(miss.arrival[v], kTimeInfinity);
}

TEST(BoundedWait, InfiniteWindowOverInfiniteScheduleHitsBudgetNotLivelock) {
  // Wait + non-constant latency + infinite horizon falls back to a
  // bounded-wait enumeration whose departure window is unbounded; with an
  // always-present edge there are infinitely many admissible departures.
  // The config budget must cut the enumeration off (reported as
  // truncation) rather than enumerating forever.
  TimeVaryingGraph g;
  const NodeId u = g.add_node();
  const NodeId v = g.add_node();
  g.add_edge(u, v, 'a', Presence::always(),
             Latency::function([](Time t) { return t % 2 == 0 ? 2 : 1; },
                               "parity"));
  SearchLimits limits;  // horizon stays kTimeInfinity
  limits.max_configs = 64;
  SearchWorkspace ws;
  const ForemostTree t =
      foremost_arrivals(g, u, 0, Policy::wait(), limits, ws);
  EXPECT_TRUE(t.truncated);
  EXPECT_EQ(t.arrival[v], 2);
}

TEST(BoundedWait, AllRejectedArrivalsStillTerminateViaStepBudget) {
  // Worst case for budget-bounded enumeration: an unbounded departure
  // window over an always-present edge whose every arrival is filtered
  // (infinite latency), so the config budget alone never binds. The
  // step budget must end the search and report truncation.
  TimeVaryingGraph g;
  const NodeId u = g.add_node();
  const NodeId v = g.add_node();
  g.add_edge(u, v, 'a', Presence::always(),
             Latency::function([](Time) { return kTimeInfinity; }, "stuck"));
  SearchLimits limits;  // horizon stays kTimeInfinity
  limits.max_configs = 64;
  SearchWorkspace ws;
  const ForemostTree t =
      foremost_arrivals(g, u, 0, Policy::wait(), limits, ws);
  EXPECT_TRUE(t.truncated);
  EXPECT_EQ(t.arrival[v], kTimeInfinity);
}

TEST(BoundedWait, DuplicateHeavyFiniteSearchIsNotSpuriouslyTruncated) {
  // With the waiting bound spanning the whole horizon, every config
  // re-enumerates the full window of ~2000 departures, nearly all
  // duplicates — and once the visited set saturates, the remaining queue
  // tail admits nothing at all (~8M fruitless steps total). The
  // enumeration watchdog must only trip on a single never-ending
  // expansion, not on this exhaustive finite search.
  TimeVaryingGraph g;
  const NodeId u = g.add_node();
  const NodeId v = g.add_node();
  g.add_edge(u, v, 'a', Presence::always(), Latency::constant(1));
  g.add_edge(v, u, 'a', Presence::always(), Latency::constant(1));
  SearchLimits limits;
  limits.horizon = 2000;
  limits.max_configs = 8192;  // 4000 configs actually explored
  SearchWorkspace ws;
  const ForemostTree t =
      foremost_arrivals(g, u, 0, Policy::bounded_wait(2000), limits, ws);
  EXPECT_FALSE(t.truncated);
  EXPECT_EQ(t.arrival[v], 1);
  EXPECT_EQ(t.configs.size(), 4000u);
}

TEST(Fastest, SharedSchedulesDoNotChargeCandidateBudgetTwice) {
  // Two parallel out-edges with the same 10-instant schedule: only 10
  // distinct candidates exist, so a budget of 15 must not be reported
  // as truncated even though the raw per-edge enumeration sees 20.
  TimeVaryingGraph g;
  const NodeId s = g.add_node();
  const NodeId t = g.add_node();
  const Presence window = Presence::intervals(IntervalSet::single(0, 10));
  g.add_edge(s, t, 'a', window, Latency::constant(5));
  g.add_edge(s, t, 'b', window, Latency::constant(3));
  SearchLimits limits;
  limits.horizon = 50;
  limits.max_fastest_candidates = 15;
  const QueryEngine engine(g);
  const JourneyResult res =
      engine.run(JourneyQuery::fastest(s, t, 0, 20).within(limits));
  EXPECT_FALSE(res.truncated);
  ASSERT_TRUE(res.journey.has_value());
  EXPECT_EQ(res.journey->duration(g), 3);
  EXPECT_EQ(res.journey->word(g), "b");
}

TEST(BoundedWait, InfinitySentinelFromNextPresentIsAbsence) {
  // A user-supplied next_present accelerator may (wrongly but plausibly)
  // signal "never again" with kTimeInfinity itself rather than nullopt;
  // the engine must read that as absence, never as a departure at the end
  // of time.
  TimeVaryingGraph g;
  const NodeId u = g.add_node();
  const NodeId v = g.add_node();
  g.add_edge(u, v, 'a',
             Presence::predicate_with_next(
                 [](Time t) { return t == 3; },
                 [](Time t) -> std::optional<Time> {
                   if (t <= 3) return 3;
                   return kTimeInfinity;  // sentinel instead of nullopt
                 }),
             Latency::constant(1));
  SearchWorkspace ws;
  const ForemostTree t = foremost_arrivals(
      g, u, 0, Policy::bounded_wait(kTimeInfinity), {}, ws);
  EXPECT_EQ(t.arrival[v], 4);
  EXPECT_FALSE(t.truncated);
}

TEST(SearchEntryPoints, OutOfRangeSourceThrows) {
  // The frozen-graph entry points bypass the engine's query validation;
  // a bad source must be a typed error, never an out-of-bounds write.
  TimeVaryingGraph g;
  g.add_nodes(2);
  g.add_edge(0, 1, 'a', Presence::always(), Latency::constant(1));
  SearchWorkspace ws;
  const NodeId bad = NodeId{1u << 30};
  EXPECT_THROW((void)foremost_scan(g, bad, 0, Policy::wait(), {}, ws),
               std::out_of_range);
  EXPECT_THROW((void)foremost_arrivals(g, bad, 0, Policy::wait(), {}, ws),
               std::out_of_range);
  EXPECT_THROW((void)foremost_scan(g, 2, 0, Policy::no_wait(), {}, ws),
               std::out_of_range);
  // The workspace is still usable after the rejected calls.
  EXPECT_EQ(foremost_scan(g, 0, 0, Policy::wait(), {}, ws).arrival[1], 1);
}

TEST(SearchEntryPoints, ThrowingPredicateLeavesTheWorkspaceUsable) {
  // A ρ that throws mid-drain unwinds out of the Wait Dijkstra while its
  // calendar queue still holds items: the rest of instant 2's bucket
  // and a far-future arrival in the overflow. A later search on the same
  // workspace must not see them. The follow-up is built so that stale
  // items would change its witness forest: config indices 4 and 5 are
  // instant-2 configs there too, and expanding them ahead of 1..3 would
  // make t4, not t1, the parent of y.
  TimeVaryingGraph g;
  const auto always = [&](NodeId from, NodeId to) {
    g.add_edge(from, to, 'a', Presence::always(), Latency::constant(1));
  };
  const NodeId p = g.add_nodes(6);  // p, q1, q2, far, r1, r2
  const NodeId q1 = p + 1, q2 = p + 2, far = p + 3, r1 = p + 4, r2 = p + 5;
  always(p, q1);
  always(p, q2);
  g.add_edge(p, far, 'a', Presence::at_times({1000000}),
             Latency::constant(1));
  always(q1, r1);
  always(q1, r2);
  bool armed = false;
  g.add_edge(r1, q2, 'b',
             Presence::predicate(
                 [&armed](Time t) {
                   if (armed) throw std::runtime_error("predicate failed");
                   return t % 2 == 0;
                 },
                 "throwing"),
             Latency::constant(1));
  const NodeId s = g.add_nodes(7);  // s, t1..t5, y
  const NodeId y = s + 6;
  for (NodeId t = s + 1; t <= s + 5; ++t) always(s, t);
  always(s + 1, y);
  always(s + 4, y);
  (void)g.schedule_index();  // compile before arming the predicate

  SearchWorkspace ws;
  armed = true;
  EXPECT_THROW((void)foremost_scan(g, p, 0, Policy::wait(), {}, ws),
               std::runtime_error);
  armed = false;

  SearchWorkspace fresh;
  const ForemostTree expected =
      foremost_arrivals(g, s, 1, Policy::wait(), {}, fresh);
  const ForemostTree tree = foremost_arrivals(g, s, 1, Policy::wait(), {}, ws);
  EXPECT_EQ(tree.arrival, expected.arrival);
  EXPECT_EQ(tree.best_config, expected.best_config);
  ASSERT_TRUE(expected.journey_to(y).has_value());
  EXPECT_EQ(expected.journey_to(y)->legs[0].edge,
            g.out_edges(s)[0]);  // via t1
  EXPECT_EQ(tree.journey_to(y), expected.journey_to(y));
  // And the throwing search itself, now disarmed.
  EXPECT_EQ(foremost_scan(g, p, 0, Policy::wait(), {}, ws).arrival[far],
            1000001);
}

}  // namespace
}  // namespace tvg
