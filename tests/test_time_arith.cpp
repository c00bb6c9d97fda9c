// Regression tests for the saturating-Time audit driven by
// scripts/lint_time_arith.py (the PR-4 overflow class: raw +/- on Time
// values near the kTimeInfinity sentinel is signed-overflow UB).
//
// Each converted call site gets a test pinning the saturated behaviour:
//
//  * sat_sub itself (src/tvg/time.hpp) — the new primitive;
//  * metrics: eccentricity / closeness / characteristic temporal
//    distance with a finite-but-huge arrival and a negative start;
//  * algorithms: the calendar queue sizes its ring from the window
//    `horizon - t_min`, which must saturate to a full ring instead of
//    overflowing (single-source and multi-source kernels);
//  * journeys: wait_before / validate_journey with a huge departure;
//  * contact extraction whose presence tail runs to the horizon;
//  * presence: periodic next_present wrapping past the representable
//    range, and dilated predicate hints probed near the maximum;
//  * generators: a near-infinite horizon window schedule.
//
// The ASan/UBSan CI lane turns any regression here into a hard failure.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "tvg/algorithms.hpp"
#include "tvg/contact_trace.hpp"
#include "tvg/departures.hpp"
#include "tvg/generators.hpp"
#include "tvg/graph.hpp"
#include "tvg/journey.hpp"
#include "tvg/metrics.hpp"
#include "tvg/read_core.hpp"
#include "tvg/time.hpp"

namespace {

using namespace tvg;

constexpr Time kHuge = kTimeInfinity - 2;
constexpr Time kTimeMin = std::numeric_limits<Time>::min();

TEST(SatSub, FiniteExact) {
  EXPECT_EQ(sat_sub(7, 3), 4);
  EXPECT_EQ(sat_sub(3, 7), -4);
  EXPECT_EQ(sat_sub(-5, -2), -3);
  EXPECT_EQ(sat_sub(0, 0), 0);
}

TEST(SatSub, InfinityRules) {
  EXPECT_EQ(sat_sub(kTimeInfinity, 5), kTimeInfinity);
  EXPECT_EQ(sat_sub(kTimeInfinity, -5), kTimeInfinity);
  EXPECT_EQ(sat_sub(5, kTimeInfinity), kTimeMin);
  EXPECT_EQ(sat_sub(kTimeInfinity, kTimeInfinity), 0);
}

TEST(SatSub, SaturatesUpOnNegativeSubtrahend) {
  EXPECT_EQ(sat_sub(kHuge, -8), kTimeInfinity);
  EXPECT_EQ(sat_sub(1, kTimeMin), kTimeInfinity);
}

TEST(SatSub, SaturatesDownOnUnderflow) {
  EXPECT_EQ(sat_sub(kTimeMin + 2, 8), kTimeMin);
  EXPECT_EQ(sat_sub(-2, kHuge), kTimeMin + 1);  // exact, one above the floor
  EXPECT_EQ(sat_sub(-4, kHuge), kTimeMin);      // one past it: saturates
}

TEST(SatSub, NoFalseSaturationNearTheBoundary) {
  EXPECT_EQ(sat_sub(kHuge, kHuge), 0);
  EXPECT_EQ(sat_sub(0, -(kTimeInfinity - 1)), kTimeInfinity - 1);
  EXPECT_EQ(sat_sub(kTimeMin + 8, 8), kTimeMin);
}

// a <-> b, with the forward edge only present from `far` on. Strongly
// connected so the all-pairs metrics are defined.
TimeVaryingGraph two_way_far_graph(Time far) {
  TimeVaryingGraph g;
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  g.add_edge(a, b, 'x', Presence::eventually_always(far),
             Latency::constant(0), "far");
  g.add_edge(b, a, 'y', Presence::always(), Latency::constant(0), "back");
  return g;
}

TEST(TimeArithMetrics, EccentricitySaturatesHugeArrivalMinusNegativeStart) {
  const TimeVaryingGraph g = two_way_far_graph(kHuge);
  const auto ecc = temporal_eccentricity(g, 0, /*start_time=*/-8,
                                         Policy::wait());
  ASSERT_TRUE(ecc.has_value());
  EXPECT_EQ(*ecc, kTimeInfinity);  // saturated, not wrapped negative
}

TEST(TimeArithMetrics, DiameterSaturatesHugeArrivalMinusNegativeStart) {
  const TimeVaryingGraph g = two_way_far_graph(kHuge);
  const auto diam = temporal_diameter(g, /*start_time=*/-8, Policy::wait());
  ASSERT_TRUE(diam.has_value());
  EXPECT_EQ(*diam, kTimeInfinity);
}

TEST(TimeArithMetrics, ClosenessRowSaturatesInsteadOfWrapping) {
  const std::vector<Time> row = {-4, kHuge};
  const double c = temporal_closeness(row, /*v=*/0, /*start_time=*/-4);
  // 1 / (sat(kHuge - (-4)) + 1): a positive sliver, not the garbage a
  // wrapped-negative denominator would produce.
  EXPECT_GT(c, 0.0);
  EXPECT_LT(c, 1e-9);
}

TEST(TimeArithMetrics, CharacteristicDistanceRowsSaturate) {
  const std::vector<std::vector<Time>> rows = {{-4, kHuge},
                                               {kTimeInfinity, -4}};
  const auto d = characteristic_temporal_distance(rows, /*start_time=*/-4);
  ASSERT_TRUE(d.has_value());
  EXPECT_GT(*d, 1e18);  // ~ kTimeInfinity as a double; positive
}

// The calendar queue sizes its ring from the window `horizon - t_min`;
// a huge finite horizon minus a negative start must saturate (a full
// ring, negative instants included), not overflow.
TEST(TimeArithSearch, BucketWindowGuardSaturatesSingleSource) {
  TimeVaryingGraph g;
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  g.add_edge(a, b, 'x', Presence::eventually_always(10),
             Latency::constant(0), "e");
  const auto limits = SearchLimits::up_to(kTimeInfinity - 1);
  SearchWorkspace ws;
  const ForemostTree tree = foremost_arrivals(
      g, a, /*start_time=*/-4, Policy::bounded_wait(20), limits, ws);
  ASSERT_EQ(tree.arrival.size(), 2u);
  EXPECT_EQ(tree.arrival[a], -4);
  EXPECT_EQ(tree.arrival[b], 10);
}

TEST(TimeArithSearch, BucketWindowGuardSaturatesMultiSource) {
  TimeVaryingGraph g;
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  g.add_edge(a, b, 'x', Presence::eventually_always(10),
             Latency::constant(0), "e");
  SearchWorkspace ws;
  const std::vector<NodeId> sources = {a};
  std::vector<std::vector<Time>> rows(1);
  std::vector<char> truncated(1);
  detail::Kernels<FrozenView>::multi_source_foremost(
      FrozenView(g), sources, /*start_time=*/-4, Policy::bounded_wait(20),
      SearchLimits::up_to(kTimeInfinity - 1), {}, ws.arenas(), rows,
      truncated);
  ASSERT_EQ(rows[0].size(), 2u);
  EXPECT_EQ(rows[0][a], -4);
  EXPECT_EQ(rows[0][b], 10);
  EXPECT_EQ(truncated[0], 0);
}

TEST(TimeArithJourney, WaitBeforeSaturates) {
  TimeVaryingGraph g;
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  const EdgeId e = g.add_edge(a, b, 'x', Presence::eventually_always(kHuge),
                              Latency::constant(0), "far");
  Journey j;
  j.start_node = a;
  j.start_time = -16;
  j.legs.push_back(JourneyLeg{e, kHuge});
  EXPECT_EQ(j.wait_before(g, 0), kTimeInfinity);
  EXPECT_EQ(j.max_wait(g), kTimeInfinity);
}

TEST(TimeArithJourney, ValidationComparesSaturatedWaitAgainstBound) {
  TimeVaryingGraph g;
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  const EdgeId e = g.add_edge(a, b, 'x', Presence::eventually_always(kHuge),
                              Latency::constant(0), "far");
  Journey j;
  j.start_node = a;
  j.start_time = -16;
  j.legs.push_back(JourneyLeg{e, kHuge});
  EXPECT_TRUE(validate_journey(g, j, Policy::wait()).ok);
  // The saturated wait must exceed any finite bound (a wrapped-negative
  // wait would slip under it).
  EXPECT_FALSE(validate_journey(g, j, Policy::bounded_wait(1 << 20)).ok);
  EXPECT_FALSE(validate_journey(g, j, Policy::no_wait()).ok);
}

TEST(TimeArithContacts, TailRunningToUnboundedHorizonTerminates) {
  TimeVaryingGraph g;
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  g.add_edge(a, b, 'x', Presence::eventually_always(kHuge),
             Latency::constant(1), "tail");
  const auto contacts = extract_contacts(g, kTimeInfinity);
  ASSERT_EQ(contacts.size(), 1u);
  EXPECT_EQ(contacts[0].start, kHuge);
  EXPECT_EQ(contacts[0].end, kTimeInfinity);  // clipped at the horizon
}

TEST(TimeArithPresence, PeriodicWrapIsExactThenSaturates) {
  const Time per = kTimeInfinity / 2 + 3;  // > half the Time range
  const Presence p = Presence::periodic(per, IntervalSet::single(0, 1));
  // First wrap fits: next presence after instant 1 is the next period.
  const auto first = p.next_present(1);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, per);
  // Second wrap does not fit: 2·per overflows, so the hint saturates to
  // the sentinel ("no representable next presence").
  const auto second = p.next_present(per + 1);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, kTimeInfinity);
}

TEST(TimeArithPresence, ScheduleIndexWrapSaturatesInDepartures) {
  const Time per = kTimeInfinity / 2 + 3;
  TimeVaryingGraph g;
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  const EdgeId e = g.add_edge(a, b, 'x',
                              Presence::periodic(per, IntervalSet::single(0, 1)),
                              Latency::constant(0), "long");
  const ScheduleIndex& sx = g.schedule_index();
  std::vector<Time> deps;
  for_each_policy_departure(sx, e, /*t=*/per + 1, Policy::wait(),
                            kTimeInfinity, /*wait_budget=*/4, [&](Time dep) {
                              deps.push_back(dep);
                              return true;
                            });
  EXPECT_TRUE(deps.empty());  // the saturated wrap enumerates nothing
}

TEST(TimeArithPresence, DilatedNextHintNearMax) {
  const Presence p = Presence::predicate_with_next(
      [](Time t) { return t >= 0 && t % 5 == 0; },
      [](Time from) -> std::optional<Time> {
        if (from <= 0) return 0;
        return sat_add(from, (5 - from % 5) % 5);  // round up to a multiple
      },
      "mult5");
  const Presence d = p.dilated(3);
  const auto small = d.next_present(7);  // ceil(7/3)=3 -> 5 -> 15
  ASSERT_TRUE(small.has_value());
  EXPECT_EQ(*small, 15);
  // Near the top of the range the scaled-back hint overflows when
  // re-dilated; the ceil itself must saturate instead of wrapping.
  EXPECT_FALSE(d.next_present(kHuge).has_value());
}

TEST(TimeArithGenerators, ScheduledWindowsClipAtHugeHorizon) {
  RandomScheduledParams params;
  params.nodes = 4;
  params.edges = 6;
  params.horizon = kHuge;
  params.seed = 7;
  const TimeVaryingGraph g = make_random_scheduled(params);
  EXPECT_EQ(g.edge_count(), params.edges);
  // Every scheduled window must fall inside [0, horizon).
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const auto first = g.edge(e).presence.next_present(0);
    if (first.has_value()) {
      EXPECT_LT(*first, params.horizon);
    }
  }
}

}  // namespace
