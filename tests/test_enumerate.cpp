// Journey enumeration as the brute-force referee: the acceptance search,
// the foremost optimizer, and validate_journey must all agree with it on
// small graphs.
#include <gtest/gtest.h>

#include "core/tvg_automaton.hpp"
#include "tvg/enumerate.hpp"
#include "tvg/generators.hpp"

namespace tvg {
namespace {

TEST(Enumerate, EveryEnumeratedJourneyValidates) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    RandomScheduledParams params;
    params.nodes = 5;
    params.edges = 14;
    params.horizon = 24;
    params.seed = seed;
    const TimeVaryingGraph g = make_random_scheduled(params);
    for (const Policy policy :
         {Policy::no_wait(), Policy::bounded_wait(3), Policy::wait()}) {
      EnumerateOptions opt;
      opt.max_hops = 3;
      opt.horizon = 60;
      for (const Journey& j : enumerate_journeys(g, 0, 0, policy, opt)) {
        const auto v = validate_journey(g, j, policy);
        EXPECT_TRUE(v.ok) << "seed=" << seed << " "
                          << policy.to_string() << " " << v.reason;
      }
    }
  }
}

TEST(Enumerate, HopOrderAndEmptyJourneyFirst) {
  TimeVaryingGraph g;
  g.add_nodes(2);
  g.add_static_edge(0, 1, 'a');
  g.add_static_edge(1, 0, 'b');
  EnumerateOptions opt;
  opt.max_hops = 3;
  opt.departures_per_edge = 1;
  const auto journeys = enumerate_journeys(g, 0, 0, Policy::no_wait(), opt);
  ASSERT_FALSE(journeys.empty());
  EXPECT_TRUE(journeys.front().empty());
  for (std::size_t i = 1; i < journeys.size(); ++i) {
    EXPECT_LE(journeys[i - 1].hops(), journeys[i].hops());
  }
  // Deterministic static graph: exactly one journey per hop count.
  EXPECT_EQ(journeys.size(), 4u);
}

TEST(Enumerate, AgreesWithForemostArrival) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    RandomScheduledParams params;
    params.nodes = 5;
    params.edges = 16;
    params.horizon = 20;
    params.seed = seed + 100;
    const TimeVaryingGraph g = make_random_scheduled(params);
    EnumerateOptions opt;
    opt.max_hops = 4;
    opt.horizon = 50;
    SearchLimits limits;
    limits.horizon = 50;
    const auto journeys =
        enumerate_journeys(g, 0, 0, Policy::no_wait(), opt);
    SearchWorkspace ws;
    const ForemostTree tree =
        foremost_arrivals(g, 0, 0, Policy::no_wait(), limits, ws);
    // Brute-force earliest arrival per node (within the hop bound) can
    // never beat the search's answer.
    std::vector<Time> brute(g.node_count(), kTimeInfinity);
    for (const Journey& j : journeys) {
      const NodeId end = j.end_node(g);
      brute[end] = std::min(brute[end], j.arrival(g));
    }
    for (NodeId v = 0; v < g.node_count(); ++v) {
      EXPECT_LE(tree.arrival[v], brute[v]) << "seed=" << seed << " v=" << v;
      // And within 4 hops they usually coincide; verify consistency when
      // the search's witness fits the hop bound.
      if (const auto j = tree.journey_to(v); j && j->hops() <= 4) {
        EXPECT_EQ(tree.arrival[v], brute[v])
            << "seed=" << seed << " v=" << v;
      }
    }
  }
}

TEST(Enumerate, AgreesWithAcceptanceOnWords) {
  // The set of words spelled by enumerated accepting journeys equals the
  // language reported by the acceptance search (same hop/horizon caps).
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    RandomScheduledParams params;
    params.nodes = 4;
    params.edges = 12;
    params.horizon = 16;
    params.seed = seed + 7;
    const TimeVaryingGraph g = make_random_scheduled(params);
    core::TvgAutomaton a(g, 0);
    a.set_initial(0);
    a.set_accepting(2);
    EnumerateOptions opt;
    opt.max_hops = 3;
    opt.horizon = 40;
    std::set<Word> from_enumeration;
    for (const Journey& j :
         enumerate_journeys(g, 0, 0, Policy::no_wait(), opt)) {
      if (j.end_node(g) == 2) from_enumeration.insert(j.word(g));
    }
    core::AcceptOptions aopt;
    aopt.horizon = 40;
    const auto lang = a.enumerate_language(3, Policy::no_wait(), aopt);
    const std::set<Word> from_search(lang.begin(), lang.end());
    EXPECT_EQ(from_enumeration, from_search) << "seed=" << seed;
  }
}

TEST(Enumerate, CapIsRespected) {
  TimeVaryingGraph g;
  g.add_nodes(2);
  g.add_static_edge(0, 1, 'a');
  g.add_static_edge(1, 0, 'a');
  EnumerateOptions opt;
  opt.max_hops = 30;
  opt.max_journeys = 10;
  EXPECT_EQ(enumerate_journeys(g, 0, 0, Policy::no_wait(), opt).size(),
            10u);
}

}  // namespace
}  // namespace tvg
