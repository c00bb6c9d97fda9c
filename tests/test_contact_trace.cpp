// Unit tests for the DTN contact-trace import/export.
#include <gtest/gtest.h>

#include "tvg/algorithms.hpp"
#include "tvg/contact_trace.hpp"
#include "tvg/generators.hpp"
#include "tvg/query_engine.hpp"

namespace tvg {
namespace {

TEST(ContactTrace, ExtractFindsMaximalWindows) {
  TimeVaryingGraph g;
  g.add_nodes(2);
  g.add_edge(0, 1, 'c',
             Presence::intervals(IntervalSet({{2, 5}, {9, 10}})),
             Latency::constant(1));
  const auto contacts = extract_contacts(g, 20);
  ASSERT_EQ(contacts.size(), 2u);
  EXPECT_EQ(contacts[0], (Contact{0, 1, 2, 5}));
  EXPECT_EQ(contacts[1], (Contact{0, 1, 9, 10}));
}

TEST(ContactTrace, ExtractClipsAtHorizon) {
  TimeVaryingGraph g;
  g.add_nodes(2);
  g.add_edge(0, 1, 'c', Presence::always(), Latency::constant(1));
  const auto contacts = extract_contacts(g, 12);
  ASSERT_EQ(contacts.size(), 1u);
  EXPECT_EQ(contacts[0], (Contact{0, 1, 0, 12}));
}

TEST(ContactTrace, ExtractUnrollsPeriodicSchedules) {
  TimeVaryingGraph g;
  g.add_nodes(2);
  g.add_edge(0, 1, 'c',
             Presence::periodic(5, IntervalSet::single(1, 3)),
             Latency::constant(1));
  const auto contacts = extract_contacts(g, 13);
  ASSERT_EQ(contacts.size(), 3u);
  EXPECT_EQ(contacts[0], (Contact{0, 1, 1, 3}));
  EXPECT_EQ(contacts[1], (Contact{0, 1, 6, 8}));
  EXPECT_EQ(contacts[2], (Contact{0, 1, 11, 13}));
}

TEST(ContactTrace, GraphRoundTripPreservesReachability) {
  EdgeMarkovianParams params;
  params.nodes = 10;
  params.horizon = 40;
  params.seed = 11;
  const TimeVaryingGraph g = make_edge_markovian(params);
  const auto contacts = extract_contacts(g, params.horizon);
  const TimeVaryingGraph back =
      graph_from_contacts(contacts, params.nodes);
  SearchLimits limits;
  limits.horizon = 60;
  const QueryEngine original(g);
  const QueryEngine round_trip(back);
  // Reachability: which entries of the foremost row are finite.
  const auto reach = [&](const QueryEngine& engine, NodeId src, Policy p) {
    const auto row =
        engine.run(JourneyQuery::foremost(src, 0).under(p).within(limits))
            .arrivals;
    std::vector<bool> out(row.size());
    for (std::size_t v = 0; v < row.size(); ++v) {
      out[v] = row[v] != kTimeInfinity;
    }
    return out;
  };
  for (NodeId src = 0; src < 3; ++src) {
    EXPECT_EQ(reach(original, src, Policy::wait()),
              reach(round_trip, src, Policy::wait()))
        << "src=" << src;
    EXPECT_EQ(reach(original, src, Policy::no_wait()),
              reach(round_trip, src, Policy::no_wait()))
        << "src=" << src;
  }
}

TEST(ContactTrace, TextRoundTrip) {
  const std::vector<Contact> contacts{
      {0, 1, 2, 5}, {1, 2, 3, 4}, {0, 2, 10, 12}};
  const auto parsed = contacts_from_text(contacts_to_text(contacts));
  EXPECT_EQ(parsed, contacts);
}

TEST(ContactTrace, TextParserHandlesCommentsAndBlanks) {
  const auto contacts = contacts_from_text(
      "# header\n\n0 1 2 5\n  # indented comment\n1 0 7 9 # trailing\n");
  ASSERT_EQ(contacts.size(), 2u);
  EXPECT_EQ(contacts[1], (Contact{1, 0, 7, 9}));
}

TEST(ContactTrace, TextParserRejectsGarbage) {
  EXPECT_THROW((void)contacts_from_text("0 1 2\n"), std::invalid_argument);
  EXPECT_THROW((void)contacts_from_text("0 1 2 3 4\n"),
               std::invalid_argument);
}

TEST(ContactTrace, GraphFromContactsValidates) {
  EXPECT_THROW(
      (void)graph_from_contacts({{0, 9, 0, 1}}, 2),
      std::invalid_argument);
  EXPECT_THROW(
      (void)graph_from_contacts({{0, 1, 5, 5}}, 2),
      std::invalid_argument);
}

TEST(ContactTrace, MergesContactsPerLink) {
  const TimeVaryingGraph g = graph_from_contacts(
      {{0, 1, 0, 2}, {0, 1, 5, 7}, {1, 0, 1, 2}}, 2);
  EXPECT_EQ(g.edge_count(), 2u);  // 0->1 (two windows) and 1->0
  const auto e01 = g.out_edges(0);
  ASSERT_EQ(e01.size(), 1u);
  EXPECT_TRUE(g.edge(e01[0]).present(1));
  EXPECT_FALSE(g.edge(e01[0]).present(3));
  EXPECT_TRUE(g.edge(e01[0]).present(6));
}

TEST(ContactTrace, Stats) {
  const std::vector<Contact> contacts{
      {0, 1, 0, 4}, {1, 2, 2, 6}, {0, 2, 10, 12}};
  const TraceStats stats = trace_stats(contacts);
  EXPECT_EQ(stats.contact_count, 3u);
  EXPECT_EQ(stats.total_contact_time, 4 + 4 + 2);
  EXPECT_EQ(stats.mean_contact_duration, 10 / 3);
  EXPECT_EQ(stats.span, 12);
  EXPECT_EQ(stats.max_gap_between_contacts, 4);  // [6, 10)
  EXPECT_EQ(trace_stats({}).contact_count, 0u);
}

}  // namespace
}  // namespace tvg
