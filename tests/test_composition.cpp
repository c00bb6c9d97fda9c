// Unit tests for TVG structural operations and the text serialization
// round trip.
#include <gtest/gtest.h>

#include "tvg/composition.hpp"
#include "tvg/delta_overlay.hpp"
#include "tvg/generators.hpp"
#include "tvg/serialization.hpp"

namespace tvg {
namespace {

TimeVaryingGraph sample_graph() {
  TimeVaryingGraph g;
  const NodeId u = g.add_node("u");
  const NodeId v = g.add_node("v");
  g.add_edge(u, v, 'a', Presence::periodic(4, IntervalSet::from_points({1})),
             Latency::constant(2), "uv");
  g.add_edge(v, u, 'b', Presence::intervals(IntervalSet::single(3, 7)),
             Latency::constant(1), "vu");
  return g;
}

TEST(Composition, DisjointUnion) {
  const TimeVaryingGraph a = sample_graph();
  const TimeVaryingGraph b = sample_graph();
  const auto [u, offset] = disjoint_union(a, b);
  EXPECT_EQ(u.node_count(), 4u);
  EXPECT_EQ(u.edge_count(), 4u);
  EXPECT_EQ(offset, 2u);
  EXPECT_EQ(u.edge(2).from, 2u);  // b's first edge shifted
  EXPECT_EQ(u.node_name(0), "a.u");
  EXPECT_EQ(u.node_name(2), "b.u");
  // Schedules are preserved.
  EXPECT_TRUE(u.edge(2).present(1));
  EXPECT_FALSE(u.edge(2).present(2));
}

TEST(Composition, Relabeled) {
  const TimeVaryingGraph g = sample_graph();
  const TimeVaryingGraph r = relabeled(g, {{'a', 'x'}});
  EXPECT_EQ(r.edge(0).label, 'x');
  EXPECT_EQ(r.edge(1).label, 'b');  // unchanged
  EXPECT_EQ(r.alphabet(), "bx");
}

TEST(Composition, RestrictedToWindow) {
  const TimeVaryingGraph g = sample_graph();
  const TimeVaryingGraph w = restricted_to_window(g, 2, 6);
  // Edge 0 (periodic at 1,5,9,...): only 5 survives in [2,6).
  EXPECT_FALSE(w.edge(0).present(1));
  EXPECT_TRUE(w.edge(0).present(5));
  EXPECT_FALSE(w.edge(0).present(9));
  // Edge 1 ([3,7)): clipped to [3,6).
  EXPECT_TRUE(w.edge(1).present(3));
  EXPECT_TRUE(w.edge(1).present(5));
  EXPECT_FALSE(w.edge(1).present(6));
}

TEST(Composition, RestrictedWindowOnPredicate) {
  TimeVaryingGraph g;
  g.add_nodes(2);
  g.add_edge(0, 1, 'a',
             Presence::predicate([](Time t) { return t % 2 == 0; }, "even"),
             Latency::constant(1));
  const TimeVaryingGraph w = restricted_to_window(g, 4, 9);
  EXPECT_FALSE(w.edge(0).present(2));
  EXPECT_TRUE(w.edge(0).present(4));
  EXPECT_TRUE(w.edge(0).present(8));
  EXPECT_FALSE(w.edge(0).present(9));
  EXPECT_FALSE(w.edge(0).present(10));
}

TEST(Composition, TimeShifted) {
  const TimeVaryingGraph g = sample_graph();
  const TimeVaryingGraph s = time_shifted(g, 5);
  for (Time t = 0; t < 40; ++t) {
    EXPECT_EQ(s.edge(0).present(t + 5), g.edge(0).present(t)) << t;
    EXPECT_EQ(s.edge(1).present(t + 5), g.edge(1).present(t)) << t;
  }
  for (Time t = 0; t < 5; ++t) {
    EXPECT_FALSE(s.edge(0).present(t));
    EXPECT_FALSE(s.edge(1).present(t));
  }
}

TEST(Composition, TimeShiftRejectsAffineLatency) {
  TimeVaryingGraph g;
  g.add_nodes(2);
  g.add_edge(0, 1, 'a', Presence::always(), Latency::affine(1, 0));
  EXPECT_THROW((void)time_shifted(g, 3), std::invalid_argument);
  EXPECT_THROW((void)time_shifted(sample_graph(), -1),
               std::invalid_argument);
}

TEST(Composition, EdgeReversed) {
  const TimeVaryingGraph g = sample_graph();
  const TimeVaryingGraph r = edge_reversed(g);
  EXPECT_EQ(r.edge(0).from, g.edge(0).to);
  EXPECT_EQ(r.edge(0).to, g.edge(0).from);
  // Double reverse restores adjacency.
  const TimeVaryingGraph rr = edge_reversed(r);
  EXPECT_EQ(rr.edge(0).from, g.edge(0).from);
}

TEST(Serialization, RoundTripSampleGraph) {
  const TimeVaryingGraph g = sample_graph();
  const std::string text = to_text(g);
  const TimeVaryingGraph back = from_text(text);
  ASSERT_EQ(back.node_count(), g.node_count());
  ASSERT_EQ(back.edge_count(), g.edge_count());
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    EXPECT_EQ(back.edge(e).from, g.edge(e).from);
    EXPECT_EQ(back.edge(e).to, g.edge(e).to);
    EXPECT_EQ(back.edge(e).label, g.edge(e).label);
    EXPECT_EQ(back.edge_name(e), g.edge_name(e));
    for (Time t = 0; t < 30; ++t) {
      EXPECT_EQ(back.edge(e).present(t), g.edge(e).present(t))
          << "edge " << e << " t " << t;
      EXPECT_EQ(back.edge(e).latency(t), g.edge(e).latency(t));
    }
  }
  // Serialization is stable (idempotent round trip).
  EXPECT_EQ(to_text(back), text);
}

TEST(Serialization, RoundTripRandomPeriodic) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    RandomPeriodicParams params;
    params.seed = seed;
    params.max_latency = 3;
    const TimeVaryingGraph g = make_random_periodic(params);
    const TimeVaryingGraph back = from_text(to_text(g));
    ASSERT_EQ(back.edge_count(), g.edge_count());
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      for (Time t = 0; t < 25; ++t) {
        ASSERT_EQ(back.edge(e).present(t), g.edge(e).present(t))
            << "seed " << seed;
      }
    }
  }
}

TEST(Serialization, AllSpecFormsParse) {
  const std::string text = R"(tvg 1
# a comment line
node n0
node n1
edge n0 n1 a presence=always latency=const:1 name=e_always
edge n0 n1 b presence=never latency=const:2
edge n0 n1 c presence=at:{3,5,9} latency=affine:2,1
edge n0 n1 d presence=intervals:{[0,4),[7,9)} latency=const:0
edge n0 n1 e presence=periodic:6:{0,[2,4)} latency=const:3
edge n0 n1 f presence=semi:5:{[1,3)}:4:{2} latency=const:1
edge n0 n1 g presence=eventually:9 latency=const:1
)";
  const TimeVaryingGraph g = from_text(text);
  EXPECT_EQ(g.edge_count(), 7u);
  EXPECT_TRUE(g.edge(0).present(123));
  EXPECT_FALSE(g.edge(1).present(0));
  EXPECT_TRUE(g.edge(2).present(5));
  EXPECT_EQ(g.edge(2).latency(4), 9);
  EXPECT_TRUE(g.edge(3).present(8));
  EXPECT_TRUE(g.edge(4).present(6));   // residue 0
  EXPECT_TRUE(g.edge(4).present(9));   // residue 3 in [2,4)
  EXPECT_FALSE(g.edge(4).present(10)); // residue 4
  EXPECT_TRUE(g.edge(5).present(1));
  EXPECT_TRUE(g.edge(5).present(7));   // tail residue (7-5)%4 = 2
  EXPECT_FALSE(g.edge(6).present(8));
  EXPECT_TRUE(g.edge(6).present(9));
  EXPECT_EQ(g.edge_name(0), "e_always");
}

TEST(Serialization, ErrorsCarryLineNumbers) {
  auto expect_fail = [](const std::string& text, const char* fragment) {
    try {
      (void)from_text(text);
      FAIL() << "expected parse failure for: " << fragment;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind("from_text: line ", 0), 0u)
          << e.what();
    }
  };
  expect_fail("nope", "bad header");
  expect_fail("tvg 1\nnode a\nnode a\n", "duplicate node");
  expect_fail("tvg 1\nedge x y a presence=always latency=const:1\n",
              "unknown node");
  expect_fail("tvg 1\nnode a\nnode b\nedge a b ab presence=always "
              "latency=const:1\n",
              "multi-char label");
  expect_fail("tvg 1\nnode a\nnode b\nedge a b a presence=wat "
              "latency=const:1\n",
              "bad presence");
  expect_fail("tvg 1\nnode a\nnode b\nedge a b a presence=always\n",
              "missing latency");
  // Specs that parse but fail the schedule's own validation.
  expect_fail("tvg 1\nnode a\nnode b\nedge a b a presence=periodic:0:{1} "
              "latency=const:1\n",
              "period 0");
  expect_fail("tvg 1\nnode a\nnode b\nedge a b a presence=semi:-3:{}:2:{1} "
              "latency=const:1\n",
              "negative t0");
  expect_fail("tvg 1\nnode a\nnode b\nedge a b a presence=always "
              "latency=affine:-1,2\n",
              "negative affine coefficient");
  // Empty input fails too (without a line number — there is no line).
  EXPECT_THROW((void)from_text(""), std::invalid_argument);
}

TEST(Serialization, WhitespaceAndCommentsParseLikeTheCleanForm) {
  const std::string clean =
      "tvg 1\n"
      "node a\n"
      "node b\n"
      "edge a b x presence=periodic:6:{0,[2,4)} latency=const:3 name=e_one\n"
      "edge b a y presence=always latency=affine:2,1 name=e1\n";
  // CRLF endings, tab separators, leading/trailing blanks, blank lines
  // and `#` comment lines (indented or not) are all layout.
  const std::string messy =
      "# leading comment\r\n"
      "  tvg\t1 \r\n"
      "\r\n"
      "node\ta\t\r\n"
      "   # indented comment\r\n"
      "node b   \r\n"
      " \t \r\n"
      "edge\ta  b\tx presence=periodic:6:{0,[2,4)}\t\tlatency=const:3 "
      "name=e_one \r\n"
      "\tedge b a y  presence=always latency=affine:2,1\r\n"
      "#trailing comment";
  EXPECT_EQ(to_text(from_text(clean)), clean);
  EXPECT_EQ(to_text(from_text(messy)), clean);
}

TEST(Serialization, NodeErrorsNameTheirLine) {
  auto message_of = [](const std::string& text, bool with_delta) {
    try {
      if (with_delta) {
        (void)from_text_with_delta(text);
      } else {
        (void)from_text(text);
      }
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("<no throw>");
  };
  // A duplicate declared after edges is still caught, on its own line.
  EXPECT_EQ(message_of("tvg 1\nnode a\nnode b\n"
                       "edge a b x presence=always latency=const:1\n"
                       "edge b a x presence=always latency=const:1\n"
                       "node a\n",
                       false),
            "from_text: line 6: duplicate node 'a'");
  EXPECT_EQ(message_of("tvg 1\nnode a\n# gap\n\nnode b\n"
                       "edge a zz x presence=always latency=const:1\n",
                       false),
            "from_text: line 6: unknown node 'zz'");
  EXPECT_EQ(message_of("tvg 1\nnode a\nnode b\n"
                       "edge qq b x presence=always latency=const:1\n",
                       false),
            "from_text: line 4: unknown node 'qq'");
  EXPECT_EQ(message_of("tvg 1\nnode a\nnode b\n"
                       "delta add_edge a nope x presence=always "
                       "latency=const:1\n",
                       true),
            "from_text: line 4: unknown node 'nope'");
}

TEST(Serialization, ZipfGraphRoundTripsExactly) {
  ZipfPeriodicParams params;
  params.nodes = 20000;
  params.avg_degree = 8.0;
  params.period = 8;
  params.density = 0.5;
  params.seed = 1;
  const std::string text = to_text(make_zipf_periodic(params));
  const TimeVaryingGraph back = from_text(text);
  EXPECT_EQ(back.node_count(), params.nodes);
  EXPECT_EQ(to_text(back), text);
}

TEST(Serialization, ServingGraphRoundTripsExactly) {
  RandomPeriodicParams params;
  params.nodes = 8192;
  params.edges = 60000;
  params.period = 64;
  params.density = 0.03;
  params.max_latency = 2;
  params.seed = 1;
  const std::string text = to_text(make_random_periodic(params));
  EXPECT_EQ(to_text(from_text(text)), text);
}

// Generated names `v<N>` take a by-index path; it must agree with the
// hash index for every name whose digits point at some other node.
TEST(Serialization, NodeNamesResolveByNameNotDigits) {
  const std::string nodes =
      "tvg 1\n"
      "node v1\n"
      "node v0\n"
      "node v007\n"
      "node v\n"
      "node v-1\n"
      "node v99999999999999999999\n";
  const TimeVaryingGraph g = from_text(
      nodes +
      "edge v1 v0 a presence=always latency=const:1\n"
      "edge v0 v1 a presence=always latency=const:1\n"
      "edge v007 v a presence=always latency=const:1\n"
      "edge v-1 v99999999999999999999 a presence=always latency=const:1\n");
  const std::vector<std::pair<NodeId, NodeId>> want = {
      {0, 1}, {1, 0}, {2, 3}, {4, 5}};
  ASSERT_EQ(g.edge_count(), want.size());
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    EXPECT_EQ(std::pair(g.edge(e).from, g.edge(e).to), want[e]) << e;
  }
  auto message_of = [&](const std::string& edge_line) {
    try {
      (void)from_text(nodes + edge_line);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("<no throw>");
  };
  // v2 and v7 are ids that exist or that v007 spells, never names.
  EXPECT_EQ(message_of("edge v2 v0 a presence=always latency=const:1\n"),
            "from_text: line 8: unknown node 'v2'");
  EXPECT_EQ(message_of("edge v0 v7 a presence=always latency=const:1\n"),
            "from_text: line 8: unknown node 'v7'");
  EXPECT_EQ(message_of("edge v0 v01 a presence=always latency=const:1\n"),
            "from_text: line 8: unknown node 'v01'");
}

TEST(Serialization, RepeatedBadSpecFailsOnItsFirstLine) {
  auto message_of = [](const std::string& text) {
    try {
      (void)from_text_with_delta(text);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("<no throw>");
  };
  const std::string head = "tvg 1\nnode a\nnode b\n";
  EXPECT_EQ(message_of(head +
                       "edge a b x presence=periodic:4:{1 latency=const:1\n"
                       "edge b a x presence=periodic:4:{1 latency=const:1\n"),
            "from_text: line 4: expected ',' near ''");
  EXPECT_EQ(message_of(head +
                       "edge a b x presence=always latency=const:z\n"
                       "edge b a x presence=always latency=const:z\n"),
            "from_text: line 4: expected a number near 'z'");
  EXPECT_EQ(message_of(head +
                       "edge a b x presence=always latency=const:1\n"
                       "delta patch_presence 0 presence=sometimes\n"
                       "delta patch_presence 0 presence=sometimes\n"),
            "from_text: line 5: unknown presence spec near 'sometimes'");
}

// One parse keeps one schedule per distinct spec text, base and delta
// lines alike.
TEST(Serialization, EqualSpecsShareOneSchedule) {
  const auto [g, delta] = from_text_with_delta(
      "tvg 1\n"
      "node a\n"
      "node b\n"
      "edge a b x presence=periodic:8:{1,3} latency=const:2\n"
      "edge b a y presence=periodic:8:{1,3} latency=const:2\n"
      "edge a a z presence=periodic:8:{1,2} latency=const:2\n"
      "delta patch_presence 2 presence=periodic:8:{1,3}\n");
  ASSERT_EQ(g.edge_count(), 3u);
  ASSERT_EQ(delta.size(), 1u);
  const IntervalSet* shared = &g.edge(0).presence.pattern();
  EXPECT_EQ(&g.edge(1).presence.pattern(), shared);
  EXPECT_EQ(&delta[0].presence.pattern(), shared);
  EXPECT_NE(&g.edge(2).presence.pattern(), shared);
  EXPECT_TRUE(g.edge(2).present(10));  // residue 2: its own pattern
  EXPECT_FALSE(g.edge(0).present(10));
}

// The writer's exact bytes, taken from the stream-based writer it
// replaced: every checkpoint and delta dump already on disk was written
// in this form, so a change here is a format change, not a refactor.
// Covers every presence form the writer emits (at/eventually parse but
// are written as intervals/semi), both latency forms, negative times,
// times next to kTimeInfinity and all four delta kinds.
TEST(Serialization, WriterBytesArePinned) {
  TimeVaryingGraph g;
  g.add_node("v0");
  g.add_node("hub");
  g.add_node("x");
  g.add_edge(0, 1, 'a', Presence::always(), Latency::constant(1), "up");
  g.add_edge(1, 2, 'b', Presence::never(), Latency::constant(0));
  IntervalSet mixed = IntervalSet::from_points({3, 12});
  mixed.insert({5, 9});
  g.add_edge(2, 0, 'c', Presence::intervals(std::move(mixed)),
             Latency::affine(2, 1), "mixed");
  IntervalSet daily = IntervalSet::from_points({6});
  daily.insert({8, 11});
  g.add_edge(0, 2, 'd', Presence::periodic(24, std::move(daily)),
             Latency::constant(3), "daily");
  g.add_edge(1, 0, 'e',
             Presence::semi_periodic(5, IntervalSet::single(1, 3), 4,
                                     IntervalSet::from_points({2})),
             Latency::affine(7, 0), "semi");
  g.add_edge(2, 1, 'f', Presence::eventually_always(10), Latency::constant(2),
             "late");
  // Presence::intervals keeps negative times (ρ is 0 there), so they
  // pin the sign; Latency rejects negative coefficients outright.
  IntervalSet past = IntervalSet::from_points({-1});
  past.insert({-5, -2});
  g.add_edge(0, 0, 'g', Presence::intervals(std::move(past)),
             Latency::constant(4), "past");
  g.add_edge(1, 1, 'h', Presence::at_times({kTimeInfinity - 2}),
             Latency::constant(kTimeInfinity), "far");

  const std::vector<EdgeMutation> delta = {
      EdgeMutation::add_edge(2, 0, 'z',
                             Presence::periodic(8, [] {
                               IntervalSet p = IntervalSet::from_points({2});
                               p.insert({4, 6});
                               return p;
                             }()),
                             Latency::affine(1, 5), "patch"),
      EdgeMutation::remove_edge(3),
      EdgeMutation::patch_presence(
          8, Presence::eventually_always(kTimeInfinity - 1)),
      EdgeMutation::override_latency(0, Latency::constant(9)),
  };

  const std::string base =
      "tvg 1\n"
      "node v0\n"
      "node hub\n"
      "node x\n"
      "edge v0 hub a presence=always latency=const:1 name=up\n"
      "edge hub x b presence=never latency=const:0 name=e1\n"
      "edge x v0 c presence=intervals:{3,[5,9),12} latency=affine:2,1 "
      "name=mixed\n"
      "edge v0 x d presence=periodic:24:{6,[8,11)} latency=const:3 "
      "name=daily\n"
      "edge hub v0 e presence=semi:5:{[1,3)}:4:{2} latency=affine:7,0 "
      "name=semi\n"
      "edge x hub f presence=semi:10:{}:1:{0} latency=const:2 name=late\n"
      "edge v0 v0 g presence=intervals:{[-5,-2),-1} latency=const:4 "
      "name=past\n"
      "edge hub hub h presence=intervals:{9223372036854775805} "
      "latency=const:9223372036854775807 name=far\n";
  const std::string delta_lines =
      "delta add_edge x v0 z presence=periodic:8:{2,[4,6)} "
      "latency=affine:1,5 name=patch\n"
      "delta remove_edge 3\n"
      "delta patch_presence 8 presence=semi:9223372036854775806:{}:1:{0}\n"
      "delta override_latency 0 latency=const:9\n";
  EXPECT_EQ(to_text(g), base);
  EXPECT_EQ(to_text(g, delta), base + delta_lines);
  EXPECT_EQ(presence_to_spec(g.edge(2).presence), "intervals:{3,[5,9),12}");
  EXPECT_EQ(latency_to_spec(g.edge(7).latency), "const:9223372036854775807");
}

TEST(Serialization, RefusesRuntimeOnlySchedules) {
  TimeVaryingGraph g;
  g.add_nodes(2);
  g.add_edge(0, 1, 'a',
             Presence::predicate([](Time) { return true; }, "magic"),
             Latency::constant(1));
  EXPECT_THROW((void)to_text(g), std::invalid_argument);
  TimeVaryingGraph h;
  h.add_nodes(2);
  h.add_edge(0, 1, 'a', Presence::always(),
             Latency::function([](Time t) { return t; }, "id"));
  EXPECT_THROW((void)to_text(h), std::invalid_argument);
}

}  // namespace
}  // namespace tvg
