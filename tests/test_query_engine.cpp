// Property tests for tvg::QueryEngine, the batched / thread-parallel
// query façade:
//  * closure() at 1, 2, and 8 threads is bit-identical to a serial
//    per-source foremost_scan sweep on randomized semi-periodic and
//    edge-Markovian graphs (the determinism guarantee the parallel
//    sharding makes);
//  * run() agrees with the bare FrozenView kernels on every objective,
//    one at a time and in threaded batches;
//  * batched accepts() agrees word-for-word with per-word acceptance
//    across policies on randomized graphs (trie sharing is a pure
//    optimization, never a semantic change);
//  * budget truncation and bad-argument guards behave, and an engine
//    over a temporary graph (which it would borrow past its death) does
//    not compile.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/tvg_automaton.hpp"
#include "tvg/algorithms.hpp"
#include "tvg/generators.hpp"
#include "tvg/query_engine.hpp"
#include "tvg/read_core.hpp"

namespace {

using namespace tvg;

/// Serial reference closure: one foremost_scan row per source, in NodeId
/// order, on one workspace (no packing, no threads, no cache).
std::vector<std::vector<Time>> serial_closure(const TimeVaryingGraph& g,
                                              Policy policy,
                                              SearchLimits limits) {
  SearchWorkspace ws;
  std::vector<std::vector<Time>> rows;
  for (NodeId s = 0; s < g.node_count(); ++s) {
    const ForemostScan scan = foremost_scan(g, s, 0, policy, limits, ws);
    rows.emplace_back(scan.arrival.begin(), scan.arrival.end());
  }
  return rows;
}

std::vector<Word> all_words_up_to(const std::string& alphabet,
                                  std::size_t max_len) {
  std::vector<Word> words{Word{}};
  std::vector<Word> frontier{Word{}};
  for (std::size_t len = 1; len <= max_len; ++len) {
    std::vector<Word> next;
    for (const Word& w : frontier) {
      for (const Symbol c : alphabet) next.push_back(w + c);
    }
    words.insert(words.end(), next.begin(), next.end());
    frontier = std::move(next);
  }
  return words;
}

TEST(QueryEngineClosure, ParallelRowsBitIdenticalToSerialOnPeriodic) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    RandomPeriodicParams params;
    params.nodes = 14;
    params.edges = 40;
    params.period = 12;
    params.seed = seed;
    const TimeVaryingGraph g = make_random_periodic(params);
    for (const Policy policy :
         {Policy::no_wait(), Policy::bounded_wait(3), Policy::wait()}) {
      const SearchLimits limits = SearchLimits::up_to(200);
      const auto serial = serial_closure(g, policy, limits);
      QueryEngine engine(g);
      for (const unsigned threads : {1u, 2u, 8u}) {
        ClosureQuery q;
        q.policy = policy;
        q.limits = limits;
        q.threads = threads;
        const ClosureResult result = engine.closure(q);
        ASSERT_EQ(result.rows, serial)
            << "seed=" << seed << " policy=" << policy.to_string()
            << " threads=" << threads;
      }
    }
  }
}

TEST(QueryEngineClosure, ParallelRowsBitIdenticalToSerialOnMarkovian) {
  EdgeMarkovianParams params;
  params.nodes = 48;
  params.initial_on = 1.0 / 48;
  params.p_birth = 0.02;
  params.p_death = 0.5;
  params.horizon = 64;
  params.seed = 9;
  const TimeVaryingGraph g = make_edge_markovian(params);
  const SearchLimits limits = SearchLimits::up_to(120);
  const auto serial = serial_closure(g, Policy::wait(), limits);
  QueryEngine engine(g);
  for (const unsigned threads : {1u, 2u, 8u}) {
    ClosureQuery q;
    q.limits = limits;
    q.threads = threads;
    EXPECT_EQ(engine.closure(q).rows, serial) << "threads=" << threads;
  }
}

TEST(QueryEngineClosure, ExplicitSourceSubsetAndOrder) {
  RandomPeriodicParams params;
  params.nodes = 8;
  params.seed = 3;
  const TimeVaryingGraph g = make_random_periodic(params);
  QueryEngine engine(g);
  ClosureQuery q;
  q.sources = {5, 1, 5};  // order preserved, duplicates allowed
  q.limits = SearchLimits::up_to(100);
  const ClosureResult result = engine.closure(q);
  ASSERT_EQ(result.rows.size(), 3u);
  const auto full = serial_closure(g, Policy::wait(), q.limits);
  EXPECT_EQ(result.rows[0], full[5]);
  EXPECT_EQ(result.rows[1], full[1]);
  EXPECT_EQ(result.rows[2], full[5]);
}

TEST(QueryEngineRun, AgreesWithTheBareKernelsOnEveryObjective) {
  // The oracle is the kernels themselves over FrozenView on a local
  // workspace: no validation, no cache, no pool.
  using K = detail::Kernels<FrozenView>;
  SearchWorkspace ws;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    RandomScheduledParams params;
    params.nodes = 7;
    params.edges = 18;
    params.horizon = 40;
    params.seed = seed;
    const TimeVaryingGraph g = make_random_scheduled(params);
    const SearchLimits limits = SearchLimits::up_to(80);
    QueryEngine engine(g);
    const FrozenView view(g);
    for (const Policy policy :
         {Policy::no_wait(), Policy::bounded_wait(4), Policy::wait()}) {
      for (NodeId target = 1; target < g.node_count(); ++target) {
        const auto fj =
            K::foremost_arrivals(view, 0, 0, policy, limits, ws.arenas())
                .journey_to(target);
        const JourneyResult fr = engine.run(
            JourneyQuery::foremost(0, 0).to(target).under(policy).within(
                limits));
        EXPECT_EQ(fr.journey, fj) << "seed=" << seed << " t=" << target;

        const auto sj = K::shortest_journey(view, 0, target, 0, policy,
                                            limits, ws.arenas());
        const JourneyResult sr = engine.run(
            JourneyQuery::shortest(0, target, 0).under(policy).within(
                limits));
        EXPECT_EQ(sr.journey, sj) << "seed=" << seed << " t=" << target;

        const FastestJourneyResult qj = K::fastest_journey_checked(
            view, 0, target, 0, 30, policy, limits, ws.arenas());
        const JourneyResult qr = engine.run(
            JourneyQuery::fastest(0, target, 0, 30).under(policy).within(
                limits));
        EXPECT_EQ(qr.journey, qj.journey)
            << "seed=" << seed << " t=" << target;
        EXPECT_EQ(qr.truncated, qj.truncated)
            << "seed=" << seed << " t=" << target;
      }
      // Untargeted foremost returns the full arrival row.
      const ForemostTree tree =
          K::foremost_arrivals(view, 0, 0, policy, limits, ws.arenas());
      const JourneyResult row =
          engine.run(JourneyQuery::foremost(0, 0).under(policy).within(
              limits));
      EXPECT_EQ(row.arrivals, tree.arrival);
      EXPECT_FALSE(row.journey.has_value());
    }
  }
}

/// The targeted-read oracle: every engine.run(foremost(s, 0).to(d)) has
/// the arrival and journey of the full foremost_arrivals tree over `g`
/// (the engine's effective graph), and is truncated only where the full
/// tree is. An untruncated read is exact: a run with a budget at least
/// as generous reads the same arrival.
void expect_targeted_reads_match_full_trees(const QueryEngine& engine,
                                            const TimeVaryingGraph& g,
                                            const std::string& where) {
  SearchWorkspace ws;
  const auto n = static_cast<NodeId>(g.node_count());
  for (const Policy policy :
       {Policy::wait(), Policy::no_wait(), Policy::bounded_wait(3)}) {
    for (const Time horizon : {Time{8}, Time{80}, kTimeInfinity}) {
      for (const std::size_t budget :
           {std::size_t{4}, std::size_t{24}, SearchLimits{}.max_configs}) {
        SearchLimits limits = SearchLimits::up_to(horizon);
        limits.max_configs = budget;
        SearchLimits generous = limits;
        generous.max_configs = std::max<std::size_t>(budget, 1 << 14);
        for (NodeId s = 0; s < n; ++s) {
          const ForemostTree tree =
              foremost_arrivals(g, s, 0, policy, limits, ws);
          const ForemostTree wide =
              generous == limits
                  ? tree
                  : foremost_arrivals(g, s, 0, policy, generous, ws);
          for (NodeId d = 0; d < n; ++d) {
            const JourneyResult r = engine.run(
                JourneyQuery::foremost(s, 0).to(d).under(policy).within(
                    limits));
            const std::string at = where + " " + policy.to_string() +
                                   " horizon=" + std::to_string(horizon) +
                                   " budget=" + std::to_string(budget) +
                                   " " + std::to_string(s) + "->" +
                                   std::to_string(d);
            ASSERT_EQ(r.arrival, tree.arrival[d]) << at;
            ASSERT_EQ(r.journey, tree.journey_to(d)) << at;
            if (!tree.truncated) {
              ASSERT_FALSE(r.truncated) << at;
            }
            if (r.truncated) {
              ASSERT_TRUE(tree.truncated) << at;
            } else {
              ASSERT_EQ(r.arrival, wide.arrival[d]) << at;
            }
          }
        }
      }
    }
  }
}

TEST(QueryEngineRun, TargetedForemostMatchesTheFullTree) {
  std::vector<std::pair<std::string, TimeVaryingGraph>> graphs;
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    RandomScheduledParams scheduled;
    scheduled.nodes = 7;
    scheduled.edges = 18;
    scheduled.horizon = 40;
    scheduled.seed = seed;
    graphs.emplace_back("scheduled seed=" + std::to_string(seed),
                        make_random_scheduled(scheduled));
    EdgeMarkovianParams markovian;
    markovian.nodes = 7;
    markovian.initial_on = 0.2;
    markovian.p_birth = 0.05;
    markovian.p_death = 0.4;
    markovian.horizon = 40;
    markovian.seed = seed;
    graphs.emplace_back("markovian seed=" + std::to_string(seed),
                        make_edge_markovian(markovian));
  }
  // One small periodic graph: there the NoWait and BoundedWait searches
  // at horizon ∞ never run dry, so each full tree and each unreachable
  // target costs the whole default budget.
  RandomPeriodicParams periodic;
  periodic.nodes = 5;
  periodic.edges = 12;
  periodic.period = 6;
  periodic.max_latency = 2;
  graphs.emplace_back("periodic", make_random_periodic(periodic));
  for (const auto& [name, g] : graphs) {
    const QueryEngine engine(g, 1, CacheConfig::disabled());
    expect_targeted_reads_match_full_trees(engine, g, name);
  }
}

TEST(QueryEngineRun, TargetedForemostOverAnOverlayMatchesTheFullTree) {
  RandomScheduledParams params;
  params.nodes = 7;
  params.edges = 18;
  params.horizon = 40;
  params.seed = 5;
  QueryEngine engine(make_random_scheduled(params), 1,
                     CacheConfig::disabled());
  engine.override_latency(0, Latency::constant(3));
  (void)engine.add_edge(6, 0, 'a', Presence::at_times({2, 9, 30}),
                        Latency::constant(1));
  engine.patch_presence(1, Presence::at_times({1, 4, 5, 6}));
  engine.remove_edge(2);
  const TimeVaryingGraph rebuilt = engine.materialize();
  expect_targeted_reads_match_full_trees(engine, rebuilt, "overlay");
}

TEST(QueryEngineRun, TargetedNoWaitRingReadIsExactUnderDefaultLimits) {
  // An always-present NoWait ring never stops generating (node, time)
  // configs, so the full tree always exhausts its budget. The target's
  // arrival is final after two hops, and the targeted read says so.
  TimeVaryingGraph g;
  g.add_nodes(4);
  for (NodeId v = 0; v < 4; ++v) {
    g.add_edge(v, (v + 1) % 4, 'a', Presence::always(), Latency::constant(1));
  }
  const QueryEngine engine(g, 1, CacheConfig::disabled());
  const auto q = JourneyQuery::foremost(0, 0).to(2).under(Policy::no_wait());
  const JourneyResult r = engine.run(q);
  EXPECT_EQ(r.arrival, 2);
  EXPECT_FALSE(r.truncated);
  ASSERT_TRUE(r.journey.has_value());
  EXPECT_EQ(r.journey->legs.size(), 2u);

  SearchLimits small;
  small.max_configs = 1 << 12;
  SearchWorkspace ws;
  const ForemostTree tree =
      foremost_arrivals(g, 0, 0, Policy::no_wait(), small, ws);
  EXPECT_TRUE(tree.truncated);
  EXPECT_EQ(engine.run(JourneyQuery(q).within(small)).journey,
            tree.journey_to(2));

  // A budget spent before the arrival is final still reports truncation.
  small.max_configs = 2;
  const JourneyResult cut = engine.run(JourneyQuery(q).within(small));
  EXPECT_TRUE(cut.truncated);
  EXPECT_EQ(cut.arrival, kTimeInfinity);
}

TEST(QueryEngineRun, ReusedWorkspaceReadsMatchAFreshOne) {
  // One workspace runs a foremost_arrivals (which moves its arrays out),
  // reads on a larger graph, then a smaller one, then a search that
  // throws mid-run on a graph of the smaller one's size. A read that
  // restores only the previous run's touched nodes must still see clean
  // arrays every time.
  RandomPeriodicParams big;
  big.nodes = 12;
  big.edges = 40;
  big.seed = 3;
  RandomPeriodicParams small = big;
  small.nodes = 7;
  small.edges = 20;
  small.seed = 4;
  const TimeVaryingGraph g_big = make_random_periodic(big);
  const TimeVaryingGraph g_small = make_random_periodic(small);
  TimeVaryingGraph g_throw;
  g_throw.add_nodes(small.nodes);
  bool armed = false;
  for (NodeId v = 0; v + 1 < small.nodes; ++v) {
    g_throw.add_edge(v, v + 1, 'a', Presence::always(), Latency::constant(1));
  }
  g_throw.add_edge(small.nodes - 1, 0, 'a',
                   Presence::predicate(
                       [&armed](Time t) {
                         if (armed) throw std::runtime_error("predicate");
                         return t % 2 == 0;
                       },
                       "throwing"),
                   Latency::constant(1));
  (void)g_throw.schedule_index();

  const SearchLimits limits = SearchLimits::up_to(40);
  SearchWorkspace ws;
  const auto expect_fresh = [&](const TimeVaryingGraph& g,
                                const std::string& where) {
    const FrozenView view(g);
    const auto n = static_cast<NodeId>(g.node_count());
    for (const Policy policy :
         {Policy::wait(), Policy::no_wait(), Policy::bounded_wait(2)}) {
      for (NodeId s = 0; s < n; ++s) {
        for (NodeId d = 0; d < n; ++d) {
          const auto q =
              JourneyQuery::foremost(s, 1).to(d).under(policy).within(limits);
          SearchWorkspace fresh;
          EXPECT_EQ(read_journey(view, q, ws), read_journey(view, q, fresh))
              << where << " " << policy.to_string() << " " << s << "->" << d;
        }
        const auto row =
            JourneyQuery::foremost(s, 1).under(policy).within(limits);
        SearchWorkspace fresh;
        EXPECT_EQ(read_journey(view, row, ws), read_journey(view, row, fresh))
            << where << " row from " << s;
      }
    }
  };

  (void)foremost_arrivals(g_small, 0, 0, Policy::wait(), limits, ws);
  expect_fresh(g_big, "larger graph");
  expect_fresh(g_small, "smaller graph");
  armed = true;
  for (const Policy policy : {Policy::wait(), Policy::no_wait()}) {
    // Node 0 is reachable from 1 only over the throwing edge.
    EXPECT_THROW((void)read_journey(FrozenView(g_throw),
                                    JourneyQuery::foremost(1, 0)
                                        .to(0)
                                        .under(policy)
                                        .within(SearchLimits{}),
                                    ws),
                 std::runtime_error);
  }
  armed = false;
  expect_fresh(g_small, "after a throwing search");
}

TEST(QueryEngineRun, ThreadedBatchMatchesOneAtATime) {
  RandomPeriodicParams params;
  params.nodes = 10;
  params.edges = 30;
  params.seed = 11;
  const TimeVaryingGraph g = make_random_periodic(params);
  const SearchLimits limits = SearchLimits::up_to(150);
  QueryEngine engine(g);
  std::vector<JourneyQuery> queries;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    queries.push_back(
        JourneyQuery::foremost(u, 0).under(Policy::wait()).within(limits));
    queries.push_back(JourneyQuery::shortest(u, (u + 3) % g.node_count(), 0)
                          .under(Policy::bounded_wait(5))
                          .within(limits));
  }
  const auto batched = engine.run(queries, /*threads=*/4);
  ASSERT_EQ(batched.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const JourneyResult solo = engine.run(queries[i]);
    EXPECT_EQ(batched[i].journey, solo.journey) << i;
    EXPECT_EQ(batched[i].arrivals, solo.arrivals) << i;
    EXPECT_EQ(batched[i].arrival, solo.arrival) << i;
  }
}

TEST(QueryEngineAccepts, BatchAgreesWithPerWordAcrossPolicies) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    RandomScheduledParams params;
    params.nodes = 5;
    params.edges = 12;
    params.horizon = 30;
    params.seed = seed;
    TimeVaryingGraph g = make_random_scheduled(params);
    core::TvgAutomaton a(std::move(g), 0);
    a.set_initial(0);
    a.set_accepting(1);
    a.set_accepting(2);
    core::AcceptOptions opt;
    opt.horizon = 80;
    const auto words = all_words_up_to("ab", 4);
    for (const Policy policy :
         {Policy::no_wait(), Policy::bounded_wait(2), Policy::wait()}) {
      const auto batch = a.accepts_batch(words, policy, opt);
      ASSERT_EQ(batch.size(), words.size());
      for (std::size_t i = 0; i < words.size(); ++i) {
        const auto solo = a.accepts(words[i], policy, opt);
        EXPECT_EQ(batch[i].accepted, solo.accepted)
            << "seed=" << seed << " policy=" << policy.to_string()
            << " w='" << words[i] << "'";
        if (batch[i].accepted) {
          ASSERT_TRUE(batch[i].witness.has_value());
          EXPECT_TRUE(
              validate_journey(a.graph(), *batch[i].witness, policy).ok)
              << "w='" << words[i] << "'";
          EXPECT_EQ(batch[i].witness->word(a.graph()), words[i]);
        }
      }
    }
  }
}

TEST(QueryEngineAccepts, DuplicateWordsGetIdenticalOutcomes) {
  TimeVaryingGraph g;
  const NodeId u = g.add_node();
  const NodeId v = g.add_node();
  g.add_edge(u, v, 'a', Presence::always(), Latency::constant(1));
  QueryEngine engine(g);
  AcceptSpec spec;
  spec.initial = {u};
  spec.accepting = {v};
  spec.policy = Policy::no_wait();
  const std::vector<Word> words{"a", "aa", "a"};
  const auto outcomes = engine.accepts(spec, words);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_TRUE(outcomes[0].accepted);
  EXPECT_FALSE(outcomes[1].accepted);
  EXPECT_TRUE(outcomes[2].accepted);
  EXPECT_EQ(outcomes[0].witness, outcomes[2].witness);
}

TEST(QueryEngineAccepts, SharedBudgetReportsTruncationPerWord) {
  TimeVaryingGraph g;
  g.add_nodes(3);
  for (NodeId u = 0; u < 3; ++u) {
    for (NodeId v = 0; v < 3; ++v) {
      g.add_edge(u, v, 'a', Presence::always(), Latency::constant(1));
    }
  }
  QueryEngine engine(g);
  AcceptSpec spec;
  spec.initial = {0};
  spec.accepting = {2};
  spec.policy = Policy::bounded_wait(5);
  spec.max_configs = 2;
  const std::vector<Word> words{"aaaa", "a"};
  const auto outcomes = engine.accepts(spec, words);
  // "a" resolves off the very first expansions; "aaaa" hits the budget.
  EXPECT_TRUE(outcomes[1].accepted);
  EXPECT_FALSE(outcomes[1].truncated);
  EXPECT_FALSE(outcomes[0].accepted);
  EXPECT_TRUE(outcomes[0].truncated);
}

TEST(QueryEngineAccepts, BatchTruncationFallsBackToPerWordBudget) {
  // Two disjoint-prefix words whose combined batch search exceeds a
  // budget each word fits in alone: the shared-budget batch truncates,
  // and TvgAutomaton::accepts_batch must still agree with per-word
  // accepts() by re-deciding the truncated words solo.
  TimeVaryingGraph g;
  const NodeId n0 = g.add_node();
  std::vector<NodeId> chain{n0};
  for (int i = 0; i < 4; ++i) chain.push_back(g.add_node());
  for (int i = 0; i < 4; ++i) {
    g.add_edge(chain[i], chain[i + 1], 'a', Presence::always(),
               Latency::constant(1));
    g.add_edge(chain[i], chain[i + 1], 'b', Presence::always(),
               Latency::constant(1));
  }
  core::TvgAutomaton a(std::move(g), 0);
  a.set_initial(0);
  a.set_accepting(chain.back());
  core::AcceptOptions opt;
  opt.max_configs = 6;  // one word's chain fits; the two-branch batch won't
  const std::vector<Word> words{"aaaa", "bbbb"};
  for (const Word& w : words) {
    ASSERT_TRUE(a.accepts(w, Policy::no_wait(), opt).accepted) << w;
  }
  const auto batch = a.accepts_batch(words, Policy::no_wait(), opt);
  for (std::size_t i = 0; i < words.size(); ++i) {
    EXPECT_TRUE(batch[i].accepted) << words[i];
    EXPECT_FALSE(batch[i].truncated) << words[i];
  }
}

// A const lvalue is borrowed; an rvalue is moved in and owned, so
// `QueryEngine e(make_graph())` is safe.
static_assert(std::is_constructible_v<QueryEngine, TimeVaryingGraph&&>);
static_assert(std::is_constructible_v<QueryEngine, const TimeVaryingGraph&>);

TEST(QueryEngine, OwnsAGraphBuiltFromATemporary) {
  // The engine must answer from its own copy once the temporary is gone
  // (the ASan lane turns a dangling borrow into a hard failure).
  RandomPeriodicParams params;
  params.nodes = 9;
  params.seed = 12;
  const TimeVaryingGraph reference = make_random_periodic(params);
  const QueryEngine owner(make_random_periodic(params), 2);
  const QueryEngine borrower(reference, 2, CacheConfig::disabled());
  const SearchLimits limits = SearchLimits::up_to(60);
  for (NodeId s = 0; s < reference.node_count(); ++s) {
    const auto q = JourneyQuery::foremost(s, 0).within(limits);
    EXPECT_EQ(owner.run(q), borrower.run(q)) << "source " << s;
  }
  ClosureQuery cq;
  cq.limits = limits;
  EXPECT_EQ(owner.closure(cq), borrower.closure(cq));
  AcceptSpec spec;
  spec.initial = {0};
  spec.accepting = {1, 2, 3};
  spec.policy = Policy::wait();
  spec.horizon = 40;
  const std::vector<Word> words{"a", "ab", "ba"};
  EXPECT_EQ(owner.accepts(spec, words), borrower.accepts(spec, words));
}

TEST(QueryEngine, GuardsBadArguments) {
  TimeVaryingGraph g;
  g.add_nodes(2);
  g.add_static_edge(0, 1, 'a');
  QueryEngine engine(g);
  EXPECT_THROW((void)engine.run(JourneyQuery::foremost(7, 0)),
               std::out_of_range);
  EXPECT_THROW((void)engine.run(JourneyQuery::foremost(0, 0).to(9)),
               std::out_of_range);
  JourneyQuery shortest_without_target = JourneyQuery::shortest(0, 1, 0);
  shortest_without_target.target.reset();
  EXPECT_THROW((void)engine.run(shortest_without_target),
               std::invalid_argument);
  ClosureQuery bad_closure;
  bad_closure.sources = {5};
  EXPECT_THROW((void)engine.closure(bad_closure), std::out_of_range);
  AcceptSpec bad_spec;
  bad_spec.initial = {9};
  const std::vector<Word> words{"a"};
  EXPECT_THROW((void)engine.accepts(bad_spec, words), std::out_of_range);
}

TEST(QueryEngine, GuardsMalformedQueryShapes) {
  TimeVaryingGraph g;
  g.add_nodes(3);
  g.add_static_edge(0, 1, 'a');
  g.add_static_edge(1, 2, 'b');
  QueryEngine engine(g);

  // Shape errors must throw with the field named, not silently return a
  // default/empty result.
  JourneyQuery fastest_without_target = JourneyQuery::fastest(0, 2, 0, 10);
  fastest_without_target.target.reset();
  EXPECT_THROW((void)engine.run(fastest_without_target),
               std::invalid_argument);

  const JourneyQuery empty_window = JourneyQuery::fastest(0, 2, /*lo=*/8,
                                                          /*hi=*/3);
  try {
    (void)engine.run(empty_window);
    FAIL() << "empty fastest window must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("depart_hi"), std::string::npos)
        << e.what();
  }
  // The batch path validates inside the workers and rethrows the same
  // error.
  const std::vector<JourneyQuery> batch{JourneyQuery::foremost(0, 0),
                                        empty_window};
  EXPECT_THROW((void)engine.run(batch, /*threads=*/2), std::invalid_argument);

  // A well-formed window at the boundary (hi == lo) stays legal.
  const JourneyResult ok = engine.run(JourneyQuery::fastest(0, 2, 3, 3));
  EXPECT_FALSE(ok.truncated);
}

TEST(QueryEngine, ThrowingQueryMidBatchFailsFastAcrossThreads) {
  RandomPeriodicParams params;
  params.nodes = 12;
  params.edges = 30;
  params.seed = 21;
  const TimeVaryingGraph g = make_random_periodic(params);
  for (const bool with_cache : {false, true}) {
    const QueryEngine engine(
        g, 0, with_cache ? CacheConfig{} : CacheConfig::disabled());
    std::vector<JourneyQuery> queries;
    for (int i = 0; i < 64; ++i) {
      queries.push_back(JourneyQuery::foremost(
          static_cast<NodeId>(i % g.node_count()), i % 7));
    }
    // A poisoned query mid-batch: workers that see the abort flag stop
    // claiming instead of draining the remaining range; the first error
    // is rethrown after the join.
    queries[32] = JourneyQuery::foremost(999, 0);
    EXPECT_THROW((void)engine.run(queries, /*threads=*/4), std::out_of_range)
        << "with_cache=" << with_cache;
    // The engine stays usable after a poisoned batch.
    queries[32] = JourneyQuery::foremost(0, 0);
    const auto results = engine.run(queries, /*threads=*/4);
    ASSERT_EQ(results.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(results[i].arrivals, engine.run(queries[i]).arrivals) << i;
    }
  }
}

TEST(QueryEngine, WorkerPoolReusedAcrossBatches) {
  RandomPeriodicParams params;
  params.nodes = 10;
  params.edges = 30;
  params.seed = 17;
  const TimeVaryingGraph g = make_random_periodic(params);
  const QueryEngine engine(g, 0, CacheConfig::disabled());
  EXPECT_EQ(engine.worker_threads_spawned(), 0u);  // lazily started
  std::vector<JourneyQuery> queries;
  for (int i = 0; i < 48; ++i) {
    queries.push_back(JourneyQuery::foremost(
        static_cast<NodeId>(i % g.node_count()), i % 5));
  }
  (void)engine.run(queries, /*threads=*/4);
  const std::size_t spawned = engine.worker_threads_spawned();
  // 4-way parallelism = the caller + at most 3 pool workers.
  EXPECT_GE(spawned, 1u);
  EXPECT_LE(spawned, 3u);
  // Consecutive batches — and the closure path, which shares the pool —
  // REUSE the workers: any growth here would mean the engine regressed
  // to per-call thread spawning.
  for (int round = 0; round < 3; ++round) {
    (void)engine.run(queries, /*threads=*/4);
    ClosureQuery q;
    q.limits = SearchLimits::up_to(100);
    q.threads = 4;
    (void)engine.closure(q);
    EXPECT_EQ(engine.worker_threads_spawned(), spawned) << round;
  }
  // A wider batch may grow the pool once, monotonically, and later
  // narrow batches never shrink or respawn it.
  (void)engine.run(queries, /*threads=*/6);
  const std::size_t wider = engine.worker_threads_spawned();
  EXPECT_LE(wider, 5u);
  (void)engine.run(queries, /*threads=*/4);
  EXPECT_EQ(engine.worker_threads_spawned(), wider);
}

TEST(QueryEngine, SingleWordFastPathMatchesBatchOfTwoDuplicates) {
  // accepts() routes a batch of one through the chain-specialized fast
  // path; a batch of two identical words takes the trie path. Both must
  // agree on every outcome field (the duplicate pair explores the same
  // chain the fast path walks).
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    RandomScheduledParams params;
    params.nodes = 6;
    params.edges = 15;
    params.horizon = 30;
    params.seed = seed;
    const TimeVaryingGraph g = make_random_scheduled(params);
    QueryEngine engine(g, 0, CacheConfig::disabled());
    AcceptSpec spec;
    spec.initial = {0};
    spec.accepting = {1, 2};
    spec.horizon = 80;
    for (const Policy policy :
         {Policy::no_wait(), Policy::bounded_wait(2), Policy::wait()}) {
      spec.policy = policy;
      for (const Word& word : {Word{}, Word{"a"}, Word{"ab"}, Word{"abab"},
                               Word{"bbaa"}}) {
        const auto solo =
            engine.accepts(spec, std::span<const Word>(&word, 1));
        const std::vector<Word> pair{word, word};
        const auto dup = engine.accepts(spec, pair);
        ASSERT_EQ(solo.size(), 1u);
        EXPECT_EQ(solo[0].accepted, dup[0].accepted)
            << "seed=" << seed << " w='" << word << "'";
        EXPECT_EQ(solo[0].truncated, dup[0].truncated);
        EXPECT_EQ(solo[0].witness, dup[0].witness);
        EXPECT_EQ(solo[0].configs_explored, dup[0].configs_explored);
      }
    }
  }
}

TEST(QueryEngine, EmptyGraphAndEmptyBatches) {
  TimeVaryingGraph g;
  QueryEngine engine(g);
  EXPECT_TRUE(engine.closure(ClosureQuery{}).rows.empty());
  EXPECT_TRUE(engine.run(std::span<const JourneyQuery>{}).empty());
  AcceptSpec spec;
  EXPECT_TRUE(engine.accepts(spec, std::span<const Word>{}).empty());
}

}  // namespace
