// Property suite for the LSM delta overlay (delta_overlay.hpp): the
// load-bearing claim is BIT-IDENTITY — every read served through the
// overlay (journeys, scans, closures, truncation flags included) must
// equal the same query against a from-scratch rebuild of base ∪ delta.
// The randomized tests below drive seeded mutation streams and compare
// against QueryEngine::materialize() + a fresh cache-disabled engine
// after every batch, across waiting policies, objectives, thread counts
// and compactions. Dirty closures get their own oracle suite: the packed
// kernel over the overlay, across lane words, budgets and the pull path;
// so do acceptance (trie batch and single word) and the analytics.
#include "tvg/delta_overlay.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <thread>
#include <vector>

#include "tvg/failpoint.hpp"
#include "tvg/generators.hpp"
#include "tvg/query_engine.hpp"
#include "tvg/serialization.hpp"

namespace tvg {
namespace {

TimeVaryingGraph base_graph(std::uint64_t seed, std::size_t nodes = 10,
                            std::size_t edges = 28) {
  RandomPeriodicParams params;
  params.nodes = nodes;
  params.edges = edges;
  params.period = 8;
  params.density = 0.35;
  params.max_latency = 2;
  params.seed = seed;
  return make_random_periodic(params);
}

Presence random_presence(std::mt19937_64& rng) {
  const Time period = 6 + static_cast<Time>(rng() % 4);
  IntervalSet pattern;
  bool any = false;
  for (Time t = 0; t < period; ++t) {
    if (rng() % 3 == 0) {
      pattern.insert_point(t);
      any = true;
    }
  }
  if (!any) pattern.insert_point(static_cast<Time>(rng() % period));
  return Presence::periodic(period, std::move(pattern));
}

EdgeMutation random_mutation(std::mt19937_64& rng, std::size_t nodes,
                             std::size_t edges) {
  const auto node = [&] { return static_cast<NodeId>(rng() % nodes); };
  const auto edge = [&] { return static_cast<EdgeId>(rng() % edges); };
  switch (rng() % 8) {
    case 0:
    case 1:
      return EdgeMutation::add_edge(node(), node(),
                                    rng() % 2 == 0 ? 'a' : 'b',
                                    random_presence(rng),
                                    Latency::constant(1 + Time(rng() % 3)));
    case 2:
      return EdgeMutation::remove_edge(edge());
    case 3:
    case 4:
    case 5:
      return EdgeMutation::patch_presence(edge(), random_presence(rng));
    default:
      return EdgeMutation::override_latency(
          edge(), Latency::constant(1 + Time(rng() % 4)));
  }
}

/// The oracle check: every read through the overlay equals the same
/// read against a freshly rebuilt engine over materialize().
void expect_reads_match(const QueryEngine& me, const std::string& where) {
  const TimeVaryingGraph rebuilt = me.materialize();
  ASSERT_EQ(rebuilt.edge_count(), me.edge_count()) << where;
  const QueryEngine ref(rebuilt, 2, CacheConfig::disabled());
  const auto n = static_cast<NodeId>(rebuilt.node_count());
  // Bounded horizon: the NoWait/BoundedWait configuration BFS explores
  // (node, time) pairs, so an infinite horizon on a periodic schedule
  // makes it crawl to the config cap on every query. Same idiom as the
  // QueryEngine suites.
  const SearchLimits lim = SearchLimits::up_to(48);
  const SearchLimits tight = [] {
    SearchLimits l;
    l.horizon = 48;
    l.max_configs = 24;  // small enough to truncate: pins exploration order
    return l;
  }();
  for (const Policy& pol :
       {Policy::wait(), Policy::no_wait(), Policy::bounded_wait(3)}) {
    for (NodeId s = 0; s < n; ++s) {
      const auto scan = JourneyQuery::foremost(s, 1).under(pol).within(lim);
      EXPECT_EQ(me.run(scan), ref.run(scan)) << where << " scan from " << s;
      const auto to =
          JourneyQuery::foremost(s, 0).to((s + 1) % n).under(pol).within(lim);
      EXPECT_EQ(me.run(to), ref.run(to)) << where << " foremost from " << s;
      const auto sh =
          JourneyQuery::shortest(s, (s + 3) % n, 0).under(pol).within(lim);
      EXPECT_EQ(me.run(sh), ref.run(sh)) << where << " shortest from " << s;
      const auto fa =
          JourneyQuery::fastest(s, (s + 1) % n, 0, 12).under(pol).within(lim);
      EXPECT_EQ(me.run(fa), ref.run(fa)) << where << " fastest from " << s;
      const auto trunc = JourneyQuery::foremost(s, 0).under(pol).within(tight);
      EXPECT_EQ(me.run(trunc), ref.run(trunc))
          << where << " truncated scan from " << s;
    }
  }
  for (const unsigned threads : {1u, 2u, 8u}) {
    ClosureQuery cq;
    cq.threads = threads;
    cq.limits = lim;
    EXPECT_EQ(me.closure(cq), ref.closure(cq))
        << where << " closure at " << threads << " threads";
  }
}

TEST(DeltaOverlay, OverlayMatchesRebuildUnderRandomMutations) {
  for (const std::uint64_t seed : {7ull, 21ull, 99ull}) {
    TimeVaryingGraph g = base_graph(seed);
    const std::size_t nodes = g.node_count();
    QueryEngine me(std::move(g), 2);
    std::mt19937_64 rng(seed * 1000 + 17);
    for (int batch = 0; batch < 4; ++batch) {
      for (int i = 0; i < 6; ++i) {
        me.apply(random_mutation(rng, nodes, me.edge_count()));
      }
      expect_reads_match(me, "seed " + std::to_string(seed) + " batch " +
                                 std::to_string(batch));
    }
  }
}

TEST(DeltaOverlay, CompactionPreservesReadsAndEdgeIds) {
  TimeVaryingGraph g = base_graph(5);
  const std::size_t nodes = g.node_count();
  const EdgeId base_edges = g.edge_count();
  QueryEngine me(std::move(g), 2);

  const EdgeId added = me.add_edge(0, 1, 'a', Presence::always(),
                                   Latency::constant(1), "live-link");
  EXPECT_EQ(added, base_edges);
  me.patch_presence(2, Presence::eventually_always(4));
  me.remove_edge(1);
  EXPECT_EQ(me.pending_mutations(), 3u);

  const auto before = me.run(JourneyQuery::foremost(0, 0));
  me.compact();
  EXPECT_EQ(me.pending_mutations(), 0u);
  EXPECT_EQ(me.run(JourneyQuery::foremost(0, 0)), before);

  // Ids survive the fold: the compacted graph still resolves `added`,
  // tombstoned edge 1 keeps its slot, and both stay mutable.
  EXPECT_EQ(me.edge_count(), std::size_t{base_edges} + 1);
  me.override_latency(added, Latency::constant(2));
  me.patch_presence(1, Presence::always());
  expect_reads_match(me, "post-compaction");

  // A second compaction folds the new delta the same way.
  me.compact();
  expect_reads_match(me, "second compaction");
  const std::size_t n = nodes;
  EXPECT_EQ(me.node_count(), n);
}

TEST(DeltaOverlay, BackgroundCompactionCountsAsBackgroundTask) {
  TimeVaryingGraph g = base_graph(11);
  QueryEngine me(std::move(g), 2);
  EXPECT_FALSE(me.compact_async());  // nothing pending
  me.patch_presence(0, Presence::never());
  EXPECT_TRUE(me.compact_async());
  me.wait_for_compaction();
  EXPECT_EQ(me.pending_mutations(), 0u);
  EXPECT_GE(me.worker_stats().background_tasks, 1u);
  expect_reads_match(me, "after compact_async");
}

TEST(DeltaOverlay, ValidationRejectsBadIdsWithoutStateChange) {
  TimeVaryingGraph g = base_graph(3);
  const EdgeId edges = g.edge_count();
  const auto nodes = static_cast<NodeId>(g.node_count());
  QueryEngine me(std::move(g), 1);
  const std::uint64_t seq = me.sequence();
  EXPECT_THROW(me.patch_presence(edges, Presence::always()),
               std::out_of_range);
  EXPECT_THROW(me.remove_edge(edges + 5), std::out_of_range);
  EXPECT_THROW(me.add_edge(nodes, 0, 'a', Presence::always(),
                           Latency::constant(1)),
               std::out_of_range);
  EXPECT_THROW(me.add_edge(0, nodes, 'a', Presence::always(),
                           Latency::constant(1)),
               std::out_of_range);
  EXPECT_EQ(me.sequence(), seq);
  EXPECT_EQ(me.pending_mutations(), 0u);
  // The id frontier moves with adds: the first add's id becomes valid
  // as a mutation target immediately, one past it is still rejected.
  const EdgeId added = me.add_edge(0, 1, 'a', Presence::always(),
                                   Latency::constant(1));
  me.override_latency(added, Latency::constant(3));
  EXPECT_THROW(me.override_latency(added + 1, Latency::constant(3)),
               std::out_of_range);
}

/// A batch exercising every kind: adds, removes, presence patches and
/// latency overrides of base edges, and patches of edges added earlier
/// in the same batch, then a seeded tail tracked against the counts.
std::vector<EdgeMutation> mixed_batch(std::size_t nodes, EdgeId edges,
                                      std::uint64_t seed) {
  std::vector<EdgeMutation> batch;
  batch.push_back(EdgeMutation::add_edge(0, 1, 'a', Presence::always(),
                                         Latency::constant(2), "fresh"));
  batch.push_back(EdgeMutation::patch_presence(
      edges, Presence::periodic(4, IntervalSet::from_points({1, 3}))));
  batch.push_back(EdgeMutation::override_latency(edges, Latency::constant(3)));
  batch.push_back(EdgeMutation::remove_edge(2));
  batch.push_back(
      EdgeMutation::patch_presence(5, Presence::eventually_always(4)));
  batch.push_back(EdgeMutation::override_latency(5, Latency::constant(4)));
  batch.push_back(EdgeMutation::add_edge(3, 0, 'b', Presence::always(),
                                         Latency::constant(1)));
  batch.push_back(EdgeMutation::remove_edge(edges + 1));
  std::size_t live = edges + 2;
  std::mt19937_64 rng(seed);
  for (int i = 0; i < 40; ++i) {
    batch.push_back(random_mutation(rng, nodes, live));
    if (batch.back().kind == EdgeMutation::Kind::kAddEdge) ++live;
  }
  return batch;
}

TEST(DeltaOverlay, BatchApplyMatchesOneByOne) {
  const TimeVaryingGraph g = base_graph(11);
  const auto edges = static_cast<EdgeId>(g.edge_count());
  QueryEngine one(g, 2);
  QueryEngine batched(g, 2);
  // A shared one-by-one prefix: the batch lands on a non-empty log.
  std::mt19937_64 rng(5);
  for (int i = 0; i < 6; ++i) {
    const EdgeMutation m = random_mutation(rng, g.node_count(), edges);
    EXPECT_EQ(one.apply(m), batched.apply(m));
  }
  const std::vector<EdgeMutation> batch =
      mixed_batch(g.node_count(), static_cast<EdgeId>(one.edge_count()), 17);

  std::vector<EdgeId> want;
  for (const EdgeMutation& m : batch) want.push_back(one.apply(m));
  EXPECT_EQ(batched.apply(batch), want);

  EXPECT_EQ(batched.sequence(), one.sequence());
  EXPECT_EQ(batched.pending_mutations(), one.pending_mutations());
  EXPECT_EQ(to_text(g, batched.pending_log()), to_text(g, one.pending_log()));
  EXPECT_EQ(to_text(batched.materialize()), to_text(one.materialize()));
  const SearchLimits lim = SearchLimits::up_to(48);
  for (NodeId s = 0; s < g.node_count(); ++s) {
    for (const Policy& pol : {Policy::wait(), Policy::no_wait()}) {
      const auto q = JourneyQuery::foremost(s, 0).under(pol).within(lim);
      EXPECT_EQ(batched.run(q), one.run(q)) << "scan from " << s;
    }
  }
  ClosureQuery cq;
  cq.limits = lim;
  EXPECT_EQ(batched.closure(cq), one.closure(cq));
  expect_reads_match(batched, "after batch apply");
}

/// Every observable fact of a snapshot over `base`, for bit-identity
/// checks between snapshots built along different paths.
std::string snapshot_facts(const TimeVaryingGraph& base,
                           const OverlaySnapshot& ov) {
  std::string facts = std::to_string(ov.sequence()) + " " +
                      std::to_string(ov.edge_count()) + " " +
                      std::to_string(ov.empty()) + " " +
                      std::to_string(ov.all_latency_constant()) + " " +
                      std::to_string(ov.all_semi_periodic()) + " " +
                      std::to_string(ov.uniform_constant_latency()) + " ";
  for (EdgeId e = 0; e < ov.base_edge_count(); ++e) {
    facts += ov.has_override(e) ? '1' : '0';
  }
  for (NodeId v = 0; v < base.node_count(); ++v) {
    const auto [lo, hi] = ov.added_out_range(v);
    for (const auto* it = lo; it != hi; ++it) {
      // Appended piece by piece: gcc 12 at -O3 flags `" " + to_string`
      // with a false -Wrestrict.
      facts += ' ';
      facts += std::to_string(v);
      facts += ':';
      facts += std::to_string(it->second);
    }
  }
  return facts;
}

/// Every edge's endpoints, label, ρ and ζ (to_text cannot print a
/// predicate presence).
std::string edges_text(const TimeVaryingGraph& g) {
  std::string text;
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const Edge& ed = g.edge(e);
    text += std::to_string(ed.from) + ">" + std::to_string(ed.to) + " " +
            ed.label + " " + ed.presence.to_string() + " " +
            ed.latency.to_string() + "\n";
  }
  return text;
}

TEST(DeltaOverlay, ExtensionChainMatchesOneBatchAndMaterialize) {
  // One uniform latency, so the graph-wide facts have something to flip.
  RandomPeriodicParams params;
  params.nodes = 12;
  params.edges = 40;
  params.period = 8;
  params.density = 0.35;
  params.max_latency = 1;
  params.seed = 31;
  const TimeVaryingGraph g = make_random_periodic(params);
  ASSERT_EQ(g.schedule_index().uniform_constant_latency(), 1);
  ASSERT_TRUE(g.schedule_index().all_semi_periodic());
  const auto e0 = static_cast<EdgeId>(g.edge_count());
  const auto odd = [](Time t) { return t % 2 == 1; };
  const std::vector<EdgeMutation> stream = {
      EdgeMutation::patch_presence(3, Presence::eventually_always(2)),
      EdgeMutation::patch_presence(3, Presence::periodic(
                                          4, IntervalSet::from_points({0}))),
      EdgeMutation::override_latency(5, Latency::affine(1, 1)),
      EdgeMutation::add_edge(0, 1, 'a', Presence::always(),
                             Latency::constant(1), "fresh"),
      EdgeMutation::patch_presence(e0, Presence::eventually_always(3)),
      EdgeMutation::remove_edge(7),
      EdgeMutation::patch_presence(9, Presence::predicate(odd, "odd")),
      EdgeMutation::add_edge(4, 0, 'b', Presence::always(),
                             Latency::constant(1)),
      EdgeMutation::override_latency(5, Latency::constant(1)),  // revert
      EdgeMutation::patch_presence(9, Presence::eventually_always(1)),
      EdgeMutation::override_latency(e0 + 1, Latency::affine(2, 0)),
      EdgeMutation::override_latency(e0 + 1, Latency::constant(1)),
  };

  // Snapshot level: after every prefix, the chain of single extensions
  // equals one extension by the whole prefix.
  const OverlaySnapshot empty(g);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.uniform_constant_latency(), 1);
  OverlaySnapshot chain = empty;
  for (std::size_t k = 0; k < stream.size(); ++k) {
    chain = chain.extended(g, std::span(stream).subspan(k, 1));
    const OverlaySnapshot batch =
        empty.extended(g, std::span(stream).first(k + 1));
    EXPECT_EQ(snapshot_facts(g, chain), snapshot_facts(g, batch))
        << "after record " << k;
    EXPECT_EQ(edges_text(materialize(g, chain)),
              edges_text(materialize(g, batch)))
        << "after record " << k;
    if (k == 2) {
      EXPECT_FALSE(chain.all_latency_constant());
      EXPECT_EQ(chain.uniform_constant_latency(), -1);
    }
    if (k == 6) {
      EXPECT_FALSE(chain.all_semi_periodic());
    }
  }
  // The latency override and the predicate are both reverted, so the
  // counters flip back; a latency override (and an added edge) still
  // forgoes the uniform latency until compaction.
  EXPECT_TRUE(chain.all_latency_constant());
  EXPECT_TRUE(chain.all_semi_periodic());
  EXPECT_EQ(chain.uniform_constant_latency(), -1);
  EXPECT_EQ(chain.sequence(), stream.size());
  EXPECT_EQ(chain.override_rec(3).presence.to_string(),
            stream[1].presence.to_string());
  EXPECT_EQ(chain.added(e0).presence.to_string(),
            stream[4].presence.to_string());

  // Engine level: single applies, one batch apply and a rebuild agree,
  // before and after compaction.
  QueryEngine one(g, 2);
  QueryEngine batched(g, 2);
  for (const EdgeMutation& m : stream) (void)one.apply(m);
  (void)batched.apply(stream);
  const std::string text = to_text(materialize(g, chain));
  EXPECT_EQ(to_text(one.materialize()), text);
  EXPECT_EQ(to_text(batched.materialize()), text);
  expect_reads_match(one, "single applies");
  expect_reads_match(batched, "one batch apply");
  one.compact();
  batched.compact();
  EXPECT_EQ(to_text(one.materialize()), text);
  EXPECT_EQ(to_text(batched.materialize()), text);
  EXPECT_EQ(one.sequence(), stream.size());
  EXPECT_EQ(batched.sequence(), stream.size());
  // Every latency is constant(1) again, so the compacted base reports
  // the uniform latency the overlay had given up.
  EXPECT_EQ(one.materialize().schedule_index().uniform_constant_latency(), 1);
  expect_reads_match(one, "single applies, compacted");
  expect_reads_match(batched, "one batch apply, compacted");
}

TEST(DeltaOverlay, BatchApplyRejectsBadRecordAtomically) {
  const TimeVaryingGraph g = base_graph(4);
  const auto edges = static_cast<EdgeId>(g.edge_count());
  QueryEngine me(g, 1);
  me.patch_presence(1, Presence::never());
  const std::string before = to_text(me.materialize());
  const std::string log_before = to_text(g, me.pending_log());
  // Index 1's add makes id `edges` valid for index 2; index 3 aims one
  // past it and must sink the whole batch.
  const std::vector<EdgeMutation> batch = {
      EdgeMutation::override_latency(0, Latency::constant(2)),
      EdgeMutation::add_edge(0, 1, 'a', Presence::always(),
                             Latency::constant(1)),
      EdgeMutation::patch_presence(edges, Presence::always()),
      EdgeMutation::remove_edge(edges + 1),
      EdgeMutation::remove_edge(0),
  };
  try {
    (void)me.apply(batch);
    FAIL() << "bad record accepted";
  } catch (const MutationBatchError& e) {
    EXPECT_EQ(e.index(), 3u);
    EXPECT_NE(std::string(e.what()).find("batch record 3"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)me.apply(batch), std::out_of_range);
  EXPECT_EQ(me.sequence(), 1u);
  EXPECT_EQ(me.pending_mutations(), 1u);
  EXPECT_EQ(me.edge_count(), std::size_t{edges});
  EXPECT_EQ(to_text(g, me.pending_log()), log_before);
  EXPECT_EQ(to_text(me.materialize()), before);
  // The same batch minus the bad record goes through whole.
  std::vector<EdgeMutation> good = batch;
  good.erase(good.begin() + 3);
  EXPECT_EQ(me.apply(good), (std::vector<EdgeId>{0, edges, edges, 0}));
  EXPECT_EQ(me.sequence(), 5u);
}

TEST(DeltaOverlay, FailedPublishLeavesASingleApplyUnseen) {
#if !defined(TVG_FAILPOINTS_ENABLED)
  GTEST_SKIP() << "built without failpoints";
#endif
  // A single apply is a batch of one: when its snapshot build fails, the
  // record is rolled back with everything else, so the next apply
  // publishes only its own record.
  const FailPointGuard guard;
  const TimeVaryingGraph g = base_graph(8);
  const auto edges = static_cast<EdgeId>(g.edge_count());
  QueryEngine me(g, 1);
  me.patch_presence(1, Presence::never());
  const std::string before = to_text(me.materialize());
  FailPointRegistry::instance().arm_on_hit("delta_overlay.publish", 1,
                                           FailPointAction::error());
  EXPECT_THROW(me.add_edge(0, 1, 'a', Presence::always(),
                           Latency::constant(1)),
               FailPointError);
  EXPECT_EQ(me.sequence(), 1u);
  EXPECT_EQ(me.pending_mutations(), 1u);
  EXPECT_EQ(me.edge_count(), std::size_t{edges});
  EXPECT_EQ(to_text(me.materialize()), before);
  EXPECT_EQ(me.add_edge(2, 3, 'b', Presence::always(), Latency::constant(1)),
            edges);
  EXPECT_EQ(me.sequence(), 2u);
  ASSERT_EQ(me.pending_mutations(), 2u);
  EXPECT_EQ(me.pending_log()[1].from, 2u);

  // The same on an empty log.
  QueryEngine fresh(g, 1);
  const std::string fresh_before = to_text(fresh.materialize());
  FailPointRegistry::instance().arm_on_hit("delta_overlay.publish", 1,
                                           FailPointAction::error());
  EXPECT_THROW(fresh.remove_edge(0), FailPointError);
  EXPECT_EQ(fresh.sequence(), 0u);
  EXPECT_EQ(fresh.pending_mutations(), 0u);
  EXPECT_EQ(fresh.edge_count(), std::size_t{edges});
  EXPECT_EQ(to_text(fresh.materialize()), fresh_before);
}

TEST(DeltaOverlay, BatchApplyDropsExactlyTheTouchedJourneys) {
  // Three disconnected components on distinct footprint partitions.
  TimeVaryingGraph g;
  g.add_nodes(6);
  (void)g.add_edge(0, 1, 'a', Presence::always(), Latency::constant(1));
  const EdgeId b = g.add_edge(2, 3, 'a', Presence::always(),
                              Latency::constant(1));
  (void)g.add_edge(4, 5, 'a', Presence::always(), Latency::constant(1));
  QueryEngine me(std::move(g), 1);
  const auto q01 = JourneyQuery::foremost(0, 0).to(1);
  const auto q23 = JourneyQuery::foremost(2, 0).to(3);
  const auto q45 = JourneyQuery::foremost(4, 0).to(5);
  const auto r01 = me.run(q01);
  (void)me.run(q23);
  (void)me.run(q45);
  EXPECT_EQ(me.cache_stats().entries, 3u);

  // One batch touching the {2,3} and {4,5} components only.
  const std::vector<EdgeMutation> batch = {
      EdgeMutation::override_latency(b, Latency::constant(6)),
      EdgeMutation::add_edge(4, 5, 'a', Presence::always(),
                             Latency::constant(0)),
  };
  (void)me.apply(batch);
  // Staleness is decided at lookup: the apply itself drops nothing.
  const CacheStats after = me.cache_stats();
  EXPECT_EQ(after.invalidations, 0u);
  EXPECT_EQ(after.entries, 3u);

  EXPECT_EQ(me.run(q01), r01);
  EXPECT_EQ(me.cache_stats().hits, after.hits + 1);  // survivor served
  EXPECT_EQ(me.run(q23).arrival, 6);                 // recomputed
  EXPECT_EQ(me.run(q45).arrival, 0);
  const CacheStats looked_up = me.cache_stats();
  EXPECT_EQ(looked_up.hits, after.hits + 1);
  EXPECT_EQ(looked_up.invalidations, 2u);  // exactly the touched two
  EXPECT_EQ(looked_up.survivors, 1u);
  EXPECT_EQ(looked_up.entries, 3u);  // the survivor plus two recomputed
  expect_reads_match(me, "after invalidating batch");
}

TEST(DeltaOverlay, PerEdgeCacheInvalidationHitsSurvivorsAndDrops) {
  // Two disconnected components on distinct footprint partitions
  // (node ids < 64, so every node owns its own bit).
  TimeVaryingGraph g;
  g.add_nodes(4);
  const EdgeId a = g.add_edge(0, 1, 'a', Presence::always(),
                              Latency::constant(1));
  const EdgeId b = g.add_edge(2, 3, 'a', Presence::always(),
                              Latency::constant(1));
  QueryEngine me(std::move(g), 1);

  const auto q = JourneyQuery::foremost(0, 0).to(1);
  const auto cold = me.run(q);
  EXPECT_EQ(me.run(q), cold);
  EXPECT_EQ(me.cache_stats().hits, 1u);

  // Mutating the far component must NOT evict the cached journey: its
  // footprint {0,1} misses the touch mask {2,3}. The lookup after the
  // write counts the hit as a survivor.
  me.patch_presence(b, Presence::eventually_always(5));
  EXPECT_EQ(me.cache_stats().survivors, 0u);
  EXPECT_EQ(me.run(q), cold);
  const CacheStats after_far = me.cache_stats();
  EXPECT_EQ(after_far.hits, 2u);
  EXPECT_GE(after_far.survivors, 1u);
  EXPECT_EQ(after_far.invalidations, 0u);

  // Mutating the queried edge makes that entry stale; the next lookup
  // drops it, and the re-run recomputes and sees the new latency.
  me.override_latency(a, Latency::constant(4));
  EXPECT_EQ(me.cache_stats().invalidations, 0u);
  const auto warm = me.run(q);
  EXPECT_EQ(warm.arrival, 4);
  const CacheStats after_near = me.cache_stats();
  EXPECT_EQ(after_near.hits, 2u);  // unchanged: that last run was a miss
  EXPECT_GE(after_near.invalidations, 1u);
  expect_reads_match(me, "cache invalidation graph");
}

TEST(DeltaOverlay, ConcurrentMutateQueryCompactStress) {
  // The TSan target: mutators, readers and background compactions race
  // while every read stays internally consistent; final state must
  // still match a full rebuild bit for bit.
  TimeVaryingGraph g = base_graph(31, 12, 34);
  const std::size_t nodes = g.node_count();
  QueryEngine me(std::move(g), 2);
  std::atomic<bool> stop{false};

  std::thread mutator([&] {
    std::mt19937_64 rng(4242);
    for (int i = 0; i < 160; ++i) {
      me.apply(random_mutation(rng, nodes, me.edge_count()));
      if (i % 24 == 23) me.compact_async();
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (unsigned r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      std::mt19937_64 rng(100 + r);
      while (!stop.load()) {
        const auto s = static_cast<NodeId>(rng() % nodes);
        const auto res = me.run(JourneyQuery::foremost(s, 0));
        ASSERT_EQ(res.arrivals.size(), nodes);
        ASSERT_EQ(res.arrivals[s], 0);  // the source is reached at start
        ClosureQuery cq;
        cq.sources = {s};
        cq.threads = 2;
        const auto rows = me.closure(cq);
        ASSERT_EQ(rows.rows.size(), 1u);
        ASSERT_EQ(rows.rows[0][s], 0);
      }
    });
  }
  mutator.join();
  for (auto& t : readers) t.join();
  me.wait_for_compaction();
  expect_reads_match(me, "after concurrent stress");
}

// ---------------------------------------------------------------------------
// Packed dirty closures: with a delta pending, closure() runs the same
// bit-parallel kernel over the overlay that a rebuilt engine runs over
// materialize(), so every row and truncation flag must match it.
// ---------------------------------------------------------------------------

constexpr std::size_t kWordsNodes = 130;  // three 64-source lane words

/// Leaves every mutation kind pending on a kWordsNodes-node engine.
void make_dirty(QueryEngine& me, std::uint64_t seed) {
  std::mt19937_64 rng(seed * 1000 + 3);
  me.add_edge(0, kWordsNodes - 1, 'a', random_presence(rng), Latency::constant(2));
  me.remove_edge(3);
  me.patch_presence(5, random_presence(rng));
  me.override_latency(7, Latency::constant(3));
  for (int i = 0; i < 12; ++i) {
    me.apply(random_mutation(rng, kWordsNodes, me.edge_count()));
  }
}

TEST(DeltaOverlay, PackedDirtyClosureMatchesRebuildAcrossThreeWords) {
  QueryEngine me(base_graph(17, kWordsNodes, 420), 2);
  make_dirty(me, 17);
  ASSERT_GT(me.pending_mutations(), 0u);
  const TimeVaryingGraph rebuilt = me.materialize();
  const QueryEngine ref(rebuilt, 1, CacheConfig::disabled());
  for (const Policy& pol :
       {Policy::wait(), Policy::no_wait(), Policy::bounded_wait(3)}) {
    ClosureQuery cq;
    cq.policy = pol;
    cq.limits = SearchLimits::up_to(48);
    const ClosureResult expected = ref.closure(cq);
    for (const unsigned threads : {1u, 2u, 8u}) {
      cq.threads = threads;
      EXPECT_EQ(me.closure(cq), expected)
          << pol.to_string() << " at " << threads << " threads";
    }
  }
}

TEST(DeltaOverlay, TightBudgetDirtyClosureFallsBackBitIdentical) {
  // max_configs far below what one source explores: every packed word
  // trips its guard and reruns per source, reproducing the serial
  // truncation of a rebuilt engine flag for flag.
  QueryEngine me(base_graph(41, kWordsNodes, 420), 2);
  make_dirty(me, 41);
  const TimeVaryingGraph rebuilt = me.materialize();
  const QueryEngine ref(rebuilt, 1, CacheConfig::disabled());
  SearchLimits tight = SearchLimits::up_to(48);
  tight.max_configs = 24;
  for (const Policy& pol :
       {Policy::wait(), Policy::no_wait(), Policy::bounded_wait(3)}) {
    ClosureQuery cq;
    cq.policy = pol;
    cq.limits = tight;
    cq.threads = 2;
    const ClosureResult expected = ref.closure(cq);
    EXPECT_TRUE(expected.truncated) << pol.to_string();
    EXPECT_EQ(me.closure(cq), expected) << pol.to_string();
  }
}

TEST(DeltaOverlay, PullGatherOverPresencePatchesMatchesRebuild) {
  // One uniform latency, a bounded horizon and presence patches only:
  // the overlay keeps the base's uniform latency, so the packed kernel's
  // pull gather runs over it (walking the base in-CSR).
  RandomPeriodicParams params;
  params.nodes = 130;
  params.edges = 1200;
  params.period = 8;
  params.density = 0.5;
  params.max_latency = 1;
  params.seed = 23;
  const TimeVaryingGraph g = make_random_periodic(params);
  ASSERT_EQ(g.schedule_index().uniform_constant_latency(), 1);
  std::mt19937_64 rng(2323);
  std::vector<EdgeMutation> patches;
  for (int i = 0; i < 8; ++i) {
    patches.push_back(EdgeMutation::patch_presence(
        static_cast<EdgeId>(rng() % g.edge_count()), random_presence(rng)));
  }

  EXPECT_EQ(OverlaySnapshot(g).extended(g, patches).uniform_constant_latency(),
            1);

  QueryEngine me(g, 2);
  for (const EdgeMutation& m : patches) me.apply(m);
  const TimeVaryingGraph rebuilt = me.materialize();
  const QueryEngine ref(rebuilt, 1, CacheConfig::disabled());
  for (const FrontierMode mode : {FrontierMode::kPullOnly, FrontierMode::kAuto}) {
    ClosureQuery cq;
    cq.policy = Policy::wait();
    cq.limits = SearchLimits::up_to(40);
    cq.direction.mode = mode;
    for (const unsigned threads : {1u, 2u}) {
      cq.threads = threads;
      EXPECT_EQ(me.closure(cq), ref.closure(cq))
          << "mode " << static_cast<int>(mode) << " at " << threads
          << " threads";
    }
  }

  // A latency override or an added edge forgoes the uniform latency
  // (pull is then skipped; push rows are the same), even where a
  // rebuild would still report one.
  patches.push_back(EdgeMutation::override_latency(0, Latency::constant(1)));
  EXPECT_EQ(OverlaySnapshot(g).extended(g, patches).uniform_constant_latency(),
            -1);
  const std::vector<EdgeMutation> added = {EdgeMutation::add_edge(
      0, 1, 'a', Presence::always(), Latency::constant(1))};
  EXPECT_EQ(OverlaySnapshot(g).extended(g, added).uniform_constant_latency(),
            -1);
}

TEST(DeltaOverlay, DirtyClosureShardsOneTaskPerWordGroup) {
  // 130 sources = 3 lane words: the dirty closure claims exactly one
  // pool task per word group, like the frozen engine.
  QueryEngine me(base_graph(5, kWordsNodes, 420), 2);
  me.patch_presence(0, Presence::never());
  ClosureQuery cq;
  cq.limits = SearchLimits::up_to(48);
  cq.threads = 2;
  const std::uint64_t before = me.worker_stats().tasks_claimed;
  (void)me.closure(cq);
  EXPECT_EQ(me.worker_stats().tasks_claimed - before, 3u);
}

// ---------------------------------------------------------------------------
// Acceptance and analytics on a live graph: every entry point captures
// one {epoch, overlay} pair and runs on the View, so with a delta pending
// (or folded) it must match a cache-disabled engine over materialize().
// ---------------------------------------------------------------------------

/// Compares acceptance (trie batch, single word, a budget tight enough
/// to truncate) and the four analytics against a rebuilt engine. Each
/// query runs twice on `me`: the second answer may come from the cache.
void expect_language_and_analytics_match(const QueryEngine& me,
                                         unsigned threads,
                                         const std::string& where) {
  const TimeVaryingGraph rebuilt = me.materialize();
  const QueryEngine ref(rebuilt, threads, CacheConfig::disabled());
  const SearchLimits lim = SearchLimits::up_to(48);
  const std::vector<Word> batch{"a", "ab", "ba", "abb", "bab", "", "aab",
                                "bba"};
  for (const Policy& pol :
       {Policy::no_wait(), Policy::bounded_wait(3), Policy::wait()}) {
    AcceptSpec spec;
    spec.initial = {0, 5, 64};
    spec.accepting = {1, 2, 3, 70, kWordsNodes - 1};
    spec.policy = pol;
    spec.horizon = 40;
    spec.departures_per_edge = 4;
    const std::string tag = where + " " + pol.to_string();
    for (int pass = 0; pass < 2; ++pass) {
      EXPECT_EQ(me.accepts(spec, batch), ref.accepts(spec, batch))
          << tag << " batch";
      for (const Word& w : {Word{"ab"}, Word{"bba"}}) {
        const std::vector<Word> one{w};
        EXPECT_EQ(me.accepts(spec, one), ref.accepts(spec, one))
            << tag << " single " << w;
      }
    }
    AcceptSpec tight = spec;
    tight.max_configs = 40;  // truncates: pins the labeled edge order
    EXPECT_EQ(me.accepts(tight, batch), ref.accepts(tight, batch))
        << tag << " tight batch";
  }

  KReachabilityQuery kq;
  kq.closure.limits = lim;
  kq.closure.threads = threads;
  kq.k = 3;
  InfluenceQuery iq;
  iq.source_sets = {{0, 1}, {5}, {}, {64, 100, kWordsNodes - 1}};
  iq.sample_times = {4, 10, 20, 40};
  iq.limits = lim;
  iq.threads = threads;
  BetweennessQuery bq;
  bq.sources = {0, 7, 33, 64, 101, kWordsNodes - 1};
  bq.limits = lim;
  bq.threads = threads;
  CentralityQuery cq;
  for (NodeId v = 0; v < 40; ++v) cq.closure.sources.push_back(v * 3);
  cq.closure.limits = lim;
  cq.closure.threads = threads;
  cq.iterations = 6;
  for (int pass = 0; pass < 2; ++pass) {
    EXPECT_EQ(me.k_reachability(kq), ref.k_reachability(kq)) << where;
    EXPECT_EQ(me.influence_spread(iq), ref.influence_spread(iq)) << where;
    EXPECT_EQ(me.betweenness(bq), ref.betweenness(bq)) << where;
    EXPECT_EQ(me.centrality(cq), ref.centrality(cq)) << where;
  }
}

TEST(DeltaOverlay, AcceptsAndAnalyticsMatchRebuildBeforeAndAfterCompaction) {
  for (const unsigned threads : {1u, 4u}) {
    TimeVaryingGraph g = base_graph(29, kWordsNodes, 420);
    // A non-affine ζ on an edge the searches leave the first initial
    // node by: Wait then enumerates several departures there.
    const EdgeId leaving_zero = g.out_edges(0).front();
    QueryEngine me(std::move(g), threads);
    make_dirty(me, 29);
    me.override_latency(leaving_zero,
                        Latency::function([](Time t) { return 1 + t % 3; },
                                          "wobble"));
    me.add_edge(5, 2, 'b', Presence::eventually_always(3),
                Latency::function([](Time t) { return 2 + t % 2; }, "tick"));
    ASSERT_GT(me.pending_mutations(), 0u);
    const std::string at = " at " + std::to_string(threads) + " threads";
    expect_language_and_analytics_match(me, threads, "dirty" + at);
    me.compact();
    ASSERT_EQ(me.pending_mutations(), 0u);
    expect_language_and_analytics_match(me, threads, "compacted" + at);
  }
}

TEST(DeltaSerialization, GraphPlusPendingLogRoundTrips) {
  const TimeVaryingGraph base = base_graph(13, 8, 18);
  QueryEngine ov(base, 1);
  ov.add_edge(0, 5, 'b', Presence::periodic(6, [] {
                IntervalSet s;
                s.insert_point(2);
                s.insert({4, 6});
                return s;
              }()),
              Latency::constant(2), "patched-in");
  ov.patch_presence(1, Presence::eventually_always(9));
  ov.remove_edge(3);
  const EdgeId added2 = ov.add_edge(7, 2, 'a', Presence::always(),
                                    Latency::affine(2, 1));
  ov.override_latency(added2, Latency::constant(1));  // targets an added edge

  const std::string text = to_text(base, ov.pending_log());
  // The strict parser refuses a dump with pending mutations outright —
  // a checkpoint cannot silently lose its delta.
  EXPECT_THROW({ auto g = from_text(text); (void)g; }, std::invalid_argument);

  auto [g2, log2] = from_text_with_delta(text);
  ASSERT_EQ(log2.size(), ov.pending_mutations());
  QueryEngine ov2(g2, 1);
  for (const EdgeMutation& m : log2) ov2.apply(m);

  // Replaying the parsed log reproduces the exact merged graph.
  EXPECT_EQ(to_text(ov.materialize()), to_text(ov2.materialize()));
  // And the writer is a fixed point: dumping the parsed pair again
  // yields byte-identical text.
  EXPECT_EQ(to_text(g2, ov2.pending_log()), text);
}

TEST(DeltaSerialization, WriterValidatesLogAgainstGraph) {
  TimeVaryingGraph g;
  g.add_nodes(2);
  g.add_edge(0, 1, 'a', Presence::always(), Latency::constant(1));
  const std::vector<EdgeMutation> bad_edge = {
      EdgeMutation::remove_edge(7)};
  EXPECT_THROW({ auto t = to_text(g, bad_edge); (void)t; },
               std::invalid_argument);
  const std::vector<EdgeMutation> bad_node = {EdgeMutation::add_edge(
      0, 9, 'a', Presence::always(), Latency::constant(1))};
  EXPECT_THROW({ auto t = to_text(g, bad_node); (void)t; },
               std::invalid_argument);
  // An add makes its own id addressable for later entries.
  const std::vector<EdgeMutation> chained = {
      EdgeMutation::add_edge(1, 0, 'b', Presence::always(),
                             Latency::constant(2)),
      EdgeMutation::override_latency(1, Latency::constant(3))};
  const std::string text = to_text(g, chained);
  const auto [g2, log2] = from_text_with_delta(text);
  EXPECT_EQ(g2.edge_count(), 1u);
  ASSERT_EQ(log2.size(), 2u);
  EXPECT_EQ(log2[1].edge, 1u);
}

TEST(DeltaSerialization, EmptyDeltaMatchesPlainDump) {
  const TimeVaryingGraph g = base_graph(1, 6, 10);
  EXPECT_EQ(to_text(g, {}), to_text(g));
  const auto [g2, log2] = from_text_with_delta(to_text(g));
  EXPECT_TRUE(log2.empty());
  EXPECT_EQ(to_text(g2), to_text(g));
}

}  // namespace
}  // namespace tvg
