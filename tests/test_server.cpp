// tvg::Server — the async serving front end.
//
// Deterministic coverage uses workers == 0 servers driven by run_one():
// submissions stack up exactly as submitted, so weighted dequeue order,
// deadline expiry at dequeue, and admission-control sheds are all
// observable without racing a worker. The Server/ServerStress suites
// also run under TSan (CI clang lane) with real workers: multi-client
// mixed-lane traffic, shed/expired accounting, poisoned queries, and
// the drain()/stop() lifecycle.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "tvg/delta_overlay.hpp"
#include "tvg/generators.hpp"
#include "tvg/graph.hpp"
#include "tvg/query_engine.hpp"
#include "tvg/retry.hpp"
#include "tvg/server.hpp"
#include "tvg/worker_pool.hpp"

namespace {

using namespace tvg;
using std::chrono::milliseconds;

TimeVaryingGraph serving_graph() {
  RandomPeriodicParams params;
  params.nodes = 10;
  params.edges = 28;
  params.period = 6;
  params.seed = 42;
  return make_random_periodic(params);
}

JourneyQuery query_for(NodeId src) {
  return JourneyQuery::foremost(src, 0)
      .under(Policy::bounded_wait(3))
      .within(SearchLimits::up_to(96));
}

ServerConfig manual_config() {
  ServerConfig config;
  config.workers = 0;  // embedder drives with run_one(): deterministic
  return config;
}

TEST(Server, FuturesMatchDirectEngineCalls) {
  const TimeVaryingGraph g = serving_graph();
  const QueryEngine engine(g, 2);
  Server server(engine);

  const JourneyQuery jq = query_for(0);
  ClosureQuery cq;
  cq.policy = Policy::wait();
  cq.limits = SearchLimits::up_to(96);
  AcceptSpec spec;
  spec.initial = {0};
  spec.accepting = {1, 2};
  spec.policy = Policy::wait();
  spec.horizon = 64;
  const std::vector<Word> words = {"ab", "ba", ""};

  auto jf = server.submit(jq);
  auto cf = server.submit(cq);
  auto af = server.submit(spec, words);

  EXPECT_TRUE(jf.get() == engine.run(jq));
  EXPECT_TRUE(cf.get() == engine.closure(cq));
  EXPECT_TRUE(af.get() == engine.accepts(spec, words));

  server.drain();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.accepted, 3u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.queued_now, 0u);
  EXPECT_EQ(stats.in_flight_now, 0u);
}

TEST(Server, StrictPriorityWhenEachLaneHoldsOneTask) {
  const TimeVaryingGraph g = serving_graph();
  const QueryEngine engine(g, 1);
  Server server(engine, manual_config());

  // Submit in REVERSE priority order; completion order must follow lane
  // priority, not submission order.
  std::vector<Lane> completion_order;
  const auto submit_probe = [&](Lane lane) {
    return server.submit(query_for(0), SubmitOptions::in_lane(lane));
  };
  auto batch_f = submit_probe(Lane::kBatch);
  auto normal_f = submit_probe(Lane::kNormal);
  auto high_f = submit_probe(Lane::kHigh);

  const auto ready = [](std::future<JourneyResult>& f) {
    return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
  };
  EXPECT_TRUE(server.run_one());
  EXPECT_TRUE(ready(high_f));
  EXPECT_FALSE(ready(normal_f));
  EXPECT_FALSE(ready(batch_f));
  EXPECT_TRUE(server.run_one());
  EXPECT_TRUE(ready(normal_f));
  EXPECT_FALSE(ready(batch_f));
  EXPECT_TRUE(server.run_one());
  EXPECT_TRUE(ready(batch_f));
  EXPECT_FALSE(server.run_one());  // all lanes empty
  (void)completion_order;
}

TEST(Server, WeightedDequeueNeverStarvesBatchUnderHighLoad) {
  const TimeVaryingGraph g = serving_graph();
  const QueryEngine engine(g, 1);
  ServerConfig config = manual_config();
  config.queue_capacity = {64, 64, 64};
  Server server(engine, config);

  constexpr std::size_t kPerLane = 20;
  std::vector<std::future<JourneyResult>> high;
  std::vector<std::future<JourneyResult>> batch;
  for (std::size_t i = 0; i < kPerLane; ++i) {
    high.push_back(
        server.submit(query_for(0), SubmitOptions::in_lane(Lane::kHigh)));
    batch.push_back(
        server.submit(query_for(1), SubmitOptions::in_lane(Lane::kBatch)));
  }

  // One full weight cycle with both lanes saturated serves
  // weights[kHigh] high tasks and weights[kBatch] batch tasks: after 9
  // dequeues (8 high + 1 batch with the default {8, 4, 1}), batch made
  // progress — a strict-priority queue would still have it at zero.
  const unsigned cycle = server.config().weights[0] + server.config().weights[2];
  for (unsigned i = 0; i < cycle; ++i) ASSERT_TRUE(server.run_one());
  const auto done = [](std::vector<std::future<JourneyResult>>& fs) {
    std::size_t n = 0;
    for (auto& f : fs) {
      if (f.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
        ++n;
      }
    }
    return n;
  };
  EXPECT_EQ(done(high), server.config().weights[0]);
  EXPECT_EQ(done(batch), server.config().weights[2]);

  server.drain();  // workers == 0: drains on this thread
  EXPECT_EQ(done(high), kPerLane);
  EXPECT_EQ(done(batch), kPerLane);
}

TEST(Server, ShedsWithOverloadedWhenLaneAtCapacity) {
  const TimeVaryingGraph g = serving_graph();
  const QueryEngine engine(g, 1);
  ServerConfig config = manual_config();
  config.queue_capacity = {1, 1, 1};
  Server server(engine, config);

  auto accepted = server.submit(query_for(0));
  auto shed = server.submit(query_for(1));

  // Fail-fast: the shed future is ready IMMEDIATELY (nothing dequeued
  // anything yet), and resolves to Overloaded.
  ASSERT_EQ(shed.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_THROW(shed.get(), Overloaded);

  // The accepted submission is untouched by the shed and completes.
  EXPECT_TRUE(server.run_one());
  EXPECT_TRUE(accepted.get() == engine.run(query_for(0)));

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.shed_per_lane[static_cast<std::size_t>(Lane::kNormal)], 1u);
  EXPECT_EQ(stats.completed, 1u);

  // With admission control off the same pressure queues unboundedly.
  ServerConfig fifo = manual_config();
  fifo.queue_capacity = {1, 1, 1};
  fifo.admission_control = false;
  Server unbounded(engine, fifo);
  std::vector<std::future<JourneyResult>> fs;
  for (int i = 0; i < 8; ++i) fs.push_back(unbounded.submit(query_for(0)));
  EXPECT_EQ(unbounded.stats().shed, 0u);
  EXPECT_EQ(unbounded.stats().queued_now, 8u);
  unbounded.drain();
  for (auto& f : fs) EXPECT_NO_THROW((void)f.get());
}

TEST(Server, ExpiredAtDequeueErrorsFutureWithoutExecuting) {
  const TimeVaryingGraph g = serving_graph();
  const QueryEngine engine(g, 1);
  Server server(engine, manual_config());

  // A query that would THROW if executed (source out of range): if the
  // deadline check ever let it run, the future would hold
  // std::out_of_range instead of DeadlineExceeded.
  const JourneyQuery poisoned = JourneyQuery::foremost(1000, 0);
  auto expired = server.submit(
      poisoned, SubmitOptions{}.by(SubmitOptions::Clock::now() -
                                   std::chrono::milliseconds(1)));
  auto live = server.submit(query_for(0));

  EXPECT_TRUE(server.run_one());  // dequeues + expires the first task
  EXPECT_THROW(expired.get(), DeadlineExceeded);
  EXPECT_TRUE(server.run_one());
  EXPECT_NO_THROW((void)live.get());

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 0u);  // the poisoned query never ran
}

TEST(Server, PoisonedQueryFailsOnlyItsOwnFutureAndDrainRecovers) {
  const TimeVaryingGraph g = serving_graph();
  const QueryEngine engine(g, 2);
  Server server(engine);

  // A poisoned batch: good, bad (validation throws in the engine), good.
  auto good1 = server.submit(query_for(0));
  auto bad = server.submit(JourneyQuery::foremost(1000, 0));
  auto good2 = server.submit(query_for(1));

  EXPECT_THROW(bad.get(), std::out_of_range);
  EXPECT_TRUE(good1.get() == engine.run(query_for(0)));
  EXPECT_TRUE(good2.get() == engine.run(query_for(1)));

  // drain() after the poisoned traffic: the server settles idle and
  // both the server and the engine remain fully usable.
  server.drain();
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.queued_now, 0u);
  EXPECT_EQ(stats.in_flight_now, 0u);

  auto after = server.submit(query_for(2));
  EXPECT_TRUE(after.get() == engine.run(query_for(2)));
  EXPECT_TRUE(engine.run(query_for(2)) == engine.run(query_for(2)));
}

TEST(Server, StopDiscardsQueuedWorkAndRejectsNewSubmissions) {
  const TimeVaryingGraph g = serving_graph();
  const QueryEngine engine(g, 1);
  Server server(engine, manual_config());

  auto queued1 = server.submit(query_for(0));
  auto queued2 = server.submit(query_for(1), SubmitOptions::in_lane(Lane::kBatch));
  server.stop();

  EXPECT_THROW(queued1.get(), ServerStopped);
  EXPECT_THROW(queued2.get(), ServerStopped);

  auto rejected = server.submit(query_for(0));
  ASSERT_EQ(rejected.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_THROW(rejected.get(), ServerStopped);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.discarded_on_stop, 2u);
  EXPECT_EQ(stats.rejected_stopped, 1u);
  server.stop();  // idempotent
  EXPECT_FALSE(server.run_one());
}

TEST(Server, DrainWaitsForInFlightWork) {
  const TimeVaryingGraph g = serving_graph();
  const QueryEngine engine(g, 2);
  Server server(engine);

  std::vector<std::future<JourneyResult>> fs;
  for (int i = 0; i < 64; ++i) {
    fs.push_back(server.submit(query_for(static_cast<NodeId>(i % 4))));
  }
  server.drain();
  for (auto& f : fs) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_NO_THROW((void)f.get());
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 64u);
  EXPECT_EQ(stats.queued_now, 0u);
  EXPECT_EQ(stats.in_flight_now, 0u);
}

TEST(Server, ZeroLaneWeightIsRejected) {
  const TimeVaryingGraph g = serving_graph();
  const QueryEngine engine(g, 1);
  ServerConfig config;
  config.weights = {8, 0, 1};
  EXPECT_THROW(Server(engine, config), std::invalid_argument);
}

TEST(Server, WorkerPoolStatsObserveServedTraffic) {
  // >64 nodes: the packed closure kernel shards by 64-source word
  // group, so this graph produces a multi-task batch that actually
  // lands on the engine's WorkerPool (a <=64-node closure is one word
  // and runs serially).
  RandomPeriodicParams params;
  params.nodes = 130;
  params.edges = 400;
  params.period = 6;
  params.seed = 42;
  const TimeVaryingGraph g = make_random_periodic(params);
  const QueryEngine engine(g, 2);
  const WorkerPool::Stats before = engine.worker_stats();
  Server server(engine);

  // Closure queries fan shard batches into the engine's pool through
  // the serving workers: the pool's batch/claim counters must move.
  ClosureQuery cq;
  cq.limits = SearchLimits::up_to(96);
  cq.threads = 2;
  auto f = server.submit(cq);
  (void)f.get();
  server.drain();

  const WorkerPool::Stats after = engine.worker_stats();
  EXPECT_GT(after.batches_executed, before.batches_executed);
  EXPECT_GT(after.tasks_claimed, before.tasks_claimed);
  EXPECT_GE(after.threads_spawned, before.threads_spawned);
  EXPECT_GE(after.queue_depth_high_water, before.queue_depth_high_water);
}

// ---------------------------------------------------------------------------
// Multi-client stress — the TSan lane's serving workload.
// ---------------------------------------------------------------------------

TEST(Server, MutableBackendServesQueriesAndLiveUpdates) {
  // The server only reads; writes go straight to the engine, and every
  // query dequeued after a write sees it.
  QueryEngine engine(serving_graph(), 2);
  Server server(engine, manual_config());

  const JourneyQuery jq = query_for(0);
  auto before = server.submit(jq);
  ASSERT_TRUE(server.run_one());
  (void)before.get();
  const EdgeId added = engine.add_edge(0, 5, 'a', Presence::always(),
                                       Latency::constant(1), "hotfix");
  EXPECT_EQ(added, engine.edge_count() - 1);  // the appended id
  auto after = server.submit(jq);
  while (server.run_one()) {
  }
  const JourneyResult fresh = after.get();
  EXPECT_TRUE(fresh == engine.run(jq));
  EXPECT_LE(fresh.arrivals[5], 1);  // over the new always-present edge
  EXPECT_EQ(engine.pending_mutations(), 1u);

  ClosureQuery cq;
  cq.limits = SearchLimits::up_to(96);
  auto cf = server.submit(cq);
  while (server.run_one()) {
  }
  EXPECT_TRUE(cf.get() == engine.closure(cq));
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.completed, 3u);
}

TEST(Server, AcceptsOnAMutatedEngineMatchesTheRebuild) {
  // Acceptance runs on the live graph: with every mutation kind pending,
  // the server's outcomes equal a cache-disabled engine over the
  // materialized graph, for a trie batch and for a single word.
  QueryEngine engine(serving_graph(), 2);
  engine.add_edge(0, 7, 'b', Presence::always(), Latency::constant(2));
  engine.add_edge(3, 1, 'a', Presence::eventually_always(5),
                  Latency::constant(1));
  engine.remove_edge(4);
  engine.patch_presence(9, Presence::eventually_always(3));
  engine.override_latency(11, Latency::affine(2, 1));
  ASSERT_GT(engine.pending_mutations(), 0u);
  const TimeVaryingGraph rebuilt = engine.materialize();
  const QueryEngine ref(rebuilt, 1, CacheConfig::disabled());

  Server server(engine, manual_config());
  for (const Policy& policy :
       {Policy::no_wait(), Policy::bounded_wait(2), Policy::wait()}) {
    AcceptSpec spec;
    spec.initial = {0, 3};
    spec.accepting = {1, 2, 7};
    spec.policy = policy;
    spec.horizon = 48;
    const std::vector<Word> batch = {"ab", "ba", "", "abab", "bb"};
    const std::vector<Word> single = {"aba"};
    auto batch_f = server.submit(spec, batch);
    auto single_f = server.submit(spec, single);
    while (server.run_one()) {
    }
    EXPECT_EQ(batch_f.get(), ref.accepts(spec, batch)) << policy.to_string();
    EXPECT_EQ(single_f.get(), ref.accepts(spec, single))
        << policy.to_string();
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.completed, 6u);
}

// ---------------------------------------------------------------------------
// Cache hits served on the submitting thread (workers > 0 only).
// ---------------------------------------------------------------------------

ServerConfig worker_config() {
  ServerConfig config;
  config.workers = 2;
  return config;
}

bool ready_now(std::future<JourneyResult>& f) {
  return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

TEST(Server, CachedJourneyIsReadyWhenSubmitReturns) {
  const TimeVaryingGraph g = serving_graph();
  const QueryEngine engine(g, 1);
  const JourneyResult cold = engine.run(query_for(0));
  Server server(engine, worker_config());

  auto f = server.submit(query_for(0));
  ASSERT_TRUE(ready_now(f));
  EXPECT_TRUE(f.get() == cold);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.served_inline, 1u);
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.accepted_per_lane[static_cast<std::size_t>(Lane::kNormal)],
            1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.lane_depth_high_water, 0u);
}

TEST(Server, MutationTouchingACachedJourneySendsItBackThroughTheLanes) {
  QueryEngine engine(serving_graph(), 2);
  const JourneyQuery jq = query_for(0);
  (void)engine.run(jq);
  Server server(engine, worker_config());
  (void)server.submit(jq).get();
  ASSERT_EQ(server.stats().served_inline, 1u);

  // The new edge leaves the query's own source: it touches the entry's
  // footprint, so apply() drops the entry before it returns.
  engine.add_edge(0, 5, 'a', Presence::always(), Latency::constant(1),
                  "hotfix");
  const JourneyResult fresh = server.submit(jq).get();
  EXPECT_EQ(server.stats().served_inline, 1u);  // this one queued
  EXPECT_TRUE(fresh == engine.run(jq));
  EXPECT_LE(fresh.arrivals[5], 1);
  server.drain();
  EXPECT_EQ(server.stats().completed, 2u);
}

TEST(Server, CachedJourneyPastItsDeadlineExpires) {
  const TimeVaryingGraph g = serving_graph();
  const QueryEngine engine(g, 1);
  (void)engine.run(query_for(0));
  Server server(engine, worker_config());

  auto f = server.submit(query_for(0),
                         SubmitOptions{}.by(SubmitOptions::Clock::now() -
                                            milliseconds(1)));
  EXPECT_THROW(f.get(), DeadlineExceeded);
  server.drain();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.served_inline, 0u);
  EXPECT_EQ(stats.completed, 0u);
}

TEST(Server, CachedJourneyAfterStopIsRejected) {
  const TimeVaryingGraph g = serving_graph();
  const QueryEngine engine(g, 1);
  (void)engine.run(query_for(0));
  Server server(engine, worker_config());
  server.stop();

  auto f = server.submit(query_for(0));
  EXPECT_THROW(f.get(), ServerStopped);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.rejected_stopped, 1u);
  EXPECT_EQ(stats.served_inline, 0u);
}

TEST(Server, CachedJourneyQueuesWithoutWorkers) {
  // workers == 0 has no thread hop to save: every submission stacks up
  // for run_one(), cached or not.
  const TimeVaryingGraph g = serving_graph();
  const QueryEngine engine(g, 1);
  const JourneyResult cold = engine.run(query_for(0));
  Server server(engine, manual_config());

  auto f = server.submit(query_for(0));
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.queued_now, 1u);
  EXPECT_EQ(stats.served_inline, 0u);
  ASSERT_TRUE(server.run_one());
  EXPECT_TRUE(f.get() == cold);
}

TEST(Server, CacheCountsEachSubmissionOnce) {
  // Each submission is one cache lookup: an inline hit counts one hit, a
  // miss counts one miss in the run() its queued task makes, never a
  // second one for the probe in front of it.
  constexpr std::uint64_t kSubmits = 40;
  const auto check = [&](const auto& engine) {
    Server server(engine, worker_config());
    for (std::uint64_t i = 0; i < kSubmits; ++i) {
      (void)server.submit(query_for(static_cast<NodeId>(i % 4))).get();
    }
    server.drain();
    const CacheStats cache = engine.cache_stats();
    const ServerStats stats = server.stats();
    EXPECT_EQ(cache.hits + cache.misses, kSubmits);
    EXPECT_EQ(stats.served_inline, cache.hits);
    EXPECT_EQ(cache.misses, 4u);  // one cold run per distinct query
    EXPECT_EQ(stats.completed, kSubmits);
  };
  const TimeVaryingGraph g = serving_graph();
  check(QueryEngine(g, 1));
  check(QueryEngine(serving_graph(), 1));
}

TEST(ServerStress, LiveUpdatesRaceQueriesThroughTheLanes) {
  // Worker-backed server over a mutable engine: client threads write
  // through QueryEngine::apply while their reads go through the server,
  // interleaving arbitrarily; every future must resolve and every update
  // must land exactly once (sequence() counts them).
  QueryEngine engine(serving_graph(), 2);
  ServerConfig config;
  config.workers = 3;
  Server server(engine, config);
  constexpr int kClients = 4;
  constexpr int kPerClient = 30;
  std::atomic<int> update_oks{0};
  std::atomic<int> reads{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        if (i % 3 == 0) {
          engine.apply(EdgeMutation::patch_presence(
              static_cast<EdgeId>((c * kPerClient + i) % 28),
              Presence::eventually_always(static_cast<Time>(i % 7))));
          update_oks.fetch_add(1);
        } else {
          auto f =
              server.submit(query_for(static_cast<NodeId>((c + i) % 10)));
          reads.fetch_add(1);
          const JourneyResult r = f.get();
          ASSERT_EQ(r.arrivals.size(), 10u);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  server.drain();
  EXPECT_EQ(engine.sequence(),
            static_cast<std::uint64_t>(update_oks.load()));
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(reads.load()));
  EXPECT_EQ(stats.completed, stats.submitted);
}

TEST(ServerStress, MultiClientMixedLanesAccountsEverySubmission) {
  const TimeVaryingGraph g = serving_graph();
  const QueryEngine engine(g, 2);
  ServerConfig config;
  config.workers = 3;
  config.queue_capacity = {8, 8, 8};  // small: force real sheds
  Server server(engine, config);

  constexpr unsigned kClients = 8;
  constexpr int kPerClient = 40;

  // Reference results for the four hot queries, computed up front.
  std::vector<JourneyResult> reference;
  for (NodeId v = 0; v < 4; ++v) reference.push_back(engine.run(query_for(v)));

  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> expired{0};
  std::atomic<std::uint64_t> mismatches{0};

  auto client = [&](unsigned id) {
    for (int i = 0; i < kPerClient; ++i) {
      const NodeId key = static_cast<NodeId>((id + i) % 4);
      SubmitOptions options =
          SubmitOptions::in_lane(static_cast<Lane>(i % kLaneCount));
      if (i % 7 == 0) {
        // A mix of already-expired deadlines: these must NEVER execute.
        options.by(SubmitOptions::Clock::now() - milliseconds(1));
      }
      auto f = server.submit(query_for(key), options);
      try {
        const JourneyResult r = f.get();
        ok.fetch_add(1, std::memory_order_relaxed);
        if (!(r == reference[key])) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      } catch (const Overloaded&) {
        shed.fetch_add(1, std::memory_order_relaxed);
      } catch (const DeadlineExceeded&) {
        expired.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  std::vector<std::thread> clients;
  for (unsigned c = 0; c < kClients; ++c) clients.emplace_back(client, c);
  for (auto& t : clients) t.join();
  server.drain();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(ok.load() + shed.load() + expired.load(),
            std::uint64_t{kClients} * kPerClient);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, std::uint64_t{kClients} * kPerClient);
  EXPECT_EQ(stats.completed, ok.load());
  EXPECT_EQ(stats.shed, shed.load());
  EXPECT_EQ(stats.expired, expired.load());
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.queued_now, 0u);
  EXPECT_EQ(stats.in_flight_now, 0u);
  EXPECT_EQ(stats.accepted, stats.completed + stats.expired);
}

TEST(ServerStress, ConcurrentSubmittersWithStopMidTraffic) {
  const TimeVaryingGraph g = serving_graph();
  const QueryEngine engine(g, 2);
  ServerConfig config;
  config.workers = 2;
  Server server(engine, config);

  constexpr unsigned kClients = 6;
  std::atomic<std::uint64_t> resolved{0};
  auto client = [&] {
    for (int i = 0; i < 50; ++i) {
      auto f = server.submit(query_for(static_cast<NodeId>(i % 4)));
      try {
        (void)f.get();
      } catch (const ServerStopped&) {
      } catch (const Overloaded&) {
      }
      resolved.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> clients;
  for (unsigned c = 0; c < kClients; ++c) clients.emplace_back(client);
  // Stop while clients are mid-stream: every outstanding future must
  // still resolve (value or ServerStopped) — nobody hangs.
  std::this_thread::sleep_for(milliseconds(5));
  server.stop();
  for (auto& t : clients) t.join();
  EXPECT_EQ(resolved.load(), std::uint64_t{kClients} * 50);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, std::uint64_t{kClients} * 50);
  EXPECT_EQ(stats.accepted, stats.completed + stats.failed +
                                stats.expired + stats.discarded_on_stop);
}

TEST(Server, RetryOnOverloadedRecoversFromAShedDeterministically) {
  // The documented client reaction to Overloaded (retry.hpp) against a
  // REAL overloaded server: capacity-1 lane, workers == 0 so this
  // thread controls exactly when capacity frees up — the injected sleep
  // drains one task, turning the backoff delay into the thing that
  // makes the retry succeed.
  const TimeVaryingGraph g = serving_graph();
  const QueryEngine engine(g, 1);
  ServerConfig config = manual_config();
  config.queue_capacity = {1, 1, 1};
  Server server(engine, config);

  auto prefill = server.submit(query_for(1));  // fills Lane::kNormal

  RetryPolicy policy;
  policy.jitter = 0.0;  // exact delay sequence
  policy.initial_delay = milliseconds(10);
  std::vector<milliseconds> slept;
  const auto ready = [](std::future<JourneyResult>& f) {
    return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
  };
  const JourneyResult result = retry_on_overloaded(
      [&] {
        auto f = server.submit(query_for(0));
        // A shed future is ready (with Overloaded) at submit; an
        // accepted one is queued — drive it now, workers == 0.
        if (!ready(f)) server.run_one();
        return f;
      },
      policy,
      [&](milliseconds d) {
        slept.push_back(d);
        server.run_one();  // capacity frees during the backoff
      });

  EXPECT_TRUE(result == engine.run(query_for(0)));
  EXPECT_EQ(slept, std::vector<milliseconds>{milliseconds(10)});
  EXPECT_NO_THROW((void)prefill.get());

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 3u);  // prefill + shed try + accepted retry
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(Server, StatsReportLiveLaneDepths) {
  const TimeVaryingGraph g = serving_graph();
  const QueryEngine engine(g, 1);
  ServerConfig config = manual_config();
  config.queue_capacity = {8, 8, 8};
  Server server(engine, config);

  std::vector<std::future<JourneyResult>> fs;
  fs.push_back(server.submit(query_for(0), SubmitOptions::in_lane(Lane::kHigh)));
  for (int i = 0; i < 2; ++i) {
    fs.push_back(
        server.submit(query_for(0), SubmitOptions::in_lane(Lane::kNormal)));
  }
  for (int i = 0; i < 3; ++i) {
    fs.push_back(
        server.submit(query_for(0), SubmitOptions::in_lane(Lane::kBatch)));
  }

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.lane_depth_now[static_cast<std::size_t>(Lane::kHigh)], 1u);
  EXPECT_EQ(stats.lane_depth_now[static_cast<std::size_t>(Lane::kNormal)], 2u);
  EXPECT_EQ(stats.lane_depth_now[static_cast<std::size_t>(Lane::kBatch)], 3u);
  EXPECT_EQ(stats.queued_now, 6u);

  ASSERT_TRUE(server.run_one());  // strict priority: the high task
  stats = server.stats();
  EXPECT_EQ(stats.lane_depth_now[static_cast<std::size_t>(Lane::kHigh)], 0u);
  EXPECT_EQ(stats.lane_depth_now[static_cast<std::size_t>(Lane::kNormal)], 2u);

  server.drain();
  stats = server.stats();
  for (const std::size_t depth : stats.lane_depth_now) EXPECT_EQ(depth, 0u);
  EXPECT_EQ(stats.queued_now, 0u);
  for (auto& f : fs) EXPECT_NO_THROW((void)f.get());
}

TEST(ServerStress, LaneDepthsStayCoherentUnderConcurrentSubmitters) {
  // satellite-4 regression: stats() races real submit/dequeue traffic;
  // every snapshot must be internally coherent — per-lane depths within
  // capacity and summing to at most queued_now's cap — and the TSan
  // lane proves the reads are race-free.
  const TimeVaryingGraph g = serving_graph();
  const QueryEngine engine(g, 2);
  ServerConfig config;
  config.workers = 2;
  config.queue_capacity = {16, 16, 16};
  Server server(engine, config);

  std::atomic<bool> done{false};
  std::thread watcher([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const ServerStats s = server.stats();
      std::size_t sum = 0;
      for (std::size_t lane = 0; lane < kLaneCount; ++lane) {
        EXPECT_LE(s.lane_depth_now[lane], config.queue_capacity[lane]);
        sum += s.lane_depth_now[lane];
      }
      EXPECT_LE(sum, std::size_t{3} * 16);
    }
  });
  const auto client = [&](Lane lane) {
    for (int i = 0; i < 40; ++i) {
      try {
        (void)server.submit(query_for(static_cast<NodeId>(i % 4)),
                            SubmitOptions::in_lane(lane))
            .get();
      } catch (const Overloaded&) {
      }
    }
  };
  std::thread c1(client, Lane::kHigh);
  std::thread c2(client, Lane::kNormal);
  std::thread c3(client, Lane::kBatch);
  c1.join();
  c2.join();
  c3.join();
  server.drain();
  done.store(true, std::memory_order_relaxed);
  watcher.join();

  const ServerStats stats = server.stats();
  for (const std::size_t depth : stats.lane_depth_now) EXPECT_EQ(depth, 0u);
}

}  // namespace
