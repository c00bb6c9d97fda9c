// Live-update serving mix: interleaved mutations and journey queries
// over the same seeded stream, comparing the LSM-style delta overlay
// (writes applied to one tvg::QueryEngine) against the
// rebuild-per-update baseline: a fresh engine over the patched graph.
// BM_ApplyVsPending is the overlay layer's own row: the latency of one
// write as a function of the pending log.
//
// BM_InterleavedUpdateQueryMix/<per_mille> runs a 2048-op stream where
// <per_mille> out of every 1000 ops are presence patches on seeded
// random edges (1 = 0.1%, 10 = 1%, 100 = 10% update rates) and the
// rest are Zipf-drawn targeted foremost queries from a 256-query pool.
//
// The graph is a serving-scale random periodic instance (8192 nodes,
// 60k edges, period 64, density 0.03) queried under a tight horizon
// (SearchLimits::up_to(8)). That shape is deliberate: index rebuild
// cost is proportional to the edge set, while a bounded query touches
// only the temporal neighbourhood it can reach, so the benchmark
// isolates exactly the cost the overlay is designed to remove. Denser
// schedules or unbounded horizons make every query flood the graph and
// the comparison degenerates to raw search speed.
//
// The TVG_BENCH_MUTABLE environment variable selects the serving
// strategy so both halves report under the same benchmark names:
//
//   TVG_BENCH_MUTABLE=0  rebuild baseline: apply the patch to the
//                        graph, then construct a fresh QueryEngine
//                        (full index rebuild + cold cache) before the
//                        stream continues.
//   unset / any other    delta overlay: QueryEngine::patch_presence
//                        extends the overlay snapshot by the one
//                        record, stamps the edge's endpoint partitions
//                        in the result cache (a lookup then drops only
//                        entries whose Bloom footprint the edge
//                        touches), and compaction folds the log in the
//                        background once it crosses the threshold.
//
// BM_ApplyVsPending/<pending> times single QueryEngine::apply calls of a
// seeded presence patch (the full-stack serve_mixed write: a periodic
// pattern of period 64 and per-residue density 0.03) on the same graph,
// with <pending> records already in the log and the default cache
// warmed with 1024 journeys of a 4096-query pool, on a 4-thread engine.
// It takes 1024 samples in windows of 16; every window starts from a
// compaction, <pending> patches logged in one batch and a re-warm, so
// every sample is taken at a pending count in [pending, pending + 16).
// It reports the apply p50/p99 in microseconds (the row's time is the
// whole sampling run); TVG_BENCH_MUTABLE does not change it. An apply
// costs O(batch), so its p50 should not grow with <pending>.
//
// Regenerating the committed baseline:
//
//   TVG_BENCH_MUTABLE=0 TVG_BENCH_JSON=/tmp/rebuild.json ./build/bench_updates
//   TVG_BENCH_MUTABLE=1 TVG_BENCH_JSON=/tmp/overlay.json ./build/bench_updates
//   python3 scripts/merge_bench_json.py /tmp/rebuild.json /tmp/overlay.json
//       BENCH_updates.json --bench BM_InterleavedUpdateQueryMix
//       --note "rebuild-per-update vs QueryEngine delta overlay"
//   (the merge command is one line)
//
// The merged "speedup" map reads overlay-vs-rebuild (>1 = overlay
// faster); the acceptance bar is >=10x at the 1% mix (Arg 10).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <random>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_report.hpp"
#include "tvg/delta_overlay.hpp"
#include "tvg/generators.hpp"
#include "tvg/query_engine.hpp"
#include "workload.hpp"

namespace {

using tvg::CacheConfig;
using tvg::EdgeId;
using tvg::EdgeMutation;
using tvg::IntervalSet;
using tvg::JourneyQuery;
using tvg::NodeId;
using tvg::Policy;
using tvg::Presence;
using tvg::QueryEngine;
using tvg::SearchLimits;
using tvg::Time;
using tvg::TimeVaryingGraph;

// Serving-scale sparse periodic instance (see the header comment for
// why these numbers and not the 64-node bench_query_cache workload).
constexpr std::size_t kNodes = 8192;
constexpr std::size_t kEdges = 60000;
constexpr tvg::Time kPeriod = 64;
constexpr double kDensity = 0.03;

constexpr std::size_t kDistinctQueries = 256;
constexpr std::size_t kStreamLength = 2048;
constexpr double kZipfS = 1.0;
constexpr std::uint64_t kPoolSeed = 7;
constexpr std::uint64_t kStreamSeed = 42;

// Pending-log length at which the overlay engine kicks off a background
// compaction; keeps overlay reads O(small) at the 10% mix without ever
// blocking the serving thread.
constexpr std::size_t kCompactThreshold = 128;

bool mutable_engine_from_env() {
  const char* value = std::getenv("TVG_BENCH_MUTABLE");
  return value == nullptr || std::string_view(value) != "0";
}

TimeVaryingGraph make_serving_graph() {
  tvg::RandomPeriodicParams params;
  params.nodes = kNodes;
  params.edges = kEdges;
  params.period = kPeriod;
  params.density = kDensity;
  params.max_latency = 2;
  params.seed = 1;
  return tvg::make_random_periodic(params);
}

// Targeted foremost queries under a tight horizon, policies mixed. A
// longer pool extends a shorter one (same seed, same draws).
std::vector<JourneyQuery> make_serving_pool(std::size_t count) {
  std::mt19937_64 rng(kPoolSeed);
  std::vector<JourneyQuery> pool;
  pool.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto source = static_cast<NodeId>(rng() % kNodes);
    const auto target = static_cast<NodeId>(rng() % kNodes);
    JourneyQuery q = JourneyQuery::foremost(source, Time(rng() % 4))
                         .to(target)
                         .within(SearchLimits::up_to(8));
    switch (i % 3) {
      case 0: q = q.under(Policy::wait()); break;
      case 1: q = q.under(Policy::no_wait()); break;
      default: q = q.under(Policy::bounded_wait(3)); break;
    }
    pool.push_back(std::move(q));
  }
  return pool;
}

// A seeded periodic presence distinct from the generator family so a
// patch always changes the edge's schedule.
Presence patched_presence(std::mt19937_64& rng) {
  const Time period = 6 + static_cast<Time>(rng() % 4);
  IntervalSet pattern;
  pattern.insert_point(static_cast<Time>(rng() % period));
  if (rng() % 2 == 0) {
    pattern.insert_point(static_cast<Time>(rng() % period));
  }
  return Presence::periodic(period, std::move(pattern));
}

struct Op {
  bool is_update{false};
  std::size_t query{0};    // index into the query pool
  EdgeId edge{0};          // patch target when is_update
  Presence presence{Presence::always()};
};

// Interleaves the Zipf query stream with seeded presence patches at the
// requested per-mille rate. Deterministic per per_mille.
std::vector<Op> make_ops(const TimeVaryingGraph& g, std::size_t per_mille) {
  const std::vector<std::size_t> order = tvg::benchsupport::zipf_order(
      kDistinctQueries, kStreamLength, kZipfS, kStreamSeed);
  std::mt19937_64 rng(kStreamSeed * 1315423911u + per_mille);
  std::vector<Op> ops;
  ops.reserve(order.size());
  for (std::size_t idx : order) {
    Op op;
    if (rng() % 1000 < per_mille) {
      op.is_update = true;
      op.edge = static_cast<EdgeId>(rng() % g.edge_count());
      op.presence = patched_presence(rng);
    } else {
      op.query = idx;
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

void BM_InterleavedUpdateQueryMix(benchmark::State& state) {
  const auto per_mille = static_cast<std::size_t>(state.range(0));
  const bool use_overlay = mutable_engine_from_env();

  const TimeVaryingGraph g = make_serving_graph();
  const std::vector<JourneyQuery> pool = make_serving_pool(kDistinctQueries);
  const std::vector<Op> ops = make_ops(g, per_mille);

  std::size_t update_count = 0;
  for (const Op& op : ops) update_count += op.is_update ? 1u : 0u;

  double hit_rate = 0.0;
  if (use_overlay) {
    QueryEngine engine(g, /*default_threads=*/1, CacheConfig{});
    for (auto _ : state) {
      for (const Op& op : ops) {
        if (op.is_update) {
          engine.patch_presence(op.edge, op.presence);
          if (engine.pending_mutations() >= kCompactThreshold) {
            engine.compact_async();
          }
        } else {
          benchmark::DoNotOptimize(engine.run(pool[op.query]).arrival);
        }
      }
    }
    engine.wait_for_compaction();
    const tvg::CacheStats stats = engine.cache_stats();
    const double lookups = static_cast<double>(stats.hits + stats.misses);
    if (lookups > 0) hit_rate = static_cast<double>(stats.hits) / lookups;
  } else {
    // Rebuild baseline: every patch invalidates the frozen index, so
    // serving the next query requires a freshly constructed engine
    // (index rebuild, empty result cache).
    TimeVaryingGraph live = g;
    auto engine = std::make_unique<QueryEngine>(live, /*default_threads=*/1,
                                                CacheConfig{});
    for (auto _ : state) {
      for (const Op& op : ops) {
        if (op.is_update) {
          live.set_edge_presence(op.edge, op.presence);
          engine = std::make_unique<QueryEngine>(live, 1, CacheConfig{});
        } else {
          benchmark::DoNotOptimize(engine->run(pool[op.query]).arrival);
        }
      }
    }
  }

  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * ops.size()));
  state.counters["update_per_mille"] =
      benchmark::Counter(static_cast<double>(per_mille));
  state.counters["updates"] =
      benchmark::Counter(static_cast<double>(update_count));
  state.counters["mutable"] =
      benchmark::Counter(use_overlay ? 1.0 : 0.0);
  state.counters["hit_rate"] = benchmark::Counter(hit_rate);
}

BENCHMARK(BM_InterleavedUpdateQueryMix)
    ->Arg(1)    // 0.1% updates
    ->Arg(10)   // 1% updates (acceptance mix)
    ->Arg(100)  // 10% updates
    ->Unit(benchmark::kMillisecond);

// A presence patch on a random edge, redrawn from the serving graph's
// own family (period 64, per-residue density 0.03).
EdgeMutation family_patch(std::mt19937_64& rng, std::size_t edges) {
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  IntervalSet pattern;
  for (Time r = 0; r < kPeriod; ++r) {
    if (coin(rng) < kDensity) pattern.insert_point(r);
  }
  if (pattern.empty()) pattern.insert_point(static_cast<Time>(rng() % kPeriod));
  return EdgeMutation::patch_presence(
      static_cast<EdgeId>(rng() % edges),
      Presence::periodic(kPeriod, std::move(pattern)));
}

constexpr unsigned kApplyThreads = 4;
constexpr std::size_t kApplyPool = 4096;
constexpr std::size_t kApplyWarm = 1024;
constexpr std::size_t kApplyWindow = 16;
constexpr std::size_t kApplySamples = 1024;

void BM_ApplyVsPending(benchmark::State& state) {
  const auto pending = static_cast<std::size_t>(state.range(0));
  static const TimeVaryingGraph g = make_serving_graph();
  static const std::vector<JourneyQuery> warm = [] {
    std::vector<JourneyQuery> pool = make_serving_pool(kApplyPool);
    pool.resize(kApplyWarm);
    return pool;
  }();
  QueryEngine engine(g, kApplyThreads, CacheConfig{});
  std::mt19937_64 rng(kStreamSeed + pending);
  std::vector<double> us;

  // One iteration is a whole sampling run: kApplySamples timed applies
  // in windows of kApplyWindow, each window starting from `pending`
  // logged patches and a warm cache (compact, replay, re-run the warm
  // journeys). The row's time is the run's wall time, resets included;
  // the apply latency is in the p50_us / p99_us counters.
  for (auto _ : state) {
    for (std::size_t done = 0; done < kApplySamples; done += kApplyWindow) {
      engine.compact();
      std::vector<EdgeMutation> log;
      for (std::size_t i = 0; i < pending; ++i) {
        log.push_back(family_patch(rng, g.edge_count()));
      }
      engine.apply(log);
      benchmark::DoNotOptimize(engine.run(warm, kApplyThreads).size());
      for (std::size_t i = 0; i < kApplyWindow; ++i) {
        const EdgeMutation m = family_patch(rng, g.edge_count());
        const auto t0 = std::chrono::steady_clock::now();
        engine.apply(m);
        const std::chrono::duration<double, std::micro> took =
            std::chrono::steady_clock::now() - t0;
        us.push_back(took.count());
      }
    }
  }

  std::sort(us.begin(), us.end());
  state.counters["pending"] = benchmark::Counter(static_cast<double>(pending));
  state.counters["threads"] = benchmark::Counter(kApplyThreads);
  state.counters["p50_us"] =
      benchmark::Counter(tvg::benchsupport::percentile(us, 0.50));
  state.counters["p99_us"] =
      benchmark::Counter(tvg::benchsupport::percentile(us, 0.99));
  state.counters["cached"] =
      benchmark::Counter(static_cast<double>(engine.cache_stats().entries));
}

BENCHMARK(BM_ApplyVsPending)
    ->Arg(0)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return tvg::benchsupport::run_benchmarks_with_json(argc, argv);
}
