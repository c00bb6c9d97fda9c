// Engine-level result cache under a skewed repeated-query workload: the
// serving regime the ROADMAP's (query → result) cache targets. A pool of
// K distinct journey queries is replayed in Zipf(1.0) order (rank r is
// drawn with probability ∝ 1/r — a few hot queries dominate, a long tail
// stays cold), through one QueryEngine with its cache on or off.
//
// The cache knob is env-driven so the SAME benchmark names can be merged
// into a before/after BENCH_query_cache.json by merge_bench_json.py:
//
//   TVG_BENCH_CACHE=0 TVG_BENCH_JSON=/tmp/uncached.json ./bench_query_cache
//   TVG_BENCH_CACHE=1 TVG_BENCH_JSON=/tmp/cached.json   ./bench_query_cache
//   scripts/merge_bench_json.py /tmp/uncached.json /tmp/cached.json
//       BENCH_query_cache.json --bench bench_query_cache
//       --note "before = cache-disabled engine, after = default CacheConfig"
//   (one shell line; wrapped here for the comment width)
//
// The reproduction table after the timing loops cross-checks the same
// ratio in-process (both engines, one binary) and prints the hit/miss/
// eviction counters, so a single run shows the speedup too.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <vector>

#include "bench_report.hpp"
#include "tvg/query_engine.hpp"
#include "workload.hpp"

namespace {

using namespace tvg;
using benchsupport::WorkloadSpec;
using benchsupport::make_query_pool;
using benchsupport::make_workload_graph;
using benchsupport::zipf_order;

constexpr std::size_t kStreamLength = 2048;

bool cache_enabled_from_env() {
  const char* v = std::getenv("TVG_BENCH_CACHE");
  return v == nullptr || std::string_view(v) != "0";
}

// The graph / query-pool / Zipf-stream generators live in workload.hpp
// now, shared with bench_serving so the serving front end measures the
// same traffic this bench feeds the kernels. The default WorkloadSpec
// reproduces this bench's historical workload exactly.
WorkloadSpec spec_for(std::size_t distinct, std::uint64_t stream_seed) {
  WorkloadSpec spec;
  spec.distinct = distinct;
  spec.stream_length = kStreamLength;
  spec.stream_seed = stream_seed;
  return spec;
}

/// One pass over the Zipf stream, single queries. The env knob picks the
/// engine (cache on/off) so the same name benches both configurations.
void BM_ZipfQueryMix(benchmark::State& state) {
  const auto distinct = static_cast<std::size_t>(state.range(0));
  const bool cache_on = cache_enabled_from_env();
  const WorkloadSpec spec = spec_for(distinct, 42);
  const TimeVaryingGraph g = make_workload_graph(spec);
  const QueryEngine engine(
      g, 1, cache_on ? CacheConfig{} : CacheConfig::disabled());
  const auto pool = make_query_pool(spec, g);
  const auto order = zipf_order(spec);
  for (const std::size_t i : order) {  // steady-state: warm the cache
    benchmark::DoNotOptimize(engine.run(pool[i]).arrival);
  }
  for (auto _ : state) {
    for (const std::size_t i : order) {
      benchmark::DoNotOptimize(engine.run(pool[i]).arrival);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(order.size()));
  const CacheStats stats = engine.cache_stats();
  state.counters["distinct"] = static_cast<double>(distinct);
  state.counters["cache"] = cache_on ? 1 : 0;
  state.counters["hit_rate"] =
      stats.hits + stats.misses == 0
          ? 0.0
          : static_cast<double>(stats.hits) /
                static_cast<double>(stats.hits + stats.misses);
}
BENCHMARK(BM_ZipfQueryMix)->Arg(64)->Arg(256);

/// Same stream, issued as batches of 256 through run(span) on one
/// thread: the cached batch path serves hits up front and shards only
/// the misses.
void BM_ZipfBatchMix(benchmark::State& state) {
  const auto distinct = static_cast<std::size_t>(state.range(0));
  const bool cache_on = cache_enabled_from_env();
  const WorkloadSpec spec = spec_for(distinct, 43);
  const TimeVaryingGraph g = make_workload_graph(spec);
  const QueryEngine engine(
      g, 1, cache_on ? CacheConfig{} : CacheConfig::disabled());
  const auto pool = make_query_pool(spec, g);
  const auto order = zipf_order(spec);
  std::vector<JourneyQuery> batch;
  batch.reserve(256);
  for (auto _ : state) {
    for (std::size_t at = 0; at < order.size(); at += 256) {
      batch.clear();
      for (std::size_t i = at; i < std::min(at + 256, order.size()); ++i) {
        batch.push_back(pool[order[i]]);
      }
      benchmark::DoNotOptimize(engine.run(batch, /*threads=*/1).size());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(order.size()));
  state.counters["distinct"] = static_cast<double>(distinct);
  state.counters["cache"] = cache_on ? 1 : 0;
}
BENCHMARK(BM_ZipfBatchMix)->Arg(64)->Arg(256);

void print_reproduction() {
  std::printf("=== Result cache on a Zipf(1.0) journey-query mix "
              "(64-node edge-Markovian graph, stream of %zu) ===\n",
              kStreamLength);
  std::printf("%-9s %-12s %-12s %-9s %-9s %-7s %-7s %-6s\n", "distinct",
              "uncached/s", "cached/s", "speedup", "hit_rate", "hits",
              "misses", "evict");
  const TimeVaryingGraph g = make_workload_graph(WorkloadSpec{});
  for (const std::size_t distinct : {64u, 256u, 1024u}) {
    const WorkloadSpec spec = spec_for(distinct, 42);
    const auto pool = make_query_pool(spec, g);
    const auto order = zipf_order(spec);
    const QueryEngine uncached(g, 1, CacheConfig::disabled());
    const QueryEngine cached(g, 1, CacheConfig{});
    auto time_stream = [&](const QueryEngine& engine, int passes) {
      const auto start = std::chrono::steady_clock::now();
      for (int p = 0; p < passes; ++p) {
        for (const std::size_t i : order) {
          benchmark::DoNotOptimize(engine.run(pool[i]).arrival);
        }
      }
      const auto elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
      return static_cast<double>(passes * order.size()) / elapsed;
    };
    const double uncached_rate = time_stream(uncached, 2);
    (void)time_stream(cached, 1);  // warm
    const double cached_rate = time_stream(cached, 4);
    const CacheStats stats = cached.cache_stats();
    const double hit_rate =
        static_cast<double>(stats.hits) /
        static_cast<double>(stats.hits + stats.misses);
    std::printf("%-9zu %-12.0f %-12.0f %-9.1f %-9.2f %-7llu %-7llu %-6llu\n",
                distinct, uncached_rate, cached_rate,
                cached_rate / uncached_rate, hit_rate,
                static_cast<unsigned long long>(stats.hits),
                static_cast<unsigned long long>(stats.misses),
                static_cast<unsigned long long>(stats.evictions));
  }
  std::printf("(queries/sec; default CacheConfig: 1024 entries, 8 shards. "
              "The hit rate is the Zipf head: misses are the cold tail of "
              "the pool that the %zu-draw stream actually reaches.)\n",
              kStreamLength);
}

}  // namespace

int main(int argc, char** argv) {
  // Timing loops first, tables after (see bench_report.hpp).
  const int rc = tvg::benchsupport::run_benchmarks_with_json(argc, argv);
  if (rc != 0) return rc;
  print_reproduction();
  return 0;
}
