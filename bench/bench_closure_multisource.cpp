// Bit-parallel multi-source closure vs the serial row-per-source sweep:
// the kernel behind QueryEngine::closure() after the lane-packing PR.
//
// The mode knob is env-driven so the SAME benchmark names can be merged
// into a before/after BENCH_closure.json by merge_bench_json.py:
//
//   TVG_BENCH_MULTISOURCE=0 TVG_BENCH_JSON=/tmp/serial.json
//       ./bench_closure_multisource
//   TVG_BENCH_MULTISOURCE=1 TVG_BENCH_JSON=/tmp/packed.json
//       ./bench_closure_multisource
//   scripts/merge_bench_json.py /tmp/serial.json /tmp/packed.json
//       BENCH_closure.json --bench bench_closure_multisource
//       --note "before = serial row-per-source, after = bit-parallel"
//   (each invocation is one shell line; wrapped for the comment width)
//
// BM_ClosureUnboundedWait ignores the knob: it is the L1 row of the
// packed kernel on closure_live's unbounded-horizon Wait shape, at 4
// and 1 closure threads.
//
// The other rows run single-threaded (q.threads = 1): the packing speedup is
// per-core — word-level frontier OR instead of thread scaling — which is
// exactly what a single-core container can measure. The reproduction
// table after the timing loops cross-checks both modes in one process
// and verifies the rows are bit-identical.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <vector>

#include "bench_report.hpp"
#include "tvg/algorithms.hpp"
#include "tvg/generators.hpp"
#include "tvg/query_engine.hpp"

namespace {

using namespace tvg;

bool multisource_enabled_from_env() {
  const char* v = std::getenv("TVG_BENCH_MULTISOURCE");
  return v == nullptr || std::string_view(v) != "0";
}

TimeVaryingGraph make_workload(std::size_t nodes, std::uint64_t seed) {
  EdgeMarkovianParams params;
  params.nodes = nodes;
  // Sparse MANET regime (see bench_journeys): constant expected degree.
  params.initial_on = 1.0 / static_cast<double>(nodes);
  params.p_birth = 1.0 / (8.0 * static_cast<double>(nodes));
  params.p_death = 0.6;
  params.horizon = 64;
  params.seed = seed;
  return make_edge_markovian(params);
}

/// `count` sources cycling over the node set (count > nodes repeats
/// sources, which the kernel and the closure API both allow).
std::vector<NodeId> make_sources(const TimeVaryingGraph& g,
                                 std::size_t count) {
  std::vector<NodeId> sources(count);
  for (std::size_t i = 0; i < count; ++i) {
    sources[i] = static_cast<NodeId>(i % g.node_count());
  }
  return sources;
}

/// The pre-kernel closure loop: one foremost_scan row per source on a
/// reused workspace — exactly what QueryEngine::closure() sharded
/// before lane packing.
std::vector<std::vector<Time>> serial_rows(const TimeVaryingGraph& g,
                                           std::span<const NodeId> sources,
                                           SearchLimits limits,
                                           SearchWorkspace& ws) {
  std::vector<std::vector<Time>> rows(sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const ForemostScan scan =
        foremost_scan(g, sources[i], 0, Policy::wait(), limits, ws);
    rows[i].assign(scan.arrival.begin(), scan.arrival.end());
  }
  return rows;
}

/// Serial row-per-source vs bit-parallel closure at N sources, same
/// benchmark name in both modes (the env knob picks the kernel).
void BM_ClosureMultiSource(benchmark::State& state) {
  const bool packed = multisource_enabled_from_env();
  const TimeVaryingGraph g = make_workload(256, 1);
  const SearchLimits limits = SearchLimits::up_to(120);
  const auto sources =
      make_sources(g, static_cast<std::size_t>(state.range(0)));
  // Cache off: every iteration must run the kernel, not a cache hit.
  const QueryEngine engine(g, 1, CacheConfig::disabled());
  ClosureQuery q;
  q.sources = sources;
  q.limits = limits;
  q.threads = 1;
  SearchWorkspace ws;
  for (auto _ : state) {
    if (packed) {
      benchmark::DoNotOptimize(engine.closure(q).rows.size());
    } else {
      benchmark::DoNotOptimize(serial_rows(g, sources, limits, ws).size());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
  state.counters["sources"] = static_cast<double>(state.range(0));
  state.counters["packed"] = packed ? 1 : 0;
}
BENCHMARK(BM_ClosureMultiSource)->Arg(64)->Arg(256)->Arg(1024);

/// The NoWait / BoundedWait packed configuration modes at 256 sources:
/// lane masks accumulate per (node, time) state instead of per node.
/// Denser than the Wait workload — direct journeys need temporally
/// adjacent presences to chain at all, and an all-unreachable sweep
/// would just benchmark row initialization.
void BM_ClosureMultiSourceNoWait(benchmark::State& state) {
  const bool packed = multisource_enabled_from_env();
  EdgeMarkovianParams params;
  params.nodes = 256;
  params.initial_on = 4.0 / 256;
  params.p_birth = 0.006;
  params.p_death = 0.5;
  params.horizon = 64;
  params.seed = 2;
  const TimeVaryingGraph g = make_edge_markovian(params);
  const SearchLimits limits = SearchLimits::up_to(120);
  const auto sources = make_sources(g, 256);
  const QueryEngine engine(g, 1, CacheConfig::disabled());
  ClosureQuery q;
  q.sources = sources;
  q.policy = state.range(0) == 0 ? Policy::no_wait() : Policy::bounded_wait(4);
  q.limits = limits;
  q.threads = 1;
  SearchWorkspace ws;
  std::vector<std::vector<Time>> rows(sources.size());
  std::vector<char> trunc(sources.size(), 0);
  for (auto _ : state) {
    if (packed) {
      benchmark::DoNotOptimize(engine.closure(q).rows.size());
    } else {
      for (std::size_t i = 0; i < sources.size(); ++i) {
        const ForemostScan scan =
            foremost_scan(g, sources[i], 0, q.policy, limits, ws);
        rows[i].assign(scan.arrival.begin(), scan.arrival.end());
      }
      benchmark::DoNotOptimize(rows.size());
    }
  }
  state.counters["bounded"] = static_cast<double>(state.range(0));
  state.counters["packed"] = packed ? 1 : 0;
}
BENCHMARK(BM_ClosureMultiSourceNoWait)->Arg(0)->Arg(1);

/// closure_live's Wait shape (fullstack_bench): Zipf out-degrees with
/// average degree 8, period 8, density 0.5, 512 sources spread over the
/// Zipf ranks, no horizon — the default SearchLimits that
/// temporal_diameter and the analytics run with — on a cache-disabled
/// 4-thread engine. Args: {nodes, closure threads}.
void BM_ClosureUnboundedWait(benchmark::State& state) {
  ZipfPeriodicParams params;
  params.nodes = static_cast<std::size_t>(state.range(0));
  params.avg_degree = 8.0;
  params.period = 8;
  params.density = 0.5;
  params.seed = 1;
  const TimeVaryingGraph g = make_zipf_periodic(params);
  const QueryEngine engine(g, 4, CacheConfig::disabled());
  ClosureQuery q;
  constexpr std::size_t kSources = 512;
  for (std::size_t i = 0; i < kSources; ++i) {
    q.sources.push_back(static_cast<NodeId>(i * g.node_count() / kSources));
  }
  q.threads = static_cast<unsigned>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.closure(q).rows.size());
  }
  state.counters["threads"] = static_cast<double>(state.range(1));
}
BENCHMARK(BM_ClosureUnboundedWait)
    ->Args({2000, 4})
    ->Args({20000, 4})
    ->Args({20000, 1})
    ->Unit(benchmark::kMillisecond);

void print_reproduction() {
  std::printf("=== Bit-parallel multi-source closure vs serial "
              "row-per-source (256-node edge-Markovian, wait policy) ===\n");
  std::printf("%-9s %-14s %-14s %-9s %-10s\n", "sources", "serial/s",
              "packed/s", "speedup", "rows");
  const TimeVaryingGraph g = make_workload(256, 1);
  const SearchLimits limits = SearchLimits::up_to(120);
  const QueryEngine engine(g, 1, CacheConfig::disabled());
  for (const std::size_t count : {64u, 256u, 1024u}) {
    const auto sources = make_sources(g, count);
    ClosureQuery q;
    q.sources = sources;
    q.limits = limits;
    q.threads = 1;
    SearchWorkspace ws;
    const auto time_it = [&](auto&& fn, int reps) {
      const auto t0 = std::chrono::steady_clock::now();
      for (int r = 0; r < reps; ++r) fn();
      const double s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
      return static_cast<double>(reps) * static_cast<double>(count) / s;
    };
    std::vector<std::vector<Time>> serial;
    const double serial_rate =
        time_it([&] { serial = serial_rows(g, sources, limits, ws); }, 3);
    ClosureResult packed;
    const double packed_rate =
        time_it([&] { packed = engine.closure(q); }, 3);
    const bool identical = packed.rows == serial;
    std::printf("%-9zu %-14.0f %-14.0f %-9.1f %s\n", count, serial_rate,
                packed_rate, packed_rate / serial_rate,
                identical ? "bit-identical" : "MISMATCH");
  }
  std::printf("(source rows/sec, single thread; the packed kernel runs 64 "
              "source lanes per machine word)\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  // Timing loops first, tables after (see bench_report.hpp).
  const int rc = tvg::benchsupport::run_benchmarks_with_json(argc, argv);
  if (rc != 0) return rc;
  print_reproduction();
  return 0;
}
