// E8 — the temporal-journey substrate (framework of the paper's ref [1])
// under workload: foremost/shortest/fastest journey computation on
// edge-Markovian dynamic graphs, and the reachability premium that
// waiting buys (the store-carry-forward motivation of the introduction).
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_report.hpp"
#include "tvg/algorithms.hpp"
#include "tvg/generators.hpp"
#include "tvg/query_engine.hpp"

namespace {

using namespace tvg;

TimeVaryingGraph make_workload(std::size_t nodes, std::uint64_t seed,
                               double density = 0.0) {
  EdgeMarkovianParams params;
  params.nodes = nodes;
  // Keep the expected DEGREE constant as the graph grows (sparse MANET
  // regime); a fixed per-pair probability saturates reachability and
  // hides the waiting premium.
  if (density <= 0.0) density = 1.0 / static_cast<double>(nodes);
  params.initial_on = density;
  params.p_birth = density / 8;
  params.p_death = 0.6;
  params.horizon = 64;
  params.seed = seed;
  return make_edge_markovian(params);
}

void print_reproduction() {
  std::printf("=== E8: the reachability premium of waiting "
              "(edge-Markovian workloads) ===\n");
  std::printf("%-7s %-7s %-14s %-14s %-14s %-10s\n", "nodes", "seeds",
              "reach(nowait)", "reach(wait[4])", "reach(wait)", "premium");
  for (const std::size_t nodes : {16, 32, 64, 128}) {
    double nowait_total = 0;
    double bounded_total = 0;
    double wait_total = 0;
    const int seeds = 4;
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      const TimeVaryingGraph g = make_workload(nodes, seed);
      const QueryEngine engine(g, 1, CacheConfig::disabled());
      SearchLimits limits;
      limits.horizon = 120;
      auto frac = [&](Policy p) {
        const auto row =
            engine.run(JourneyQuery::foremost(0, 0).under(p).within(limits))
                .arrivals;
        return static_cast<double>(std::count_if(
                   row.begin(), row.end(),
                   [](Time t) { return t != kTimeInfinity; })) /
               static_cast<double>(nodes);
      };
      nowait_total += frac(Policy::no_wait());
      bounded_total += frac(Policy::bounded_wait(4));
      wait_total += frac(Policy::wait());
    }
    std::printf("%-7zu %-7d %-14.2f %-14.2f %-14.2f %.1fx\n", nodes, seeds,
                nowait_total / seeds, bounded_total / seeds,
                wait_total / seeds,
                nowait_total > 0 ? wait_total / nowait_total : 0.0);
  }
  std::printf("(fractions of nodes reachable from node 0 at t=0; waiting "
              "recovers connectivity that direct journeys lose)\n\n");
}

void BM_ForemostWait(benchmark::State& state) {
  const TimeVaryingGraph g =
      make_workload(static_cast<std::size_t>(state.range(0)), 1);
  SearchLimits limits;
  limits.horizon = 120;
  SearchWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        foremost_arrivals(g, 0, 0, Policy::wait(), limits, ws)
            .arrival.size());
  }
  state.counters["nodes"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_ForemostWait)->Arg(16)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

// The witness-free scan: same search on a reused workspace, but the
// arrival row stays in the workspace (the multi-source closure path).
// foremost_arrivals moves the config forest and arrival row out of the
// workspace, so each call regrows them: the delta against
// BM_ForemostWait is that allocation + result-extraction cost.
void BM_ForemostWaitWorkspace(benchmark::State& state) {
  const TimeVaryingGraph g =
      make_workload(static_cast<std::size_t>(state.range(0)), 1);
  SearchLimits limits;
  limits.horizon = 120;
  SearchWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        foremost_scan(g, 0, 0, Policy::wait(), limits, ws).arrival.size());
  }
  state.counters["nodes"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_ForemostWaitWorkspace)->Arg(64)->Arg(128);

void BM_ForemostNoWait(benchmark::State& state) {
  const TimeVaryingGraph g =
      make_workload(static_cast<std::size_t>(state.range(0)), 1);
  SearchLimits limits;
  limits.horizon = 120;
  SearchWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        foremost_arrivals(g, 0, 0, Policy::no_wait(), limits, ws)
            .arrival.size());
  }
}
BENCHMARK(BM_ForemostNoWait)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void BM_ForemostBoundedWait(benchmark::State& state) {
  const TimeVaryingGraph g = make_workload(64, 1);
  SearchLimits limits;
  limits.horizon = 120;
  const Time d = state.range(0);
  SearchWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        foremost_arrivals(g, 0, 0, Policy::bounded_wait(d), limits, ws)
            .arrival.size());
  }
  state.counters["d"] = static_cast<double>(d);
}
BENCHMARK(BM_ForemostBoundedWait)->Arg(0)->Arg(2)->Arg(8)->Arg(32);

void BM_ShortestJourney(benchmark::State& state) {
  const TimeVaryingGraph g =
      make_workload(static_cast<std::size_t>(state.range(0)), 2, 0.15);
  SearchLimits limits;
  limits.horizon = 120;
  const auto target = static_cast<NodeId>(state.range(0) - 1);
  // Cache off: every iteration must run the search, not a cache hit.
  const QueryEngine engine(g, 1, CacheConfig::disabled());
  const JourneyQuery q = JourneyQuery::shortest(0, target, 0).within(limits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(q));
  }
}
BENCHMARK(BM_ShortestJourney)->Arg(16)->Arg(64)->Arg(128);

void BM_FastestJourney(benchmark::State& state) {
  const TimeVaryingGraph g =
      make_workload(static_cast<std::size_t>(state.range(0)), 3, 0.15);
  SearchLimits limits;
  limits.horizon = 120;
  const auto target = static_cast<NodeId>(state.range(0) - 1);
  const QueryEngine engine(g, 1, CacheConfig::disabled());
  const JourneyQuery q =
      JourneyQuery::fastest(0, target, 0, 40).within(limits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(q));
  }
}
BENCHMARK(BM_FastestJourney)->Arg(16)->Arg(32);

void BM_TemporalCloseness(benchmark::State& state) {
  const TimeVaryingGraph g = make_workload(24, 4, 0.2);
  const QueryEngine engine(g, 1, CacheConfig::disabled());
  ClosureQuery q;
  q.limits.horizon = 120;
  q.threads = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.closure(q));
  }
}
BENCHMARK(BM_TemporalCloseness);

// Serial all-pairs closure on the 128-node bench graph: the baseline
// the engine's thread-sharded closure is measured against. The engine
// is built once, outside the timed loop.
void BM_ClosureSerial(benchmark::State& state) {
  const TimeVaryingGraph g =
      make_workload(static_cast<std::size_t>(state.range(0)), 1, 0.15);
  const QueryEngine engine(g, 1, CacheConfig::disabled());
  ClosureQuery q;
  q.limits.horizon = 120;
  q.threads = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.closure(q).rows.size());
  }
  state.counters["nodes"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_ClosureSerial)->Arg(128);

// QueryEngine::closure on the same graph, sharding the 128 source rows
// across N workers (one pooled workspace per worker; rows merged
// deterministically). The speedup over BM_ClosureSerial/128 tracks the
// machine's core count — on a single-core host it stays ~1x.
void BM_ClosureEngine(benchmark::State& state) {
  const TimeVaryingGraph g = make_workload(128, 1, 0.15);
  // Cache off: the closure key excludes the threads knob, so the default
  // cache would serve every iteration (and every Arg) from the first
  // run's rows — this bench must keep measuring the sharded closure.
  QueryEngine engine(g, 0, CacheConfig::disabled());
  ClosureQuery q;
  q.limits.horizon = 120;
  q.threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.closure(q).rows.size());
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_ClosureEngine)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

}  // namespace

int main(int argc, char** argv) {
  // Timing loops run first: the reproduction table's allocator churn
  // would otherwise distort the per-iteration numbers (see
  // bench_report.hpp).
  const int rc = tvg::benchsupport::run_benchmarks_with_json(argc, argv);
  if (rc != 0) return rc;
  print_reproduction();
  return 0;
}
