// Direction-optimized (push/pull) packed closure + the QueryEngine
// analytics suite at 10^5-node scale: the workloads behind
// BENCH_analytics.json.
//
// The frontier-mode knob is env-driven so the SAME benchmark names can
// be merged into a before/after BENCH_analytics.json by
// merge_bench_json.py:
//
//   TVG_BENCH_DIRECTION=push TVG_BENCH_JSON=/tmp/push.json
//       ./bench_analytics
//   TVG_BENCH_DIRECTION=auto TVG_BENCH_JSON=/tmp/auto.json
//       ./bench_analytics
//   scripts/merge_bench_json.py /tmp/push.json /tmp/auto.json
//       BENCH_analytics.json --bench bench_analytics
//       --note "before = push-only packed scan, after =
//       direction-optimized (auto push->pull)"
//   (each invocation is one shell line; wrapped for the comment width)
//
// BM_AnalyticsClosureSerialRef ignores the knob (always the per-source
// serial sweep), so the merged JSON carries an absolute reference next
// to the push-vs-pull ratio, and the reproduction table cross-checks all
// three kernels bit for bit in one process. Everything runs q.threads=1:
// like bench_closure_multisource, the win measured here is per-core.
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

// Each row is one ~1 s iteration whose time also depends on what ran
// before it in the process, so a single run cannot resolve a 10-20%
// change. Every row reports the mean / median / stddev / cv of this many
// runs instead.
constexpr int kRepetitions = 3;

FrontierMode direction_from_env() {
  const char* v = std::getenv("TVG_BENCH_DIRECTION");
  if (v == nullptr) return FrontierMode::kAuto;
  const std::string_view s(v);
  if (s == "push") return FrontierMode::kPushOnly;
  if (s == "pull") return FrontierMode::kPullOnly;
  return FrontierMode::kAuto;
}

constexpr std::size_t kNodes = 100000;  // the >= 10^5 scale requirement
constexpr Time kHorizon = 24;

/// Dense regime: ~90% of residues present, mean degree 10 — the lane
/// frontier saturates within a few instants, which is where the pull
/// gather pays (one presence test + OR per in-edge instead of packet
/// scatter into the calendar).
const TimeVaryingGraph& dense_graph() {
  static const TimeVaryingGraph g = [] {
    ZipfPeriodicParams params;
    params.nodes = kNodes;
    params.avg_degree = 10.0;
    params.zipf_exponent = 0.8;
    params.period = 8;
    params.density = 0.9;
    params.seed = 1;
    return make_zipf_periodic(params);
  }();
  return g;
}

/// Sparse regime: thin degrees and rare presences keep the frontier far
/// below the auto-switch density — kAuto must track push-only here (the
/// no-regression side of the heuristic).
const TimeVaryingGraph& sparse_graph() {
  static const TimeVaryingGraph g = [] {
    ZipfPeriodicParams params;
    params.nodes = kNodes;
    params.avg_degree = 3.0;
    params.zipf_exponent = 1.2;
    params.period = 8;
    params.density = 0.12;
    params.seed = 2;
    return make_zipf_periodic(params);
  }();
  return g;
}

const QueryEngine& engine_for(const TimeVaryingGraph& g) {
  static const QueryEngine dense(dense_graph(), 1, CacheConfig::disabled());
  static const QueryEngine sparse(sparse_graph(), 1, CacheConfig::disabled());
  return &g == &dense_graph() ? dense : sparse;
}

/// Budget above edges + 1: provably unexhaustible for Wait-mode serial
/// searches (see packed_word), so the packed and pull paths stay live at
/// this scale instead of tripping the packet counter into the serial
/// fallback.
SearchLimits scale_limits(const TimeVaryingGraph& g) {
  SearchLimits limits = SearchLimits::up_to(kHorizon);
  limits.max_configs = 4 * g.edge_count() + 16;
  return limits;
}

std::vector<NodeId> make_sources(const TimeVaryingGraph& g,
                                 std::size_t count) {
  std::vector<NodeId> sources(count);
  for (std::size_t i = 0; i < count; ++i) {
    sources[i] = static_cast<NodeId>((i * 1543 + 7) % g.node_count());
  }
  return sources;
}

ClosureQuery closure_query(const TimeVaryingGraph& g, std::size_t sources,
                           FrontierMode mode) {
  ClosureQuery q;
  q.sources = make_sources(g, sources);
  q.limits = scale_limits(g);
  q.threads = 1;
  q.direction.mode = mode;
  return q;
}

/// One 64-lane word over the dense 10^5-node graph — the acceptance
/// measurement: direction-optimized vs push-only closure throughput.
void BM_AnalyticsClosureDense(benchmark::State& state) {
  const TimeVaryingGraph& g = dense_graph();
  const ClosureQuery q = closure_query(
      g, static_cast<std::size_t>(state.range(0)), direction_from_env());
  const QueryEngine& engine = engine_for(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.closure(q).rows.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
  state.counters["nodes"] = static_cast<double>(g.node_count());
  state.counters["edges"] = static_cast<double>(g.edge_count());
  state.counters["mode"] = static_cast<double>(direction_from_env());
}
BENCHMARK(BM_AnalyticsClosureDense)->Arg(64)->Unit(benchmark::kMillisecond)
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly(true);

void BM_AnalyticsClosureSparse(benchmark::State& state) {
  const TimeVaryingGraph& g = sparse_graph();
  const ClosureQuery q = closure_query(
      g, static_cast<std::size_t>(state.range(0)), direction_from_env());
  const QueryEngine& engine = engine_for(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.closure(q).rows.size());
  }
  state.counters["mode"] = static_cast<double>(direction_from_env());
}
BENCHMARK(BM_AnalyticsClosureSparse)->Arg(64)->Unit(benchmark::kMillisecond)
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly(true);

/// The pre-lane-packing reference: one foremost_scan row per source on a
/// reused workspace. Ignores the env knob so both merged runs carry the
/// same absolute baseline.
void BM_AnalyticsClosureSerialRef(benchmark::State& state) {
  const TimeVaryingGraph& g = dense_graph();
  const SearchLimits limits = scale_limits(g);
  const auto sources = make_sources(g, 64);
  SearchWorkspace ws;
  std::vector<std::vector<Time>> rows(sources.size());
  for (auto _ : state) {
    for (std::size_t i = 0; i < sources.size(); ++i) {
      const ForemostScan scan =
          foremost_scan(g, sources[i], 0, Policy::wait(), limits, ws);
      rows[i].assign(scan.arrival.begin(), scan.arrival.end());
    }
    benchmark::DoNotOptimize(rows.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_AnalyticsClosureSerialRef)->Unit(benchmark::kMillisecond)
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly(true);

void BM_KReachability(benchmark::State& state) {
  const TimeVaryingGraph& g = dense_graph();
  KReachabilityQuery q;
  q.closure = closure_query(g, 64, direction_from_env());
  q.k = 8;
  const QueryEngine& engine = engine_for(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.k_reachability(q).nodes.size());
  }
}
BENCHMARK(BM_KReachability)->Unit(benchmark::kMillisecond)
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly(true);

void BM_InfluenceSpread(benchmark::State& state) {
  const TimeVaryingGraph& g = dense_graph();
  InfluenceQuery q;
  const auto seeds = make_sources(g, 8);
  q.source_sets = {{seeds[0], seeds[1], seeds[2], seeds[3]},
                   {seeds[4], seeds[5], seeds[6], seeds[7]}};
  q.sample_times = {2, 4, 8, 16, kHorizon};
  q.limits = scale_limits(g);
  q.threads = 1;
  const QueryEngine& engine = engine_for(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.influence_spread(q).total.size());
  }
}
BENCHMARK(BM_InfluenceSpread)->Unit(benchmark::kMillisecond)
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly(true);

void BM_Betweenness(benchmark::State& state) {
  const TimeVaryingGraph& g = dense_graph();
  BetweennessQuery q;
  q.sources = make_sources(g, 8);  // sampled-source accumulation
  q.limits = scale_limits(g);
  q.threads = 1;
  const QueryEngine& engine = engine_for(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.betweenness(q).score.size());
  }
}
BENCHMARK(BM_Betweenness)->Unit(benchmark::kMillisecond)
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly(true);

void BM_Centrality(benchmark::State& state) {
  const TimeVaryingGraph& g = dense_graph();
  CentralityQuery q;
  q.closure = closure_query(g, 64, direction_from_env());
  q.iterations = 8;
  const QueryEngine& engine = engine_for(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.centrality(q).score.size());
  }
}
BENCHMARK(BM_Centrality)->Unit(benchmark::kMillisecond)
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly(true);

void print_reproduction() {
  std::printf("=== Direction-optimized packed closure, 64 sources on the "
              "dense 10^5-node Zipf graph ===\n");
  const TimeVaryingGraph& g = dense_graph();
  const QueryEngine& engine = engine_for(g);
  const SearchLimits limits = scale_limits(g);
  const auto sources = make_sources(g, 64);
  const auto time_it = [&](auto&& fn, int reps) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) fn();
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    return s / static_cast<double>(reps);
  };
  SearchWorkspace ws;
  std::vector<std::vector<Time>> serial(sources.size());
  const double serial_s = time_it(
      [&] {
        for (std::size_t i = 0; i < sources.size(); ++i) {
          const ForemostScan scan =
              foremost_scan(g, sources[i], 0, Policy::wait(), limits, ws);
          serial[i].assign(scan.arrival.begin(), scan.arrival.end());
        }
      },
      2);
  ClosureResult push;
  const double push_s = time_it(
      [&] {
        push = engine.closure(
            closure_query(g, sources.size(), FrontierMode::kPushOnly));
      },
      2);
  ClosureResult dir;
  const double dir_s = time_it(
      [&] {
        dir = engine.closure(closure_query(g, sources.size(),
                                           FrontierMode::kAuto));
      },
      2);
  const bool identical = push.rows == serial && dir.rows == serial;
  std::printf("%-22s %-12s %-22s\n", "kernel", "seconds", "vs push-only");
  std::printf("%-22s %-12.3f %-22s\n", "per-source serial", serial_s, "-");
  std::printf("%-22s %-12.3f %-22.2f\n", "packed push-only", push_s, 1.0);
  std::printf("%-22s %-12.3f %-22.2f\n", "direction-optimized", dir_s,
              push_s / dir_s);
  std::printf("rows: %s\n\n",
              identical ? "bit-identical across all three kernels"
                        : "MISMATCH");
}

}  // namespace

int main(int argc, char** argv) {
  // Timing loops first, tables after (see bench_report.hpp).
  const int rc = tvg::benchsupport::run_benchmarks_with_json(argc, argv);
  if (rc != 0) return rc;
  print_reproduction();
  return 0;
}
