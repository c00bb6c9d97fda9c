// Ablations for the design choices DESIGN.md calls out:
//  A1 — Wait-policy foremost search: monotone Dijkstra vs brute
//       configuration BFS (the dominance insight is worth orders of
//       magnitude; both must agree on arrivals).
//  A2 — affine-latency single-departure rule in the acceptance search:
//       1 departure vs enumerating k candidates (same verdicts on affine
//       graphs, k× the work).
//  A3 — horizon sensitivity: how the acceptance cost and soundness window
//       of the Figure 1 graph scale with the search horizon.
//  A4 — visited-set memoization in the acceptance search is load-bearing:
//       measured indirectly via configs explored on words with shared
//       suffixes (reported as counters).
#include <benchmark/benchmark.h>

#include <cstdio>

#include "core/constructions.hpp"
#include "tvg/algorithms.hpp"
#include "tvg/generators.hpp"

namespace {

using namespace tvg;
using namespace tvg::core;

TimeVaryingGraph ablation_graph(std::size_t nodes, std::uint64_t seed) {
  EdgeMarkovianParams params;
  params.nodes = nodes;
  params.initial_on = 2.0 / static_cast<double>(nodes);
  params.p_birth = 0.02;
  params.p_death = 0.4;
  params.horizon = 64;
  params.seed = seed;
  return make_edge_markovian(params);
}

void print_reproduction() {
  std::printf("=== Ablations ===\n");
  std::printf("--- A1: Wait foremost — Dijkstra (dominance) vs config BFS "
              "---\n");
  std::printf("%-7s %-16s %-16s %-10s\n", "nodes", "dijkstra configs",
              "bfs configs", "agree");
  for (const std::size_t nodes : {16, 32, 64}) {
    const TimeVaryingGraph g = ablation_graph(nodes, 5);
    SearchLimits limits;
    limits.horizon = 80;
    SearchWorkspace ws;
    // Dijkstra path (the default for Wait on constant latencies).
    const ForemostTree fast =
        foremost_arrivals(g, 0, 0, Policy::wait(), limits, ws);
    // Brute force: emulate Wait by a bounded wait covering the horizon
    // (forces the configuration-BFS code path).
    const ForemostTree brute =
        foremost_arrivals(g, 0, 0, Policy::bounded_wait(80), limits, ws);
    bool agree = true;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      // BFS explores every (node,time); its best arrival must match.
      if (fast.arrival[v] != brute.arrival[v]) agree = false;
    }
    std::printf("%-7zu %-16zu %-16zu %s\n", nodes, fast.configs.size(),
                brute.configs.size(), agree ? "yes" : "NO (!)");
  }

  std::printf("\n--- A2: affine single-departure rule (Figure 1, Wait) "
              "---\n");
  const TvgAutomaton fig1 = make_anbn_tvg(2, 3).automaton();
  AcceptOptions one;
  one.departures_per_edge = 1;
  AcceptOptions many;
  many.departures_per_edge = 16;
  std::size_t agree = 0;
  std::size_t total = 0;
  for (const Word& w :
       {Word("aabb"), Word("aabbb"), Word("b"), Word("ab"), Word("aab"),
        Word("aaabbbb"), Word("bbbb")}) {
    ++total;
    if (fig1.accepts(w, Policy::wait(), one).accepted ==
        fig1.accepts(w, Policy::wait(), many).accepted) {
      ++agree;
    }
  }
  std::printf("verdicts agree on %zu/%zu words (affine latencies: the "
              "earliest departure is provably sufficient)\n",
              agree, total);

  std::printf("\n--- A3: horizon sensitivity (Figure 1, nowait, n=12) "
              "---\n");
  std::printf("%-22s %-10s %-10s\n", "horizon", "accepted", "configs");
  const Word w12 = Word(12, 'a') + Word(12, 'b');
  // Deepest time touched by a^12 b^12 is 2^12·3^11 ≈ 7.3e8.
  for (const Time horizon :
       {Time{1} << 28, Time{1} << 30, kTimeInfinity}) {
    AcceptOptions opt;
    opt.horizon = horizon;
    const AcceptResult r = fig1.accepts(w12, Policy::no_wait(), opt);
    std::printf("%-22lld %-10s %zu\n", static_cast<long long>(horizon),
                r.accepted ? "yes" : "no (horizon-cut)",
                r.configs_explored);
  }
  std::printf("\n");
}

void BM_A1DijkstraWait(benchmark::State& state) {
  const TimeVaryingGraph g =
      ablation_graph(static_cast<std::size_t>(state.range(0)), 5);
  SearchLimits limits;
  limits.horizon = 80;
  SearchWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        foremost_arrivals(g, 0, 0, Policy::wait(), limits, ws)
            .configs.size());
  }
}
BENCHMARK(BM_A1DijkstraWait)->Arg(16)->Arg(32)->Arg(64);

void BM_A1BruteConfigBfs(benchmark::State& state) {
  const TimeVaryingGraph g =
      ablation_graph(static_cast<std::size_t>(state.range(0)), 5);
  SearchLimits limits;
  limits.horizon = 80;
  SearchWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        foremost_arrivals(g, 0, 0, Policy::bounded_wait(80), limits, ws)
            .configs.size());
  }
}
BENCHMARK(BM_A1BruteConfigBfs)->Arg(16)->Arg(32)->Arg(64);

void BM_A2DeparturesPerEdge(benchmark::State& state) {
  const TvgAutomaton fig1 = make_anbn_tvg(2, 3).automaton();
  AcceptOptions opt;
  opt.departures_per_edge = static_cast<std::size_t>(state.range(0));
  const Word w = Word(8, 'a') + Word(10, 'b');
  for (auto _ : state) {
    benchmark::DoNotOptimize(fig1.accepts(w, Policy::wait(), opt).accepted);
  }
  state.counters["k"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_A2DeparturesPerEdge)->Arg(1)->Arg(4)->Arg(16);

void BM_A3HorizonCost(benchmark::State& state) {
  const TvgAutomaton fig1 = make_anbn_tvg(2, 3).automaton();
  AcceptOptions opt;
  opt.horizon = Time{1} << state.range(0);
  const Word w = Word(12, 'a') + Word(12, 'b');
  for (auto _ : state) {
    benchmark::DoNotOptimize(fig1.accepts(w, Policy::no_wait(), opt)
                                 .accepted);
  }
  state.counters["log2_horizon"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_A3HorizonCost)->Arg(28)->Arg(34)->Arg(60);

}  // namespace

int main(int argc, char** argv) {
  print_reproduction();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
