// Microbenchmark for the compiled schedule index: Presence::next_present
// (the shared_ptr + variant value-type path) vs ScheduleIndex (flat
// compiled tables: bitmask or endpoint-run segments) on the four schedule
// shapes the workloads use — always, periodic, semi-periodic, at_times —
// plus the amortized-O(1) cursor on an ascending query ramp.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "bench_report.hpp"
#include "tvg/graph.hpp"
#include "tvg/schedule_index.hpp"

namespace {

using namespace tvg;

/// One single-edge graph per schedule shape, so EdgeId 0 addresses the
/// schedule under test in its compiled form.
TimeVaryingGraph graph_with(Presence p) {
  TimeVaryingGraph g;
  g.add_nodes(2);
  g.add_edge(0, 1, 'a', std::move(p), Latency::constant(1));
  return g;
}

Presence make_schedule(int shape) {
  switch (shape) {
    case 0:
      return Presence::always();
    case 1:  // periodic: period 48, three windows per period
      return Presence::periodic(
          48, IntervalSet{{{0, 7}, {13, 22}, {30, 41}}});
    case 2:  // semi-periodic: irregular prefix, then a sparse period
      return Presence::semi_periodic(
          60, IntervalSet{{{2, 5}, {9, 10}, {17, 29}, {44, 51}}}, 37,
          IntervalSet{{{3, 6}, {20, 21}}});
    default: {  // at_times: a finite burst of isolated instants
      std::vector<Time> times;
      for (Time t = 1; t < 120; t += 7) times.push_back(t);
      return Presence::at_times(std::move(times));
    }
  }
}

const char* shape_name(int shape) {
  switch (shape) {
    case 0:
      return "always";
    case 1:
      return "periodic";
    case 2:
      return "semi_periodic";
    default:
      return "at_times";
  }
}

constexpr Time kQuerySpan = 256;

void BM_PresenceNextPresent(benchmark::State& state) {
  const Presence p = make_schedule(static_cast<int>(state.range(0)));
  Time t = 0;
  for (auto _ : state) {
    auto next = p.next_present(t);
    benchmark::DoNotOptimize(next);
    t = (t + 1) % kQuerySpan;
  }
  state.SetLabel(shape_name(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_PresenceNextPresent)->DenseRange(0, 3);

void BM_ScheduleIndexNextPresent(benchmark::State& state) {
  const TimeVaryingGraph g =
      graph_with(make_schedule(static_cast<int>(state.range(0))));
  const ScheduleIndex& sx = g.schedule_index();
  Time t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sx.next_present(0, t));
    t = (t + 1) % kQuerySpan;
  }
  state.SetLabel(shape_name(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_ScheduleIndexNextPresent)->DenseRange(0, 3);

void BM_ScheduleIndexCursor(benchmark::State& state) {
  const TimeVaryingGraph g =
      graph_with(make_schedule(static_cast<int>(state.range(0))));
  const ScheduleIndex& sx = g.schedule_index();
  ScheduleIndex::EventCursor cursor;
  Time t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sx.next_present(0, t, cursor));
    // Ascending ramp (the shape departure-window enumerations issue),
    // restarting the cursor when the span wraps.
    if (++t == kQuerySpan) {
      t = 0;
      cursor = ScheduleIndex::EventCursor{};
    }
  }
  state.SetLabel(shape_name(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_ScheduleIndexCursor)->DenseRange(0, 3);

void BM_PresencePresent(benchmark::State& state) {
  const Presence p = make_schedule(static_cast<int>(state.range(0)));
  Time t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.present(t));
    t = (t + 1) % kQuerySpan;
  }
  state.SetLabel(shape_name(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_PresencePresent)->DenseRange(0, 3);

void BM_ScheduleIndexPresent(benchmark::State& state) {
  const TimeVaryingGraph g =
      graph_with(make_schedule(static_cast<int>(state.range(0))));
  const ScheduleIndex& sx = g.schedule_index();
  Time t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sx.present(0, t));
    t = (t + 1) % kQuerySpan;
  }
  state.SetLabel(shape_name(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_ScheduleIndexPresent)->DenseRange(0, 3);

}  // namespace

int main(int argc, char** argv) {
  tvg::benchsupport::run_benchmarks_with_json(argc, argv);
  return 0;
}
