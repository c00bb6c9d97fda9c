// Durability cost and recovery speed for tvg::DurableEngine
// (durable_engine.hpp): what the WAL charges per acknowledged mutation
// under each sync policy, and how recovery time scales with the length
// of the log it must replay.
//
// BM_DurableApply/<policy> streams seeded presence patches through an
// engine; <policy> is 0 = kAlways (fsync per apply: the zero-loss
// contract), 1 = kEveryN(64), 2 = kInterval(50ms). The TVG_BENCH_DURABLE
// environment variable selects the engine so both halves report under
// the same benchmark names:
//
//   TVG_BENCH_DURABLE=0  in-memory baseline: the same stream through a
//                        bare QueryEngine — no WAL, no fsync, the
//                        pre-durability cost of an accepted mutation.
//   unset / any other    DurableEngine: validate -> snapshot build ->
//                        WAL append -> publish -> policy fsync.
//
// BM_Recovery/<n> times DurableEngine::recover() of a directory whose
// WAL holds <n> records past checkpoint-0 (so recovery = read + verify
// + decode + replay of exactly <n> mutations). The baseline half
// rebuilds the same state in memory (one batch apply of the <n>
// mutations to a fresh QueryEngine, the call recovery replays
// through), isolating what the disk format adds over raw replay.
//
// BM_CheckpointLoad/<nodes> times from_text of a checkpoint body: the
// parse half of recovery, on its own. <nodes> picks the graph shape of
// the full-stack benchmark's stacks: 8192 = the serving graph (60k
// edges, period 64), 20000 = the Zipf closure graph (average degree 8,
// period 8). It reads no environment knob: both halves run it alike.
//
// BM_CheckpointOpen/<nodes> times from_text of the same bodies plus
// building a QueryEngine (4 threads) over the parsed graph and tearing
// both down: what recover() does with a checkpoint before any WAL
// replay. The load row stops at the parse; this one also pays the
// schedule index, CSR and overlay snapshot builds over the parsed
// schedules, and freeing them. Like the load row it reads no
// environment knob.
//
// BM_CheckpointWrite/<nodes> times to_text of the same graphs: the
// serialize half of every checkpoint, on its own.
//
// BM_CheckpointStall times DurableEngine::checkpoint() on the serving
// graph with 100 presence patches pending: materialize + to_text + CRC
// footer + temp-file write + fsync + rename + WAL rotation, the time
// writers are held off. The patches stay pending across iterations (a
// checkpoint does not compact), so every iteration writes the same
// state. Like the load and write rows it ignores TVG_BENCH_DURABLE.
//
// Regenerating the committed baseline:
//
//   TVG_BENCH_DURABLE=0 TVG_BENCH_JSON=/tmp/memory.json ./build/bench_recovery
//   TVG_BENCH_DURABLE=1 TVG_BENCH_JSON=/tmp/durable.json ./build/bench_recovery
//   python3 scripts/merge_bench_json.py /tmp/memory.json /tmp/durable.json
//       BENCH_recovery.json --bench bench_recovery
//       --note "in-memory QueryEngine vs DurableEngine (WAL + recovery)"
//   (the merge command is one line)
//
// The merged "speedup" map therefore reads baseline-vs-durable: values
// BELOW 1 are the durability tax (expect kAlways orders of magnitude
// under 1 — that is what an fsync per mutation costs; kEveryN/kInterval
// should sit close to 1).
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "tvg/delta_overlay.hpp"
#include "tvg/durable_engine.hpp"
#include "tvg/generators.hpp"
#include "tvg/query_engine.hpp"
#include "tvg/serialization.hpp"
#include "tvg/wal.hpp"

namespace {

namespace fs = std::filesystem;

using tvg::DurableEngine;
using tvg::DurableOptions;
using tvg::EdgeId;
using tvg::EdgeMutation;
using tvg::IntervalSet;
using tvg::Latency;
using tvg::Presence;
using tvg::QueryEngine;
using tvg::SyncPolicy;
using tvg::Time;
using tvg::TimeVaryingGraph;

constexpr std::size_t kNodes = 256;
constexpr std::size_t kEdges = 1024;
constexpr Time kPeriod = 32;

bool durable_engine_selected() {
  const char* env = std::getenv("TVG_BENCH_DURABLE");
  return env == nullptr || std::string(env) != "0";
}

TimeVaryingGraph bench_graph() {
  tvg::RandomPeriodicParams params;
  params.nodes = kNodes;
  params.edges = kEdges;
  params.period = kPeriod;
  params.density = 0.1;
  params.max_latency = 3;
  params.seed = 7;
  return tvg::make_random_periodic(params);
}

/// Persistable mutation stream: patches and latency overrides on seeded
/// base edges (no adds, so the edge universe is stable and every record
/// has comparable encode/decode cost).
std::vector<EdgeMutation> mutation_stream(std::size_t n) {
  std::vector<EdgeMutation> out;
  out.reserve(n);
  std::mt19937_64 rng(1234);
  for (std::size_t i = 0; i < n; ++i) {
    const auto edge = static_cast<EdgeId>(rng() % kEdges);
    if (rng() % 4 == 0) {
      out.push_back(EdgeMutation::override_latency(
          edge, Latency::constant(1 + Time(rng() % 3))));
    } else {
      IntervalSet pattern;
      pattern.insert_point(static_cast<Time>(rng() % kPeriod));
      pattern.insert_point(static_cast<Time>(rng() % kPeriod));
      out.push_back(EdgeMutation::patch_presence(
          edge, Presence::periodic(kPeriod, std::move(pattern))));
    }
  }
  return out;
}

std::string scratch_dir(const std::string& tag) {
  const std::string dir =
      (fs::path(fs::temp_directory_path()) /
       ("tvg_bench_recovery_" + std::to_string(::getpid()) + "_" + tag))
          .string();
  fs::remove_all(dir);
  return dir;
}

DurableOptions options_for(int policy_arg) {
  DurableOptions options;
  options.threads = 1;
  switch (policy_arg) {
    case 0:
      options.wal.sync = SyncPolicy::kAlways;
      break;
    case 1:
      options.wal.sync = SyncPolicy::kEveryN;
      options.wal.every_n = 64;
      break;
    default:
      options.wal.sync = SyncPolicy::kInterval;
      options.wal.interval = std::chrono::milliseconds(50);
      break;
  }
  return options;
}

void BM_DurableApply(benchmark::State& state) {
  const int policy_arg = static_cast<int>(state.range(0));
  const TimeVaryingGraph g = bench_graph();
  const std::vector<EdgeMutation> stream = mutation_stream(4096);
  const bool durable = durable_engine_selected();

  std::size_t cursor = 0;
  std::uint64_t bytes = 0;
  if (durable) {
    const std::string dir =
        scratch_dir("apply_" + std::to_string(policy_arg));
    DurableEngine engine(g, dir, options_for(policy_arg));
    for (auto _ : state) {
      engine.apply(stream[cursor]);
      cursor = (cursor + 1) % stream.size();
    }
    bytes = engine.stats().wal.bytes_written;
    state.counters["synced_lag"] = benchmark::Counter(static_cast<double>(
        engine.sequence() - engine.stats().wal.synced_sequence));
    fs::remove_all(dir);
  } else {
    QueryEngine engine(g, /*default_threads=*/1);
    for (auto _ : state) {
      engine.apply(stream[cursor]);
      cursor = (cursor + 1) % stream.size();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["wal_bytes_per_apply"] = benchmark::Counter(
      state.iterations() > 0
          ? static_cast<double>(bytes) /
                static_cast<double>(state.iterations())
          : 0.0);
  state.counters["durable"] = benchmark::Counter(durable ? 1.0 : 0.0);
}

void BM_Recovery(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const TimeVaryingGraph g = bench_graph();
  const std::vector<EdgeMutation> stream = mutation_stream(n);
  const bool durable = durable_engine_selected();

  if (durable) {
    // Build the directory once: checkpoint-0 + a WAL of n records.
    const std::string dir = scratch_dir("recover_" + std::to_string(n));
    DurableOptions options = options_for(1);  // kEveryN: fast setup
    {
      DurableEngine engine(g, dir, options);
      for (const EdgeMutation& m : stream) engine.apply(m);
      engine.sync();
    }
    std::uint64_t recovered_sequence = 0;
    for (auto _ : state) {
      const auto engine = DurableEngine::recover(dir, options);
      recovered_sequence = engine->sequence();
      benchmark::DoNotOptimize(recovered_sequence);
    }
    if (recovered_sequence != n) state.SkipWithError("lost records");
    fs::remove_all(dir);
  } else {
    // In-memory rebuild of the same state: the floor recovery can
    // approach once decode + verification were free.
    for (auto _ : state) {
      // An owned copy, as recovery's engine owns its parsed graph.
      QueryEngine engine(TimeVaryingGraph(g), /*default_threads=*/1);
      benchmark::DoNotOptimize(engine.apply(stream).size());
      benchmark::DoNotOptimize(engine.materialize().edge_count());
    }
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * n));
  state.counters["log_records"] =
      benchmark::Counter(static_cast<double>(n));
  state.counters["durable"] = benchmark::Counter(durable ? 1.0 : 0.0);
}

/// A checkpoint-sized graph of the shape `nodes` selects (see the header).
TimeVaryingGraph checkpoint_graph(std::size_t nodes) {
  if (nodes == 8192) {
    tvg::RandomPeriodicParams params;
    params.nodes = nodes;
    params.edges = 60000;
    params.period = 64;
    params.density = 0.03;
    params.max_latency = 2;
    params.seed = 1;
    return tvg::make_random_periodic(params);
  }
  tvg::ZipfPeriodicParams params;
  params.nodes = nodes;
  params.avg_degree = 8.0;
  params.period = 8;
  params.density = 0.5;
  params.seed = 1;
  return tvg::make_zipf_periodic(params);
}

void BM_CheckpointLoad(benchmark::State& state) {
  const std::string text =
      tvg::to_text(checkpoint_graph(static_cast<std::size_t>(state.range(0))));
  std::size_t edges = 0;
  for (auto _ : state) {
    edges = tvg::from_text(text).edge_count();
    benchmark::DoNotOptimize(edges);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(
      state.iterations() * static_cast<std::int64_t>(text.size())));
  state.counters["edges"] = benchmark::Counter(static_cast<double>(edges));
  state.counters["text_mb"] =
      benchmark::Counter(static_cast<double>(text.size()) / 1e6);
}

void BM_CheckpointOpen(benchmark::State& state) {
  const std::string text =
      tvg::to_text(checkpoint_graph(static_cast<std::size_t>(state.range(0))));
  std::size_t edges = 0;
  for (auto _ : state) {
    const QueryEngine engine(tvg::from_text(text), /*default_threads=*/4);
    edges = engine.edge_count();
    benchmark::DoNotOptimize(edges);
  }
  state.counters["edges"] = benchmark::Counter(static_cast<double>(edges));
}

void BM_CheckpointWrite(benchmark::State& state) {
  const TimeVaryingGraph g =
      checkpoint_graph(static_cast<std::size_t>(state.range(0)));
  std::size_t bytes = 0;
  for (auto _ : state) {
    bytes = tvg::to_text(g).size();
    benchmark::DoNotOptimize(bytes);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(
      state.iterations() * static_cast<std::int64_t>(bytes)));
  state.counters["edges"] =
      benchmark::Counter(static_cast<double>(g.edge_count()));
  state.counters["text_mb"] =
      benchmark::Counter(static_cast<double>(bytes) / 1e6);
}

void BM_CheckpointStall(benchmark::State& state) {
  constexpr std::size_t kPending = 100;
  TimeVaryingGraph g = checkpoint_graph(8192);
  const std::size_t edges = g.edge_count();
  const std::string dir = scratch_dir("stall");
  DurableEngine engine(std::move(g), dir, options_for(1));
  std::mt19937_64 rng(99);
  for (std::size_t i = 0; i < kPending; ++i) {
    IntervalSet pattern;
    pattern.insert_point(static_cast<Time>(rng() % 64));
    engine.apply(EdgeMutation::patch_presence(
        static_cast<EdgeId>(rng() % edges),
        Presence::periodic(64, std::move(pattern))));
  }
  for (auto _ : state) engine.checkpoint();
  if (engine.mutable_engine().pending_mutations() != kPending) {
    state.SkipWithError("checkpoint changed the pending log");
  }
  state.counters["pending"] =
      benchmark::Counter(static_cast<double>(kPending));
  fs::remove_all(dir);
}

BENCHMARK(BM_DurableApply)
    ->Arg(0)  // kAlways
    ->Arg(1)  // kEveryN(64)
    ->Arg(2)  // kInterval(50ms)
    ->Unit(benchmark::kMicrosecond);

BENCHMARK(BM_Recovery)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_CheckpointLoad)
    ->Arg(8192)   // serving stack
    ->Arg(20000)  // Zipf closure stack
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_CheckpointOpen)
    ->Arg(8192)   // serving stack
    ->Arg(20000)  // Zipf closure stack
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_CheckpointWrite)
    ->Arg(8192)   // serving stack
    ->Arg(20000)  // Zipf closure stack
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_CheckpointStall)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return tvg::benchsupport::run_benchmarks_with_json(argc, argv);
}
