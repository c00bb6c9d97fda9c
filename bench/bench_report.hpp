// Shared bench harness: console timings plus a machine-readable JSON
// mirror of every registered benchmark.
//
// run_benchmarks_with_json(argc, argv) initializes Google Benchmark and
// runs the registered benchmarks with the normal console output. When
// the TVG_BENCH_JSON environment variable names a path, it additionally
// writes the results there in Google Benchmark's standard JSON schema
// (a "context" object plus a "benchmarks" array with real_time /
// cpu_time per entry). The wiring simply injects
// --benchmark_out=<path> --benchmark_out_format=json ahead of
// Initialize, so the library's own JSON reporter does the writing.
// Resolution order for the output path:
//
//   1. an explicit --benchmark_out flag from the caller (wins; we add
//      nothing),
//   2. TVG_BENCH_JSON, when set and non-empty,
//   3. otherwise no mirror at all.
//
// There is deliberately no default path: a bench run from the repo root
// must not overwrite the committed BENCH_*.json baselines. Regenerating
// one names its per-run halves explicitly (see
// scripts/merge_bench_json.py for the before/after merge format).
//
// IMPORTANT harness note: call this BEFORE printing any reproduction
// table that allocates. The experiment tables churn the allocator enough
// to visibly distort per-iteration timings measured afterwards (we saw
// 5-10x inflation on small benchmarks), so every bench in this repo runs
// its timing loops first and prints its tables afterwards.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace tvg::benchsupport {

inline bool flag_present(int argc, char** argv, const char* prefix) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix, std::strlen(prefix)) == 0) return true;
  }
  return false;
}

/// Runs the registered benchmarks. Returns a process exit code: 0 on
/// success, nonzero when arguments were rejected (so a typo'd flag fails
/// the run loudly instead of silently producing zero timings — scripts
/// regenerating the BENCH_*.json baselines depend on that).
inline int run_benchmarks_with_json(int argc, char** argv) {
  std::string json_path;
  if (const char* env = std::getenv("TVG_BENCH_JSON")) json_path = env;
  if (flag_present(argc, argv, "--benchmark_out=")) json_path.clear();

  std::vector<char*> args(argv, argv + argc);
  std::string out_flag;
  std::string format_flag = "--benchmark_out_format=json";
  if (!json_path.empty()) {
    out_flag = "--benchmark_out=" + json_path;
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int args_count = static_cast<int>(args.size());

  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace tvg::benchsupport
