// The full-stack benchmark's workloads: each drives tvg::Server over
// DurableEngine::mutable_engine() (every write through
// DurableEngine::apply), then recovers the engine directory, checking
// the answers at every quiescent point.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "measure.hpp"

namespace fullstack {

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  /// Directory the engines write their WAL and checkpoints under
  /// (created and removed by the run).
  std::string workdir;
  /// Where the traced run writes its spans ("" = not written).
  std::string spans_path;
};

struct Metric {
  std::string name;
  double value{0.0};
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;
  Tally tally;
  /// Human-readable lines printed before the JSON result.
  std::vector<std::string> notes;
};

/// Runs one workload and fills `out`: end-to-end metrics when
/// options.trace is false, per-layer metrics when it is true. Throws
/// std::invalid_argument for an unknown workload.
void run_workload(const Options& options, Report& out);

}  // namespace fullstack
