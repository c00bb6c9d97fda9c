// Full-stack benchmark program: tvg::Server -> DurableEngine /
// MutableEngine -> kernels, under seeded closed-loop workloads.
//
//   fullstack_bench --workload <name> --seed <n> --seconds <s>
//                   --trace <0|1> --workdir <dir> [--spans <file>]
//
// Prints the operation accounting and every metric, one per line, then
// one JSON object as the last line of standard output:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// metrics. Exit code 0 only when every operation succeeded and every
// correctness gate passed.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "phases.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "fullstack_bench: %s\nusage: fullstack_bench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> --workdir <dir> "
               "[--spans <file>]\n",
               why);
  std::exit(2);
}

fullstack::Options parse(int argc, char** argv) {
  fullstack::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
    } else if (flag == "--trace") {
      o.trace = value != "0";
    } else if (flag == "--workdir") {
      o.workdir = value;
    } else if (flag == "--spans") {
      o.spans_path = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (o.workload.empty() || o.workdir.empty() || !(o.seconds > 0)) {
    usage("--workload, --workdir and a positive --seconds are required");
  }
  return o;
}

void print_count(const char* kind, const fullstack::OpCount& c) {
  const unsigned long long attempted = c.attempted;
  const unsigned long long failed = c.failed;
  std::printf("%-9s attempted=%llu succeeded=%llu failed=%llu\n", kind,
              attempted, attempted - failed, failed);
}

}  // namespace

int main(int argc, char** argv) {
  const fullstack::Options options = parse(argc, argv);
  fullstack::Report report;
  try {
    fullstack::run_workload(options, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fullstack_bench: %s\n", e.what());
    return 1;
  }
  const fullstack::Tally& t = report.tally;
  std::printf("workload %s seed %llu trace %d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0);
  for (const std::string& note : report.notes) std::printf("%s\n", note.c_str());
  print_count("reads", t.reads);
  print_count("writes", t.writes);
  print_count("closures", t.closures);
  print_count("checks", t.checks);
  print_count("probes", t.probes);
  std::printf(
      "failures: overloaded=%llu deadline_exceeded=%llu errors=%llu "
      "mismatches=%llu\n",
      static_cast<unsigned long long>(t.overloaded.load()),
      static_cast<unsigned long long>(t.deadline_exceeded.load()),
      static_cast<unsigned long long>(t.errors.load()),
      static_cast<unsigned long long>(t.mismatches.load()));
  for (const fullstack::Metric& m : report.metrics) {
    std::printf("%-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  const unsigned long long attempted = t.attempted();
  const unsigned long long failed = t.failed();
  const bool correct = failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const fullstack::Metric& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
