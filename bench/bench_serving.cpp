// Serving-latency baseline for tvg::Server: the repo's first
// latency-DISTRIBUTION bench (p50/p99/p999), closed-loop and open-loop.
//
// Two load models over the shared workload.hpp traffic (same graph,
// query pool, and Zipf(1.0) skew as bench_query_cache):
//
//  * closed loop — each client submits one query, waits for its future,
//    repeats. Measures the server's SATURATION throughput and the
//    latency distribution at it (a closed loop can never overload the
//    server, so its latencies stay near service time);
//  * open loop — each client submits on a precomputed Poisson arrival
//    schedule whether or not earlier queries finished, and every
//    latency is measured from the SCHEDULED arrival, not the submit
//    call. That is the coordinated-omission-safe protocol: when the
//    server falls behind, the queueing delay lands in the percentiles
//    instead of silently stretching the arrival process. Load levels
//    are fractions of the closed-loop saturation measured in-process
//    (50% = healthy, 200% = overload).
//
// The mode knob is env-driven so the SAME benchmark names can be merged
// into a before/after BENCH_serving.json by merge_bench_json.py:
//
//   TVG_BENCH_SERVING=fifo  — no admission control, every submission in
//       one lane: the unbounded single-FIFO baseline ("pre" run);
//   TVG_BENCH_SERVING=lanes — the default ServerConfig: three weighted
//       lanes, bounded queues, shedding ("post" run; the default).
//
//   TVG_BENCH_SERVING=fifo  TVG_BENCH_JSON=/tmp/fifo.json  ./bench_serving
//   TVG_BENCH_SERVING=lanes TVG_BENCH_JSON=/tmp/lanes.json ./bench_serving
//   scripts/merge_bench_json.py /tmp/fifo.json /tmp/lanes.json
//       BENCH_serving.json --bench bench_serving --note "..."
//
// The headline criterion is p99_high_us under overload: in fifo mode
// high-priority queries wait behind the whole backlog; in lanes mode the
// high lane's short queue and 8x dequeue weight keep its p99 bounded
// while normal/batch absorb the shedding.
//
// The engine runs with its result cache DISABLED here: serving numbers
// should track scheduling behavior, not cache-hit microseconds, and must
// not drift when cache PRs land. Priority mixes assign whole clients to
// lanes: mix 0 = {1 high, 7 normal} of 8 clients; mix 1 = {1 high,
// 2 normal, 5 batch}.
//
// The one exception is BM_ServingCachedHit: a single client re-submits
// one warm journey to a cache-enabled engine over the same graph, so
// every submission is a result-cache hit. It prices the path a hit takes
// through submit() (answered on the caller, no lane or worker) in
// p50_us / p99_us.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <future>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_report.hpp"
#include "tvg/query_engine.hpp"
#include "tvg/server.hpp"
#include "workload.hpp"

namespace {

using namespace tvg;
using benchsupport::WorkloadSpec;
using benchsupport::make_query_pool;
using benchsupport::make_workload_graph;
using benchsupport::percentile;
using benchsupport::poisson_arrivals;
using benchsupport::zipf_order;
using Clock = std::chrono::steady_clock;

constexpr unsigned kClients = 8;
constexpr unsigned kServingWorkers = 2;
constexpr std::size_t kStreamLength = 2048;

bool lanes_mode_from_env() {
  const char* v = std::getenv("TVG_BENCH_SERVING");
  return v == nullptr || std::string_view(v) != "fifo";
}

ServerConfig config_for_mode(bool lanes) {
  ServerConfig config;
  config.workers = kServingWorkers;
  if (!lanes) {
    // The no-admission-control single-FIFO baseline: capacities are
    // irrelevant once shedding is off, and every submission is forced
    // into kNormal by client_lane() below.
    config.admission_control = false;
  }
  return config;
}

/// The lane a client's whole stream runs in, by mix. Mix 0: client 0
/// high, rest normal. Mix 1: client 0 high, 1-2 normal, rest batch.
/// fifo mode collapses everything into one lane.
Lane client_lane(unsigned client, int mix, bool lanes) {
  if (!lanes) return Lane::kNormal;
  if (client == 0) return Lane::kHigh;
  if (mix == 0) return Lane::kNormal;
  return client <= 2 ? Lane::kNormal : Lane::kBatch;
}

struct LatencyReport {
  std::vector<double> all_us;      // completed queries, any lane
  std::vector<double> high_us;     // completed kHigh queries
  std::uint64_t completed{0};
  std::uint64_t shed{0};
  double elapsed_sec{0.0};

  void counters_into(benchmark::State& state) const {
    std::vector<double> all = all_us;
    std::vector<double> high = high_us;
    std::sort(all.begin(), all.end());
    std::sort(high.begin(), high.end());
    state.counters["qps"] =
        elapsed_sec > 0.0 ? static_cast<double>(completed) / elapsed_sec : 0.0;
    state.counters["p50_us"] = percentile(all, 0.50);
    state.counters["p99_us"] = percentile(all, 0.99);
    state.counters["p999_us"] = percentile(all, 0.999);
    state.counters["p99_high_us"] = percentile(high, 0.99);
    state.counters["completed"] = static_cast<double>(completed);
    state.counters["shed"] = static_cast<double>(shed);
  }
};

/// The workload graph every benchmark below serves, built once.
const TimeVaryingGraph& workload_graph() {
  static const TimeVaryingGraph g = make_workload_graph(WorkloadSpec{});
  return g;
}

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Closed loop: every client drives its share of the Zipf stream
/// one-query-at-a-time. Returns per-query latencies and the aggregate
/// rate — the server's saturation throughput at this client count.
LatencyReport run_closed_loop(const QueryEngine& engine, bool lanes, int mix,
                              unsigned clients, std::size_t stream_length) {
  Server server(engine, config_for_mode(lanes));
  const TimeVaryingGraph& g = workload_graph();
  WorkloadSpec spec;
  spec.stream_length = stream_length;
  const auto pool = make_query_pool(spec, g);
  const auto order = zipf_order(spec);

  std::vector<std::vector<double>> lat(clients);
  std::vector<std::uint64_t> shed(clients, 0);
  const auto start = Clock::now();
  {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (unsigned c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        const Lane lane = client_lane(c, mix, lanes);
        for (std::size_t i = c; i < order.size(); i += clients) {
          const auto t0 = Clock::now();
          auto f = server.submit(pool[order[i]], SubmitOptions::in_lane(lane));
          try {
            (void)f.get();
            lat[c].push_back(us_between(t0, Clock::now()));
          } catch (const Overloaded&) {
            ++shed[c];  // closed loop rarely sheds; counted for honesty
          }
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  LatencyReport report;
  report.elapsed_sec =
      std::chrono::duration<double>(Clock::now() - start).count();
  for (unsigned c = 0; c < clients; ++c) {
    report.completed += lat[c].size();
    report.shed += shed[c];
    report.all_us.insert(report.all_us.end(), lat[c].begin(), lat[c].end());
    // Bucketed by INTENDED lane (mode-independent), so fifo mode still
    // reports the would-be-high clients' percentiles for comparison.
    if (client_lane(c, mix, /*lanes=*/true) == Lane::kHigh) {
      report.high_us.insert(report.high_us.end(), lat[c].begin(),
                            lat[c].end());
    }
  }
  return report;
}

/// Open loop: each client owns a Poisson schedule slice and submits on
/// it without waiting; a paired waiter thread resolves that client's
/// futures in FIFO order and records completion against the SCHEDULED
/// arrival. Latency = completion - scheduled arrival, so time the
/// server spends behind schedule is charged to the percentiles
/// (coordinated-omission-safe).
LatencyReport run_open_loop(const QueryEngine& engine, bool lanes, int mix,
                            double rate_qps, std::size_t stream_length) {
  Server server(engine, config_for_mode(lanes));
  const TimeVaryingGraph& g = workload_graph();
  WorkloadSpec spec;
  spec.stream_length = stream_length;
  const auto pool = make_query_pool(spec, g);
  const auto order = zipf_order(spec);

  struct Pending {
    std::future<JourneyResult> future;
    Clock::time_point scheduled;
  };
  struct ClientState {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Pending> pending;
    bool done_submitting{false};
    std::vector<double> lat;
    std::uint64_t shed{0};
  };
  std::vector<ClientState> clients(kClients);

  const auto start = Clock::now();
  std::vector<std::thread> submitters;
  std::vector<std::thread> waiters;
  for (unsigned c = 0; c < kClients; ++c) {
    // Per-client Poisson schedule at rate/kClients (the superposition
    // of independent Poisson processes is Poisson at the summed rate).
    submitters.emplace_back([&, c] {
      ClientState& st = clients[c];
      const Lane lane = client_lane(c, mix, lanes);
      const std::size_t share = (order.size() + kClients - 1) / kClients;
      const auto schedule =
          poisson_arrivals(rate_qps / kClients, share, 100 + c);
      std::size_t k = 0;
      for (std::size_t i = c; i < order.size(); i += kClients, ++k) {
        const auto scheduled =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(schedule[k]));
        std::this_thread::sleep_until(scheduled);  // no-op when behind
        auto f = server.submit(pool[order[i]], SubmitOptions::in_lane(lane));
        {
          const std::lock_guard<std::mutex> lock(st.mu);
          st.pending.push_back(Pending{std::move(f), scheduled});
        }
        st.cv.notify_one();
      }
      {
        const std::lock_guard<std::mutex> lock(st.mu);
        st.done_submitting = true;
      }
      st.cv.notify_one();
    });
    waiters.emplace_back([&, c] {
      ClientState& st = clients[c];
      for (;;) {
        Pending p;
        {
          std::unique_lock<std::mutex> lock(st.mu);
          st.cv.wait(lock, [&] {
            return !st.pending.empty() || st.done_submitting;
          });
          if (st.pending.empty()) return;
          p = std::move(st.pending.front());
          st.pending.pop_front();
        }
        try {
          (void)p.future.get();
          st.lat.push_back(us_between(p.scheduled, Clock::now()));
        } catch (const Overloaded&) {
          ++st.shed;
        }
      }
    });
  }
  for (auto& t : submitters) t.join();
  for (auto& t : waiters) t.join();

  LatencyReport report;
  report.elapsed_sec =
      std::chrono::duration<double>(Clock::now() - start).count();
  for (unsigned c = 0; c < kClients; ++c) {
    report.completed += clients[c].lat.size();
    report.shed += clients[c].shed;
    report.all_us.insert(report.all_us.end(), clients[c].lat.begin(),
                         clients[c].lat.end());
    if (client_lane(c, mix, /*lanes=*/true) == Lane::kHigh) {
      report.high_us.insert(report.high_us.end(), clients[c].lat.begin(),
                            clients[c].lat.end());
    }
  }
  return report;
}

const QueryEngine& shared_engine() {
  // Cache disabled: see the header comment. Built once over the shared
  // workload graph.
  static const QueryEngine engine(workload_graph(), 1,
                                  CacheConfig::disabled());
  return engine;
}

/// Saturation qps measured once per mode, reused to place the open-loop
/// load levels (and reported as the closed-loop benchmark's own rate).
double saturation_qps(bool lanes) {
  static double cached[2] = {-1.0, -1.0};
  double& slot = cached[lanes ? 1 : 0];
  if (slot < 0.0) {
    const LatencyReport warm =
        run_closed_loop(shared_engine(), lanes, 0, kClients, 1024);
    slot = warm.elapsed_sec > 0.0
               ? static_cast<double>(warm.completed) / warm.elapsed_sec
               : 1.0;
  }
  return slot;
}

/// args: {mix}. Closed loop at kClients — the saturation measurement.
void BM_ServingClosedLoop(benchmark::State& state) {
  const bool lanes = lanes_mode_from_env();
  const int mix = static_cast<int>(state.range(0));
  LatencyReport report;
  for (auto _ : state) {
    report = run_closed_loop(shared_engine(), lanes, mix, kClients,
                             kStreamLength);
    state.SetIterationTime(report.elapsed_sec);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(report.completed));
  report.counters_into(state);
  state.counters["mix"] = mix;
  state.counters["lanes"] = lanes ? 1 : 0;
  state.counters["clients"] = kClients;
}
BENCHMARK(BM_ServingClosedLoop)->Arg(0)->Arg(1)->UseManualTime()
    ->Iterations(1)->Unit(benchmark::kMillisecond);

/// args: {load_pct, mix}. Open loop at load_pct% of measured saturation.
void BM_ServingOpenLoop(benchmark::State& state) {
  const bool lanes = lanes_mode_from_env();
  const auto load_pct = static_cast<double>(state.range(0));
  const int mix = static_cast<int>(state.range(1));
  const double rate = saturation_qps(lanes) * load_pct / 100.0;
  LatencyReport report;
  for (auto _ : state) {
    report = run_open_loop(shared_engine(), lanes, mix, rate, kStreamLength);
    state.SetIterationTime(report.elapsed_sec);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(report.completed));
  report.counters_into(state);
  state.counters["mix"] = mix;
  state.counters["lanes"] = lanes ? 1 : 0;
  state.counters["load_pct"] = load_pct;
  state.counters["offered_qps"] = rate;
}
BENCHMARK(BM_ServingOpenLoop)
    ->Args({50, 0})->Args({50, 1})->Args({200, 0})->Args({200, 1})
    ->UseManualTime()->Iterations(1)->Unit(benchmark::kMillisecond);

/// Single client, one warm journey, cache-enabled engine: every
/// submit(q).get() is a hit (see the header comment).
void BM_ServingCachedHit(benchmark::State& state) {
  const TimeVaryingGraph& g = workload_graph();
  const QueryEngine engine(g, 1);
  Server server(engine, config_for_mode(/*lanes=*/true));
  const JourneyQuery q =
      make_query_pool(WorkloadSpec{}, g)[zipf_order(WorkloadSpec{})[0]];
  (void)server.submit(q).get();  // warm the cache
  std::vector<double> lat;
  for (auto _ : state) {
    const auto t0 = Clock::now();
    benchmark::DoNotOptimize(server.submit(q).get());
    lat.push_back(us_between(t0, Clock::now()));
  }
  std::sort(lat.begin(), lat.end());
  state.counters["p50_us"] = percentile(lat, 0.50);
  state.counters["p99_us"] = percentile(lat, 0.99);
  state.counters["served_inline"] =
      static_cast<double>(server.stats().served_inline);
}
BENCHMARK(BM_ServingCachedHit)->Unit(benchmark::kMicrosecond);

void print_reproduction() {
  std::printf("=== tvg::Server latency distribution, open loop, overload "
              "(200%% of saturation; %u clients, %u serving workers, "
              "Zipf(1.0) stream of %zu, cache off) ===\n",
              kClients, kServingWorkers, kStreamLength);
  std::printf("%-6s %-4s %-10s %-10s %-10s %-12s %-10s %-6s\n", "mode",
              "mix", "p50_us", "p99_us", "p999_us", "p99_high_us", "done",
              "shed");
  const QueryEngine& engine = shared_engine();
  for (const int mix : {0, 1}) {
    for (const bool lanes : {false, true}) {
      const double rate = saturation_qps(lanes) * 2.0;
      const LatencyReport r =
          run_open_loop(engine, lanes, mix, rate, kStreamLength);
      std::vector<double> all = r.all_us;
      std::vector<double> high = r.high_us;
      std::sort(all.begin(), all.end());
      std::sort(high.begin(), high.end());
      std::printf("%-6s %-4d %-10.0f %-10.0f %-10.0f %-12.0f %-10llu "
                  "%-6llu\n",
                  lanes ? "lanes" : "fifo", mix, percentile(all, 0.5),
                  percentile(all, 0.99), percentile(all, 0.999),
                  percentile(high, 0.99),
                  static_cast<unsigned long long>(r.completed),
                  static_cast<unsigned long long>(r.shed));
    }
  }
  std::printf("(fifo = one unbounded FIFO lane, no shedding; lanes = "
              "weighted {8,4,1} lanes + admission control. The lanes row's "
              "p99_high_us staying near service time while fifo's blows up "
              "with the backlog is the point of the server.)\n");
}

}  // namespace

int main(int argc, char** argv) {
  // Timing loops first, tables after (see bench_report.hpp).
  const int rc = tvg::benchsupport::run_benchmarks_with_json(argc, argv);
  if (rc != 0) return rc;
  print_reproduction();
  return 0;
}
