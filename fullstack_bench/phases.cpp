#include "phases.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <future>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <semaphore>
#include <stdexcept>
#include <thread>
#include <utility>

#include "tvg/delta_overlay.hpp"
#include "tvg/durable_engine.hpp"
#include "tvg/generators.hpp"
#include "tvg/query_engine.hpp"
#include "tvg/schedule_index.hpp"
#include "tvg/serialization.hpp"
#include "tvg/server.hpp"
#include "tvg/wal.hpp"

namespace fullstack {
namespace {

// One thread count for everything: engine worker threads, Server
// workers and closed-loop clients (the reference machine has 4 cores).
constexpr unsigned kThreads = 4;
constexpr std::size_t kPoolSize = 4096;      // distinct journey queries
constexpr double kZipfS = 1.0;
constexpr tvg::Time kReadHorizon = 8;        // SearchLimits::up_to(8)
// Share of closed-loop operations that are writes, in every workload:
// serve_mixed's 1% presence patches.
constexpr double kWriteFraction = 0.01;
constexpr std::size_t kCompactAt = 128;      // pending mutations
constexpr std::uint64_t kEveryN = 64;        // every WAL: SyncPolicy::kEveryN
constexpr int kSetups = 7;                   // setup_s is their median
constexpr std::size_t kGateReads = 256;      // sampled reads per gate
constexpr std::size_t kClosureSources = 512;
constexpr int kMinRounds = 3;
constexpr int kMaxRounds = 256;
// Traced run: every kProbeEvery-th read in a traced slice is replayed
// against the layer below; slices alternate traced / untraced so the
// tracing overhead is measured under the same conditions.
constexpr unsigned kProbeEvery = 8;
// Reads each closed-loop client keeps in flight. With one, the clients
// leave the CPUs half idle and throughput follows thread wake-up latency,
// which drifts from run to run on a shared virtual machine; four per
// client keep the Server's workers busy.
constexpr std::size_t kReadWindow = 4;
constexpr auto kSlice = std::chrono::nanoseconds(std::chrono::milliseconds(250));
// Latency quantiles are taken per window of the serving phase and the
// median over windows is reported.
constexpr auto kWindow = std::chrono::nanoseconds(std::chrono::seconds(1));
// The data set (graphs, query pool, closure sources) is fixed, so every
// run measures the same data; --seed drives the request stream: Zipf
// draws, write targets and patches, gate samples and the recovery tail.
// Graph seed 1 and pool seed 7 are bench_updates' serving workload.
constexpr std::uint64_t kDataSeed = 1;
constexpr std::uint64_t kPoolSeed = 7;

// Every workload runs the same phases, weighted differently, so each one
// reports every end-to-end metric:
//  1. set-up, kSetups times (setup_s is the median; the last is kept);
//  2. serving: closed-loop Zipf journey reads through the Server of
//     stacks[0]; kWriteFraction of the operations are presence patches
//     through DurableEngine::apply, with compact_async() once kCompactAt
//     mutations are pending; then a correctness gate;
//  3. closure rounds on the Wait shape, then on the NoWait shape;
//  4. recovery of every engine directory, `recoveries` times.
// serve_mixed serves the 8192-node bench_updates graph and spends most
// of the run serving; closure_live serves its 256-node NoWait graph and
// spends most of the run in closure rounds. Closure shapes: see set_up().
struct WorkloadDef {
  const char* name;
  double serve_share;       // share of --seconds spent in the serving phase
  std::size_t recovery_records;  // WAL tail that recover() replays
  int recoveries;           // recover() calls per stack; recover_s: median
  bool zipf_wait;           // reads on the small graph, Wait on the Zipf one
};

const WorkloadDef kWorkloads[] = {
    {"serve_mixed", 0.70, 1000, 3, false},
    {"closure_live", 0.35, 200, 1, true},
};

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// --- inputs ----------------------------------------------------------------

// A graph's presence family: period and per-residue density. Every write
// redraws an edge's presence from its graph's family, so the served
// graph stays statistically the same however many writes a run makes.
struct Family {
  tvg::Time period;
  double density;
};
constexpr Family kServingFamily{64, 0.03};
constexpr Family kZipfFamily{8, 0.5};
constexpr Family kSmallFamily{16, 0.25};

// The bench_updates serving graph.
tvg::TimeVaryingGraph serving_graph(std::uint64_t seed) {
  tvg::RandomPeriodicParams p;
  p.nodes = 8192;
  p.edges = 60000;
  p.period = kServingFamily.period;
  p.density = kServingFamily.density;
  p.max_latency = 2;
  p.seed = seed;
  return tvg::make_random_periodic(p);
}

// closure_live's Wait-shape graph: Zipf out-degrees, average degree 8.
tvg::TimeVaryingGraph zipf_graph(std::uint64_t seed) {
  tvg::ZipfPeriodicParams p;
  p.nodes = 20000;
  p.avg_degree = 8.0;
  p.period = kZipfFamily.period;
  p.density = kZipfFamily.density;
  p.seed = seed;
  return tvg::make_zipf_periodic(p);
}

// The NoWait shape's graph in every workload; closure_live also serves
// its reads on it.
tvg::TimeVaryingGraph small_graph(std::uint64_t seed) {
  tvg::RandomPeriodicParams p;
  p.nodes = 256;
  p.edges = 2048;
  p.period = kSmallFamily.period;
  p.density = kSmallFamily.density;
  p.max_latency = 1;
  p.seed = seed;
  return tvg::make_random_periodic(p);
}

// Targeted foremost queries under a tight horizon, policies cycling
// Wait / NoWait / BoundedWait(3).
std::vector<tvg::JourneyQuery> make_pool(std::size_t nodes,
                                         std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<tvg::JourneyQuery> pool;
  pool.reserve(kPoolSize);
  for (std::size_t i = 0; i < kPoolSize; ++i) {
    const auto source = static_cast<tvg::NodeId>(rng() % nodes);
    const auto target = static_cast<tvg::NodeId>(rng() % nodes);
    tvg::JourneyQuery q =
        tvg::JourneyQuery::foremost(source, static_cast<tvg::Time>(rng() % 4))
            .to(target)
            .within(tvg::SearchLimits::up_to(kReadHorizon));
    switch (i % 3) {
      case 0: q.under(tvg::Policy::wait()); break;
      case 1: q.under(tvg::Policy::no_wait()); break;
      default: q.under(tvg::Policy::bounded_wait(3)); break;
    }
    pool.push_back(std::move(q));
  }
  return pool;
}

std::vector<tvg::NodeId> sample_sources(std::size_t nodes, std::size_t count,
                                        std::uint64_t seed) {
  std::vector<tvg::NodeId> all(nodes);
  std::iota(all.begin(), all.end(), tvg::NodeId{0});
  std::mt19937_64 rng(seed);
  std::shuffle(all.begin(), all.end(), rng);
  all.resize(std::min(count, nodes));
  std::sort(all.begin(), all.end());
  return all;
}

// Zipf(s) over ranks 0..n-1; rank i is pool[i] (the pool is random, so
// the hot keys are random queries).
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = acc;
    }
    for (double& c : cdf_) c /= acc;
  }
  std::size_t operator()(std::mt19937_64& rng) const {
    const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min(static_cast<std::size_t>(it - cdf_.begin()),
                    cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// A presence patch on a random existing edge, redrawn from `family`.
tvg::EdgeMutation random_patch(std::mt19937_64& rng, std::size_t edges,
                               const Family& family) {
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  tvg::IntervalSet pattern;
  for (tvg::Time r = 0; r < family.period; ++r) {
    if (coin(rng) < family.density) pattern.insert_point(r);
  }
  if (pattern.empty()) {
    pattern.insert_point(static_cast<tvg::Time>(rng() % family.period));
  }
  return tvg::EdgeMutation::patch_presence(
      static_cast<tvg::EdgeId>(rng() % edges),
      tvg::Presence::periodic(family.period, std::move(pattern)));
}

// --- accounting --------------------------------------------------------------

// Runs fn as one operation of `kind`; a thrown error counts it failed.
template <typename Fn>
bool attempt(Tally& t, OpCount& kind, Fn&& fn) {
  ++kind.attempted;
  try {
    fn();
    return true;
  } catch (const tvg::Overloaded&) {
    ++t.overloaded;
  } catch (const tvg::DeadlineExceeded&) {
    ++t.deadline_exceeded;
  } catch (const std::exception&) {
    ++t.errors;
  }
  ++kind.failed;
  return false;
}

// One correctness-gate comparison; a mismatch is a failed operation and
// is reported on standard error with the gate's name.
void check(Tally& t, bool ok, const char* gate) {
  ++t.checks.attempted;
  if (!ok) {
    ++t.checks.failed;
    ++t.mismatches;
    std::fprintf(stderr, "mismatch: %s\n", gate);
  }
}

double us_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-3;
}

// --- the stack -----------------------------------------------------------------

// One DurableEngine with a Server in front of its MutableEngine.
struct Stack {
  tvg::TimeVaryingGraph base;  // the generated graph (probes, the twin)
  Family family;
  std::string dir;
  tvg::DurableOptions options;
  std::unique_ptr<tvg::DurableEngine> durable;
  std::unique_ptr<tvg::Server> server;  // after durable: destroyed first

  tvg::MutableEngine& engine() { return durable->mutable_engine(); }
};

std::unique_ptr<Stack> make_stack(tvg::TimeVaryingGraph g, Family family,
                                  std::string dir) {
  auto s = std::make_unique<Stack>();
  s->base = g;
  s->family = family;
  s->dir = std::move(dir);
  s->options.wal.sync = tvg::SyncPolicy::kEveryN;
  s->options.wal.every_n = kEveryN;
  s->options.threads = kThreads;
  s->durable =
      std::make_unique<tvg::DurableEngine>(std::move(g), s->dir, s->options);
  tvg::ServerConfig config;
  config.workers = kThreads;
  s->server = std::make_unique<tvg::Server>(s->engine(), config);
  return s;
}

struct Shape {
  std::size_t stack;  // index into Instance::stacks
  tvg::ClosureQuery query;
};
// Instance::shapes holds the Wait shape, then the NoWait shape.
constexpr std::size_t kWaitShape = 0;
constexpr std::size_t kNoWaitShape = 1;

struct Instance {
  std::vector<std::unique_ptr<Stack>> stacks;  // stacks[0] serves reads
  std::vector<tvg::JourneyQuery> pool;
  std::vector<Shape> shapes;
};

// Submits `queries` through the server, kThreads in flight (no more than
// the closed loop queues), and hands each result to `on_result`.
template <typename OnResult>
void submit_batched(tvg::Server& server,
                    const std::vector<tvg::JourneyQuery>& queries,
                    Tally& tally, OnResult&& on_result) {
  for (std::size_t lo = 0; lo < queries.size(); lo += kThreads) {
    const std::size_t hi = std::min(queries.size(), lo + kThreads);
    std::vector<std::future<tvg::JourneyResult>> futures;
    futures.reserve(hi - lo);
    for (std::size_t i = lo; i < hi; ++i) {
      futures.push_back(server.submit(queries[i]));
    }
    for (std::size_t i = lo; i < hi; ++i) {
      attempt(tally, tally.reads,
              [&] { on_result(queries[i], futures[i - lo].get()); });
    }
  }
}

// Graph generation, engines (checkpoint-0 written), servers started,
// cache warmed with the pool in descending Zipf rank (hottest last).
std::unique_ptr<Instance> set_up(const WorkloadDef& def,
                                 const std::string& dir, Tally& tally) {
  auto inst = std::make_unique<Instance>();
  // The NoWait shape always runs on the small graph, every node a source;
  // the Wait shape on the serving graph (512 sources, horizon 64) or, in
  // closure_live, on the Zipf graph (512 sources, no horizon). stacks[0]
  // serves the journey reads.
  tvg::ClosureQuery nowait;
  nowait.policy = tvg::Policy::no_wait();
  nowait.limits = tvg::SearchLimits::up_to(64);
  tvg::ClosureQuery wait;
  wait.policy = tvg::Policy::wait();
  if (def.zipf_wait) {
    inst->stacks.push_back(make_stack(small_graph(kDataSeed), kSmallFamily,
                                      dir + "/small"));
    inst->stacks.push_back(make_stack(zipf_graph(kDataSeed), kZipfFamily,
                                      dir + "/zipf"));
  } else {
    inst->stacks.push_back(make_stack(serving_graph(kDataSeed),
                                      kServingFamily, dir + "/serving"));
    inst->stacks.push_back(make_stack(small_graph(kDataSeed), kSmallFamily,
                                      dir + "/small"));
    wait.limits = tvg::SearchLimits::up_to(64);
  }
  const std::size_t wait_stack = def.zipf_wait ? 1 : 0;
  const std::size_t nowait_stack = 1 - wait_stack;
  wait.sources = sample_sources(inst->stacks[wait_stack]->base.node_count(),
                                kClosureSources, kPoolSeed);
  inst->shapes = {{wait_stack, wait}, {nowait_stack, nowait}};
  inst->pool = make_pool(inst->stacks[0]->base.node_count(), kPoolSeed);

  std::vector<tvg::JourneyQuery> warm(inst->pool.rbegin(), inst->pool.rend());
  submit_batched(*inst->stacks[0]->server, warm, tally,
                 [](const tvg::JourneyQuery&, const tvg::JourneyResult&) {});
  return inst;
}

// --- serving phase ---------------------------------------------------------------

struct ServeShared {
  Stack& stack;
  const std::vector<tvg::JourneyQuery>& pool;
  const Zipf& zipf;
  bool trace;
  Tally& tally;
  std::int64_t start_ns;
  std::atomic<bool> stop{false};
  std::atomic<bool> traced_slice{false};
  std::atomic<std::uint64_t> reads_done{0};
  std::atomic<std::uint64_t> next_request{1};
  // Writes the clients drew and the writer has not started yet.
  std::counting_semaphore<> writes_due{0};
  // Traced run only: an in-memory MutableEngine that receives every write
  // and serves every read of a traced slice, so DurableEngine::apply can
  // be split into its log part and its overlay part. Serving the same
  // reads keeps its result cache like the durable engine's, so the
  // twin's apply pays the same cache invalidation.
  std::unique_ptr<tvg::MutableEngine> twin{};
};

// Latency samples (us) per one-second window of the serving phase.
using Windows = std::vector<std::vector<double>>;

void record(Windows& w, std::int64_t start_ns, std::int64_t t0, double us) {
  const auto i = static_cast<std::size_t>((t0 - start_ns) / kWindow.count());
  if (w.size() <= i) w.resize(i + 1);
  w[i].push_back(us);
}

struct ClientOut {
  Windows read_us, write_us;
  std::vector<double> server_self_us, run_us, apply_self_us, twin_apply_us;
  std::size_t pending_max{0};
  std::vector<Span> spans;
};

// Applies the writes the clients draw, one at a time, through
// DurableEngine::apply. A write goes to this thread rather than being
// made by the client that drew it: a kEveryN fsync holds the engine's
// write lock, and on a shared disk one can take over ten milliseconds,
// which would otherwise stall every client's reads behind it.
void writer_loop(ServeShared& sh, std::uint64_t seed, ClientOut& out) {
  std::mt19937_64 rng(seed);
  tvg::MutableEngine& engine = sh.stack.engine();
  const std::size_t edges = sh.stack.base.edge_count();
  for (;;) {
    sh.writes_due.acquire();
    if (sh.stop.load()) break;
    const bool traced =
        sh.trace && sh.traced_slice.load(std::memory_order_relaxed);
    const tvg::EdgeMutation m = random_patch(rng, edges, sh.stack.family);
    std::int64_t t0 = 0, t1 = 0;
    const bool ok = attempt(sh.tally, sh.tally.writes, [&] {
      t0 = now_ns();
      const tvg::EdgeId got = sh.stack.durable->apply(m);
      t1 = now_ns();
      check(sh.tally, got == m.edge, "write edge id");
    });
    if (!ok) continue;
    record(out.write_us, sh.start_ns, t0, us_between(t0, t1));
    const std::size_t pending = engine.pending_mutations();
    out.pending_max = std::max(out.pending_max, pending);
    if (pending >= kCompactAt) sh.stack.durable->compact_async();
    if (!traced) continue;
    std::int64_t t2 = 0, t3 = 0;
    const bool twin_ok = attempt(sh.tally, sh.tally.probes, [&] {
      t2 = now_ns();
      (void)sh.twin->apply(m);
      t3 = now_ns();
      if (sh.twin->pending_mutations() >= kCompactAt) sh.twin->compact_async();
    });
    if (!twin_ok) continue;
    const std::uint64_t req = sh.next_request++;
    out.spans.push_back({req, "durable_engine", "", t0, t1});
    out.spans.push_back({req, "delta_overlay", "durable_engine", t2, t3});
    out.twin_apply_us.push_back(us_between(t2, t3));
    out.apply_self_us.push_back(us_between(t0, t1) - us_between(t2, t3));
  }
}

void client_loop(ServeShared& sh, std::uint64_t seed, ClientOut& out) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  tvg::MutableEngine& engine = sh.stack.engine();
  unsigned traced_reads = 0;
  // Reads in flight, oldest first. The Server serves them in submission
  // order, so waiting on the oldest observes each completion promptly.
  struct InFlight {
    std::int64_t t0;
    std::future<tvg::JourneyResult> result;
  };
  std::deque<InFlight> window;
  const auto complete_oldest = [&] {
    InFlight f = std::move(window.front());
    window.pop_front();
    if (attempt(sh.tally, sh.tally.reads, [&] { (void)f.result.get(); })) {
      sh.reads_done.fetch_add(1, std::memory_order_relaxed);
      record(out.read_us, sh.start_ns, f.t0, us_between(f.t0, now_ns()));
    }
  };
  while (!sh.stop.load(std::memory_order_relaxed)) {
    const bool traced =
        sh.trace && sh.traced_slice.load(std::memory_order_relaxed);
    if (coin(rng) < kWriteFraction) {
      sh.writes_due.release();
      continue;
    }

    const tvg::JourneyQuery& q = sh.pool[sh.zipf(rng)];
    if (traced) {
      attempt(sh.tally, sh.tally.probes, [&] { (void)sh.twin->run(q); });
    }
    if (!traced || ++traced_reads % kProbeEvery != 0) {
      window.push_back({now_ns(), sh.stack.server->submit(q)});
      if (window.size() >= kReadWindow) complete_oldest();
      continue;
    }
    // A probed read, synchronous: the engine alone at this point of the
    // stream, the request through the Server, then the same request one
    // layer down again. The server's self time is its span minus the
    // replay. Only the Server request counts as a client read.
    const std::uint64_t req = sh.next_request++;
    attempt(sh.tally, sh.tally.probes, [&] {
      const std::int64_t a0 = now_ns();
      (void)engine.run(q);
      const std::int64_t a1 = now_ns();
      out.run_us.push_back(us_between(a0, a1));
      out.spans.push_back({req, "delta_overlay", "", a0, a1});
    });
    std::int64_t t0 = 0, t1 = 0;
    const bool ok = attempt(sh.tally, sh.tally.reads, [&] {
      t0 = now_ns();
      (void)sh.stack.server->submit(q).get();
      t1 = now_ns();
    });
    if (!ok) continue;
    sh.reads_done.fetch_add(1, std::memory_order_relaxed);
    record(out.read_us, sh.start_ns, t0, us_between(t0, t1));
    attempt(sh.tally, sh.tally.probes, [&] {
      const std::int64_t b0 = now_ns();
      (void)engine.run(q);
      const std::int64_t b1 = now_ns();
      out.spans.push_back({req, "server", "", t0, t1});
      out.spans.push_back({req, "delta_overlay", "server", b0, b1});
      out.server_self_us.push_back(us_between(t0, t1) - us_between(b0, b1));
    });
  }
  while (!window.empty()) complete_oldest();
}

struct ServeResult {
  std::uint64_t reads{0}, writes{0};
  double elapsed_s{0.0};
  // Read throughput of each slice, by whether the slice was traced.
  std::vector<double> qps_traced, qps_untraced;
  Windows read_us, write_us;
  std::vector<double> server_self_us, run_us, apply_self_us, twin_apply_us;
  std::size_t pending_max{0};
};

// Closed loop for `seconds`: kThreads clients, each with kReadWindow
// reads in flight, submitting its next read when its oldest returned;
// the writes they draw are applied by one writer thread. The main thread
// cuts the phase into slices (alternately traced and untraced in a
// traced run) and records each slice's read throughput.
ServeResult serve(Stack& stack, const std::vector<tvg::JourneyQuery>& pool,
                  double seconds, bool trace, std::uint64_t seed, Tally& tally,
                  SpanLog& spans) {
  const Zipf zipf(pool.size(), kZipfS);
  ServeShared sh{stack, pool, zipf, trace, tally, now_ns()};
  if (trace) {
    // Same graph and cache configuration as the durable engine, warmed
    // like set_up() warmed it.
    stack.durable->wait_for_compaction();
    sh.twin = std::make_unique<tvg::MutableEngine>(stack.durable->materialize(),
                                                   1);
    for (auto it = pool.rbegin(); it != pool.rend(); ++it) {
      attempt(tally, tally.probes, [&] { (void)sh.twin->run(*it); });
    }
  }
  std::vector<ClientOut> outs(kThreads + 1);  // the clients', the writer's
  std::vector<std::thread> clients;
  sh.start_ns = now_ns();
  const std::int64_t end = sh.start_ns + static_cast<std::int64_t>(seconds * 1e9);
  for (unsigned i = 0; i < kThreads; ++i) {
    clients.emplace_back(client_loop, std::ref(sh), mix_seed(seed, 100 + i),
                         std::ref(outs[i]));
  }
  std::thread writer(writer_loop, std::ref(sh), mix_seed(seed, 99),
                     std::ref(outs[kThreads]));
  ServeResult r;
  std::int64_t slice_start = sh.start_ns;
  std::uint64_t slice_reads = 0;
  while (slice_start < end) {
    const std::int64_t slice_end = std::min(end, slice_start + kSlice.count());
    std::this_thread::sleep_until(Clock::time_point(
        std::chrono::nanoseconds(slice_end)));
    const std::int64_t now = now_ns();
    const std::uint64_t reads = sh.reads_done.load();
    const double qps = static_cast<double>(reads - slice_reads) /
                       (static_cast<double>(now - slice_start) * 1e-9);
    const bool was_traced = sh.traced_slice.load();
    (was_traced ? r.qps_traced : r.qps_untraced).push_back(qps);
    if (trace) sh.traced_slice.store(!was_traced);
    slice_start = now;
    slice_reads = reads;
  }
  sh.stop.store(true);
  for (std::thread& t : clients) t.join();
  sh.writes_due.release();  // wakes the writer to see `stop`
  writer.join();
  r.elapsed_s = static_cast<double>(now_ns() - sh.start_ns) * 1e-9;
  if (sh.twin) sh.twin->wait_for_compaction();

  const auto append = [](std::vector<double>& to,
                         const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  const auto merge = [&](Windows& to, const Windows& from, std::uint64_t& n) {
    if (to.size() < from.size()) to.resize(from.size());
    for (std::size_t i = 0; i < from.size(); ++i) {
      append(to[i], from[i]);
      n += from[i].size();
    }
  };
  for (ClientOut& o : outs) {
    merge(r.read_us, o.read_us, r.reads);
    merge(r.write_us, o.write_us, r.writes);
    append(r.server_self_us, o.server_self_us);
    append(r.run_us, o.run_us);
    append(r.apply_self_us, o.apply_self_us);
    append(r.twin_apply_us, o.twin_apply_us);
    r.pending_max = std::max(r.pending_max, o.pending_max);
    spans.add(o.spans);
  }
  return r;
}

// Median over windows of each window's q-quantile: a burst of noise
// moves a few windows, not the reported value.
double windowed_quantile(const Windows& windows, double q) {
  std::vector<double> per_window;
  for (std::vector<double> w : windows) {
    if (!w.empty()) per_window.push_back(quantile(w, q));
  }
  return median(per_window);
}

// --- correctness gate: sampled Server reads vs a rebuild ------------------------

// At a quiescent point (server drained, no compaction in flight, pending
// mutations left in place): sampled reads through the Server must equal
// a cache-disabled QueryEngine over materialize(). With `kernel_us`,
// also times every pool query on that engine (the kernels alone: no
// overlay, cache or server).
void read_gate(Stack& stack, const std::vector<tvg::JourneyQuery>& pool,
               std::uint64_t seed, Tally& tally,
               std::vector<double>* kernel_us) {
  stack.server->drain();
  stack.durable->wait_for_compaction();
  const tvg::TimeVaryingGraph graph = stack.durable->materialize();
  const tvg::QueryEngine reference(graph, 1, tvg::CacheConfig::disabled());
  std::mt19937_64 rng(seed);
  std::vector<tvg::JourneyQuery> sample;
  sample.reserve(kGateReads);
  for (std::size_t i = 0; i < kGateReads; ++i) {
    sample.push_back(pool[rng() % pool.size()]);
  }
  submit_batched(*stack.server, sample, tally,
                 [&](const tvg::JourneyQuery& q, const tvg::JourneyResult& r) {
                   check(tally, r == reference.run(q), "server read vs rebuild");
                 });
  if (kernel_us != nullptr) {
    for (const tvg::JourneyQuery& q : pool) {
      const std::int64_t t0 = now_ns();
      (void)reference.run(q);
      kernel_us->push_back(us_between(t0, now_ns()));
    }
  }
}

// --- closure phase -------------------------------------------------------------

struct ClosureSamples {
  std::vector<double> clean_ms, dirty_ms, compact_ms;
};

// Per shape, in turn, rounds of: a clean closure, one patch through
// DurableEngine::apply, the same closure with the patch pending, and
// compact(). Each dirty result must equal the next clean one (the state
// after compact()); one extra clean closure closes the last round. The
// shapes split `seconds` evenly and run one after the other, so no other
// shape's patch lands between a dirty closure and its check.
// Returns the samples per shape (index = Instance::shapes).
std::vector<ClosureSamples> closures(Instance& inst, double seconds,
                                     std::uint64_t seed, Tally& tally) {
  std::vector<ClosureSamples> r(inst.shapes.size());
  std::mt19937_64 rng(seed);
  std::int64_t end = now_ns();
  for (std::size_t i = 0; i < inst.shapes.size(); ++i) {
    const Shape& shape = inst.shapes[i];
    Stack& stack = *inst.stacks[shape.stack];
    end += static_cast<std::int64_t>(seconds * 1e9 /
                                     static_cast<double>(inst.shapes.size()));
    // One timed closure through the Server; nullopt when it failed.
    const auto closure = [&](std::vector<double>& ms) {
      std::optional<tvg::ClosureResult> rows;
      const std::int64_t t0 = now_ns();
      attempt(tally, tally.closures,
              [&] { rows = stack.server->submit(shape.query).get(); });
      if (rows) ms.push_back(us_between(t0, now_ns()) * 1e-3);
      return rows;
    };
    std::optional<tvg::ClosureResult> dirty;
    const auto clean_closure = [&](std::vector<double>& ms) {
      const std::optional<tvg::ClosureResult> clean = closure(ms);
      if (clean && dirty) {
        check(tally, *clean == *dirty, "dirty closure vs compacted");
      }
      dirty.reset();
    };
    for (int round = 0;
         round < kMinRounds || (round < kMaxRounds && now_ns() < end);
         ++round) {
      clean_closure(r[i].clean_ms);
      const tvg::EdgeMutation m =
          random_patch(rng, stack.base.edge_count(), stack.family);
      attempt(tally, tally.writes, [&] {
        check(tally, stack.durable->apply(m) == m.edge, "write edge id");
      });
      dirty = closure(r[i].dirty_ms);
      r[i].compact_ms.push_back(
          timed_s([&] { stack.durable->compact(); }) * 1e3);
    }
    std::vector<double> unused;
    clean_closure(unused);
  }
  return r;
}

// --- recovery ---------------------------------------------------------------------

struct Recovery {
  double seconds{0.0};
  std::uint64_t replayed{0};
  // Traced run only: the WAL part of recover() on its own.
  double replay_s{0.0};
};

// The replay half of DurableEngine::recover, timed: decode the WAL at
// `path` and apply its records to a fresh engine over the checkpointed
// graph, each record getting the edge id it was logged with.
double timed_replay(const std::string& path, tvg::TimeVaryingGraph checkpointed,
                    unsigned threads, Tally& tally) {
  tvg::MutableEngine engine(std::move(checkpointed), threads);
  bool ids_match = true;
  const double s = timed_s([&] {
    for (const tvg::Wal::Record& rec : tvg::Wal::replay(path).records) {
      ids_match = ids_match && engine.apply(rec.mutation) == rec.assigned_edge;
    }
  });
  check(tally, ids_match, "replayed edge ids");
  return s;
}

// Per stack: checkpoint, append a fixed seeded WAL tail of `records`
// patches (so recover_s replays the same amount of log whatever the
// timed phase managed), stop the server, destroy the engine, and time
// DurableEngine::recover on the directory left behind, `recoveries`
// times; the stacks' medians add up to Recovery::seconds. The recovered
// graph must serialize exactly like the engine before shutdown. With
// `trace`, the WAL replay is also timed on its own.
Recovery recover_all(Instance& inst, std::size_t records, int recoveries,
                     std::uint64_t seed, bool trace, Tally& tally) {
  Recovery r;
  std::mt19937_64 rng(seed);
  for (std::unique_ptr<Stack>& sp : inst.stacks) {
    Stack& s = *sp;
    s.server->drain();
    s.durable->wait_for_compaction();
    s.durable->checkpoint();
    const std::string wal = tvg::DurableEngine::wal_path(
        s.dir, s.durable->stats().checkpoint_sequence);
    std::optional<tvg::TimeVaryingGraph> checkpointed;
    if (trace) checkpointed = s.durable->materialize();
    for (std::size_t i = 0; i < records; ++i) {
      const tvg::EdgeMutation m =
          random_patch(rng, s.base.edge_count(), s.family);
      attempt(tally, tally.writes, [&] { (void)s.durable->apply(m); });
    }
    const std::string before = tvg::to_text(s.durable->materialize());
    s.server->stop();
    s.server.reset();
    s.durable.reset();
    if (checkpointed) {
      attempt(tally, tally.probes, [&] {
        r.replay_s += timed_replay(wal, std::move(*checkpointed),
                                   s.options.threads, tally);
      });
    }
    // recover() writes nothing to the directory, so it can be repeated
    // on it; each recovered engine is destroyed before the next. The
    // first one is checked.
    std::vector<double> seconds;
    for (int k = 0; k < recoveries; ++k) {
      std::unique_ptr<tvg::DurableEngine> recovered;
      seconds.push_back(timed_s(
          [&] { recovered = tvg::DurableEngine::recover(s.dir, s.options); }));
      if (k > 0) continue;
      r.replayed += recovered->stats().recovery.replayed_records;
      check(tally, tvg::to_text(recovered->materialize()) == before,
            "recovered state");
    }
    r.seconds += median(seconds);
  }
  return r;
}

// --- per-layer probes (traced run) ---------------------------------------------

std::atomic<std::int64_t> g_sink{0};

// Mean ns of next_present / arrival over a fixed seeded sample of
// (edge, time) pairs, median of three passes.
std::pair<double, double> schedule_index_ns(const tvg::TimeVaryingGraph& g,
                                            std::uint64_t seed) {
  constexpr std::size_t kPairs = 1 << 20;
  const tvg::ScheduleIndex& index = g.schedule_index();
  std::mt19937_64 rng(seed);
  std::vector<tvg::EdgeId> edges(kPairs);
  std::vector<tvg::Time> times(kPairs);
  for (std::size_t i = 0; i < kPairs; ++i) {
    edges[i] = static_cast<tvg::EdgeId>(rng() % g.edge_count());
    times[i] = static_cast<tvg::Time>(rng() % 256);
  }
  std::vector<double> next_ns, arrival_ns;
  for (int pass = 0; pass < 3; ++pass) {
    std::int64_t sink = 0;
    std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < kPairs; ++i) {
      sink += index.next_present(edges[i], times[i]);
    }
    std::int64_t t1 = now_ns();
    next_ns.push_back(static_cast<double>(t1 - t0) / kPairs);
    t0 = now_ns();
    for (std::size_t i = 0; i < kPairs; ++i) {
      sink += index.arrival(edges[i], times[i]);
    }
    t1 = now_ns();
    arrival_ns.push_back(static_cast<double>(t1 - t0) / kPairs);
    g_sink.fetch_add(sink, std::memory_order_relaxed);
  }
  return {median(next_ns), median(arrival_ns)};
}

// The shape's closure on a cache-disabled QueryEngine over
// materialize() (the kernels alone), median of three; ms.
double kernel_closure_ms(Stack& stack, const tvg::ClosureQuery& q) {
  const tvg::TimeVaryingGraph graph = stack.durable->materialize();
  const tvg::QueryEngine engine(graph, kThreads, tvg::CacheConfig::disabled());
  std::vector<double> ms;
  for (int i = 0; i < 3; ++i) {
    ms.push_back(timed_s([&] { (void)engine.closure(q); }) * 1e3);
  }
  return median(ms);
}

// 1-thread ms / kThreads-thread ms of the Wait shape on the mutable
// engine directly (clean overlay).
double closure_scaling(Stack& stack, tvg::ClosureQuery q) {
  q.threads = 1;
  const double one = timed_s([&] { (void)stack.engine().closure(q); });
  q.threads = kThreads;
  const double many = timed_s([&] { (void)stack.engine().closure(q); });
  return one / many;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

template <typename T>
double ratio(T num, T den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

tvg::WorkerPool::Stats pool_stats(Instance& inst) {
  tvg::WorkerPool::Stats sum;
  for (auto& s : inst.stacks) {
    const tvg::WorkerPool::Stats w = s->engine().worker_stats();
    sum.batches_executed += w.batches_executed;
    sum.tasks_claimed += w.tasks_claimed;
    sum.idle_wakeups += w.idle_wakeups;
  }
  return sum;
}

}  // namespace

void run_workload(const Options& o, Report& out) {
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& d : kWorkloads) {
    if (o.workload == d.name) def = &d;
  }
  if (def == nullptr) {
    throw std::invalid_argument("unknown workload: " + o.workload);
  }
  Tally& tally = out.tally;
  const auto metric = [&](const std::string& name, double value,
                          const std::string& unit) {
    out.metrics.push_back({name, value, unit});
  };
  namespace fs = std::filesystem;
  fs::remove_all(o.workdir);
  fs::create_directories(o.workdir);

  // Wall time of each phase, for the summary lines.
  std::string phases = "phases (s):";
  std::int64_t mark_ns = now_ns();
  const auto mark = [&](const char* phase) {
    const std::int64_t t = now_ns();
    phases += " " + std::string(phase) + " " +
              std::to_string(static_cast<double>(t - mark_ns) * 1e-9);
    mark_ns = t;
  };

  // Set-up, several times: the last instance is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<Instance> inst;
  for (int k = 0; k < kSetups; ++k) {
    if (inst) {
      inst.reset();
      fs::remove_all(o.workdir + "/setup" + std::to_string(k - 1));
    }
    const std::string dir = o.workdir + "/setup" + std::to_string(k);
    setup_s.push_back(
        timed_s([&] { inst = set_up(*def, dir, tally); }));
  }
  Stack& main = *inst->stacks[0];
  mark("setup");

  SpanLog spans;
  const tvg::CacheStats cache0 = main.engine().cache_stats();
  const tvg::WorkerPool::Stats pool0 = pool_stats(*inst);
  const ServeResult served =
      serve(main, inst->pool, o.seconds * def->serve_share, o.trace,
            mix_seed(o.seed, 5), tally, spans);
  const tvg::CacheStats cache1 = main.engine().cache_stats();
  mark("serve");
  std::vector<double> kernel_us;
  read_gate(main, inst->pool, mix_seed(o.seed, 6), tally,
            o.trace ? &kernel_us : nullptr);
  for (auto& s : inst->stacks) s->durable->compact();
  mark("gate");

  const std::vector<ClosureSamples> closed =
      closures(*inst, o.seconds * (1.0 - def->serve_share),
               mix_seed(o.seed, 7), tally);
  const tvg::WorkerPool::Stats pool1 = pool_stats(*inst);
  mark("closures");

  // Layer counters and kernel probes, read while the engines are live.
  tvg::ServerStats server_stats;
  tvg::Wal::Stats wal;
  for (auto& s : inst->stacks) {
    const tvg::ServerStats st = s->server->stats();
    server_stats.lane_depth_high_water =
        std::max(server_stats.lane_depth_high_water, st.lane_depth_high_water);
    server_stats.shed += st.shed;
    server_stats.expired += st.expired;
    const tvg::Wal::Stats w = s->durable->stats().wal;
    wal.appends += w.appends;
    wal.syncs += w.syncs;
    wal.bytes_written += w.bytes_written;
  }
  double wait_kernel_ms = 0.0, nowait_kernel_ms = 0.0, scaling = 0.0;
  // ScheduleIndex probes, one per stack's graph: the read graph is
  // stacks[0], and each closure shape reports its own stack's graph.
  std::vector<std::pair<double, double>> index_ns(inst->stacks.size());
  const std::size_t wait_graph = inst->shapes[kWaitShape].stack;
  const std::size_t nowait_graph = inst->shapes[kNoWaitShape].stack;
  if (o.trace) {
    const Shape& w = inst->shapes[kWaitShape];
    const Shape& nw = inst->shapes[kNoWaitShape];
    wait_kernel_ms = kernel_closure_ms(*inst->stacks[w.stack], w.query);
    nowait_kernel_ms = kernel_closure_ms(*inst->stacks[nw.stack], nw.query);
    scaling = closure_scaling(*inst->stacks[w.stack], w.query);
    for (std::size_t i = 0; i < inst->stacks.size(); ++i) {
      index_ns[i] = schedule_index_ns(inst->stacks[i]->base, mix_seed(o.seed, 8));
    }
    mark("probes");
  }

  const Recovery rec =
      recover_all(*inst, def->recovery_records, def->recoveries,
                  mix_seed(o.seed, 9), o.trace, tally);
  inst.reset();
  fs::remove_all(o.workdir);
  mark("recovery");
  out.notes.push_back(phases);

  if (!o.trace) {
    metric("setup_s", median(setup_s), "s");
    metric("read_p50_us", windowed_quantile(served.read_us, 0.50), "us");
    metric("write_p50_us", windowed_quantile(served.write_us, 0.50), "us");
    metric("recover_s", rec.seconds, "s");
    metric("wait_closure_ms", median(closed[kWaitShape].clean_ms), "ms");
    metric("wait_closure_dirty_ms", median(closed[kWaitShape].dirty_ms),
           "ms");
    metric("nowait_closure_dirty_ms",
           median(closed[kNoWaitShape].dirty_ms), "ms");
    metric("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    ServeResult s = served;
    // Read throughput and the p99 tails repeat too loosely run to run for
    // an end-to-end bound on a machine whose CPUs are shared: a stolen
    // CPU stalls the client -> Server -> client hand-offs, so the traced
    // run reports them. read_qps is over the untraced slices.
    const double traced_qps = median(s.qps_traced);
    const double untraced_qps = median(s.qps_untraced);
    metric("read_qps", untraced_qps, "ops/s");
    metric("read_p99_us", windowed_quantile(s.read_us, 0.99), "us");
    metric("write_p99_us", windowed_quantile(s.write_us, 0.99), "us");
    // The clean NoWait closure takes a few ms on 4 workers, so its time
    // is mostly how fast the workers wake; it too is reported here.
    metric("nowait_closure_ms", median(closed[kNoWaitShape].clean_ms), "ms");
    metric("server.self_p50_us", quantile(s.server_self_us, 0.50), "us");
    metric("server.self_p99_us", quantile(s.server_self_us, 0.99), "us");
    metric("server.lane_depth_high_water",
           static_cast<double>(server_stats.lane_depth_high_water), "count");
    metric("server.shed", static_cast<double>(server_stats.shed), "count");
    metric("server.expired", static_cast<double>(server_stats.expired),
           "count");
    metric("wal.apply_self_p50_us", quantile(s.apply_self_us, 0.50), "us");
    metric("wal.apply_self_p99_us", quantile(s.apply_self_us, 0.99), "us");
    metric("wal.syncs", static_cast<double>(wal.syncs), "count");
    metric("wal.bytes_per_write", ratio(wal.bytes_written, wal.appends), "B");
    // WAL records per second of replay (decode + apply), apart from the
    // checkpoint load that dominates recover_s.
    metric("recover.records_per_s",
           static_cast<double>(rec.replayed) / rec.replay_s, "1/s");
    metric("delta_overlay.apply_p50_us", quantile(s.twin_apply_us, 0.50),
           "us");
    metric("delta_overlay.apply_p99_us", quantile(s.twin_apply_us, 0.99),
           "us");
    metric("delta_overlay.run_p50_us", quantile(s.run_us, 0.50), "us");
    metric("delta_overlay.compact_ms",
           median(closed[kWaitShape].compact_ms), "ms");
    metric("delta_overlay.pending_max", static_cast<double>(s.pending_max),
           "count");
    const std::uint64_t hits = cache1.hits - cache0.hits;
    const std::uint64_t misses = cache1.misses - cache0.misses;
    const std::uint64_t invalidated = cache1.invalidations - cache0.invalidations;
    const std::uint64_t survived = cache1.survivors - cache0.survivors;
    metric("result_cache.hit_ratio", ratio(hits, hits + misses), "ratio");
    metric("result_cache.survivor_ratio",
           ratio(survived, survived + invalidated), "ratio");
    metric("result_cache.invalidations", static_cast<double>(invalidated),
           "count");
    metric("result_cache.evictions",
           static_cast<double>(cache1.evictions - cache0.evictions), "count");
    metric("worker_pool.tasks_claimed",
           static_cast<double>(pool1.tasks_claimed - pool0.tasks_claimed),
           "count");
    metric("worker_pool.batches",
           static_cast<double>(pool1.batches_executed - pool0.batches_executed),
           "count");
    metric("worker_pool.idle_wakeups",
           static_cast<double>(pool1.idle_wakeups - pool0.idle_wakeups),
           "count");
    metric("worker_pool.closure_scaling", scaling, "x");
    metric("algorithms.journey_p50_us", quantile(kernel_us, 0.50), "us");
    metric("algorithms.journey_p99_us", quantile(kernel_us, 0.99), "us");
    metric("algorithms.wait_closure_ms", wait_kernel_ms, "ms");
    metric("algorithms.nowait_closure_ms", nowait_kernel_ms, "ms");
    metric("schedule_index.next_present_ns", index_ns[0].first, "ns");
    metric("schedule_index.arrival_ns", index_ns[0].second, "ns");
    metric("schedule_index.wait_next_present_ns", index_ns[wait_graph].first,
           "ns");
    metric("schedule_index.wait_arrival_ns", index_ns[wait_graph].second,
           "ns");
    metric("schedule_index.nowait_next_present_ns",
           index_ns[nowait_graph].first, "ns");
    metric("schedule_index.nowait_arrival_ns", index_ns[nowait_graph].second,
           "ns");
    metric("trace.read_qps", traced_qps, "ops/s");
    metric("trace.overhead_pct",
           untraced_qps > 0 ? 100.0 * (1.0 - traced_qps / untraced_qps) : 0.0,
           "%");
    if (!o.spans_path.empty()) {
      out.notes.push_back(
          (spans.write(o.spans_path) ? "spans written: " : "spans NOT written: ") +
          o.spans_path + " (" + std::to_string(spans.size()) + " spans)");
    }
  }
  std::vector<double> slices = served.qps_untraced;
  out.notes.push_back("serving phase: " + std::to_string(served.reads) +
                      " reads, " + std::to_string(served.writes) +
                      " writes in " + std::to_string(served.elapsed_s) +
                      " s; untraced slice read qps p25/p50/p75 " +
                      std::to_string(quantile(slices, 0.25)) + " / " +
                      std::to_string(quantile(slices, 0.50)) + " / " +
                      std::to_string(quantile(slices, 0.75)));
  out.notes.push_back(
      "closure rounds (Wait / NoWait): " +
      std::to_string(closed[kWaitShape].dirty_ms.size()) + " / " +
      std::to_string(closed[kNoWaitShape].dirty_ms.size()) +
      "; recovery replayed " + std::to_string(rec.replayed) + " records, " +
      std::to_string(def->recoveries) + " recover() calls per engine");
}

}  // namespace fullstack
