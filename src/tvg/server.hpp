// tvg::Server — the async serving front end over QueryEngine.
//
// Every engine entry point is call-and-wait: the caller's thread runs
// the search. A service interleaving many concurrent clients instead
// wants to hand a query in, get a future back, and let a bounded set of
// serving workers decide what runs next. This layer adds exactly that,
// on top of the (already thread-safe) QueryEngine:
//
//  * submit(JourneyQuery | ClosureQuery | AcceptSpec+words) returns a
//    std::future<Result>; the query executes on one of the server's
//    serving workers (which in turn fan batch work into the engine's
//    own WorkerPool — the server schedules *queries*, the pool
//    schedules *shards*);
//  * cache hits skip the lanes: with serving workers running, a journey
//    whose result the engine already caches (try_cached) is answered on
//    the submitting thread with an already-ready future. It takes no
//    lane, no lock and no thread hop, so it is never shed. A stopped
//    server or a passed deadline still goes the queued way, and with
//    workers == 0 every submission queues;
//  * three priority lanes — kHigh / kNormal / kBatch — drained by
//    weighted round-robin (ServerConfig::weights): a flood of batch
//    traffic cannot starve interactive queries, and an idle lane's
//    unused credit never blocks the lanes that do have work;
//  * bounded submission queues with admission control: when a lane is
//    at capacity, submit() SHEDS — the returned future fails fast with
//    tvg::Overloaded instead of blocking the client or growing the
//    queue without bound (set ServerConfig::admission_control = false
//    to get the unbounded-FIFO baseline the serving bench compares
//    against);
//  * a per-query deadline (SubmitOptions::within / by), enforced at
//    DEQUEUE: work whose deadline passed while queued is dropped
//    without executing and its future fails with DeadlineExceeded, so
//    a backlog of stale work can't pin a serving worker;
//  * live graphs: the engine may take writes while the server serves
//    it, and every query kind, acceptance included, runs over the graph
//    as of the moment it executes. The server only reads: writes go to
//    the engine (or its DurableEngine, which logs them first), never
//    through the server;
//  * a drain()/stop() lifecycle mirroring WorkerPool::parallel_for's
//    abort/first-error semantics: drain() blocks until every accepted
//    query completed; stop() stops dequeuing (like the pool's abort
//    flag), lets in-flight queries finish, fails every still-queued
//    future with ServerStopped, and joins the workers. A query that
//    throws (validation, poisoned input) errors only its own future —
//    the server, like the engine, stays fully usable afterwards.
//
// Locks are the annotated tvg::Mutex / tvg::CondVar (sync.hpp): the
// clang -Wthread-safety -Werror lane proves mu_ guards the lanes,
// counters, and worker set; the TSan lane runs the multi-client
// stress suite (tests/test_server.cpp) over this code.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "tvg/annotations.hpp"
#include "tvg/query_engine.hpp"
#include "tvg/sync.hpp"

namespace tvg {

/// Thrown into a future when admission control sheds the submission
/// (its lane was at capacity). The query never entered the queue.
class Overloaded : public std::runtime_error {
 public:
  explicit Overloaded(const char* what_arg) : std::runtime_error(what_arg) {}
};

/// Thrown into a future when the query's deadline passed before a
/// serving worker dequeued it. The query never executed.
class DeadlineExceeded : public std::runtime_error {
 public:
  explicit DeadlineExceeded(const char* what_arg)
      : std::runtime_error(what_arg) {}
};

/// Thrown into a future when stop() discarded the queued query, or when
/// submit() was called on a stopped server.
class ServerStopped : public std::runtime_error {
 public:
  explicit ServerStopped(const char* what_arg)
      : std::runtime_error(what_arg) {}
};

/// Priority lane of a submission. Lower value = higher priority.
enum class Lane : std::uint8_t { kHigh = 0, kNormal = 1, kBatch = 2 };
inline constexpr std::size_t kLaneCount = 3;

struct ServerConfig {
  /// Serving worker threads (they run the queries; each may fan shard
  /// work into the engine's WorkerPool). 0 is allowed: no threads are
  /// spawned and the embedder drives the server with run_one() — the
  /// deterministic mode the dequeue-order tests use.
  unsigned workers{2};
  /// Per-lane submission-queue capacity (admission control sheds past
  /// it). Sized by how much latency a lane may buy: a lane's worst
  /// queueing delay is roughly capacity x mean service time, so
  /// interactive lanes want SMALL queues.
  std::array<std::size_t, kLaneCount> queue_capacity{64, 256, 1024};
  /// Weighted round-robin credits per lane, consumed one per dequeue.
  /// With {8, 4, 1}, a fully loaded server serves 8 high for every 4
  /// normal and 1 batch; an empty lane forfeits its turn immediately.
  std::array<unsigned, kLaneCount> weights{8, 4, 1};
  /// false = no shedding: queues grow without bound (every submission
  /// is accepted). The serving bench's baseline mode; real deployments
  /// keep this on.
  bool admission_control{true};
};

/// Per-submission knobs. Default: normal lane, no deadline.
struct SubmitOptions {
  using Clock = std::chrono::steady_clock;

  Lane lane{Lane::kNormal};
  /// Absolute drop-dead instant, checked when a worker dequeues the
  /// query (max() = never expires).
  Clock::time_point deadline{Clock::time_point::max()};

  [[nodiscard]] static SubmitOptions in_lane(Lane l) {
    SubmitOptions o;
    o.lane = l;
    return o;
  }
  /// Relative deadline: now + budget.
  SubmitOptions& within(Clock::duration budget) {
    deadline = Clock::now() + budget;
    return *this;
  }
  /// Absolute deadline.
  SubmitOptions& by(Clock::time_point t) {
    deadline = t;
    return *this;
  }
};

/// Monotone counter snapshot (all counted since construction).
/// submitted = accepted + shed + rejected_stopped; every accepted
/// submission ends in exactly one of completed / failed / expired /
/// discarded_on_stop. A cache hit served on the submitting thread counts
/// as submitted, accepted (in its lane) and completed, and in
/// served_inline; it never enters a lane queue, so it never moves the
/// lane depths.
struct ServerStats {
  std::uint64_t submitted{0};  // submit() calls, whatever their outcome
  std::uint64_t accepted{0};   // entered a lane queue, or served inline
  std::uint64_t completed{0};  // ran or served inline; future holds a value
  std::uint64_t failed{0};     // executed; future holds the query's error
  std::uint64_t shed{0};       // admission control: future = Overloaded
  std::uint64_t expired{0};    // deadline at dequeue: future = DeadlineExceeded
  std::uint64_t rejected_stopped{0};  // submit() on a stopped server
  std::uint64_t discarded_on_stop{0};  // queued at stop(): future = ServerStopped
  std::uint64_t served_inline{0};  // cache hits answered inside submit()
  /// Per-lane accepted submissions (index = Lane).
  std::array<std::uint64_t, kLaneCount> accepted_per_lane{};
  /// Per-lane sheds (index = Lane).
  std::array<std::uint64_t, kLaneCount> shed_per_lane{};
  /// Most entries any single lane ever held.
  std::size_t lane_depth_high_water{0};
  /// Entries queued in each lane right now (index = Lane) — the live
  /// complement of lane_depth_high_water, for load-shedding dashboards
  /// and retry backoff decisions.
  std::array<std::size_t, kLaneCount> lane_depth_now{};
  /// Entries queued across all lanes right now.
  std::size_t queued_now{0};
  /// Queries executing on workers right now.
  std::size_t in_flight_now{0};
};

/// The serving front end. Construct over a QueryEngine that outlives
/// the server; submit from any number of threads.
class Server {
 public:
  explicit Server(const QueryEngine& engine, ServerConfig config = {});
  /// Equivalent to stop().
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] const ServerConfig& config() const noexcept {
    return config_;
  }

  /// Async QueryEngine::run. The future yields the JourneyResult or the
  /// query's own exception; shed / expired / stopped submissions fail
  /// the future with Overloaded / DeadlineExceeded / ServerStopped.
  /// Never blocks on a full queue. With workers > 0, a cached result is
  /// returned ready (see the header comment) and never shed.
  [[nodiscard]] std::future<JourneyResult> submit(const JourneyQuery& q,
                                                  SubmitOptions options = {})
      TVG_EXCLUDES(mu_);

  /// Async QueryEngine::closure (same future semantics as above).
  [[nodiscard]] std::future<ClosureResult> submit(const ClosureQuery& q,
                                                  SubmitOptions options = {})
      TVG_EXCLUDES(mu_);

  /// Async QueryEngine::accepts. Words are copied into the task (the
  /// caller's buffer may die before the query runs).
  [[nodiscard]] std::future<std::vector<AcceptOutcome>> submit(
      const AcceptSpec& spec, std::vector<Word> words,
      SubmitOptions options = {}) TVG_EXCLUDES(mu_);

  /// Runs at most one queued task on the calling thread, honoring the
  /// weighted lane order and the deadline check exactly like a serving
  /// worker. Returns false when every lane was empty. This is both the
  /// workers == 0 embedding mode and what makes the dequeue-order tests
  /// deterministic.
  bool run_one() TVG_EXCLUDES(mu_);

  /// Blocks until every accepted submission reached a terminal state
  /// (completed / failed / expired). Concurrent submitters may keep the
  /// server busy past any one drain() call — drain guarantees the work
  /// accepted BEFORE it returned is done, not an idle server. With
  /// workers == 0 it drains by running tasks on the calling thread.
  void drain() TVG_EXCLUDES(mu_);

  /// Stops dequeuing (in-flight queries finish — the pool-abort
  /// analogy), fails every still-queued future with ServerStopped,
  /// rejects future submissions, and joins the workers. Idempotent.
  void stop() TVG_EXCLUDES(mu_);

  [[nodiscard]] ServerStats stats() const TVG_EXCLUDES(mu_);

 private:
  /// One queued submission, one allocation: the typed subclass
  /// (server.cpp) owns the promise and the query. run() executes the
  /// query into the promise (true = value set, false = the query's
  /// exception set) and never throws; fail() resolves the promise with a
  /// server-side error (shed, expired, stopped) instead.
  struct Task {
    explicit Task(SubmitOptions::Clock::time_point d) : deadline(d) {}
    virtual ~Task() = default;
    Task(const Task&) = delete;
    Task& operator=(const Task&) = delete;
    virtual bool run() = 0;
    virtual void fail(std::exception_ptr error) = 0;
    const SubmitOptions::Clock::time_point deadline;
  };
  template <typename Result, typename Execute>
  struct TypedTask;
  using TaskPtr = std::unique_ptr<Task>;

  /// Type-erasing submit core shared by the three public overloads:
  /// admission control, lane bookkeeping, worker wakeup. `lane` is
  /// already validated.
  template <typename Result, typename Execute>
  [[nodiscard]] std::future<Result> enqueue(
      Execute query, std::size_t lane,
      SubmitOptions::Clock::time_point deadline) TVG_EXCLUDES(mu_);

  /// Pops the next task by weighted round-robin into `out`; false when
  /// every lane is empty. Advances the lane credit state.
  [[nodiscard]] bool pop_next(TaskPtr& out) TVG_REQUIRES(mu_);

  /// Runs (or expires) one dequeued task and retires it: outcome
  /// counter, in-flight decrement, idle signal. The caller already
  /// incremented in_flight_ while popping under mu_.
  void execute(Task& task) TVG_EXCLUDES(mu_);

  [[nodiscard]] std::size_t queued_locked() const TVG_REQUIRES(mu_);

  void worker_loop() TVG_EXCLUDES(mu_);

  /// Set at construction for the server's whole lifetime (no lock needed
  /// to read it).
  const QueryEngine& engine_;
  const ServerConfig config_;

  mutable Mutex mu_;
  CondVar work_cv_;   // workers: "a task was queued" / "stopping"
  CondVar idle_cv_;   // drain(): "queues empty and nothing in flight"
  std::array<std::deque<TaskPtr>, kLaneCount> lanes_ TVG_GUARDED_BY(mu_);
  /// Weighted round-robin cursor: credit left for lane `rr_lane_`.
  std::size_t rr_lane_ TVG_GUARDED_BY(mu_){0};
  unsigned rr_credit_ TVG_GUARDED_BY(mu_){0};
  /// Set once, by stop(), under mu_ (the workers' wait predicate reads
  /// it there); the cache-hit path in submit() reads it without the lock.
  std::atomic<bool> stopping_{false};
  /// Cache hits served inside submit(), per lane. Relaxed atomics, one
  /// cache line each, that stats() folds into its snapshot.
  struct alignas(64) InlineCount {
    std::atomic<std::uint64_t> n{0};
  };
  std::array<InlineCount, kLaneCount> served_inline_{};
  std::size_t in_flight_ TVG_GUARDED_BY(mu_){0};
  ServerStats stats_ TVG_GUARDED_BY(mu_);
  /// Spawned in the constructor; stop() swaps the vector out under mu_
  /// and joins outside it (a worker takes mu_ on its way to exit — the
  /// WorkerPool destructor discipline).
  std::vector<std::thread> workers_ TVG_GUARDED_BY(mu_);
};

}  // namespace tvg
