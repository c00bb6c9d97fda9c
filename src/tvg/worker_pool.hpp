// tvg::WorkerPool — the persistent thread pool behind QueryEngine's
// batch sharding.
//
// Before this component, every parallel batch (journey batches,
// multi-source closures) spawned and joined fresh std::threads per call,
// so a hot serving loop paid thread-creation latency on every query.
// The pool keeps workers alive across calls:
//
//  * lazily started — constructing the pool spawns nothing; the first
//    parallel_for that wants W-way parallelism grows the pool to W − 1
//    workers (the calling thread always participates as the W-th), and
//    the pool only ever grows to the largest parallelism requested;
//  * condition-variable task queue — parallel_for enqueues one claim-
//    counter batch; idle workers wake, join the batch (up to its
//    parallelism cap), and claim indices from a shared atomic counter,
//    so load-imbalanced index ranges self-balance;
//  * abort-flag error semantics, identical to the per-call-thread code
//    it replaces: the first exception aborts further claiming (in-flight
//    indices finish), and parallel_for rethrows it after the batch
//    drains;
//  * concurrent batches are fine — entry points submitting from several
//    threads share the worker set; a nested parallel_for issued from
//    inside a task also completes, because the submitting thread always
//    claims indices itself (progress never depends on a free worker);
//  * clean join in the destructor — workers exit when the pool is
//    destroyed; destruction must not race live parallel_for calls (the
//    owner's lifetime rules cover this: QueryEngine is destroyed only
//    after its entry points returned).
//
// Lock discipline is declared through the Clang Thread Safety
// annotations (annotations.hpp / sync.hpp) and proved on the CI clang
// lane: mu_ guards the batch queue, the worker vector, and the stop
// flag; each batch's own done_mu guards its participant count and first
// error (see Batch in the .cpp).
//
// This is also the substrate the async/streaming serving item on the
// ROADMAP needs: a submission queue with completion signalling already
// exists here; futures are a thin layer on top.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "tvg/annotations.hpp"
#include "tvg/sync.hpp"

namespace tvg {

class WorkerPool {
 public:
  /// Task body: fn(index, slot). `index` is the claimed work item in
  /// [0, n); `slot` identifies the participating worker within this
  /// batch, densely numbered from 0 and strictly less than the
  /// parallelism passed to parallel_for — callers use it to index
  /// per-worker state (QueryEngine hands each slot one leased
  /// workspace).
  using Task = std::function<void(std::size_t index, unsigned slot)>;

  WorkerPool() = default;
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Runs fn(i, slot) for every i in [0, n), on up to `parallelism`
  /// participants (this thread included — it always claims work, so the
  /// call makes progress even with zero pool workers free). Blocks until
  /// every claimed index finished; if any task threw, further claiming
  /// stops and the FIRST exception is rethrown here after the batch
  /// drains. Thread-safe: concurrent calls share the worker set.
  ///
  /// Pool growth is clamped at max(2 × hardware_concurrency, 8) workers:
  /// a request wider than that still completes (with fewer participants
  /// and the same results — batch sharding is scheduling-only), but one
  /// absurdly wide call can no longer pin hundreds of idle OS threads
  /// for the pool's whole lifetime.
  void parallel_for(std::size_t n, unsigned parallelism, const Task& fn)
      TVG_EXCLUDES(mu_);

  /// Fire-and-forget background task: enqueues `task` as a one-index
  /// batch the submitter does NOT participate in and returns
  /// immediately. The pool spawns a worker if it has none, so the task
  /// always runs eventually while the pool is alive; a task still queued
  /// (never claimed) when the destructor runs is dropped, and one
  /// already running is joined. Exceptions escaping `task` are swallowed
  /// (there is no submitter left to rethrow to) — callers that care must
  /// catch inside. This is the lane QueryEngine's background
  /// compaction rides (query_engine.hpp).
  void submit(std::function<void()> task) TVG_EXCLUDES(mu_);

  /// Workers ever spawned (monotone). The pool never shrinks while
  /// alive, so this equals the live worker count; exposed so tests can
  /// assert that consecutive batches REUSE workers instead of spawning.
  [[nodiscard]] std::size_t threads_spawned() const TVG_EXCLUDES(mu_);

  /// Observability counters, all monotone since construction. The
  /// serving bench samples these around a load interval; the deltas say
  /// whether latency came from queueing (high-water depth), scheduling
  /// churn (wakeups far above batches), or plain work volume (claims).
  struct Stats {
    /// == threads_spawned().
    std::size_t threads_spawned{0};
    /// Most batches ever simultaneously queued (submitted, not yet
    /// drained) — the pool-level queueing pressure high-water mark.
    std::size_t queue_depth_high_water{0};
    /// parallel_for calls begun (counted at entry — an aborted batch
    /// still counts), both the enqueued multi-thread path and the
    /// serial n==0/parallelism<=1 fast paths.
    std::uint64_t batches_executed{0};
    /// Work indices actually claimed and run (serial fast-path indices
    /// included). For an N-index batch that completes unaborted this
    /// grows by exactly N.
    std::uint64_t tasks_claimed{0};
    /// Times an idle worker woke from the queue condition variable
    /// (productively or not — a wakeup that loses the claim race goes
    /// back to sleep and counts once per wake).
    std::uint64_t idle_wakeups{0};
    /// Fire-and-forget tasks accepted by submit() (counted at
    /// submission — a task dropped unclaimed at shutdown still counts).
    std::uint64_t background_tasks{0};
  };

  /// Consistent snapshot of the counters above (taken under the queue
  /// lock; claim/wakeup counters are relaxed atomics, so a snapshot
  /// racing live batches is monotone rather than exact-at-an-instant).
  [[nodiscard]] Stats stats() const TVG_EXCLUDES(mu_);

 private:
  /// One claim-counter batch; shared by the submitter and every worker
  /// that joins it.
  struct Batch;

  void worker_loop() TVG_EXCLUDES(mu_);
  /// Runs the claim loop of `batch` as participant `slot`; returns with
  /// the participant count already decremented (and the submitter
  /// signalled when it hits zero). Non-static only for the claim
  /// counter — it touches no pool state that needs mu_.
  void run_claims(Batch& batch, unsigned slot);
  /// Scans the queue for a batch with a free participant slot, dropping
  /// drained batches it walks past (the submitter also removes its own;
  /// whoever comes second finds it gone).
  [[nodiscard]] std::shared_ptr<Batch> next_joinable() TVG_REQUIRES(mu_);

  mutable Mutex mu_;
  CondVar work_cv_;
  std::deque<std::shared_ptr<Batch>> queue_ TVG_GUARDED_BY(mu_);
  std::vector<std::thread> workers_ TVG_GUARDED_BY(mu_);
  bool stop_ TVG_GUARDED_BY(mu_){false};
  /// Stats: high-water tracked where the queue mutates (under mu_);
  /// the hot-path counters (claims, wakeups, batches) are relaxed
  /// atomics so the claim loop never takes a pool-wide lock for them.
  std::size_t queue_high_water_ TVG_GUARDED_BY(mu_){0};
  std::atomic<std::uint64_t> batches_executed_{0};
  std::atomic<std::uint64_t> tasks_claimed_{0};
  std::atomic<std::uint64_t> idle_wakeups_{0};
  std::atomic<std::uint64_t> background_tasks_{0};
};

}  // namespace tvg
