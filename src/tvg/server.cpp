#include "tvg/server.hpp"

#include <algorithm>
#include <exception>
#include <optional>
#include <utility>

#include "tvg/failpoint.hpp"

namespace tvg {

namespace {

/// The lane index of a submission; throws on an out-of-range lane.
std::size_t lane_of(const SubmitOptions& options) {
  const auto lane = static_cast<std::size_t>(options.lane);
  if (lane >= kLaneCount) {
    throw std::invalid_argument("Server::submit: invalid lane");
  }
  return lane;
}

}  // namespace

template <typename Result, typename Execute>
struct Server::TypedTask final : Server::Task {
  TypedTask(SubmitOptions::Clock::time_point d, Execute q)
      : Task(d), query(std::move(q)) {}

  bool run() override {
    try {
      promise.set_value(query());
      return true;
    } catch (...) {
      promise.set_exception(std::current_exception());
      return false;
    }
  }
  void fail(std::exception_ptr error) override {
    promise.set_exception(std::move(error));
  }

  std::promise<Result> promise;
  Execute query;
};

Server::Server(const QueryEngine& engine, ServerConfig config)
    : engine_(engine), config_(std::move(config)) {
  for (const unsigned w : config_.weights) {
    if (w == 0) {
      throw std::invalid_argument(
          "Server: every lane weight must be >= 1 (a zero-weight lane "
          "would never be served)");
    }
  }
  {
    // The round-robin cursor starts on the high lane with its full
    // credit, so the very first dequeue honors priority order.
    const MutexLock lock(mu_);
    rr_lane_ = static_cast<std::size_t>(Lane::kHigh);
    rr_credit_ = config_.weights[rr_lane_];
    workers_.reserve(config_.workers);
    for (unsigned i = 0; i < config_.workers; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }
}

Server::~Server() { stop(); }

std::size_t Server::queued_locked() const {
  std::size_t total = 0;
  for (const auto& lane : lanes_) total += lane.size();
  return total;
}

bool Server::pop_next(TaskPtr& out) {
  if (queued_locked() == 0) return false;
  // Weighted round-robin: spend the current lane's credit while it has
  // work, otherwise advance (an empty lane forfeits its turn — credit
  // must never make the server idle while any lane has work). Some lane
  // is non-empty, so the advance loop terminates within kLaneCount
  // steps of the first credit reset.
  for (;;) {
    if (rr_credit_ == 0 || lanes_[rr_lane_].empty()) {
      rr_lane_ = (rr_lane_ + 1) % kLaneCount;
      rr_credit_ = config_.weights[rr_lane_];
      continue;
    }
    out = std::move(lanes_[rr_lane_].front());
    lanes_[rr_lane_].pop_front();
    --rr_credit_;
    return true;
  }
}

void Server::execute(Task& task) {
  // Deadline is enforced HERE, at dequeue: a query that waited past its
  // deadline is dropped without running, so a backlog of stale work
  // can't occupy a serving worker (the future still resolves, with
  // DeadlineExceeded).
  enum class Outcome { kCompleted, kFailed, kExpired };
  Outcome outcome;
  if (SubmitOptions::Clock::now() > task.deadline) {
    task.fail(std::make_exception_ptr(DeadlineExceeded(
        "tvg::Server: deadline passed before the query was dequeued")));
    outcome = Outcome::kExpired;
  } else {
    try {
      // Fault-injection site: an injected FailPointError fails THIS
      // task's future and nothing else — the server stays serving,
      // same blast radius as a query throwing its own error.
      // (task.run itself never throws; it traps the query's errors.)
      TVG_FAILPOINT("server.execute");
      outcome = task.run() ? Outcome::kCompleted : Outcome::kFailed;
    } catch (const FailPointError&) {
      task.fail(std::current_exception());
      outcome = Outcome::kFailed;
    }
  }
  const MutexLock lock(mu_);
  switch (outcome) {
    case Outcome::kCompleted: ++stats_.completed; break;
    case Outcome::kFailed: ++stats_.failed; break;
    case Outcome::kExpired: ++stats_.expired; break;
  }
  --in_flight_;
  if (in_flight_ == 0 && queued_locked() == 0) idle_cv_.notify_all();
}

void Server::worker_loop() {
  for (;;) {
    TaskPtr task;
    bool have = false;
    {
      const MutexLock lock(mu_);
      while (!stopping_ && queued_locked() == 0) work_cv_.wait(mu_);
      if (stopping_) return;  // queued work is stop()'s to discard
      have = pop_next(task);
      if (have) ++in_flight_;
    }
    if (have) execute(*task);
  }
}

bool Server::run_one() {
  TaskPtr task;
  {
    const MutexLock lock(mu_);
    if (!pop_next(task)) return false;
    ++in_flight_;
  }
  execute(*task);
  return true;
}

template <typename Result, typename Execute>
std::future<Result> Server::enqueue(Execute query, std::size_t lane,
                                    SubmitOptions::Clock::time_point deadline) {
  // Allocated before mu_ is taken; a shed or stopped submission fails it
  // below instead of queueing it.
  auto task = std::make_unique<TypedTask<Result, Execute>>(
      deadline, std::move(query));
  std::future<Result> future = task->promise.get_future();

  enum class Verdict { kAccepted, kShed, kStopped };
  Verdict verdict;
  {
    const MutexLock lock(mu_);
    ++stats_.submitted;
    if (stopping_) {
      ++stats_.rejected_stopped;
      verdict = Verdict::kStopped;
    } else if (config_.admission_control &&
               lanes_[lane].size() >= config_.queue_capacity[lane]) {
      ++stats_.shed;
      ++stats_.shed_per_lane[lane];
      verdict = Verdict::kShed;
    } else {
      lanes_[lane].push_back(std::move(task));
      ++stats_.accepted;
      ++stats_.accepted_per_lane[lane];
      stats_.lane_depth_high_water =
          std::max(stats_.lane_depth_high_water, lanes_[lane].size());
      verdict = Verdict::kAccepted;
    }
  }
  // Promise resolution and wakeups happen outside mu_: set_exception may
  // run a waiter's continuation machinery, and notify under the lock
  // would just convoy the woken worker.
  switch (verdict) {
    case Verdict::kAccepted:
      work_cv_.notify_one();
      break;
    case Verdict::kShed:
      task->fail(std::make_exception_ptr(Overloaded(
          "tvg::Server: lane at capacity, submission shed (resize "
          "ServerConfig::queue_capacity or slow the client)")));
      break;
    case Verdict::kStopped:
      task->fail(std::make_exception_ptr(
          ServerStopped("tvg::Server: submit after stop()")));
      break;
  }
  return future;
}

std::future<JourneyResult> Server::submit(const JourneyQuery& q,
                                          SubmitOptions options) {
  const std::size_t lane = lane_of(options);
  // Cache hits skip the lanes: answered here, on the caller, when a
  // serving worker would otherwise have to wake for them. A stopped
  // server and a passed deadline take the queued path, which rejects or
  // expires the submission exactly as it would a miss.
  if (config_.workers > 0 && !stopping_.load(std::memory_order_acquire) &&
      (options.deadline == SubmitOptions::Clock::time_point::max() ||
       SubmitOptions::Clock::now() <= options.deadline)) {
    std::optional<JourneyResult> hit = engine_.try_cached(q);
    if (hit) {
      std::promise<JourneyResult> ready;
      ready.set_value(std::move(*hit));
      served_inline_[lane].n.fetch_add(1, std::memory_order_relaxed);
      return ready.get_future();
    }
  }
  return enqueue<JourneyResult>([this, q] { return engine_.run(q); }, lane,
                                options.deadline);
}

std::future<ClosureResult> Server::submit(const ClosureQuery& q,
                                          SubmitOptions options) {
  return enqueue<ClosureResult>([this, q] { return engine_.closure(q); },
                                lane_of(options), options.deadline);
}

std::future<std::vector<AcceptOutcome>> Server::submit(
    const AcceptSpec& spec, std::vector<Word> words, SubmitOptions options) {
  return enqueue<std::vector<AcceptOutcome>>(
      [this, spec, words = std::move(words)] {
        return engine_.accepts(spec, words);
      },
      lane_of(options), options.deadline);
}

void Server::drain() {
  // Embedding mode (workers == 0): the draining thread IS the server.
  if (config_.workers == 0) {
    while (run_one()) {
    }
  }
  const MutexLock lock(mu_);
  while (!(queued_locked() == 0 && in_flight_ == 0)) {
    idle_cv_.wait(mu_);
  }
}

void Server::stop() {
  std::vector<TaskPtr> discarded;
  std::vector<std::thread> workers;
  {
    const MutexLock lock(mu_);
    stopping_ = true;
    for (auto& lane : lanes_) {
      for (TaskPtr& t : lane) discarded.push_back(std::move(t));
      lane.clear();
    }
    stats_.discarded_on_stop += discarded.size();
    workers.swap(workers_);
  }
  work_cv_.notify_all();
  for (TaskPtr& t : discarded) {
    t->fail(std::make_exception_ptr(
        ServerStopped("tvg::Server: stopped before the query was served")));
  }
  for (std::thread& t : workers) t.join();
  // Queues are empty and (workers joined) nothing is in flight from the
  // server's own threads; run_one() embedders may still be mid-execute,
  // which their own execute() call will retire. Wake any drain() that
  // was waiting on work this stop() discarded.
  idle_cv_.notify_all();
}

ServerStats Server::stats() const {
  const MutexLock lock(mu_);
  ServerStats snapshot = stats_;
  snapshot.queued_now = queued_locked();
  snapshot.in_flight_now = in_flight_;
  for (std::size_t i = 0; i < kLaneCount; ++i) {
    snapshot.lane_depth_now[i] = lanes_[i].size();
    // One read per lane: the hit counts in all five counters or none, so
    // the accounting identities hold in every snapshot.
    const std::uint64_t hits =
        served_inline_[i].n.load(std::memory_order_relaxed);
    snapshot.submitted += hits;
    snapshot.accepted += hits;
    snapshot.accepted_per_lane[i] += hits;
    snapshot.completed += hits;
    snapshot.served_inline += hits;
  }
  return snapshot;
}

}  // namespace tvg
