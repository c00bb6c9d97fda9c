// tvg::QueryEngine — the one engine: a compiled, batched, thread-parallel
// façade over every journey / reachability / analytics / acceptance
// query in the library, over a graph that may take live updates.
//
// The engine holds one frozen epoch graph (its ScheduleIndex ρ/ζ tables
// and CSR adjacency compiled at construction) plus the log of pending
// mutations and its compiled OverlaySnapshot (delta_overlay.hpp). A
// frozen engine is simply one whose overlay is empty. It owns a pool of
// SearchWorkspaces that its entry points lease, so callers never pay
// per-query arena allocation and never touch a lazily-built cache
// concurrently.
//
// Entry points are typed request/response pairs:
//
//  * run(JourneyQuery)            -> JourneyResult      (one query)
//  * run(span<JourneyQuery>)      -> vector<JourneyResult>   (batch,
//    sharded across a thread pool, results in request order)
//  * closure_fold(ClosureQuery, fold) (streams 64-source words of
//    foremost rows through `fold` on the workers; may stop early)
//  * closure(ClosureQuery)        -> ClosureResult      (the fold that
//    keeps every row: bit-identical to a serial sweep at any thread count)
//  * k_reachability / influence_spread / betweenness / centrality
//  * accepts(AcceptSpec, span<Word>) -> vector<AcceptOutcome>  (batched
//    TVG-automaton acceptance: the word set is compiled into a trie and
//    explored once over (node, time, trie-position) configurations, so
//    words sharing prefixes share their search frontier)
//  * apply(EdgeMutation | span) (writes), compact() / compact_async()
//
// A write is one path, apply(span), run under the writer mutex:
//   1. validate the batch against the running edge count;
//   2. append it to the pending log and extend the snapshot by it;
//   3. when a DurableEngine attached a write-ahead log (wal.hpp), encode
//      and write every record;
//   4. publish: swap the snapshot pointer under the reader mutex, then
//      stamp the touched partitions in the result cache (nothing here
//      can throw);
//   5. fsync per the log's sync policy.
// The next snapshot is the previous one extended by the batch, and the
// stamp is O(1), so a write costs O(batch) whatever the pending count
// and the cache size. A failure in steps
// 1-3 rolls the log back and leaves the engine as it was; a failure in
// step 5 means "applied, not yet durable". A failed logged write may
// leave any prefix of its batch on disk, so the log refuses every later
// write (tvg::IoError) until the engine is recovered from its directory.
//
// Every read captures one consistent {epoch, overlay} pair and runs on
// it through the View-templated read core (read_core.hpp): FrozenView
// while the overlay is empty, OverlayView otherwise, so a read on a
// mutated engine is bit-identical to the same read on a rebuild.
//
// Lifetime and thread-safety guarantees:
//  * QueryEngine(const TimeVaryingGraph&) borrows its graph as epoch 0:
//    the graph must outlive the engine and must not be mutated while the
//    engine exists (mutation invalidates the compiled index the engine
//    reads). QueryEngine(TimeVaryingGraph&&) owns its graph, so a
//    temporary is safe. Compaction always produces owned epochs; a
//    borrowed graph is never written;
//  * all public methods are safe to call concurrently from any number of
//    threads — readers copy {epoch, overlay} under the reader mutex and
//    then run lock-free on immutable state. Writers and compaction
//    serialize on a separate writer mutex and take the reader mutex only
//    for the O(1) publish, so the snapshot extension, the log write and
//    the fsync never stall a query, and a write takes no cache shard
//    lock (lock order: writer -> reader);
//  * results never alias engine internals (rows and journeys are owned
//    by the returned value — including results served from the cache,
//    which are copied out of the cache's immutable snapshots);
//  * repeated identical queries are served from a bounded, sharded LRU
//    result cache (on by default; see CacheConfig / result_cache.hpp).
//    Journeys are cached with their reached-partition footprint;
//    analytics results and accept outcomes with kFootprintAll (dropped
//    by any write); closure row blocks are never cached (their footprint
//    is the whole reached cone of every source, and one block can weigh
//    tens of megabytes). Every entry is tagged with the sequence of the
//    capture it was computed on, and a write stamps its endpoints'
//    partitions, so a lookup drops an entry whose footprint a later
//    write met: once apply returns, no hit is older than that write on
//    any partition it touched, and a hit always equals a cold run on the
//    current graph.
//
// The engine is the one front door for every query. Below it sit the
// kernel entry points of algorithms.hpp (foremost_arrivals,
// foremost_scan), which take a caller-owned SearchWorkspace and neither
// cache nor shard; TvgAutomaton::accepts is a thin wrapper over
// accepts().
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "tvg/algorithms.hpp"
#include "tvg/annotations.hpp"
#include "tvg/delta_overlay.hpp"
#include "tvg/graph.hpp"
#include "tvg/journey.hpp"
#include "tvg/policy.hpp"
#include "tvg/result_cache.hpp"
#include "tvg/sync.hpp"
#include "tvg/worker_pool.hpp"

namespace tvg {

class Wal;

/// What a JourneyQuery optimizes.
enum class JourneyObjective : std::uint8_t {
  kForemost,  // earliest arrival
  kShortest,  // fewest hops (requires a target)
  kFastest,   // smallest arrival − departure (requires a target)
};

/// One journey/reachability request. Build with the named constructors
/// and chain the fluent setters:
///
///   auto q = JourneyQuery::foremost(src, t0).to(dst)
///                .under(Policy::bounded_wait(4))
///                .within(SearchLimits::up_to(120));
struct JourneyQuery {
  NodeId source{kInvalidNode};
  /// Absent target + kForemost = whole arrival row (reachability scan).
  std::optional<NodeId> target;
  Time start_time{0};
  /// kFastest only: first departure scanned over [start_time, depart_hi].
  Time depart_hi{0};
  Policy policy{Policy::wait()};
  SearchLimits limits{};
  JourneyObjective objective{JourneyObjective::kForemost};

  [[nodiscard]] static JourneyQuery foremost(NodeId source,
                                             Time start_time = 0) {
    JourneyQuery q;
    q.source = source;
    q.start_time = start_time;
    return q;
  }
  [[nodiscard]] static JourneyQuery shortest(NodeId source, NodeId target,
                                             Time start_time = 0) {
    JourneyQuery q;
    q.source = source;
    q.target = target;
    q.start_time = start_time;
    q.objective = JourneyObjective::kShortest;
    return q;
  }
  [[nodiscard]] static JourneyQuery fastest(NodeId source, NodeId target,
                                            Time depart_lo, Time depart_hi) {
    JourneyQuery q;
    q.source = source;
    q.target = target;
    q.start_time = depart_lo;
    q.depart_hi = depart_hi;
    q.objective = JourneyObjective::kFastest;
    return q;
  }

  JourneyQuery& to(NodeId t) {
    target = t;
    return *this;
  }
  JourneyQuery& under(Policy p) {
    policy = p;
    return *this;
  }
  JourneyQuery& within(SearchLimits l) {
    limits = l;
    return *this;
  }

  /// Field-wise equality: two equal queries always produce equal results
  /// on one engine. The result cache keys on QueryKey::journey, which
  /// also canonicalizes fields the query's shape never reads.
  friend bool operator==(const JourneyQuery&, const JourneyQuery&) = default;
};

/// Response to a JourneyQuery. Which fields are populated depends on the
/// objective and on whether a target was set (see field comments).
struct JourneyResult {
  /// Optimal witness journey to `target` (absent when no target was set,
  /// or the target is unreachable).
  std::optional<Journey> journey;
  /// Foremost objective: earliest arrival at `target` (kTimeInfinity when
  /// unreachable). Shortest/fastest: the witness journey's arrival.
  Time arrival{kTimeInfinity};
  /// kFastest only: the witness journey's duration (arrival − departure).
  Time duration{kTimeInfinity};
  /// Untargeted foremost only: the full arrival row (index = NodeId).
  std::vector<Time> arrivals;
  /// True when a search/enumeration budget truncated the query: absence
  /// of a journey is then "not found within budget", not a proof. A
  /// targeted foremost read stops once the target's arrival is final, so
  /// there it means a budget cut the search before that point; a budget
  /// the full search would only exhaust later leaves it false.
  bool truncated{false};

  friend bool operator==(const JourneyResult&, const JourneyResult&) = default;
};

/// Multi-source foremost-closure request (the all-pairs sweep behind
/// the analytics and characteristic_temporal_distance).
struct ClosureQuery {
  /// Sources to scan; empty = every node, in NodeId order.
  std::vector<NodeId> sources;
  Time start_time{0};
  Policy policy{Policy::wait()};
  SearchLimits limits{};
  /// Worker threads for the row shard; 0 = the engine's default.
  unsigned threads{0};
  /// Push/pull frontier hints for the packed kernel (scheduling-only:
  /// rows are bit-identical in every mode, see DirectionOptions).
  DirectionOptions direction{};

  /// Field-wise equality (includes `threads` and `direction`; the
  /// analytics cache keys built over a sweep deliberately do NOT — rows
  /// are bit-identical at any thread count and in any frontier mode).
  friend bool operator==(const ClosureQuery&, const ClosureQuery&) = default;
};

struct ClosureResult {
  /// rows[i][v] = foremost arrival at v from sources[i] (kTimeInfinity if
  /// unreachable). Row order matches the request's source order and is
  /// bit-identical at any thread count.
  std::vector<std::vector<Time>> rows;
  /// True if any row's search was truncated by its config budget.
  bool truncated{false};

  friend bool operator==(const ClosureResult&, const ClosureResult&) = default;
};

// ---------------------------------------------------------------------------
// Analytics queries — whole-graph temporal analytics layered over the
// packed multi-source closure. Every request embeds (or mirrors) the
// ClosureQuery that describes its underlying sweep; the engine runs
// those sweeps on the one {epoch, overlay} pair the request captured.
// Results are deterministic at any thread count: integer folds merge in
// any order, and every floating-point reduction runs in a fixed order
// inside one task.
// ---------------------------------------------------------------------------

/// "Which nodes do at least k of these sources reach?" — a popcount-
/// reduce down the columns of the packed closure rows.
struct KReachabilityQuery {
  /// The multi-source sweep (sources, start, policy, limits, threads).
  ClosureQuery closure;
  /// Minimum number of distinct sources that must reach a node.
  std::size_t k{1};

  friend bool operator==(const KReachabilityQuery&,
                         const KReachabilityQuery&) = default;
};

struct KReachabilityResult {
  /// counts[v] = number of request sources whose foremost arrival at v
  /// is finite (index = NodeId).
  std::vector<std::uint32_t> counts;
  /// Nodes with counts[v] >= k, ascending by NodeId.
  std::vector<NodeId> nodes;
  /// True if any underlying row's search was truncated.
  bool truncated{false};

  friend bool operator==(const KReachabilityResult&,
                         const KReachabilityResult&) = default;
};

/// Union-cone sizes over time for a batch of seed sets — the epidemic /
/// outbreak primitive: spread[s][j] = how many nodes some member of
/// source_sets[s] reaches by sample_times[j].
struct InfluenceQuery {
  /// Seed sets; each runs one closure sweep.
  std::vector<std::vector<NodeId>> source_sets;
  /// Ascending sample instants for the spread curves (may be empty:
  /// only the by-horizon totals are computed then).
  std::vector<Time> sample_times;
  Time start_time{0};
  Policy policy{Policy::wait()};
  SearchLimits limits{};
  /// Worker threads for the underlying sweeps; 0 = the engine's default.
  unsigned threads{0};

  friend bool operator==(const InfluenceQuery&,
                         const InfluenceQuery&) = default;
};

struct InfluenceResult {
  /// spread[s][j] = |{v : min over sources[s] of arrival(v) <=
  /// sample_times[j]}| (curve per seed set, in request order).
  std::vector<std::vector<std::size_t>> spread;
  /// total[s] = nodes reached by the horizon (the curve's limit).
  std::vector<std::size_t> total;
  bool truncated{false};

  friend bool operator==(const InfluenceResult&,
                         const InfluenceResult&) = default;
};

/// Sampled-source temporal betweenness: for every sampled source, the
/// engine builds the foremost witness tree and credits each interior
/// node with the number of witness paths through it (Brandes-style
/// subtree accumulation; endpoints excluded).
struct BetweennessQuery {
  /// Sampled sources; empty = every node, in NodeId order.
  std::vector<NodeId> sources;
  Time start_time{0};
  Policy policy{Policy::wait()};
  SearchLimits limits{};
  unsigned threads{0};

  friend bool operator==(const BetweennessQuery&,
                         const BetweennessQuery&) = default;
};

struct BetweennessResult {
  /// score[v] = number of (source, target) foremost witness paths with v
  /// strictly interior, summed over the sampled sources. Integer-valued
  /// doubles: the merge order cannot change the sum, so the scores are
  /// bit-identical at any thread count.
  std::vector<double> score;
  bool truncated{false};

  friend bool operator==(const BetweennessResult&,
                         const BetweennessResult&) = default;
};

/// Temporal Katz/PageRank-style centrality iterated over the packed
/// closure rows: source s endorses node v with weight 1 / (1 + delay)
/// (row-normalized), and `iterations` damped rounds let mass flow
/// through the sampled sources' own scores.
struct CentralityQuery {
  /// The sweep whose rows carry the endorsements (sources = sampled
  /// hubs; empty = every node).
  ClosureQuery closure;
  double damping{0.85};
  std::size_t iterations{20};

  friend bool operator==(const CentralityQuery&,
                         const CentralityQuery&) = default;
};

struct CentralityResult {
  /// Per-node score (index = NodeId). Every per-node reduction runs
  /// ascending over the sampled sources inside one task, so scores are
  /// bit-identical at any thread count.
  std::vector<double> score;
  bool truncated{false};

  friend bool operator==(const CentralityResult&,
                         const CentralityResult&) = default;
};

/// The automaton side of a batched acceptance query: which nodes start
/// and accept, when reading starts, and the search knobs (mirrors
/// core::AcceptOptions; kept as plain tvg types so the engine stays
/// below the core layer).
struct AcceptSpec {
  std::vector<NodeId> initial;
  std::vector<NodeId> accepting;
  Time start_time{0};
  Policy policy{Policy::no_wait()};
  Time horizon{kTimeInfinity};
  /// Exploration cap for the WHOLE batch (the shared search is the
  /// point of batching). Callers needing per-word budget semantics
  /// re-run truncated words alone — see TvgAutomaton::accepts_batch.
  std::size_t max_configs{1 << 20};
  /// Departures enumerated per edge under Wait when ζ is not affine
  /// (affine ζ needs only the earliest — arrival is monotone there).
  std::size_t departures_per_edge{16};

  /// Field-wise equality; the word batch is keyed alongside the spec by
  /// the engine's result cache (QueryKey::accept).
  friend bool operator==(const AcceptSpec&, const AcceptSpec&) = default;
};

/// Per-word outcome of a batched acceptance query.
struct AcceptOutcome {
  bool accepted{false};
  /// True if the shared config budget stopped the batch before this word
  /// was accepted: `accepted == false` is then "not found within budget".
  bool truncated{false};
  /// Configurations explored by the whole batch (shared across words —
  /// that sharing is the point of batching).
  std::size_t configs_explored{0};
  /// A feasible witness journey when accepted.
  std::optional<Journey> witness;

  friend bool operator==(const AcceptOutcome&, const AcceptOutcome&) = default;
};

/// The engine's shard machinery: a persistent WorkerPool plus a
/// free list of SearchWorkspaces that its batches lease, one per
/// participant slot, so callers never pay per-query arena allocation.
/// Thread-safe: the free list is guarded by mu_ (lock discipline proved
/// by -Wthread-safety on the CI clang lane), the pool by its own locks.
class WorkspacePool {
 public:
  /// `default_threads` = 0 picks the hardware concurrency.
  explicit WorkspacePool(unsigned default_threads);

  /// RAII lease of a pooled workspace (returned on destruction).
  class Lease {
   public:
    Lease(const WorkspacePool& owner, std::unique_ptr<SearchWorkspace> ws)
        : owner_(owner), ws_(std::move(ws)) {}
    ~Lease();
    Lease(Lease&&) noexcept = default;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Lease& operator=(Lease&&) = delete;
    [[nodiscard]] SearchWorkspace& operator*() noexcept { return *ws_; }

   private:
    const WorkspacePool& owner_;
    std::unique_ptr<SearchWorkspace> ws_;
  };
  [[nodiscard]] Lease lease() const TVG_EXCLUDES(mu_);

  /// Runs fn(index, workspace) for index in [0, n), sharded over
  /// `threads` (0 = default) participants of the worker pool, each
  /// holding one leased workspace for the whole batch. Rethrows the
  /// first worker exception after the batch drains.
  template <typename Fn>
  void parallel_for(std::size_t n, unsigned threads, Fn&& fn) const;

  /// The persistent workers: lazily started on the first multi-threaded
  /// batch, reused across calls, joined on destruction. Also the lane
  /// for fire-and-forget work (the engine's background compaction).
  [[nodiscard]] WorkerPool& workers() const noexcept { return workers_; }

 private:
  unsigned default_threads_;
  mutable Mutex mu_;
  mutable std::vector<std::unique_ptr<SearchWorkspace>> free_
      TVG_GUARDED_BY(mu_);
  /// Declared last: destroyed first, so every worker is joined before
  /// the free list dies.
  mutable WorkerPool workers_;
};

template <typename Fn>
void WorkspacePool::parallel_for(std::size_t n, unsigned threads,
                                 Fn&& fn) const {
  if (threads == 0) threads = default_threads_;
  threads = static_cast<unsigned>(
      std::min<std::size_t>(threads, std::max<std::size_t>(n, 1)));
  if (threads <= 1) {
    Lease ws = lease();
    for (std::size_t i = 0; i < n; ++i) fn(i, *ws);
    return;
  }
  // One leased workspace per participant slot, held for the whole batch:
  // a slot's claim loop reuses it across every index it runs. The pool's
  // abort-flag semantics hold: the first failing index stops further
  // claiming and its exception is rethrown here after the batch drains.
  std::vector<Lease> leases;
  leases.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) leases.push_back(lease());
  workers_.parallel_for(n, threads, [&](std::size_t i, unsigned slot) {
    fn(i, *leases[slot]);
  });
}

/// The engine. See the header comment for the API and the guarantees.
class QueryEngine {
 public:
  /// Borrows `g` as epoch 0 (no copy; see the header comment for the
  /// lifetime rule), compiles its index + CSR adjacency and readies the
  /// workspace pool. `default_threads` = 0 picks the hardware
  /// concurrency; batch entry points use it when their query says 0.
  ///
  /// `cache` configures the engine-level result cache (see
  /// result_cache.hpp and the header comment's cache rule); hits return
  /// copies that never alias cache internals. Pass CacheConfig::disabled()
  /// for one-shot engines.
  explicit QueryEngine(const TimeVaryingGraph& g, unsigned default_threads = 0,
                       CacheConfig cache = CacheConfig{});
  /// Owns `g` (moved in as epoch 0); otherwise as above.
  explicit QueryEngine(TimeVaryingGraph&& g, unsigned default_threads = 0,
                       CacheConfig cache = CacheConfig{});
  /// Waits for an in-flight background compaction.
  ~QueryEngine();
  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Worker threads the engine's persistent pool has spawned so far
  /// (monotone; 0 until the first multi-threaded batch). Consecutive
  /// batches REUSE these workers — the count growing between two equal
  /// batches would mean the pool regressed to per-call spawning.
  [[nodiscard]] std::size_t worker_threads_spawned() const noexcept {
    return workers_.workers().threads_spawned();
  }

  /// Observability snapshot of the engine's persistent pool (batches,
  /// claims, queue high-water, idle wakeups, background tasks — see
  /// WorkerPool::Stats). The serving layer samples this around a load
  /// interval to separate shard-scheduling pressure from query-queueing
  /// pressure.
  [[nodiscard]] WorkerPool::Stats worker_stats() const {
    return workers_.workers().stats();
  }

  /// True when this engine memoizes results (CacheConfig::enabled with a
  /// nonzero capacity).
  [[nodiscard]] bool cache_enabled() const noexcept {
    return cache_ != nullptr;
  }
  /// Hit/miss/eviction/invalidation counters and the live entry count;
  /// all zeros when the cache is disabled.
  [[nodiscard]] CacheStats cache_stats() const {
    return cache_ ? cache_->stats() : CacheStats{};
  }
  /// Drops every cached result (counters are kept). Safe concurrently
  /// with queries.
  void clear_cache() const {
    if (cache_) cache_->clear();
  }

  // --- reads ---

  /// Executes one journey query on a leased workspace.
  [[nodiscard]] JourneyResult run(const JourneyQuery& q) const
      TVG_EXCLUDES(mu_);

  /// run(q)'s cached answer, or nullopt on a miss or with caching off.
  /// One cache lookup and a copy: no search, no workspace, no engine
  /// lock. A hit counts in cache_stats(); a miss does not (the run(q) a
  /// caller falls back to counts it), so probe-then-run adds one to
  /// hits + misses. A hit equals a cold run over the graph as of the
  /// last apply() that returned.
  [[nodiscard]] std::optional<JourneyResult> try_cached(
      const JourneyQuery& q) const;

  /// Executes a batch of independent journey queries, sharded across
  /// `threads` workers (0 = engine default). Results are in request
  /// order and identical to running each query alone.
  [[nodiscard]] std::vector<JourneyResult> run(
      std::span<const JourneyQuery> queries, unsigned threads = 0) const
      TVG_EXCLUDES(mu_);

  /// One word of a closure_fold: rows[i] is the row of source lo + i
  /// (query order), owned by the worker's workspace for the call only;
  /// the fold may move it out. Returning false stops the sweep.
  using ClosureFold =
      std::function<bool(std::size_t lo, std::span<std::vector<Time>> rows)>;

  /// Streams q's closure rows through `fold` a word at a time: 64
  /// sources, or one when the graph cannot lane-pack (a predicate
  /// schedule or a non-constant latency). Folds run concurrently on the
  /// workers, in no fixed order, and synchronize their own merges; once
  /// one returns false (or throws, rethrown here) no further word
  /// starts. Memory is O(threads · 64 · n). Returns true if any row that
  /// ran was truncated.
  bool closure_fold(const ClosureQuery& q, const ClosureFold& fold) const
      TVG_EXCLUDES(mu_);

  /// Multi-source foremost closure; see ClosureQuery / ClosureResult.
  /// Never cached (see the header comment).
  [[nodiscard]] ClosureResult closure(const ClosureQuery& q) const
      TVG_EXCLUDES(mu_);

  /// Nodes reachable from >= k of the query's sources (see
  /// KReachabilityQuery).
  [[nodiscard]] KReachabilityResult k_reachability(
      const KReachabilityQuery& q) const TVG_EXCLUDES(mu_);

  /// Union-cone spread curves for a batch of seed sets (see
  /// InfluenceQuery); one closure sweep per non-empty seed set.
  [[nodiscard]] InfluenceResult influence_spread(const InfluenceQuery& q) const
      TVG_EXCLUDES(mu_);

  /// Sampled-source temporal betweenness (see BetweennessQuery).
  [[nodiscard]] BetweennessResult betweenness(const BetweennessQuery& q) const
      TVG_EXCLUDES(mu_);

  /// Damped centrality iterated over packed closure rows (see
  /// CentralityQuery).
  [[nodiscard]] CentralityResult centrality(const CentralityQuery& q) const
      TVG_EXCLUDES(mu_);

  /// Batched TVG-automaton acceptance: the words are compiled into a
  /// trie and all of them are decided in ONE configuration search over
  /// (node, time, trie-position), so shared prefixes are explored once
  /// for the whole batch. A batch of one takes a chain-specialized walk
  /// with the same outcome fields. Outcomes are in word order; duplicate
  /// words get identical outcomes.
  [[nodiscard]] std::vector<AcceptOutcome> accepts(
      const AcceptSpec& spec, std::span<const Word> words) const
      TVG_EXCLUDES(mu_);

  // --- writes ---

  /// Applies one mutation: a batch of one (below).
  EdgeId apply(const EdgeMutation& m) TVG_EXCLUDES(write_mu_, mu_) {
    return apply(std::span<const EdgeMutation>(&m, 1)).front();
  }
  /// Applies `batch` as one step, in the order of the header comment:
  /// one snapshot extension, one log write, one publish and one cache
  /// stamp, after which a lookup drops every cached result whose
  /// footprint meets a touched edge's endpoint partitions. O(batch),
  /// whatever the pending count and the cache size. Readers see the
  /// state before the batch or after it, never in between. Returns each
  /// record's id (the new id for adds, ids assigned densely in batch
  /// order; the target id otherwise). Throws MutationBatchError naming
  /// the first bad record, with nothing changed; with a log attached
  /// also std::invalid_argument (a runtime-only schedule cannot be
  /// persisted; nothing changed) and tvg::IoError (a failed write rolls
  /// the batch back; a failed fsync comes after the publish).
  std::vector<EdgeId> apply(std::span<const EdgeMutation> batch)
      TVG_EXCLUDES(write_mu_, mu_);

  EdgeId add_edge(NodeId from, NodeId to, Symbol label, Presence presence,
                  Latency latency, std::string name = "") {
    return apply(EdgeMutation::add_edge(from, to, label, std::move(presence),
                                        std::move(latency), std::move(name)));
  }
  void remove_edge(EdgeId e) { apply(EdgeMutation::remove_edge(e)); }
  void patch_presence(EdgeId e, Presence presence) {
    apply(EdgeMutation::patch_presence(e, std::move(presence)));
  }
  void override_latency(EdgeId e, Latency latency) {
    apply(EdgeMutation::override_latency(e, std::move(latency)));
  }

  // --- compaction ---

  /// Folds every pending mutation into a fresh (owned) epoch, inline on
  /// the calling thread. If a background compaction is already running,
  /// waits for it first and folds whatever is still pending after.
  /// Cached entries survive: the fold is semantics-preserving.
  void compact() TVG_EXCLUDES(write_mu_, mu_);
  /// Starts one background compaction on the engine's worker pool and
  /// returns immediately. False (and no work) when a compaction is
  /// already in flight or nothing is pending.
  bool compact_async() TVG_EXCLUDES(write_mu_, mu_);
  /// Blocks until no compaction is in flight.
  void wait_for_compaction() const TVG_EXCLUDES(mu_);

  // --- state ---

  [[nodiscard]] std::size_t node_count() const TVG_EXCLUDES(mu_);
  /// Total edges the merged view exposes (tombstones included).
  [[nodiscard]] std::size_t edge_count() const TVG_EXCLUDES(mu_);
  [[nodiscard]] std::size_t pending_mutations() const
      TVG_EXCLUDES(write_mu_);
  /// Mutations ever applied (monotone; compaction does not change it).
  [[nodiscard]] std::uint64_t sequence() const TVG_EXCLUDES(mu_);
  /// Copy of the pending (uncompacted) log, oldest first — what
  /// to_text(graph, delta_log) persists for a crash-consistent dump.
  [[nodiscard]] std::vector<EdgeMutation> pending_log() const
      TVG_EXCLUDES(write_mu_);
  /// Standalone base ∪ delta graph (the from-scratch-rebuild reference
  /// the property tests compare overlay reads against).
  [[nodiscard]] TimeVaryingGraph materialize() const TVG_EXCLUDES(mu_);

 private:
  /// What a reader copies under mu_: a consistent epoch/snapshot pair.
  /// The epoch's index and CSR are compiled before it is shared and
  /// immutable after; a borrowed epoch 0 has no owner (a shared_ptr
  /// with an empty control block), every compacted epoch is owned.
  struct State {
    std::shared_ptr<const TimeVaryingGraph> epoch;
    std::shared_ptr<const OverlaySnapshot> overlay;
  };

  QueryEngine(std::shared_ptr<const TimeVaryingGraph> epoch,
              unsigned default_threads, CacheConfig cache);

  [[nodiscard]] State capture() const TVG_EXCLUDES(mu_);
  /// Caches `result` under `key`, tagged with `captured`'s sequence (a
  /// lookup drops it once a later write meets `footprint`); returns it.
  template <typename Result>
  [[nodiscard]] Result remember(const QueryKey& key, Result result,
                                const State& captured,
                                std::uint64_t footprint) const
      TVG_EXCLUDES(mu_);
  /// closure_fold over the materialized `sources` and the captured `s`.
  template <typename Fold>
  bool stream(const State& s, std::span<const NodeId> sources,
              const ClosureQuery& q, Fold&& fold) const;
  /// One capture → fold → swap cycle (compacting_ already set).
  void do_compact() TVG_EXCLUDES(write_mu_, mu_);

  // DurableEngine's hooks into the write path: it attaches the log once
  // its directory holds checkpoint-0 or the replayed state, and runs
  // checkpoint / sync / stats with writers excluded and the log in hand.
  friend class DurableEngine;
  void attach_wal(std::unique_ptr<Wal> wal) TVG_EXCLUDES(write_mu_);
  template <typename Fn>
  decltype(auto) with_wal(Fn&& fn) const TVG_EXCLUDES(write_mu_) {
    const MutexLock lock(write_mu_);
    return fn(*wal_);
  }

  /// Serializes writers and compaction's swap. Held across the snapshot
  /// extension, the log write, the cache stamp and the fsync; readers
  /// never take it.
  mutable Mutex write_mu_;
  /// The pending (uncompacted) mutations, oldest first: the snapshot in
  /// state_ is always compiled from exactly this log.
  std::vector<EdgeMutation> log_ TVG_GUARDED_BY(write_mu_);
  /// The write-ahead log every apply writes to (null until attached).
  std::unique_ptr<Wal> wal_ TVG_GUARDED_BY(write_mu_);

  /// Guards what readers copy, only for O(1) sections: capture and the
  /// publish.
  mutable Mutex mu_;
  State state_ TVG_GUARDED_BY(mu_);
  bool compacting_ TVG_GUARDED_BY(mu_){false};
  mutable CondVar compaction_cv_;

  /// Engine-level result cache (null when disabled). It holds the
  /// per-partition write stamps its lookups check staleness against.
  std::unique_ptr<ResultCache> cache_;
  /// Declared last: destroyed first, so a just-finished background
  /// compaction's worker is joined before any state it touched dies.
  WorkspacePool workers_;
};

/// Alias for callers that spell out the live-update role (the full-stack
/// benchmark, DurableEngine).
using MutableEngine = QueryEngine;

}  // namespace tvg
