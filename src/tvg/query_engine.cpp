#include "tvg/query_engine.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "tvg/departures.hpp"
#include "tvg/failpoint.hpp"
#include "tvg/read_core.hpp"
#include "tvg/schedule_index.hpp"
#include "tvg/visited.hpp"
#include "tvg/wal.hpp"

namespace tvg {

namespace {

// Approximate heap footprints of the remaining cached result kinds (the
// journey ones live in read_core.hpp).

[[nodiscard]] std::size_t approx_bytes(const KReachabilityResult& r) {
  return sizeof(KReachabilityResult) +
         r.counts.size() * sizeof(std::uint32_t) +
         r.nodes.size() * sizeof(NodeId);
}

[[nodiscard]] std::size_t approx_bytes(const InfluenceResult& r) {
  std::size_t total = sizeof(InfluenceResult) +
                      r.total.size() * sizeof(std::size_t);
  for (const auto& curve : r.spread) {
    total += sizeof(curve) + curve.size() * sizeof(std::size_t);
  }
  return total;
}

[[nodiscard]] std::size_t approx_bytes(const BetweennessResult& r) {
  return sizeof(BetweennessResult) + r.score.size() * sizeof(double);
}

[[nodiscard]] std::size_t approx_bytes(const CentralityResult& r) {
  return sizeof(CentralityResult) + r.score.size() * sizeof(double);
}

[[nodiscard]] std::size_t approx_bytes(const std::vector<AcceptOutcome>& v) {
  std::size_t total = sizeof(v) + v.size() * sizeof(AcceptOutcome);
  for (const AcceptOutcome& o : v) {
    if (o.witness) total += approx_bytes(*o.witness);
  }
  return total;
}

/// Typed lookup in the engine's cache: the entry point's result
/// snapshot, or null on a miss or with caching off.
template <typename Result>
[[nodiscard]] std::shared_ptr<const Result> find_cached(ResultCache* cache,
                                                        const QueryKey& key) {
  if (cache == nullptr) return nullptr;
  return std::static_pointer_cast<const Result>(cache->find(key));
}

/// Calls `read(view)` with the View that serves {epoch, overlay}:
/// FrozenView while the overlay is empty (the never-written engine's
/// path, which pays nothing for mutability), OverlayView otherwise.
template <typename Read>
decltype(auto) with_view(const TimeVaryingGraph& epoch,
                         const OverlaySnapshot& overlay, Read&& read) {
  if (overlay.empty()) return read(FrozenView(epoch));
  return read(OverlayView(epoch, overlay));
}

/// Witness reconstruction shared by the batched acceptance search and
/// its single-word fast path: walks a parent-linked config forest back
/// from `idx`, collecting the crossed legs. Any config type with
/// node/parent/via/dep fields works (the two searches keep distinct
/// config layouts, but their witness semantics must never diverge).
template <typename Config>
[[nodiscard]] Journey witness_from(const std::vector<Config>& configs,
                                   std::int64_t idx, Time start_time) {
  std::vector<JourneyLeg> legs;
  NodeId start = kInvalidNode;
  for (std::int64_t i = idx; i >= 0;
       i = configs[static_cast<std::size_t>(i)].parent) {
    const Config& c = configs[static_cast<std::size_t>(i)];
    if (c.via != kInvalidEdge) {
      legs.push_back(JourneyLeg{c.via, c.dep});
    } else {
      start = c.node;
    }
  }
  std::reverse(legs.begin(), legs.end());
  return Journey{start, start_time, std::move(legs)};
}

}  // namespace

// ---------------------------------------------------------------------------
// Construction and the workspace pool
// ---------------------------------------------------------------------------

WorkspacePool::WorkspacePool(unsigned default_threads)
    : default_threads_(default_threads != 0
                           ? default_threads
                           : std::max(1u,
                                      std::thread::hardware_concurrency())) {}

WorkspacePool::Lease::~Lease() {
  if (!ws_) return;
  const MutexLock lock(owner_.mu_);
  owner_.free_.push_back(std::move(ws_));
}

WorkspacePool::Lease WorkspacePool::lease() const {
  {
    const MutexLock lock(mu_);
    if (!free_.empty()) {
      auto ws = std::move(free_.back());
      free_.pop_back();
      return Lease(*this, std::move(ws));
    }
  }
  return Lease(*this, std::make_unique<SearchWorkspace>());
}

QueryEngine::QueryEngine(const TimeVaryingGraph& g, unsigned default_threads,
                         CacheConfig cache)
    // Aliasing an empty owner: a non-null pointer with no control block.
    : QueryEngine(std::shared_ptr<const TimeVaryingGraph>(
                      std::shared_ptr<const TimeVaryingGraph>(), &g),
                  default_threads, cache) {}

QueryEngine::QueryEngine(TimeVaryingGraph&& g, unsigned default_threads,
                         CacheConfig cache)
    : QueryEngine(std::make_shared<const TimeVaryingGraph>(std::move(g)),
                  default_threads, cache) {}

QueryEngine::QueryEngine(std::shared_ptr<const TimeVaryingGraph> epoch,
                         unsigned default_threads, CacheConfig cache)
    : workers_(default_threads) {
  // Constructor: no concurrent access yet (clang's analysis exempts
  // construction), so the guarded members initialize without mu_.
  freeze_compiled(*epoch);
  state_.overlay = std::make_shared<const OverlaySnapshot>(*epoch);
  state_.epoch = std::move(epoch);
  if (cache.enabled && cache.capacity > 0) {
    cache_ = std::make_unique<ResultCache>(cache);
  }
}

QueryEngine::~QueryEngine() {
  // Wait out an in-flight background compaction before any member dies;
  // workers_ is declared last, so its destructor (which joins the worker
  // actually running that task's tail) runs before the state the task
  // touched is destroyed.
  const MutexLock lock(mu_);
  while (compacting_) compaction_cv_.wait(mu_);
}

// ---------------------------------------------------------------------------
// Capture and the cache insert
// ---------------------------------------------------------------------------

QueryEngine::State QueryEngine::capture() const {
  const MutexLock lock(mu_);
  return state_;
}

template <typename Result>
Result QueryEngine::remember(const QueryKey& key, Result result,
                             const State& captured,
                             std::uint64_t footprint) const {
  if (!cache_) return result;
  const auto owned = std::make_shared<const Result>(std::move(result));
  // Tagged with the captured sequence: a write published since then
  // that meets the footprint has stamped the cache, so a lookup drops
  // this entry instead of serving it.
  cache_->insert(key, owned, approx_bytes(*owned), footprint,
                 captured.overlay->sequence());
  return *owned;
}

// ---------------------------------------------------------------------------
// Journey queries
// ---------------------------------------------------------------------------

JourneyResult QueryEngine::run(const JourneyQuery& q) const {
  // The cache first: a lookup drops an entry some write touched, so a
  // hit needs no capture and never takes mu_.
  const QueryKey key = cache_ ? QueryKey::journey(q) : QueryKey{};
  if (const auto hit = find_cached<JourneyResult>(cache_.get(), key)) {
    return *hit;
  }
  const State state = capture();
  std::uint64_t footprint = kFootprintAll;
  JourneyResult result;
  {
    auto ws = workers_.lease();
    result = with_view(*state.epoch, *state.overlay, [&](const auto& view) {
      return read_journey(view, q, *ws, &footprint);
    });
  }
  return remember(key, std::move(result), state, footprint);
}

std::optional<JourneyResult> QueryEngine::try_cached(
    const JourneyQuery& q) const {
  if (!cache_) return std::nullopt;
  const auto hit = cache_->probe(QueryKey::journey(q));
  if (hit == nullptr) return std::nullopt;
  return *static_cast<const JourneyResult*>(hit.get());
}

std::vector<JourneyResult> QueryEngine::run(
    std::span<const JourneyQuery> queries, unsigned threads) const {
  std::vector<JourneyResult> results(queries.size());
  const State state = capture();
  with_view(*state.epoch, *state.overlay, [&](const auto& view) {
    if (!cache_) {
      workers_.parallel_for(
          queries.size(), threads, [&](std::size_t i, SearchWorkspace& ws) {
            results[i] = read_journey(view, queries[i], ws);
          });
      return;
    }
    // Serve hits up front, dedupe identical misses (a skewed batch can
    // repeat one query many times — the search runs once per distinct
    // key), and shard only the distinct misses across the workers (who
    // insert as they go — the cache is lock-striped and thread-safe).
    std::vector<QueryKey> keys(queries.size());
    std::vector<std::size_t> misses;  // first index per distinct missed key
    std::vector<std::pair<std::size_t, std::size_t>> dups;  // (follower, lead)
    std::unordered_map<QueryKey, std::size_t> leaders;
    misses.reserve(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      keys[i] = QueryKey::journey(queries[i]);
      if (const auto hit = find_cached<JourneyResult>(cache_.get(), keys[i])) {
        results[i] = *hit;
        continue;
      }
      const auto [it, inserted] = leaders.try_emplace(keys[i], i);
      if (inserted) {
        misses.push_back(i);
      } else {
        dups.emplace_back(i, it->second);
      }
    }
    workers_.parallel_for(
        misses.size(), threads, [&](std::size_t k, SearchWorkspace& ws) {
          const std::size_t i = misses[k];
          std::uint64_t footprint = kFootprintAll;
          results[i] =
              remember(keys[i], read_journey(view, queries[i], ws, &footprint),
                       state, footprint);
        });
    for (const auto& [follower, lead] : dups) {
      results[follower] = results[lead];
    }
  });
  return results;
}

// ---------------------------------------------------------------------------
// Multi-source closure
// ---------------------------------------------------------------------------

template <typename Fold>
bool QueryEngine::stream(const State& state, std::span<const NodeId> sources,
                         const ClosureQuery& q, Fold&& fold) const {
  return with_view(*state.epoch, *state.overlay, [&](const auto& view) {
    return fold_closure(view, sources, q, workers_, fold);
  });
}

bool QueryEngine::closure_fold(const ClosureQuery& q,
                               const ClosureFold& fold) const {
  const State state = capture();
  const std::vector<NodeId> sources = materialize_sources(
      state.epoch->node_count(), q.sources,
      "QueryEngine::closure_fold: source out of range");
  return stream(state, sources, q, fold);
}

ClosureResult QueryEngine::closure(const ClosureQuery& q) const {
  const State state = capture();
  const std::vector<NodeId> sources = materialize_sources(
      state.epoch->node_count(), q.sources,
      "QueryEngine::closure: source out of range");
  ClosureResult result;
  result.rows.resize(sources.size());
  result.truncated = stream(
      state, sources, q,
      [&](std::size_t lo, std::span<std::vector<Time>> rows) {
        std::move(rows.begin(), rows.end(), result.rows.begin() + lo);
        return true;
      });
  return result;
}

// ---------------------------------------------------------------------------
// Analytics over closure words. Each request captures once and runs every
// sweep over that one {epoch, overlay} pair. k_reachability and
// influence_spread fold each word's rows into their integer result under
// a merge lock (O(threads · 64 · n) rows); centrality iterates over the
// whole row block. Results are cached with kFootprintAll: any write
// drops them.
// ---------------------------------------------------------------------------

namespace {

/// Column-shard width for centrality's rounds: wide enough that a task
/// streams whole cache lines, narrow enough to load-balance 10^5-node
/// graphs over any pool size.
constexpr std::size_t kColumnChunk = 4096;

}  // namespace

KReachabilityResult QueryEngine::k_reachability(
    const KReachabilityQuery& q) const {
  const State state = capture();
  const std::size_t n = state.epoch->node_count();
  const std::vector<NodeId> sources = materialize_sources(
      n, q.closure.sources, "QueryEngine::k_reachability: source out of range");
  const QueryKey key =
      cache_ ? QueryKey::k_reachability(q, sources) : QueryKey{};
  if (const auto hit = find_cached<KReachabilityResult>(cache_.get(), key)) {
    return *hit;
  }
  KReachabilityResult result;
  result.counts.assign(n, 0);
  Mutex merge_mu;
  result.truncated = stream(
      state, sources, q.closure,
      [&](std::size_t, std::span<std::vector<Time>> rows) {
        const MutexLock lock(merge_mu);  // integer sums merge in any order
        for (const std::vector<Time>& row : rows) {
          for (std::size_t v = 0; v < n; ++v) {
            result.counts[v] += row[v] != kTimeInfinity ? 1u : 0u;
          }
        }
        return true;
      });
  for (std::size_t v = 0; v < n; ++v) {
    if (result.counts[v] >= q.k) {
      result.nodes.push_back(static_cast<NodeId>(v));
    }
  }
  return remember(key, std::move(result), state, kFootprintAll);
}

InfluenceResult QueryEngine::influence_spread(const InfluenceQuery& q) const {
  const State state = capture();
  const std::size_t n = state.epoch->node_count();
  for (const auto& set : q.source_sets) {
    for (const NodeId u : set) {
      if (u >= n) {
        throw std::out_of_range(
            "QueryEngine::influence_spread: source out of range");
      }
    }
  }
  const QueryKey key = cache_ ? QueryKey::influence(q) : QueryKey{};
  if (const auto hit = find_cached<InfluenceResult>(cache_.get(), key)) {
    return *hit;
  }
  const std::size_t samples = q.sample_times.size();
  InfluenceResult result;
  result.spread.resize(q.source_sets.size());
  result.total.assign(q.source_sets.size(), 0);
  ClosureQuery sweep_q;
  sweep_q.start_time = q.start_time;
  sweep_q.policy = q.policy;
  sweep_q.limits = q.limits;
  sweep_q.threads = q.threads;
  std::vector<Time> cone;
  for (std::size_t set = 0; set < q.source_sets.size(); ++set) {
    result.spread[set].assign(samples, 0);
    // An empty seed set infects nobody (it must NOT expand to "all
    // nodes" the way an empty closure source list does).
    if (q.source_sets[set].empty()) continue;
    // The union cone: every row min-folds into `cone`.
    cone.assign(n, kTimeInfinity);
    Mutex merge_mu;
    const bool truncated = stream(
        state, q.source_sets[set], sweep_q,
        [&](std::size_t, std::span<std::vector<Time>> rows) {
          const MutexLock lock(merge_mu);  // a min merges in any order
          for (const std::vector<Time>& row : rows) {
            for (std::size_t v = 0; v < n; ++v) {
              cone[v] = std::min(cone[v], row[v]);
            }
          }
          return true;
        });
    result.truncated = result.truncated || truncated;
    for (const Time m : cone) {
      if (m == kTimeInfinity) continue;
      ++result.total[set];  // reached by the horizon
      for (std::size_t j = 0; j < samples; ++j) {
        if (m <= q.sample_times[j]) ++result.spread[set][j];
      }
    }
  }
  return remember(key, std::move(result), state, kFootprintAll);
}

BetweennessResult QueryEngine::betweenness(const BetweennessQuery& q) const {
  const State state = capture();
  const std::size_t n = state.epoch->node_count();
  const std::vector<NodeId> sources = materialize_sources(
      n, q.sources, "QueryEngine::betweenness: source out of range");
  const QueryKey key = cache_ ? QueryKey::betweenness(q, sources) : QueryKey{};
  if (const auto hit = find_cached<BetweennessResult>(cache_.get(), key)) {
    return *hit;
  }
  BetweennessResult result;
  result.score.assign(n, 0.0);
  std::vector<char> truncated(sources.size(), 0);
  // Per-source foremost trees accumulate under a merge lock; every
  // contribution is an integer-valued double (witness-path counts), so
  // the commutative merge cannot change any score bit.
  Mutex merge_mu;
  with_view(*state.epoch, *state.overlay, [&](const auto& view) {
    using K = detail::Kernels<std::decay_t<decltype(view)>>;
    workers_.parallel_for(
        sources.size(), q.threads, [&](std::size_t i, SearchWorkspace& ws) {
          const ForemostTree tree =
              K::foremost_arrivals(view, sources[i], q.start_time, q.policy,
                                   q.limits, ws.arenas());
          truncated[i] = tree.truncated ? 1 : 0;
          // Brandes-style subtree fold over the witness forest: seed one
          // unit at every reachable target's best config, fold children
          // into parents (a parent's index always precedes its child's),
          // and credit each non-root config's node with the paths passing
          // strictly through it (its own seed excluded — endpoints don't
          // count).
          std::vector<double> weight(tree.configs.size(), 0.0);
          std::vector<char> seeded(tree.configs.size(), 0);
          for (std::size_t v = 0; v < n; ++v) {
            if (static_cast<NodeId>(v) == tree.source) continue;
            const std::int64_t cfg = tree.best_config[v];
            if (cfg < 0) continue;
            weight[static_cast<std::size_t>(cfg)] += 1.0;
            seeded[static_cast<std::size_t>(cfg)] = 1;
          }
          std::vector<double> local(n, 0.0);
          for (std::size_t idx = tree.configs.size(); idx-- > 0;) {
            const auto& c = tree.configs[idx];
            if (c.parent < 0) continue;  // root: the source endpoint
            const double through = weight[idx] - (seeded[idx] ? 1.0 : 0.0);
            if (through > 0.0) local[c.node] += through;
            weight[static_cast<std::size_t>(c.parent)] += weight[idx];
          }
          const MutexLock lock(merge_mu);
          for (std::size_t v = 0; v < n; ++v) result.score[v] += local[v];
        });
  });
  result.truncated =
      std::any_of(truncated.begin(), truncated.end(),
                  [](char c) { return c != 0; });
  return remember(key, std::move(result), state, kFootprintAll);
}

CentralityResult QueryEngine::centrality(const CentralityQuery& q) const {
  const State state = capture();
  const std::size_t n = state.epoch->node_count();
  const std::vector<NodeId> sources = materialize_sources(
      n, q.closure.sources, "QueryEngine::centrality: source out of range");
  const QueryKey key = cache_ ? QueryKey::centrality(q, sources) : QueryKey{};
  if (const auto hit = find_cached<CentralityResult>(cache_.get(), key)) {
    return *hit;
  }
  // Endorsement weight of source s for node v: 1 / (1 + foremost delay),
  // normalized by the row's total mass — recomputed on the fly each
  // round so the iteration never materializes an S x n double matrix on
  // top of the row block. Each word's masses are summed as its rows are
  // moved into place.
  const std::size_t s_count = sources.size();
  std::vector<std::vector<Time>> rows(s_count);
  std::vector<double> mass(s_count, 0.0);
  const bool truncated = stream(
      state, sources, q.closure,
      [&](std::size_t lo, std::span<std::vector<Time>> word) {
        for (std::size_t i = 0; i < word.size(); ++i) {
          for (const Time arr : word[i]) {
            if (arr == kTimeInfinity) continue;
            // time-arith: double accumulation (delta via sat_sub)
            mass[lo + i] += 1.0 / (1.0 + static_cast<double>(sat_sub(
                                             arr, q.closure.start_time)));
          }
          rows[lo + i] = std::move(word[i]);
        }
        return true;
      });
  CentralityResult result;
  result.truncated = truncated;
  result.score.assign(n, 1.0);
  std::vector<double> next(n, 0.0);
  std::vector<double> source_score(s_count, 0.0);
  const std::size_t chunks = (n + kColumnChunk - 1) / kColumnChunk;
  for (std::size_t round = 0; round < q.iterations; ++round) {
    // Gather the sampled sources' current scores once (fixed order),
    // then rebuild every node's score in disjoint column shards; the
    // inner reduction always runs ascending over s inside one task, so
    // the doubles come out bit-identical at any thread count.
    for (std::size_t s = 0; s < s_count; ++s) {
      source_score[s] = result.score[sources[s]];
    }
    workers_.parallel_for(
        chunks, q.closure.threads, [&](std::size_t c, SearchWorkspace&) {
          const std::size_t lo = c * kColumnChunk;
          const std::size_t hi = std::min(n, lo + kColumnChunk);
          for (std::size_t v = lo; v < hi; ++v) {
            double acc = 0.0;
            for (std::size_t s = 0; s < s_count; ++s) {
              if (mass[s] == 0.0) continue;
              const Time arr = rows[s][v];
              if (arr == kTimeInfinity) continue;
              const double w =
                  1.0 / (1.0 + static_cast<double>(sat_sub(
                                   arr, q.closure.start_time)));
              acc += (w / mass[s]) * source_score[s];
            }
            next[v] = (1.0 - q.damping) + q.damping * acc;
          }
        });
    result.score.swap(next);
  }
  return remember(key, std::move(result), state, kFootprintAll);
}

// ---------------------------------------------------------------------------
// Batched acceptance: one trie-shaped configuration search for the
// whole word set, over the captured View.
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint32_t kTrieRoot = 0;
constexpr std::uint32_t kNoTrieNode = 0xffffffffu;

/// Word-set trie in two flat arrays (nodes + an intrusive word list):
/// node 0 is the root (the empty prefix), children hang off
/// first_child/next_sibling links, and the words ending at a node chain
/// through word_next. No per-node heap allocation — a batch of one word
/// costs two vector builds, so the single-word acceptance path stays
/// close to a hand-rolled search. Each node counts how many words in
/// its subtree are still unresolved, so the search can prune branches
/// whose every word already has a verdict.
struct WordTrie {
  struct Node {
    Symbol symbol{'?'};  // edge label from the parent
    std::uint32_t parent{kTrieRoot};
    std::uint32_t first_child{kNoTrieNode};
    std::uint32_t next_sibling{kNoTrieNode};
    std::int32_t word_head{-1};  // first word ending here (see word_next)
    std::uint32_t pending{0};    // unresolved words in this subtree
  };
  std::vector<Node> nodes;
  std::vector<std::int32_t> word_next;  // intrusive list over word ids

  explicit WordTrie(std::span<const Word> words)
      : word_next(words.size(), -1) {
    std::size_t chars = 0;
    for (const Word& w : words) chars += w.size();
    nodes.reserve(chars + 1);  // upper bound: no sharing at all
    nodes.emplace_back();
    for (std::uint32_t w = 0; w < words.size(); ++w) {
      std::uint32_t at = kTrieRoot;
      for (const Symbol c : words[w]) {
        std::uint32_t child = nodes[at].first_child;
        while (child != kNoTrieNode && nodes[child].symbol != c) {
          child = nodes[child].next_sibling;
        }
        if (child == kNoTrieNode) {
          child = static_cast<std::uint32_t>(nodes.size());
          Node fresh;
          fresh.symbol = c;
          fresh.parent = at;
          fresh.next_sibling = nodes[at].first_child;
          nodes.push_back(fresh);
          nodes[at].first_child = child;
        }
        at = child;
      }
      word_next[w] = nodes[at].word_head;
      nodes[at].word_head = static_cast<std::int32_t>(w);
      for (std::uint32_t up = at;; up = nodes[up].parent) {
        ++nodes[up].pending;
        if (up == kTrieRoot) break;
      }
    }
  }

  /// Marks every word ending at `node` resolved, unwinding the pending
  /// counters up to the root.
  void resolve(std::uint32_t node) {
    std::uint32_t count = 0;
    for (std::int32_t w = nodes[node].word_head; w >= 0; w = word_next[w]) {
      ++count;
    }
    for (std::uint32_t up = node;; up = nodes[up].parent) {
      nodes[up].pending -= count;
      if (up == kTrieRoot) break;
    }
  }
};

/// One explored (node, time, trie-position) configuration, with the
/// parent chain for witness reconstruction.
struct BatchConfig {
  NodeId node{kInvalidNode};
  Time time{0};
  std::uint32_t trie{kTrieRoot};
  std::int64_t parent{-1};
  EdgeId via{kInvalidEdge};
  Time dep{0};
};

template <typename View>
[[nodiscard]] std::vector<AcceptOutcome> accept_batch(
    const View& view, const AcceptSpec& spec, std::span<const Word> words) {
  std::vector<char> accepting(view.node_count(), 0);
  for (const NodeId v : spec.accepting) accepting[v] = 1;

  std::vector<AcceptOutcome> outcomes(words.size());
  WordTrie trie(words);
  std::vector<BatchConfig> configs;
  // Exact (node, time) admission per trie position — the same dedup the
  // per-word search keeps per word position, shared across the batch.
  std::vector<ConfigAdmission> admission(trie.nodes.size(),
                                         ConfigAdmission(spec.horizon));
  bool truncated = false;

  // Admits a configuration; on an accepting hit resolves every pending
  // word ending at its trie position.
  auto push = [&](const BatchConfig& c) {
    if (!admission[c.trie].admit(c.node, c.time)) return;
    configs.push_back(c);
    const auto idx = static_cast<std::int64_t>(configs.size()) - 1;
    const WordTrie::Node& tn = trie.nodes[c.trie];
    if (tn.word_head < 0 || accepting[c.node] == 0) return;
    if (outcomes[static_cast<std::size_t>(tn.word_head)].accepted) {
      return;  // every word at this node is already resolved
    }
    for (std::int32_t w = tn.word_head; w >= 0; w = trie.word_next[w]) {
      outcomes[static_cast<std::size_t>(w)].accepted = true;
      outcomes[static_cast<std::size_t>(w)].witness =
          witness_from(configs, idx, spec.start_time);
    }
    trie.resolve(c.trie);
  };

  for (const NodeId v : spec.initial) {
    if (trie.nodes[kTrieRoot].pending == 0) break;
    push(BatchConfig{v, spec.start_time, kTrieRoot, -1, kInvalidEdge, 0});
  }

  for (std::size_t next = 0;
       next < configs.size() && trie.nodes[kTrieRoot].pending > 0; ++next) {
    if (configs.size() >= spec.max_configs) {
      truncated = true;
      break;
    }
    const BatchConfig cur = configs[next];
    const auto idx = static_cast<std::int64_t>(next);
    for (std::uint32_t child = trie.nodes[cur.trie].first_child;
         child != kNoTrieNode; child = trie.nodes[child].next_sibling) {
      const Symbol symbol = trie.nodes[child].symbol;
      if (trie.nodes[child].pending == 0) continue;  // branch fully decided
      view.for_each_out_labeled(cur.node, symbol, [&](EdgeId eid) {
        if (trie.nodes[child].pending == 0) return false;
        // Affine ζ under Wait: arrival is monotone in departure, so the
        // earliest admissible departure dominates (budget 1 is exact).
        const std::size_t wait_budget =
            view.latency_affine(eid) ? 1 : spec.departures_per_edge;
        for_each_policy_departure(
            view, eid, cur.time, spec.policy, spec.horizon, wait_budget,
            [&](Time dep) {
              push(BatchConfig{view.edge_to(eid), view.arrival(eid, dep),
                               child, idx, eid, dep});
              return trie.nodes[child].pending > 0;
            });
        return true;
      });
    }
  }

  for (AcceptOutcome& o : outcomes) {
    o.configs_explored = configs.size();
    if (!o.accepted) o.truncated = truncated;
  }
  return outcomes;
}

/// Batch-of-one acceptance fast path: a chain-specialized walk that
/// skips the trie build and the pending-subtree bookkeeping. Outcome
/// fields (accepted, truncated, configs_explored, witness) match the
/// batched search on the same single word exactly.
template <typename View>
[[nodiscard]] AcceptOutcome accept_single(const View& view,
                                          const AcceptSpec& spec,
                                          const Word& word) {
  // A one-word trie degenerates to a path (trie node k = the length-k
  // prefix), so the trie build, the intrusive word list, and the pending
  // counters all collapse into a position index, and "subtree resolved"
  // becomes "the word was accepted". Exploration order, admission,
  // budget checks, and outcome fields mirror the batched search exactly
  // — a batch of one must be indistinguishable from this walk.
  std::vector<char> accepting(view.node_count(), 0);
  for (const NodeId v : spec.accepting) accepting[v] = 1;
  const auto length = static_cast<std::uint32_t>(word.size());

  struct ChainConfig {
    NodeId node{kInvalidNode};
    Time time{0};
    std::uint32_t pos{0};  // word symbols consumed (the trie position)
    std::int64_t parent{-1};
    EdgeId via{kInvalidEdge};
    Time dep{0};
  };
  std::vector<ChainConfig> configs;
  std::vector<ConfigAdmission> admission(length + 1,
                                         ConfigAdmission(spec.horizon));
  AcceptOutcome out;
  bool truncated = false;

  auto push = [&](const ChainConfig& c) {
    if (!admission[c.pos].admit(c.node, c.time)) return;
    configs.push_back(c);
    if (c.pos != length || accepting[c.node] == 0 || out.accepted) return;
    out.accepted = true;
    out.witness =
        witness_from(configs, static_cast<std::int64_t>(configs.size()) - 1,
                     spec.start_time);
  };

  for (const NodeId v : spec.initial) {
    if (out.accepted) break;
    push(ChainConfig{v, spec.start_time, 0, -1, kInvalidEdge, 0});
  }

  for (std::size_t next = 0; next < configs.size() && !out.accepted;
       ++next) {
    if (configs.size() >= spec.max_configs) {
      truncated = true;
      break;
    }
    const ChainConfig cur = configs[next];
    if (cur.pos == length) continue;  // leaf: nothing left to read
    const auto idx = static_cast<std::int64_t>(next);
    view.for_each_out_labeled(cur.node, word[cur.pos], [&](EdgeId eid) {
      if (out.accepted) return false;
      // Affine ζ under Wait: arrival is monotone in departure, so the
      // earliest admissible departure dominates (budget 1 is exact).
      const std::size_t wait_budget =
          view.latency_affine(eid) ? 1 : spec.departures_per_edge;
      for_each_policy_departure(
          view, eid, cur.time, spec.policy, spec.horizon, wait_budget,
          [&](Time dep) {
            push(ChainConfig{view.edge_to(eid), view.arrival(eid, dep),
                             cur.pos + 1, idx, eid, dep});
            return !out.accepted;
          });
      return true;
    });
  }

  out.configs_explored = configs.size();
  if (!out.accepted) out.truncated = truncated;
  return out;
}

}  // namespace

std::vector<AcceptOutcome> QueryEngine::accepts(
    const AcceptSpec& spec, std::span<const Word> words) const {
  const State state = capture();
  const std::size_t n = state.epoch->node_count();
  for (const NodeId v : spec.initial) {
    if (v >= n) {
      throw std::out_of_range("QueryEngine::accepts: initial out of range");
    }
  }
  for (const NodeId v : spec.accepting) {
    if (v >= n) {
      throw std::out_of_range("QueryEngine::accepts: accepting out of range");
    }
  }

  // Key = spec + exact word sequence (outcomes are positional). Checked
  // right after validation so a hit pays no search setup (no accepting
  // bitmap, no trie).
  using Outcomes = std::vector<AcceptOutcome>;
  const QueryKey key = cache_ ? QueryKey::accept(spec, words) : QueryKey{};
  if (const auto hit = find_cached<Outcomes>(cache_.get(), key)) return *hit;

  // Point queries skip the trie machinery entirely; the chain walk
  // reproduces the batch-of-one outcome bit for bit.
  Outcomes outcomes =
      with_view(*state.epoch, *state.overlay, [&](const auto& view) {
        return words.size() == 1
                   ? Outcomes{accept_single(view, spec, words[0])}
                   : accept_batch(view, spec, words);
      });
  return remember(key, std::move(outcomes), state, kFootprintAll);
}

// ---------------------------------------------------------------------------
// Writes
// ---------------------------------------------------------------------------

namespace {

/// The id `m` (record `index` of its batch) gets on a graph with `nodes`
/// nodes and `edges` edges: `edges` for an add, the target otherwise.
EdgeId validate_mutation(const EdgeMutation& m, std::size_t index,
                         std::size_t nodes, std::size_t edges) {
  if (m.kind == EdgeMutation::Kind::kAddEdge) {
    if (m.from >= nodes || m.to >= nodes) {
      throw MutationBatchError(index, "endpoint out of range");
    }
    return static_cast<EdgeId>(edges);
  }
  if (m.edge >= edges) throw MutationBatchError(index, "edge out of range");
  return m.edge;
}

/// The endpoint-partition mask of mutation `m` (id `id`) over `overlay`,
/// a snapshot of `epoch` that already holds it.
std::uint64_t touch_mask(const TimeVaryingGraph& epoch,
                         const OverlaySnapshot& overlay,
                         const EdgeMutation& m, EdgeId id) {
  if (m.kind == EdgeMutation::Kind::kAddEdge) {
    return footprint_bit(m.from) | footprint_bit(m.to);
  }
  if (id < overlay.base_edge_count()) {
    const Edge& e = epoch.edge(id);
    return footprint_bit(e.from) | footprint_bit(e.to);
  }
  const OverlaySnapshot::AddedEdge& ae = overlay.added(id);
  return footprint_bit(ae.from) | footprint_bit(ae.to);
}

}  // namespace

std::vector<EdgeId> QueryEngine::apply(std::span<const EdgeMutation> batch) {
  std::vector<EdgeId> ids;
  if (batch.empty()) return ids;
  std::exception_ptr sync_error;
  {
    const MutexLock write_lock(write_mu_);
    // Writers are excluded, so `cur` is compiled from exactly log_ and
    // stays published until this writer replaces it.
    const State cur = capture();
    const std::uint64_t sequence = cur.overlay->sequence() + batch.size();

    // 1. Validate every record against the running edge count.
    ids.reserve(batch.size());
    std::size_t edges = cur.overlay->edge_count();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ids.push_back(
          validate_mutation(batch[i], i, cur.epoch->node_count(), edges));
      if (batch[i].kind == EdgeMutation::Kind::kAddEdge) ++edges;
    }

    // 2-3. Extend the snapshot by the batch and log it; any throw rolls
    // the log back with nothing visible.
    std::uint64_t mask = 0;
    const auto old_size = static_cast<std::ptrdiff_t>(log_.size());
    std::shared_ptr<const OverlaySnapshot> next;
    try {
      log_.insert(log_.end(), batch.begin(), batch.end());
      TVG_FAILPOINT("delta_overlay.publish");
      next = std::make_shared<const OverlaySnapshot>(
          cur.overlay->extended(*cur.epoch, batch));
      for (std::size_t i = 0; i < batch.size(); ++i) {
        mask |= touch_mask(*cur.epoch, *next, batch[i], ids[i]);
      }
      if (wal_) wal_->append(batch, ids);
    } catch (...) {
      log_.erase(log_.begin() + old_size, log_.end());
      throw;
    }

    // 4. Publish, then stamp the touched partitions with the batch's last
    // sequence. Readers capture before the batch or after it, never
    // inside; an entry computed before it goes stale at its next lookup.
    {
      const MutexLock lock(mu_);
      state_.overlay = std::move(next);
    }
    if (cache_) cache_->stamp(mask, sequence);

    // 5. Durability per policy: a failure here is "applied, not yet
    // durable", reported last.
    if (wal_) {
      try {
        wal_->maybe_sync();
      } catch (...) {
        sync_error = std::current_exception();
      }
    }
  }
  if (sync_error) std::rethrow_exception(sync_error);
  return ids;
}

void QueryEngine::attach_wal(std::unique_ptr<Wal> wal) {
  const MutexLock lock(write_mu_);
  wal_ = std::move(wal);
}

// ---------------------------------------------------------------------------
// Compaction
// ---------------------------------------------------------------------------

void QueryEngine::compact() {
  {
    const MutexLock lock(mu_);
    while (compacting_) compaction_cv_.wait(mu_);
    // An empty snapshot is an empty log: every record adds an edge or an
    // override.
    if (state_.overlay->empty()) return;
    compacting_ = true;
  }
  do_compact();
}

bool QueryEngine::compact_async() {
  {
    const MutexLock lock(mu_);
    if (compacting_ || state_.overlay->empty()) return false;
    compacting_ = true;
  }
  workers_.workers().submit([this] { do_compact(); });
  return true;
}

void QueryEngine::wait_for_compaction() const {
  const MutexLock lock(mu_);
  while (compacting_) compaction_cv_.wait(mu_);
}

void QueryEngine::do_compact() {
  // compacting_ is already set (by compact or compact_async), so there
  // is exactly one of these running; mutations and reads proceed freely
  // against the OLD epoch while the fold below builds the new one.
  try {
    State state;
    std::size_t folded = 0;
    {
      const MutexLock write_lock(write_mu_);
      state = capture();  // compiled from exactly the current log
      folded = log_.size();
    }
    // Off-lock: materialize base ∪ delta and compile its index + CSR
    // before the epoch is shared. Mutations landing during this build
    // are the remainder past `folded`.
    auto next = std::make_shared<TimeVaryingGraph>(
        tvg::materialize(*state.epoch, *state.overlay));
    freeze_compiled(*next);
    {
      const MutexLock write_lock(write_mu_);
      // Rebuild the remainder over the new base before anything
      // changes. Edge ids are stable by construction: a surviving add
      // with id old_base + j gets new_base + (j - folded adds), the same
      // id. The sequence is not reset: cached entries are tagged with it.
      const std::span<const EdgeMutation> rest =
          std::span<const EdgeMutation>(log_).subspan(folded);
      auto overlay = std::make_shared<const OverlaySnapshot>(
          OverlaySnapshot(*next, capture().overlay->sequence() - rest.size())
              .extended(*next, rest));
      log_.erase(log_.begin(),
                 log_.begin() + static_cast<std::ptrdiff_t>(folded));
      const MutexLock lock(mu_);
      state_.epoch = std::move(next);
      state_.overlay = std::move(overlay);
      compacting_ = false;
    }
  } catch (...) {
    // Best-effort: a failed fold (allocation, pathological ρ/ζ copy)
    // leaves the old epoch + full delta serving correct results; just
    // clear the flag so compaction can be retried.
    const MutexLock lock(mu_);
    compacting_ = false;
  }
  compaction_cv_.notify_all();
}

// ---------------------------------------------------------------------------
// State
// ---------------------------------------------------------------------------

std::size_t QueryEngine::node_count() const {
  const MutexLock lock(mu_);
  return state_.epoch->node_count();
}

std::size_t QueryEngine::edge_count() const {
  const MutexLock lock(mu_);
  return state_.overlay->edge_count();
}

std::size_t QueryEngine::pending_mutations() const {
  const MutexLock lock(write_mu_);
  return log_.size();
}

std::uint64_t QueryEngine::sequence() const {
  const MutexLock lock(mu_);
  return state_.overlay->sequence();
}

std::vector<EdgeMutation> QueryEngine::pending_log() const {
  const MutexLock lock(write_mu_);
  return log_;
}

TimeVaryingGraph QueryEngine::materialize() const {
  const State state = capture();
  return tvg::materialize(*state.epoch, *state.overlay);
}

}  // namespace tvg
