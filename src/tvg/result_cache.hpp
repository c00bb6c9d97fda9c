// tvg::ResultCache — the engine-level (query → result) memoization layer
// behind QueryEngine's repeated-workload serving.
//
// Between writes a query's result is a pure function of the query
// value, so serving a hot, skewed workload (the Zipf-style mixes
// bench_query_cache measures) can answer repeats from a cache instead
// of re-running the search kernels. The cache is:
//
//  * keyed on a canonical QueryKey: a flat little-endian word encoding of
//    the request value (journey / analytics / acceptance), with vectors
//    length-prefixed so distinct requests never alias, sweep source
//    lists pre-materialized, and scheduling-only knobs (thread counts,
//    frontier direction) excluded — two requests that must produce
//    identical results share one key;
//  * sharded and lock-striped: the key's hash picks one of N shards, each
//    an independently locked LRU map, so concurrent hot-key traffic
//    contends only per shard;
//  * LRU-bounded: `capacity` entries total (split across shards); an
//    insert past capacity evicts the shard's least-recently-used entry;
//  * private to one engine, whose writes stamp the partitions they touch
//    (below), so a hit always equals a cold run;
//  * value-owning: entries hold shared_ptr<const T> snapshots, hits are
//    copied out by the engine, so cached data never aliases anything a
//    caller can mutate.
//
// Stats (hits / misses / evictions / invalidations / survivors / live
// entries) are aggregated over the shards under their locks — TSan-clean
// — and exposed through QueryEngine::cache_stats().
//
// Staleness is decided at lookup, by vertex partition. Every entry
// carries a 64-bit Bloom footprint (bit v & 63 set for the query's source
// and every node its result reached; kFootprintAll for results without a
// cheap reached set) and the write sequence of the snapshot it was
// computed on. A write stamps each partition its touched edges' endpoints
// fall in with its sequence (stamp()), which costs O(1) whatever the
// cache holds. A lookup drops an entry iff some footprint partition was
// stamped after the entry's sequence; while no write landed since the
// entry's sequence, one load of the newest stamp decides. The check is
// conservative (a partition collision drops a still-valid entry, never
// the reverse): a mutation on edge (u → v) can only change a query whose
// pre-mutation reachable cone contains u, and u's partition bit is in the
// footprint whenever u is in that cone. Invariant: once stamp(mask, s)
// returns, no lookup serves an entry computed at a sequence below s whose
// footprint meets mask.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "tvg/graph.hpp"

namespace tvg {

struct JourneyQuery;  // query_engine.hpp
struct AcceptSpec;
struct Policy;        // policy.hpp
struct SearchLimits;  // algorithms.hpp
struct KReachabilityQuery;
struct InfluenceQuery;
struct BetweennessQuery;
struct CentralityQuery;

/// QueryEngine's caching knob (constructor parameter; default on).
struct CacheConfig {
  /// false = the engine keeps no cache at all (every query recomputes).
  bool enabled{true};
  /// Maximum cached results, summed over shards (entries, not bytes: a
  /// full arrival row counts as one entry). 0 behaves like disabled.
  std::size_t capacity{1024};
  /// Byte budget across shards, 0 = unlimited (count-based accounting
  /// only — the default). When set, every insert carries the value's
  /// approximate heap footprint: the LRU tail is evicted until the
  /// shard fits its share of the budget again, and a single result
  /// larger than that share is rejected outright instead of wiping the
  /// shard. This is the knob for workloads whose results carry n-sized
  /// rows (untargeted foremost scans, per-node analytics) and would blow
  /// memory long before `capacity` entries exist.
  std::size_t max_bytes{0};
  /// Lock stripes; rounded up to a power of two, clamped to >= 1.
  std::size_t shards{8};

  [[nodiscard]] static CacheConfig disabled() {
    CacheConfig config;
    config.enabled = false;
    return config;
  }
};

struct CacheStats {
  std::uint64_t hits{0};
  std::uint64_t misses{0};
  std::uint64_t evictions{0};
  /// Inserts rejected because one value exceeded a shard's whole byte
  /// budget (only possible when CacheConfig::max_bytes is set).
  std::uint64_t oversized_rejects{0};
  /// Stale entries dropped at lookup: a write stamped a partition of
  /// their footprint after they were computed. Each also counts as a miss
  /// (find) or an uncounted fast-path miss (probe).
  std::uint64_t invalidations{0};
  /// Hits on entries computed before the newest write that no write since
  /// touched (their footprint proved them still valid).
  std::uint64_t survivors{0};
  /// Resident entries right now, summed over shards. Stale entries count
  /// until a lookup or LRU eviction drops them.
  std::size_t entries{0};
  /// Approximate bytes held right now (0 unless max_bytes accounting is
  /// on — without a budget the per-insert weights are not tracked).
  std::size_t bytes{0};
};

/// The "intersects everything" footprint: entries carrying it go stale
/// at the first write (used for truncated results and result
/// kinds whose reached set is not cheaply available).
inline constexpr std::uint64_t kFootprintAll = ~std::uint64_t{0};

/// The vertex-partition Bloom bit for node v (64 partitions, v mod 64).
[[nodiscard]] inline constexpr std::uint64_t footprint_bit(NodeId v) noexcept {
  return std::uint64_t{1} << (v & 63u);
}

/// Canonical cache key: one query kind tag plus the flattened request
/// payload. Equality is exact payload equality; the hash is precomputed
/// at construction (a splitmix64-style mix over the payload words).
class QueryKey {
 public:
  enum class Kind : std::uint8_t {
    kJourney = 1,
    kAccept = 3,
    kKReachability = 4,
    kInfluence = 5,
    kBetweenness = 6,
    kCentrality = 7,
  };

  QueryKey() = default;

  /// Key for QueryEngine::run. Encodes every semantic field of the query
  /// (objective, source, target, times, policy, limits); fields the
  /// engine never reads for the query's shape are canonicalized away
  /// (depart_hi outside kFastest, Policy::bound outside kBoundedWait),
  /// so stale values from a reused struct never split an entry.
  [[nodiscard]] static QueryKey journey(const JourneyQuery& q);

  /// Key for QueryEngine::accepts: the spec plus the exact word sequence
  /// (order and duplicates included — outcomes are positional).
  [[nodiscard]] static QueryKey accept(const AcceptSpec& spec,
                                       std::span<const Word> words);

  /// Keys for the analytics entry points. Each embeds its underlying
  /// sweep canonicalized — the materialized source list (the engine
  /// expands "empty = all nodes" before keying, so the implicit and
  /// explicit spellings share an entry), scheduling-only knobs (threads,
  /// frontier direction) excluded — plus the analytic's own parameters,
  /// under a distinct leading tag per analytic, so an entry never splits
  /// on knobs that cannot change the result.
  [[nodiscard]] static QueryKey k_reachability(const KReachabilityQuery& q,
                                               std::span<const NodeId> sources);
  [[nodiscard]] static QueryKey influence(const InfluenceQuery& q);
  [[nodiscard]] static QueryKey betweenness(const BetweennessQuery& q,
                                            std::span<const NodeId> sources);
  [[nodiscard]] static QueryKey centrality(const CentralityQuery& q,
                                           std::span<const NodeId> sources);

  [[nodiscard]] std::size_t hash() const noexcept { return hash_; }
  [[nodiscard]] bool empty() const noexcept { return payload_.empty(); }

  friend bool operator==(const QueryKey&, const QueryKey&) = default;

 private:
  void append(std::uint64_t v) { payload_.push_back(v); }
  void append_word(const Word& w);
  /// Shared sweep payload of the analytics keys: start + policy +
  /// limits + the materialized source list
  /// (scheduling-only knobs — threads, frontier direction — excluded).
  void append_sweep(Time start_time, const Policy& policy,
                    const SearchLimits& limits,
                    std::span<const NodeId> sources);
  void seal();  // computes hash_ from the finished payload

  std::vector<std::uint64_t> payload_;
  std::size_t hash_{0};
};

/// The sharded, lock-striped LRU store. Thread-safe;
/// value payloads are type-erased shared_ptr<const void> snapshots (each
/// QueryKey kind maps to exactly one result type, so the engine's typed
/// wrappers recover the static type from the key it built).
class ResultCache {
 public:
  using ValuePtr = std::shared_ptr<const void>;

  explicit ResultCache(CacheConfig config);
  ~ResultCache();
  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Returns the cached value for `key`, or null (a miss). A hit
  /// refreshes LRU recency; a stale entry is dropped and misses.
  [[nodiscard]] ValuePtr find(const QueryKey& key);

  /// find() for a fast-path lookup that falls back to one that counts:
  /// a hit is counted and refreshes recency, a miss is NOT counted (the
  /// fallback's own find() counts it), so every request still adds
  /// exactly one to hits + misses.
  [[nodiscard]] ValuePtr probe(const QueryKey& key);

  /// Inserts (or refreshes) `key` → `value`, evicting
  /// the shard's LRU tail while over the entry capacity or (when
  /// CacheConfig::max_bytes is set) over the shard's byte budget.
  /// `bytes` is the value's approximate heap footprint — only read by
  /// the byte accounting; QueryEngine computes it per result type. An
  /// insert whose `bytes` alone exceed the shard budget is rejected
  /// (counted in oversized_rejects). No-op for an empty key.
  ///
  /// `footprint` is the entry's vertex-partition Bloom stamp (see the
  /// header comment): OR of footprint_bit(v) over the query's source and
  /// every node its result reached. The default kFootprintAll is always
  /// sound — such an entry just goes stale at the first write.
  /// `sequence` is the write sequence of the snapshot the value was
  /// computed on. An insert never replaces an entry computed at a newer
  /// sequence.
  void insert(const QueryKey& key, ValuePtr value, std::size_t bytes = 1,
              std::uint64_t footprint = kFootprintAll,
              std::uint64_t sequence = 0);

  /// Records a write at `sequence` that touched the partitions in `mask`
  /// (the OR of footprint_bit over its touched endpoints): every entry
  /// computed before it whose footprint meets `mask` is stale from now
  /// on, and the next lookup drops it. O(popcount(mask)), lock-free.
  /// Writes stamp one at a time, in increasing sequence order.
  void stamp(std::uint64_t mask, std::uint64_t sequence) noexcept;

  /// Drops every entry (all shards). Stats counters are kept.
  void clear();

  [[nodiscard]] CacheStats stats() const;

 private:
  struct Shard;

  [[nodiscard]] Shard& shard_for(const QueryKey& key) noexcept;
  [[nodiscard]] ValuePtr lookup(const QueryKey& key, bool count_miss);

  /// One write stamp on its own cache line.
  struct alignas(64) Stamp {
    std::atomic<std::uint64_t> sequence{0};
  };

  std::vector<std::unique_ptr<Shard>> shards_;
  /// The sequence of the newest write that touched each partition.
  std::array<Stamp, 64> partition_stamps_;
  /// The newest write's sequence, stored after its partitions' stamps.
  Stamp newest_stamp_;
};

}  // namespace tvg

/// QueryKey carries its hash precomputed; this lets it key std::unordered
/// containers directly (the cache shards, the engine's batch dedup map).
template <>
struct std::hash<tvg::QueryKey> {
  [[nodiscard]] std::size_t operator()(const tvg::QueryKey& k) const noexcept {
    return k.hash();
  }
};
