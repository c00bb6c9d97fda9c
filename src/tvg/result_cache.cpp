#include "tvg/result_cache.hpp"

#include <bit>
#include <list>
#include <unordered_map>
#include <utility>

#include "tvg/annotations.hpp"
#include "tvg/query_engine.hpp"
#include "tvg/sync.hpp"

namespace tvg {

namespace {

constexpr std::uint64_t kHashSeed = 0xcbf29ce484222325ull;

/// Mixes one 64-bit word into a running hash: an xor-multiply step
/// followed by the splitmix64 finalizer. Cheap, deterministic across
/// platforms (no pointer or locale state), and with enough diffusion
/// that the cache can derive its shard choice and its bucket index from
/// the same value.
[[nodiscard]] constexpr std::uint64_t hash_mix(std::uint64_t h,
                                               std::uint64_t v) noexcept {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h;
}

}  // namespace

// ---------------------------------------------------------------------------
// QueryKey: canonical flat encodings. Every variable-length field is
// length-prefixed, so two different requests can never flatten to the
// same payload; every fixed field is appended unconditionally, so the
// encoding needs no per-kind disambiguation beyond the leading tag.
// ---------------------------------------------------------------------------

void QueryKey::append_word(const Word& w) {
  append(static_cast<std::uint64_t>(w.size()));
  std::uint64_t packed = 0;
  unsigned shift = 0;
  for (const char c : w) {
    packed |= static_cast<std::uint64_t>(static_cast<unsigned char>(c))
              << shift;
    shift += 8;
    if (shift == 64) {
      append(packed);
      packed = 0;
      shift = 0;
    }
  }
  if (shift != 0) append(packed);
}

void QueryKey::seal() {
  std::uint64_t h = kHashSeed;
  for (const std::uint64_t v : payload_) h = hash_mix(h, v);
  hash_ = static_cast<std::size_t>(h);
}

namespace {

/// Policy::bound is only read under kBoundedWait; canonicalizing it to 0
/// for the other kinds lets hand-built Policy values that differ only in
/// a stale bound share an entry.
[[nodiscard]] std::uint64_t canonical_bound(const Policy& p) noexcept {
  return p.kind == WaitingPolicy::kBoundedWait
             ? static_cast<std::uint64_t>(p.bound)
             : 0;
}

}  // namespace

QueryKey QueryKey::journey(const JourneyQuery& q) {
  QueryKey k;
  k.payload_.reserve(13);
  k.append(static_cast<std::uint64_t>(Kind::kJourney));
  k.append(static_cast<std::uint64_t>(q.objective));
  k.append(q.source);
  k.append(q.target.has_value() ? 1 : 0);
  k.append(q.target.value_or(0));
  k.append(static_cast<std::uint64_t>(q.start_time));
  // depart_hi is semantic only for kFastest; canonicalized away
  // elsewhere so a stale window bound never splits an entry.
  k.append(q.objective == JourneyObjective::kFastest
               ? static_cast<std::uint64_t>(q.depart_hi)
               : 0);
  k.append(static_cast<std::uint64_t>(q.policy.kind));
  k.append(canonical_bound(q.policy));
  k.append(static_cast<std::uint64_t>(q.limits.horizon));
  k.append(q.limits.max_configs);
  k.append(q.limits.max_fastest_candidates);
  k.seal();
  return k;
}

// `threads` and `direction` are scheduling-only (rows are bit-identical
// at any thread count and in any frontier mode) and deliberately left
// out of every key built through here.
void QueryKey::append_sweep(Time start_time, const Policy& policy,
                            const SearchLimits& limits,
                            std::span<const NodeId> sources) {
  append(static_cast<std::uint64_t>(start_time));
  append(static_cast<std::uint64_t>(policy.kind));
  append(canonical_bound(policy));
  append(static_cast<std::uint64_t>(limits.horizon));
  append(limits.max_configs);
  append(limits.max_fastest_candidates);
  append(static_cast<std::uint64_t>(sources.size()));
  for (const NodeId v : sources) append(v);
}

QueryKey QueryKey::k_reachability(const KReachabilityQuery& q,
                                  std::span<const NodeId> sources) {
  QueryKey k;
  k.payload_.reserve(10 + sources.size());
  k.append(static_cast<std::uint64_t>(Kind::kKReachability));
  k.append(q.k);
  k.append_sweep(q.closure.start_time, q.closure.policy, q.closure.limits,
               sources);
  k.seal();
  return k;
}

QueryKey QueryKey::influence(const InfluenceQuery& q) {
  QueryKey k;
  std::size_t ids = 0;
  for (const auto& set : q.source_sets) ids += set.size() + 1;
  k.payload_.reserve(9 + ids + q.sample_times.size());
  k.append(static_cast<std::uint64_t>(Kind::kInfluence));
  // Seed sets are positional (results are per set, in request order), so
  // the key takes them verbatim, each length-prefixed.
  k.append(static_cast<std::uint64_t>(q.source_sets.size()));
  for (const auto& set : q.source_sets) {
    k.append(static_cast<std::uint64_t>(set.size()));
    for (const NodeId v : set) k.append(v);
  }
  k.append(static_cast<std::uint64_t>(q.sample_times.size()));
  for (const Time t : q.sample_times) {
    k.append(static_cast<std::uint64_t>(t));
  }
  k.append_sweep(q.start_time, q.policy, q.limits, {});
  k.seal();
  return k;
}

QueryKey QueryKey::betweenness(const BetweennessQuery& q,
                               std::span<const NodeId> sources) {
  QueryKey k;
  k.payload_.reserve(9 + sources.size());
  k.append(static_cast<std::uint64_t>(Kind::kBetweenness));
  k.append_sweep(q.start_time, q.policy, q.limits, sources);
  k.seal();
  return k;
}

QueryKey QueryKey::centrality(const CentralityQuery& q,
                              std::span<const NodeId> sources) {
  QueryKey k;
  k.payload_.reserve(11 + sources.size());
  k.append(static_cast<std::uint64_t>(Kind::kCentrality));
  k.append(std::bit_cast<std::uint64_t>(q.damping));
  k.append(q.iterations);
  k.append_sweep(q.closure.start_time, q.closure.policy, q.closure.limits,
               sources);
  k.seal();
  return k;
}

QueryKey QueryKey::accept(const AcceptSpec& spec,
                          std::span<const Word> words) {
  QueryKey k;
  std::size_t chars = 0;
  for (const Word& w : words) chars += w.size() / 8 + 2;
  k.payload_.reserve(9 + spec.initial.size() + spec.accepting.size() + chars);
  k.append(static_cast<std::uint64_t>(Kind::kAccept));
  k.append(static_cast<std::uint64_t>(spec.start_time));
  k.append(static_cast<std::uint64_t>(spec.policy.kind));
  k.append(canonical_bound(spec.policy));
  k.append(static_cast<std::uint64_t>(spec.horizon));
  k.append(spec.max_configs);
  k.append(spec.departures_per_edge);
  k.append(static_cast<std::uint64_t>(spec.initial.size()));
  for (const NodeId v : spec.initial) k.append(v);
  k.append(static_cast<std::uint64_t>(spec.accepting.size()));
  for (const NodeId v : spec.accepting) k.append(v);
  k.append(static_cast<std::uint64_t>(words.size()));
  for (const Word& w : words) k.append_word(w);
  k.seal();
  return k;
}

// ---------------------------------------------------------------------------
// The sharded LRU store.
// ---------------------------------------------------------------------------

namespace {

[[nodiscard]] std::size_t ceil_pow2(std::size_t v) noexcept {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

[[nodiscard]] std::size_t floor_pow2(std::size_t v) noexcept {
  while ((v & (v - 1)) != 0) v &= v - 1;
  return v;
}

}  // namespace

struct ResultCache::Shard {
  struct Entry {
    QueryKey key;
    ValuePtr value;
    std::size_t bytes{0};
    std::uint64_t footprint{kFootprintAll};
    std::uint64_t sequence{0};  // valid as of this write sequence
  };

  Shard(std::size_t cap, std::size_t byte_cap)
      : capacity(cap), max_bytes(byte_cap) {}

  Mutex mu;
  // capacity / max_bytes are set once at construction and immutable
  // thereafter; everything else is per-shard mutable state under mu.
  const std::size_t capacity{1};
  const std::size_t max_bytes{0};  // 0 = count-based accounting only
  std::list<Entry> lru TVG_GUARDED_BY(mu);  // front = most recently used
  std::unordered_map<QueryKey, std::list<Entry>::iterator> map
      TVG_GUARDED_BY(mu);
  std::size_t bytes TVG_GUARDED_BY(mu){0};  // tracked when max_bytes > 0
  std::uint64_t hits TVG_GUARDED_BY(mu){0};
  std::uint64_t misses TVG_GUARDED_BY(mu){0};
  std::uint64_t evictions TVG_GUARDED_BY(mu){0};
  std::uint64_t oversized_rejects TVG_GUARDED_BY(mu){0};
  std::uint64_t invalidations TVG_GUARDED_BY(mu){0};
  std::uint64_t survivors TVG_GUARDED_BY(mu){0};

  /// Removes the LRU tail (caller holds mu and guarantees non-empty).
  void evict_tail() TVG_REQUIRES(mu) {
    bytes -= lru.back().bytes;
    map.erase(lru.back().key);
    lru.pop_back();
    ++evictions;
  }

  /// One internally consistent snapshot of this shard's counters, taken
  /// under the shard lock. Aggregating these (instead of reading the
  /// fields piecemeal) is what keeps stats() totals coherent under
  /// traffic: a lookup bumps exactly one counter of exactly one shard
  /// inside its critical section, so a snapshot can never observe half
  /// a lookup — summed hits + misses is always a sum of lookup counts
  /// each shard had at some instant, never a torn read.
  [[nodiscard]] CacheStats snapshot() TVG_EXCLUDES(mu) {
    const MutexLock lock(mu);
    CacheStats s;
    s.hits = hits;
    s.misses = misses;
    s.evictions = evictions;
    s.oversized_rejects = oversized_rejects;
    s.invalidations = invalidations;
    s.survivors = survivors;
    s.entries = map.size();
    s.bytes = bytes;
    return s;
  }
};

ResultCache::ResultCache(CacheConfig config) {
  const std::size_t capacity = config.enabled ? config.capacity : 0;
  std::size_t n = ceil_pow2(std::max<std::size_t>(1, config.shards));
  // Never spread fewer entries than shards: the per-shard capacity floor
  // of 1 would otherwise let the cache exceed its total budget.
  if (capacity > 0 && n > capacity) n = floor_pow2(capacity);
  const std::size_t per_shard =
      capacity > 0 ? std::max<std::size_t>(1, capacity / n) : 0;
  const std::size_t per_shard_bytes =
      capacity > 0 && config.max_bytes > 0
          ? std::max<std::size_t>(1, config.max_bytes / n)
          : 0;
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>(per_shard, per_shard_bytes));
  }
}

ResultCache::~ResultCache() = default;

ResultCache::Shard& ResultCache::shard_for(const QueryKey& key) noexcept {
  return *shards_[key.hash() & (shards_.size() - 1)];
}

ResultCache::ValuePtr ResultCache::lookup(const QueryKey& key,
                                          bool count_miss) {
  Shard& s = shard_for(key);
  const MutexLock lock(s.mu);
  const auto it = s.map.find(key);
  if (it == s.map.end()) {
    if (count_miss) ++s.misses;
    return nullptr;
  }
  Shard::Entry& entry = *it->second;
  // The acquire pairs with stamp()'s release: every partition stamp of a
  // write at or below `newest` is visible below.
  const std::uint64_t newest =
      newest_stamp_.sequence.load(std::memory_order_acquire);
  if (newest > entry.sequence) {
    for (std::uint64_t bits = entry.footprint; bits != 0; bits &= bits - 1) {
      if (partition_stamps_[std::countr_zero(bits)].sequence.load(
              std::memory_order_relaxed) > entry.sequence) {
        s.bytes -= entry.bytes;
        s.lru.erase(it->second);
        s.map.erase(it);
        ++s.invalidations;
        if (count_miss) ++s.misses;
        return nullptr;
      }
    }
    // No write in (entry.sequence, newest] met the footprint, so the
    // entry is valid as of `newest`: later lookups skip the walk.
    entry.sequence = newest;
    ++s.survivors;
  }
  s.lru.splice(s.lru.begin(), s.lru, it->second);
  ++s.hits;
  return entry.value;
}

ResultCache::ValuePtr ResultCache::find(const QueryKey& key) {
  return lookup(key, /*count_miss=*/true);
}

ResultCache::ValuePtr ResultCache::probe(const QueryKey& key) {
  return lookup(key, /*count_miss=*/false);
}

void ResultCache::insert(const QueryKey& key, ValuePtr value,
                         std::size_t bytes, std::uint64_t footprint,
                         std::uint64_t sequence) {
  if (key.empty() || value == nullptr) return;
  Shard& s = shard_for(key);
  const MutexLock lock(s.mu);
  if (s.capacity == 0) return;
  if (s.max_bytes == 0) bytes = 0;  // count-based: don't track weights
  if (s.max_bytes > 0 && bytes > s.max_bytes) {
    // One value larger than the shard's whole byte budget: caching it
    // would evict everything else and still leave the shard over budget.
    // Reject instead (a same-key entry, if any, stays: it holds the
    // same result).
    ++s.oversized_rejects;
    return;
  }
  const auto it = s.map.find(key);
  if (it != s.map.end()) {
    // A slower reader's older result never displaces a newer one.
    if (it->second->sequence > sequence) return;
    s.bytes += bytes - it->second->bytes;
    it->second->bytes = bytes;
    it->second->value = std::move(value);
    it->second->footprint = footprint;
    it->second->sequence = sequence;
    s.lru.splice(s.lru.begin(), s.lru, it->second);
  } else {
    s.lru.push_front(
        Shard::Entry{key, std::move(value), bytes, footprint, sequence});
    s.map.emplace(key, s.lru.begin());
    s.bytes += bytes;
  }
  // The fresh entry alone fits the byte budget (checked above), so both
  // loops stop before evicting it.
  while (s.map.size() > s.capacity ||
         (s.max_bytes > 0 && s.bytes > s.max_bytes)) {
    s.evict_tail();
  }
}

void ResultCache::stamp(std::uint64_t mask, std::uint64_t sequence) noexcept {
  for (std::uint64_t bits = mask; bits != 0; bits &= bits - 1) {
    partition_stamps_[std::countr_zero(bits)].sequence.store(
        sequence, std::memory_order_relaxed);
  }
  newest_stamp_.sequence.store(sequence, std::memory_order_release);
}

void ResultCache::clear() {
  for (const auto& shard : shards_) {
    const MutexLock lock(shard->mu);
    shard->map.clear();
    shard->lru.clear();
    shard->bytes = 0;
  }
}

CacheStats ResultCache::stats() const {
  CacheStats total;
  for (const auto& shard : shards_) {
    // Per-shard snapshot under the shard lock (see Shard::snapshot):
    // mid-traffic totals stay internally consistent — in particular
    // hits + misses is monotone across successive stats() calls and
    // never exceeds the lookups issued so far.
    const CacheStats s = shard->snapshot();
    total.hits += s.hits;
    total.misses += s.misses;
    total.evictions += s.evictions;
    total.oversized_rejects += s.oversized_rejects;
    total.invalidations += s.invalidations;
    total.survivors += s.survivors;
    total.entries += s.entries;
    total.bytes += s.bytes;
  }
  return total;
}

}  // namespace tvg
