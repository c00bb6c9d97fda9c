#include "tvg/delta_overlay.hpp"

#include <algorithm>
#include <stdexcept>

#include "tvg/read_core.hpp"

namespace tvg {

// ---------------------------------------------------------------------------
// OverlaySnapshot
// ---------------------------------------------------------------------------

OverlaySnapshot::OverlaySnapshot(const TimeVaryingGraph& base,
                                 std::span<const EdgeMutation> log,
                                 std::uint64_t sequence)
    : base_edges_(base.edge_count()), sequence_(sequence) {
  // The bitmap is allocated even for an empty log: every merged read
  // goes through has_override, so an empty overlay must still answer
  // "no" for any base edge id without indexing past the end.
  override_bits_.assign((base_edges_ + 63) / 64, 0);

  for (const EdgeMutation& m : log) {
    switch (m.kind) {
      case EdgeMutation::Kind::kAddEdge: {
        added_.push_back(AddedEdge{m.from, m.to, m.label, m.presence,
                                   m.latency, m.name});
        break;
      }
      case EdgeMutation::Kind::kRemoveEdge:
      case EdgeMutation::Kind::kPatchPresence: {
        if (m.edge < base_edges_) {
          OverrideRec& r = overrides_[m.edge];
          r.presence = m.presence;
          r.has_presence = true;
          override_bits_[m.edge >> 6] |= std::uint64_t{1} << (m.edge & 63u);
        } else {
          // Override of an edge added earlier in this same log: fold it
          // into the added record (the override map keys base edges
          // only, so the read path never double-dispatches).
          added_.at(m.edge - base_edges_).presence = m.presence;
        }
        break;
      }
      case EdgeMutation::Kind::kOverrideLatency: {
        if (m.edge < base_edges_) {
          OverrideRec& r = overrides_[m.edge];
          r.latency = m.latency;
          r.has_latency = true;
          override_bits_[m.edge >> 6] |= std::uint64_t{1} << (m.edge & 63u);
        } else {
          added_.at(m.edge - base_edges_).latency = m.latency;
        }
        break;
      }
    }
  }

  // Added-edge adjacency, sorted by source node with ids ascending
  // inside each node (stable sort over an id-ascending input) — the
  // exact per-node order a rebuilt CSR would list the appended edges in
  // after the base segment (its counting sort is stable and fills in
  // edge-id order).
  added_adj_.reserve(added_.size());
  for (std::size_t i = 0; i < added_.size(); ++i) {
    added_adj_.emplace_back(added_[i].from,
                            static_cast<EdgeId>(base_edges_ + i));
  }
  std::stable_sort(added_adj_.begin(), added_adj_.end(),
                   [](const std::pair<NodeId, EdgeId>& x,
                      const std::pair<NodeId, EdgeId>& y) {
                     return x.first < y.first;
                   });

  // Effective graph-wide facts in O(delta): start from the base index's
  // non-conforming-edge counters and adjust per override/addition with
  // the SAME predicates the index counts with, so the overlay picks
  // exactly the kernel a rebuilt index would.
  const ScheduleIndex& sx = base.schedule_index();
  std::size_t non_constant = sx.non_constant_latency_count();
  std::size_t non_semi_periodic = sx.non_semi_periodic_count();
  bool latency_overridden = false;
  for (const auto& [eid, rec] : overrides_) {
    const Edge& e = base.edge(eid);
    if (rec.has_latency) {
      latency_overridden = true;
      if (!e.latency.is_constant()) --non_constant;
      if (!rec.latency.is_constant()) ++non_constant;
    }
    if (rec.has_presence) {
      if (!e.presence.is_semi_periodic()) --non_semi_periodic;
      if (!rec.presence.is_semi_periodic()) ++non_semi_periodic;
    }
  }
  for (const AddedEdge& ae : added_) {
    if (!ae.latency.is_constant()) ++non_constant;
    if (!ae.presence.is_semi_periodic()) ++non_semi_periodic;
  }
  all_latency_constant_ = non_constant == 0;
  all_semi_periodic_ = non_semi_periodic == 0;
  // Presence patches and tombstones leave every latency alone, so the
  // base's uniform latency survives them; anything else forgoes it.
  if (added_.empty() && !latency_overridden) {
    uniform_constant_latency_ = sx.uniform_constant_latency();
  }
}

namespace {

struct AdjNodeLess {
  bool operator()(const std::pair<NodeId, EdgeId>& x, NodeId v) const {
    return x.first < v;
  }
  bool operator()(NodeId v, const std::pair<NodeId, EdgeId>& x) const {
    return v < x.first;
  }
};

}  // namespace

std::pair<const std::pair<NodeId, EdgeId>*, const std::pair<NodeId, EdgeId>*>
OverlaySnapshot::added_out_range(NodeId v) const noexcept {
  const auto [lo, hi] = std::equal_range(added_adj_.begin(), added_adj_.end(),
                                         v, AdjNodeLess{});
  return {added_adj_.data() + (lo - added_adj_.begin()),
          added_adj_.data() + (hi - added_adj_.begin())};
}

// ---------------------------------------------------------------------------
// DeltaOverlay
// ---------------------------------------------------------------------------

DeltaOverlay::DeltaOverlay(const TimeVaryingGraph& base)
    : base_(&base),
      snapshot_(std::make_shared<OverlaySnapshot>(
          base, std::span<const EdgeMutation>{}, 0)) {}

EdgeId validate_mutation(const EdgeMutation& m, std::size_t node_count,
                         std::size_t edge_count) {
  if (m.kind == EdgeMutation::Kind::kAddEdge) {
    if (m.from >= node_count || m.to >= node_count) {
      throw std::out_of_range("validate_mutation: endpoint out of range");
    }
    return static_cast<EdgeId>(edge_count);
  }
  if (m.edge >= edge_count) {
    throw std::out_of_range("validate_mutation: edge out of range");
  }
  return m.edge;
}

EdgeId DeltaOverlay::apply(EdgeMutation m) {
  const EdgeId id =
      validate_mutation(m, base_->node_count(), snapshot_->edge_count());
  log_.push_back(std::move(m));
  ++sequence_;
  snapshot_ = std::make_shared<OverlaySnapshot>(*base_, log_, sequence_);
  return id;
}

std::vector<EdgeId> DeltaOverlay::apply(std::span<const EdgeMutation> batch) {
  std::vector<EdgeId> ids;
  if (batch.empty()) return ids;
  ids.reserve(batch.size());
  std::size_t edges = snapshot_->edge_count();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    try {
      ids.push_back(validate_mutation(batch[i], base_->node_count(), edges));
    } catch (const std::out_of_range& e) {
      throw MutationBatchError(i, e.what());
    }
    if (batch[i].kind == EdgeMutation::Kind::kAddEdge) ++edges;
  }
  const auto old_size = static_cast<std::ptrdiff_t>(log_.size());
  try {
    log_.insert(log_.end(), batch.begin(), batch.end());
    snapshot_ = std::make_shared<OverlaySnapshot>(*base_, log_,
                                                  sequence_ + batch.size());
  } catch (...) {
    log_.erase(log_.begin() + old_size, log_.end());
    throw;
  }
  sequence_ += batch.size();
  return ids;
}

void DeltaOverlay::rebase(const TimeVaryingGraph& new_base,
                          std::size_t folded) {
  base_ = &new_base;
  log_.erase(log_.begin(),
             log_.begin() + static_cast<std::ptrdiff_t>(
                                std::min(folded, log_.size())));
  // Sequence is NOT reset: it counts mutations ever applied, and the
  // stale-insert mask history keys on it.
  snapshot_ = std::make_shared<OverlaySnapshot>(*base_, log_, sequence_);
}

// ---------------------------------------------------------------------------
// materialize
// ---------------------------------------------------------------------------

TimeVaryingGraph materialize(const TimeVaryingGraph& base,
                             const OverlaySnapshot& overlay) {
  TimeVaryingGraph g;
  for (NodeId v = 0; v < base.node_count(); ++v) {
    g.add_node(base.node_name(v));
  }
  // Base edges in id order with their effective ρ/ζ — tombstones stay as
  // never-present records so every previously handed-out id resolves.
  for (EdgeId e = 0; e < base.edge_count(); ++e) {
    const Edge& ed = base.edge(e);
    Presence presence = ed.presence;
    Latency latency = ed.latency;
    if (overlay.has_override(e)) {
      const OverlaySnapshot::OverrideRec& r = overlay.override_rec(e);
      if (r.has_presence) presence = r.presence;
      if (r.has_latency) latency = r.latency;
    }
    g.add_edge(ed.from, ed.to, ed.label, std::move(presence),
               std::move(latency), base.edge_name(e));
  }
  // Added edges appended in id order, so the materialized ids equal the
  // overlay ids.
  const auto base_edges = static_cast<EdgeId>(overlay.base_edge_count());
  for (std::size_t i = 0; i < overlay.added_edge_count(); ++i) {
    const OverlaySnapshot::AddedEdge& ae =
        overlay.added(base_edges + static_cast<EdgeId>(i));
    g.add_edge(ae.from, ae.to, ae.label, ae.presence, ae.latency, ae.name);
  }
  return g;
}

// ---------------------------------------------------------------------------
// MutableEngine
// ---------------------------------------------------------------------------

namespace {

/// Bounded mutation-mask history (see MutableEngine::MaskRec): enough to
/// cover any realistic in-flight query against a busy mutation stream;
/// an insert whose capture fell off the window is skipped, never served.
constexpr std::size_t kMaskHistoryCap = 4096;

/// Calls `read(view)` with the View that serves {graph, overlay}:
/// FrozenView while the overlay is empty (the frozen engine's exact
/// path), OverlayView otherwise.
template <typename Read>
decltype(auto) with_view(const TimeVaryingGraph& graph,
                         const OverlaySnapshot& overlay, Read&& read) {
  if (overlay.empty()) return read(FrozenView(graph));
  return read(OverlayView(graph, overlay));
}

}  // namespace

MutableEngine::Epoch::Epoch(TimeVaryingGraph g) : graph(std::move(g)) {
  freeze_compiled(graph);
}

MutableEngine::MutableEngine(TimeVaryingGraph base, unsigned default_threads,
                             CacheConfig cache)
    : workers_(default_threads) {
  // Constructor: no concurrent access yet (clang's analysis exempts
  // construction), so the guarded members initialize without mu_.
  auto epoch = std::make_shared<Epoch>(std::move(base));
  delta_.emplace(epoch->graph);
  state_.epoch = std::move(epoch);
  state_.overlay = delta_->snapshot();
  if (cache.enabled && cache.capacity > 0) {
    cache_ = std::make_unique<ResultCache>(cache);
  }
}

MutableEngine::~MutableEngine() {
  // Wait out an in-flight background compaction before any member dies;
  // workers_ is declared last, so its destructor (which joins the worker
  // actually running that task's tail) runs before the state the task
  // touched is destroyed.
  const MutexLock lock(mu_);
  while (compacting_) compaction_cv_.wait(mu_);
}

EdgeTouch MutableEngine::record_touch_locked(const EdgeMutation& m, EdgeId id,
                                             std::uint64_t seq) {
  EdgeTouch touch;
  if (m.kind == EdgeMutation::Kind::kAddEdge) {
    touch = EdgeTouch{id, m.from, m.to};
  } else if (id < state_.overlay->base_edge_count()) {
    const Edge& e = state_.epoch->graph.edge(id);
    touch = EdgeTouch{id, e.from, e.to};
  } else {
    const OverlaySnapshot::AddedEdge& ae = state_.overlay->added(id);
    touch = EdgeTouch{id, ae.from, ae.to};
  }
  mask_history_.push_back(
      MaskRec{seq, footprint_bit(touch.from) | footprint_bit(touch.to)});
  if (mask_history_.size() > kMaskHistoryCap) mask_history_.pop_front();
  return touch;
}

EdgeId MutableEngine::apply(const EdgeMutation& m) {
  EdgeId id = kInvalidEdge;
  EdgeTouch touch;
  {
    const MutexLock lock(mu_);
    id = delta_->apply(m);  // throws on bad ids with the log unchanged
    state_.overlay = delta_->snapshot();
    touch = record_touch_locked(m, id, delta_->sequence());
  }
  // Invalidation runs outside mu_ (it takes the shard locks; the lock
  // order is mu_ -> shard, never the reverse). Publishing first is
  // sound: any reader inserting after the publish re-checks the mask
  // history under mu_ and skips an entry this mutation would have had
  // to drop.
  if (cache_) {
    cache_->invalidate_keys_touching(std::span<const EdgeTouch>(&touch, 1));
  }
  return id;
}

std::vector<EdgeId> MutableEngine::apply(std::span<const EdgeMutation> batch) {
  std::vector<EdgeId> ids;
  std::vector<EdgeTouch> touches;
  {
    const MutexLock lock(mu_);
    ids = delta_->apply(batch);  // throws with no state change
    state_.overlay = delta_->snapshot();
    // One mask record per mutation, under the sequence one-by-one apply
    // would have given it, so the stale-insert check reads the same
    // history either way.
    const std::uint64_t first_seq = delta_->sequence() - ids.size() + 1;
    touches.reserve(ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      touches.push_back(record_touch_locked(batch[i], ids[i], first_seq + i));
    }
  }
  if (cache_ && !touches.empty()) cache_->invalidate_keys_touching(touches);
  return ids;
}

MutableEngine::State MutableEngine::capture(std::uint64_t* seq_out) const {
  const MutexLock lock(mu_);
  if (seq_out) *seq_out = state_.overlay->sequence();
  return state_;
}

bool MutableEngine::insert_allowed_locked(std::uint64_t captured_seq,
                                          std::uint64_t footprint) const {
  const std::uint64_t now = state_.overlay->sequence();
  if (now == captured_seq) return true;  // nothing landed since capture
  // Every mutation in (captured_seq, now] must be retained in the
  // history and miss the entry's footprint; a gap (history overflowed)
  // conservatively rejects the insert.
  if (mask_history_.empty() || mask_history_.front().seq > captured_seq + 1) {
    return false;
  }
  for (auto it = mask_history_.rbegin();
       it != mask_history_.rend() && it->seq > captured_seq; ++it) {
    if ((it->mask & footprint) != 0) return false;
  }
  return true;
}

JourneyResult MutableEngine::run(const JourneyQuery& q) const {
  std::uint64_t seq = 0;
  const State s = capture(&seq);
  QueryKey key;
  if (cache_) {
    key = QueryKey::journey(q);
    if (const auto hit = cache_->find(key)) {
      return *static_cast<const JourneyResult*>(hit.get());
    }
  }
  std::uint64_t footprint = kFootprintAll;
  JourneyResult result;
  {
    auto ws = workers_.lease();
    result = with_view(s.epoch->graph, *s.overlay, [&](const auto& view) {
      return read_journey(view, q, *ws, &footprint);
    });
  }
  if (cache_) {
    const auto owned = std::make_shared<const JourneyResult>(result);
    const std::size_t bytes = approx_bytes(*owned);
    // The staleness check and the insert are one critical section: a
    // mutation published between them would invalidate the cache BEFORE
    // this entry exists, and the entry would survive as a stale hit.
    const MutexLock lock(mu_);
    if (insert_allowed_locked(seq, footprint)) {
      cache_->insert(key, owned, bytes, footprint);
    }
  }
  return result;
}

std::optional<JourneyResult> MutableEngine::try_cached(
    const JourneyQuery& q) const {
  // No capture(): like run(), a hit never reads the captured state. An
  // entry lives only while no mutation touched its footprint, so a hit
  // equals a cold run over the graph as of the last apply() that
  // returned.
  return probe_journey(cache_.get(), q);
}

ClosureResult MutableEngine::closure(const ClosureQuery& q) const {
  const State s = capture(nullptr);
  const std::vector<NodeId> sources =
      materialize_sources(s.epoch->graph.node_count(), q.sources,
                          "MutableEngine::closure: source out of range");
  // Uncached (see the class comment): rows come straight from the read
  // core, bit-identical to a rebuilt engine's at any thread count.
  return with_view(s.epoch->graph, *s.overlay, [&](const auto& view) {
    return read_closure(view, sources, q, workers_);
  });
}

void MutableEngine::compact() {
  {
    const MutexLock lock(mu_);
    while (compacting_) compaction_cv_.wait(mu_);
    if (delta_->pending_mutations() == 0) return;
    compacting_ = true;
  }
  do_compact();
}

bool MutableEngine::compact_async() {
  {
    const MutexLock lock(mu_);
    if (compacting_ || delta_->pending_mutations() == 0) return false;
    compacting_ = true;
  }
  workers_.workers().submit([this] { do_compact(); });
  return true;
}

void MutableEngine::wait_for_compaction() const {
  const MutexLock lock(mu_);
  while (compacting_) compaction_cv_.wait(mu_);
}

bool MutableEngine::compaction_in_flight() const {
  const MutexLock lock(mu_);
  return compacting_;
}

void MutableEngine::do_compact() {
  // compacting_ is already set (by compact or compact_async), so there
  // is exactly one of these running; mutations and reads proceed freely
  // against the OLD epoch while the fold below builds the new one.
  try {
    State s;
    std::size_t folded = 0;
    {
      const MutexLock lock(mu_);
      s = state_;
      folded = delta_->pending_mutations();
    }
    // Off-lock: materialize base ∪ delta and compile its index + CSR.
    // The snapshot captured above covers exactly the first `folded` log
    // entries (apply republishes under the same lock), so mutations
    // landing during this build are untouched remainder.
    auto next_epoch =
        std::make_shared<Epoch>(tvg::materialize(s.epoch->graph, *s.overlay));
    {
      const MutexLock lock(mu_);
      state_.epoch = next_epoch;
      delta_->rebase(next_epoch->graph, folded);
      state_.overlay = delta_->snapshot();
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

std::size_t MutableEngine::node_count() const {
  const MutexLock lock(mu_);
  return state_.epoch->graph.node_count();
}

std::size_t MutableEngine::edge_count() const {
  const MutexLock lock(mu_);
  return state_.overlay->edge_count();
}

std::size_t MutableEngine::pending_mutations() const {
  const MutexLock lock(mu_);
  return delta_->pending_mutations();
}

std::uint64_t MutableEngine::sequence() const {
  const MutexLock lock(mu_);
  return delta_->sequence();
}

std::vector<EdgeMutation> MutableEngine::pending_log() const {
  const MutexLock lock(mu_);
  const auto log = delta_->log();
  return {log.begin(), log.end()};
}

TimeVaryingGraph MutableEngine::materialize() const {
  const State s = capture(nullptr);
  return tvg::materialize(s.epoch->graph, *s.overlay);
}

}  // namespace tvg
