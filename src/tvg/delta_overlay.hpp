// LSM-style mutability for temporal graphs: a delta overlay over the
// frozen ScheduleIndex + CSR, which the one engine (tvg::QueryEngine,
// query_engine.hpp) reads through so it can serve live updates without
// ever rebuilding per mutation.
//
// The frozen read path (graph.hpp / schedule_index.hpp) is deliberately
// immutable: every kernel assumes the compiled ρ/ζ tables never move.
// Mutating a served graph therefore used to mean "rebuild the index and
// the engine" — O(E) work and an engine-wide cache generation bump per
// edit. This header adds the standard LSM answer: keep the frozen base
// as the big immutable run, buffer edits in a small in-memory delta,
// consult base ∪ delta on every read, and fold the delta into a fresh
// base in the background when it grows.
//
//  * EdgeMutation — one buffered edit: add edge, remove edge (a
//    tombstone: presence overridden to never(), so EdgeIds stay stable
//    forever), patch ρ, or override ζ.
//  * OverlaySnapshot — an immutable compiled form of the pending delta
//    (a two-level override table over base edges, appended edges with
//    their own sorted out-adjacency, and the graph-wide facts). Each
//    write extends the previous snapshot by its batch, sharing every
//    part the batch leaves alone. Published behind a shared_ptr: readers
//    grab it once and never see a half-applied mutation.
//  * OverlayView — the merged read interface the search kernels and the
//    acceptance search are templated over (read_core.hpp). It mirrors
//    the ScheduleIndex contract bit for bit: overridden and added edges
//    dispatch to their Presence/Latency values (whose compiled forms the
//    index documents as exact mirrors), everything else goes straight to
//    the base index, and per-node edge enumeration (plain and labeled)
//    yields base edges in CSR order then added edges in id order —
//    exactly the order a from-scratch rebuild would produce, so overlay
//    reads are bit-identical to rebuild reads (including truncation,
//    which is exploration-order dependent).
//
// The engine owns the mutation log and the concurrency around these
// pieces: validation, the optional write-ahead log, epoch-pointer reads,
// per-partition cache stamps and background compaction (see
// QueryEngine in query_engine.hpp). Compaction keeps tombstoned
// edges (as never-present records), so an EdgeId handed out by add_edge
// stays valid across any number of compactions, and a compacted graph's
// CSR lists each node's edges in the same order the overlay enumerated
// them.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "tvg/graph.hpp"
#include "tvg/latency.hpp"
#include "tvg/presence.hpp"
#include "tvg/schedule_index.hpp"
#include "tvg/time.hpp"

namespace tvg {

/// One buffered schedule mutation. Build with the named constructors;
/// QueryEngine::apply (and DurableEngine::apply, which forwards to it)
/// consumes them.
struct EdgeMutation {
  enum class Kind : std::uint8_t {
    kAddEdge,          // append a new edge (id = current edge_count())
    kRemoveEdge,       // tombstone: ρ becomes never(), id stays valid
    kPatchPresence,    // replace an edge's ρ
    kOverrideLatency,  // replace an edge's ζ
  };

  Kind kind{Kind::kPatchPresence};
  /// Target edge for remove/patch/override (ignored for kAddEdge).
  EdgeId edge{kInvalidEdge};
  /// Endpoints + label of a kAddEdge (ignored otherwise).
  NodeId from{kInvalidNode};
  NodeId to{kInvalidNode};
  Symbol label{'?'};
  /// New ρ for kAddEdge / kPatchPresence.
  Presence presence{Presence::always()};
  /// New ζ for kAddEdge / kOverrideLatency.
  Latency latency{Latency::constant(1)};
  /// Diagnostic name for kAddEdge ("" = auto "e<id>", like add_edge).
  std::string name;

  [[nodiscard]] static EdgeMutation add_edge(NodeId from, NodeId to,
                                             Symbol label, Presence presence,
                                             Latency latency,
                                             std::string name = "") {
    EdgeMutation m;
    m.kind = Kind::kAddEdge;
    m.from = from;
    m.to = to;
    m.label = label;
    m.presence = std::move(presence);
    m.latency = std::move(latency);
    m.name = std::move(name);
    return m;
  }
  [[nodiscard]] static EdgeMutation remove_edge(EdgeId e) {
    EdgeMutation m;
    m.kind = Kind::kRemoveEdge;
    m.edge = e;
    m.presence = Presence::never();
    return m;
  }
  [[nodiscard]] static EdgeMutation patch_presence(EdgeId e,
                                                   Presence presence) {
    EdgeMutation m;
    m.kind = Kind::kPatchPresence;
    m.edge = e;
    m.presence = std::move(presence);
    return m;
  }
  [[nodiscard]] static EdgeMutation override_latency(EdgeId e,
                                                     Latency latency) {
    EdgeMutation m;
    m.kind = Kind::kOverrideLatency;
    m.edge = e;
    m.latency = std::move(latency);
    return m;
  }
};

/// What a batch apply throws on a bad node/edge id, naming the first bad
/// record of the batch by `index()`. Ids are checked against the running
/// edge count: an add makes its own id addressable for later records.
class MutationBatchError : public std::out_of_range {
 public:
  MutationBatchError(std::size_t index, const std::string& what)
      : std::out_of_range("batch record " + std::to_string(index) + ": " +
                          what),
        index_(index) {}
  [[nodiscard]] std::size_t index() const noexcept { return index_; }

 private:
  std::size_t index_;
};

/// Immutable compiled form of a pending delta over one frozen base.
/// Each write builds the next snapshot from the previous one plus its
/// batch (O(batch), whatever the pending count) and republishes it
/// behind a shared_ptr; readers holding an older snapshot keep a
/// consistent view for their whole query.
///
/// Overrides of base edges live in a two-level table: one leaf per 4096
/// base edges, holding a 64-word override bitmap and the leaf's records
/// sorted by edge id. Leaves and records are shared between snapshots;
/// a leaf no override ever touched is null, and a batch copies each
/// leaf it touches once (its record pointers, not the records). The
/// added edges and their adjacency are shared too, until a batch adds
/// an edge or patches an added one.
class OverlaySnapshot {
 public:
  /// Per-base-edge override record: either field may be unset, in which
  /// case the base index keeps answering for that aspect (an unset field
  /// holds the base edge's own value).
  struct OverrideRec {
    Presence presence{Presence::never()};
    Latency latency{Latency::constant(0)};
    bool has_presence{false};
    bool has_latency{false};
  };

  /// One appended edge (id = base_edge_count() + position).
  struct AddedEdge {
    NodeId from{kInvalidNode};
    NodeId to{kInvalidNode};
    Symbol label{'?'};
    Presence presence{Presence::always()};
    Latency latency{Latency::constant(1)};
    std::string name;
  };

  /// The empty overlay over `base` (whose ScheduleIndex must already be
  /// frozen — QueryEngine's epochs guarantee this) at `sequence`. Its
  /// graph-wide facts are the base index's own.
  explicit OverlaySnapshot(const TimeVaryingGraph& base,
                           std::uint64_t sequence = 0);

  /// This snapshot plus `batch`, at sequence() + batch.size(). `base` is
  /// the graph this snapshot was built over, and the batch's ids are
  /// already validated against the running edge count. Costs one record
  /// write per batch record plus one copy of each leaf the batch touches
  /// (once per batch), whatever the pending count. The graph-wide facts (all-latency-constant, all-semi-periodic) carry
  /// forward, adjusted against each edge's previous effective ρ/ζ with
  /// the SAME Latency::is_constant() / Presence::is_semi_periodic()
  /// predicates the index counts with, so an overlay read takes exactly
  /// the kernel branch a from-scratch rebuild would take, and a chain of
  /// single extensions equals one extension by the whole chain.
  [[nodiscard]] OverlaySnapshot extended(
      const TimeVaryingGraph& base, std::span<const EdgeMutation> batch) const;

  [[nodiscard]] bool empty() const noexcept {
    return overridden_ == 0 && added_->empty();
  }
  [[nodiscard]] std::size_t base_edge_count() const noexcept {
    return base_edges_;
  }
  [[nodiscard]] std::size_t added_edge_count() const noexcept {
    return added_->size();
  }
  /// Total edges the merged view exposes (base + added).
  [[nodiscard]] std::size_t edge_count() const noexcept {
    return base_edges_ + added_->size();
  }
  [[nodiscard]] std::uint64_t sequence() const noexcept { return sequence_; }

  /// True iff base edge `e` carries an override. No search: an edge in
  /// a leaf no override touched costs one load (the null leaf), any
  /// other one more load and a bit test.
  [[nodiscard]] bool has_override(EdgeId e) const noexcept {
    const Leaf* leaf = leaves_[e >> kLeafShift].get();
    return leaf != nullptr && ((leaf->bits[(e >> 6) & 63u] >> (e & 63u)) & 1u);
  }
  /// The override record for base edge `e` (has_override(e) required).
  [[nodiscard]] const OverrideRec& override_rec(EdgeId e) const;
  /// The added-edge record for overlay edge id `e` (>= base_edge_count).
  [[nodiscard]] const AddedEdge& added(EdgeId e) const {
    return added_->at(e - base_edges_);
  }

  /// Added out-edges of `v`, ascending by edge id — the order a rebuilt
  /// CSR would list them in after the base edges (its counting sort is
  /// stable and fills in id order). Returned as a (from, id) pair range.
  [[nodiscard]] std::pair<const std::pair<NodeId, EdgeId>*,
                          const std::pair<NodeId, EdgeId>*>
  added_out_range(NodeId v) const noexcept {
    // Inline: a snapshot without added edges answers without a call.
    if (adj_.empty()) return {nullptr, nullptr};
    return added_out_range_nonempty(v);
  }

  /// Effective graph-wide facts of base ∪ delta (what a rebuild's
  /// ScheduleIndex would report).
  [[nodiscard]] bool all_latency_constant() const noexcept {
    return non_constant_ == 0;
  }
  [[nodiscard]] bool all_semi_periodic() const noexcept {
    return non_semi_periodic_ == 0;
  }
  /// The base's uniform constant latency while no added edge or latency
  /// override could break it, -1 otherwise (see OverlayView).
  [[nodiscard]] Time uniform_constant_latency() const noexcept {
    return added_->empty() && !latency_overridden_ ? base_uniform_latency_
                                                   : -1;
  }

 private:
  static constexpr unsigned kLeafShift = 12;  // 4096 base edges per leaf
  /// An override record, shared by every leaf copy that keeps it.
  using Record = std::pair<EdgeId, std::shared_ptr<const OverrideRec>>;
  struct Leaf {
    std::array<std::uint64_t, 64> bits{};  // bit e & 4095: e overridden
    std::vector<Record> recs;              // ascending edge id
  };
  using Adjacency = std::vector<std::pair<NodeId, EdgeId>>;

  /// Base edge `e`'s record in this snapshot, which is being extended
  /// from `prev`: a leaf is copied the first time a batch writes to it,
  /// and the record is copied (or made from the base ρ/ζ) for writing.
  OverrideRec& own_record(const TimeVaryingGraph& base,
                          const OverlaySnapshot& prev, EdgeId e);
  /// Replaces `slot` (an edge's effective ρ or ζ) with `value`, moving
  /// the matching non-conforming-edge counter.
  void replace(Presence& slot, const Presence& value);
  void replace(Latency& slot, const Latency& value);
  [[nodiscard]] std::pair<const std::pair<NodeId, EdgeId>*,
                          const std::pair<NodeId, EdgeId>*>
  added_out_range_nonempty(NodeId v) const noexcept;

  std::size_t base_edges_{0};
  std::vector<std::shared_ptr<const Leaf>> leaves_;  // null: no override
  std::size_t overridden_{0};  // base edges with a record
  std::shared_ptr<const std::vector<AddedEdge>> added_;
  std::shared_ptr<const Adjacency> added_adj_;  // sorted (from, id)
  std::span<const std::pair<NodeId, EdgeId>> adj_;  // *added_adj_'s items
  std::size_t non_constant_{0};       // edges with a non-constant ζ
  std::size_t non_semi_periodic_{0};  // edges with a non-semi-periodic ρ
  bool latency_overridden_{false};    // some base edge has a ζ override
  Time base_uniform_latency_{-1};
  std::uint64_t sequence_{0};
};

/// The merged base ∪ delta read interface the search kernels are
/// templated over. Satisfies the same contract as (graph, ScheduleIndex)
/// on the materialized graph — see the header comment for the
/// bit-identity argument. Cheap to construct (three pointers); build
/// one per query against a consistent {epoch, snapshot} pair whose base
/// is already compiled.
class OverlayView {
 public:
  using EventCursor = ScheduleIndex::EventCursor;

  OverlayView(const TimeVaryingGraph& base, const OverlaySnapshot& overlay)
      : g_(&base), sx_(&base.schedule_index()), ov_(&overlay),
        base_edges_(overlay.base_edge_count()) {}

  [[nodiscard]] std::size_t node_count() const { return g_->node_count(); }
  [[nodiscard]] std::size_t edge_count() const { return ov_->edge_count(); }

  /// Enumerates v's out-edges — base CSR segment first, then added
  /// edges ascending by id (= rebuild CSR order). `fn(eid)` returns
  /// false to stop early.
  template <typename Fn>
  void for_each_out(NodeId v, Fn&& fn) const {
    for (const EdgeId e : g_->out_edges(v)) {
      if (!fn(e)) return;
    }
    const auto [lo, hi] = ov_->added_out_range(v);
    for (const auto* it = lo; it != hi; ++it) {
      if (!fn(it->second)) return;
    }
  }

  /// Enumerates v's out-edges labeled `label` — the base label bucket
  /// first, then the added edges with that label ascending by id: the
  /// order a rebuild's stable label sort of its CSR segment produces.
  /// `fn(eid)` returns false to stop early.
  template <typename Fn>
  void for_each_out_labeled(NodeId v, Symbol label, Fn&& fn) const {
    for (const EdgeId e : g_->out_edges_labeled(v, label)) {
      if (!fn(e)) return;
    }
    const auto [lo, hi] = ov_->added_out_range(v);
    for (const auto* it = lo; it != hi; ++it) {
      if (ov_->added(it->second).label == label && !fn(it->second)) return;
    }
  }

  /// Enumerates v's BASE in-edges in CSR order (`fn(eid)` returns false
  /// to stop). Exact whenever uniform_constant_latency() >= 0, which
  /// implies no added edges — the only regime in which the kernels read
  /// in-edges (the packed kernel's pull gather).
  template <typename Fn>
  void for_each_in(NodeId v, Fn&& fn) const {
    for (const EdgeId e : g_->in_edges(v)) {
      if (!fn(e)) return;
    }
  }

  [[nodiscard]] NodeId edge_from(EdgeId e) const {
    if (e < base_edges_) return sx_->record(e).from;
    return ov_->added(e).from;
  }

  [[nodiscard]] NodeId edge_to(EdgeId e) const {
    // Overrides never change topology, so any base id answers from the
    // compiled record.
    if (e < base_edges_) return sx_->record(e).to;
    return ov_->added(e).to;
  }

  [[nodiscard]] bool present(EdgeId e, Time t) const {
    if (e < base_edges_) {
      if (!ov_->has_override(e)) return sx_->present(e, t);
      const OverlaySnapshot::OverrideRec& r = ov_->override_rec(e);
      if (!r.has_presence) return sx_->present(e, t);
      // Mirror ScheduleIndex::present exactly: t < 0 is outside the
      // lifetime regardless of ρ.
      return t >= 0 && r.presence.present(t);
    }
    return t >= 0 && ov_->added(e).presence.present(t);
  }

  [[nodiscard]] Time next_present(EdgeId e, Time from) const {
    if (e < base_edges_) {
      if (!ov_->has_override(e)) return sx_->next_present(e, from);
      const OverlaySnapshot::OverrideRec& r = ov_->override_rec(e);
      if (!r.has_presence) return sx_->next_present(e, from);
      return presence_next(r.presence, from);
    }
    return presence_next(ov_->added(e).presence, from);
  }

  /// Cursor form: base edges keep their amortized-O(1) walk; overridden
  /// and added edges fall back to the direct Presence query (the cursor
  /// is left untouched, so a later base-edge query re-seeds cleanly).
  [[nodiscard]] Time next_present(EdgeId e, Time from, EventCursor& c) const {
    if (e < base_edges_ && !ov_->has_override(e)) {
      return sx_->next_present(e, from, c);
    }
    return next_present(e, from);
  }

  [[nodiscard]] Time arrival(EdgeId e, Time dep) const {
    if (e < base_edges_) {
      if (!ov_->has_override(e)) return sx_->arrival(e, dep);
      const OverlaySnapshot::OverrideRec& r = ov_->override_rec(e);
      if (!r.has_latency) return sx_->arrival(e, dep);
      return r.latency.arrival(dep);  // the index is its exact mirror
    }
    return ov_->added(e).latency.arrival(dep);
  }

  /// True iff e's effective ζ is affine — the predicate ScheduleIndex
  /// compiles its lat_affine flag from (Latency::affine_coefficients).
  [[nodiscard]] bool latency_affine(EdgeId e) const {
    if (e < base_edges_) {
      if (!ov_->has_override(e)) return sx_->record(e).lat_affine;
      const OverlaySnapshot::OverrideRec& r = ov_->override_rec(e);
      if (!r.has_latency) return sx_->record(e).lat_affine;
      return r.latency.affine_coefficients().has_value();
    }
    return ov_->added(e).latency.affine_coefficients().has_value();
  }

  /// Effective facts of base ∪ delta: pick the same kernel (Dijkstra vs
  /// configuration BFS, packed vs per-source) a rebuild would pick.
  [[nodiscard]] bool all_latency_constant() const {
    return ov_->all_latency_constant();
  }
  [[nodiscard]] bool all_semi_periodic() const {
    return ov_->all_semi_periodic();
  }
  /// The base's uniform constant latency while the snapshot adds no edge
  /// and overrides no latency, -1 otherwise. A rebuild may still report
  /// a uniform latency where this says -1; that only gives up the packed
  /// kernel's pull switch, whose rows are bit-identical to push.
  [[nodiscard]] Time uniform_constant_latency() const {
    return ov_->uniform_constant_latency();
  }

 private:
  [[nodiscard]] static Time presence_next(const Presence& p, Time from) {
    // Mirror ScheduleIndex::next_present: clamp negative `from` to the
    // lifetime start, map "no such time" to the kTimeInfinity sentinel.
    const auto t = p.next_present(from < 0 ? 0 : from);
    return t ? *t : kTimeInfinity;
  }

  const TimeVaryingGraph* g_;
  const ScheduleIndex* sx_;
  const OverlaySnapshot* ov_;
  EdgeId base_edges_;
};

/// Materializes base ∪ delta into a standalone graph: every base edge
/// with its effective ρ/ζ (tombstones kept as never-present edges, so
/// ids are preserved), then the added edges in id order. The result's
/// compiled index and CSR answer every query bit-identically to an
/// OverlayView over (base, delta) — the property test suite pins this.
[[nodiscard]] TimeVaryingGraph materialize(const TimeVaryingGraph& base,
                                           const OverlaySnapshot& overlay);

}  // namespace tvg
