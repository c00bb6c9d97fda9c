#include "tvg/delta_overlay.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

namespace tvg {

// ---------------------------------------------------------------------------
// OverlaySnapshot
// ---------------------------------------------------------------------------

OverlaySnapshot::OverlaySnapshot(const TimeVaryingGraph& base,
                                 std::uint64_t sequence)
    : base_edges_(base.edge_count()),
      // Every merged read goes through has_override, so even the empty
      // overlay answers "no" for any base edge id without indexing past
      // the end.
      leaves_((base_edges_ + (std::size_t{1} << kLeafShift) - 1) >>
              kLeafShift),
      added_(std::make_shared<const std::vector<AddedEdge>>()),
      added_adj_(std::make_shared<const Adjacency>()),
      non_constant_(base.schedule_index().non_constant_latency_count()),
      non_semi_periodic_(base.schedule_index().non_semi_periodic_count()),
      base_uniform_latency_(base.schedule_index().uniform_constant_latency()),
      sequence_(sequence) {}

void OverlaySnapshot::replace(Presence& slot, const Presence& value) {
  if (!slot.is_semi_periodic()) --non_semi_periodic_;
  if (!value.is_semi_periodic()) ++non_semi_periodic_;
  slot = value;
}

void OverlaySnapshot::replace(Latency& slot, const Latency& value) {
  if (!slot.is_constant()) --non_constant_;
  if (!value.is_constant()) ++non_constant_;
  slot = value;
}

OverlaySnapshot::OverrideRec& OverlaySnapshot::own_record(
    const TimeVaryingGraph& base, const OverlaySnapshot& prev, EdgeId e) {
  std::shared_ptr<const Leaf>& slot = leaves_[e >> kLeafShift];
  if (slot == prev.leaves_[e >> kLeafShift]) {
    auto copy = std::make_shared<Leaf>();
    if (slot) {
      copy->bits = slot->bits;
      copy->recs.reserve(slot->recs.size() + 1);  // room for one insert
      copy->recs = slot->recs;
    }
    slot = std::move(copy);
  }
  // A leaf that differs from prev's was made by this batch and is not
  // shared yet.
  auto& leaf = const_cast<Leaf&>(*slot);
  auto it = std::lower_bound(
      leaf.recs.begin(), leaf.recs.end(), e,
      [](const Record& r, EdgeId id) { return r.first < id; });
  std::shared_ptr<OverrideRec> rec;
  if (it != leaf.recs.end() && it->first == e) {
    rec = std::make_shared<OverrideRec>(*it->second);
  } else {
    // A new record starts from the base ρ/ζ, so replace() moves the
    // counters off the edge's effective values.
    const Edge& ed = base.edge(e);
    rec = std::make_shared<OverrideRec>(
        OverrideRec{ed.presence, ed.latency, false, false});
    it = leaf.recs.emplace(it, e, nullptr);
    leaf.bits[(e >> 6) & 63u] |= std::uint64_t{1} << (e & 63u);
    ++overridden_;
  }
  it->second = rec;
  return *rec;
}

OverlaySnapshot OverlaySnapshot::extended(
    const TimeVaryingGraph& base, std::span<const EdgeMutation> batch) const {
  OverlaySnapshot next(*this);
  next.sequence_ += batch.size();
  // The added edges are copied on the first record that needs them.
  std::shared_ptr<std::vector<AddedEdge>> added;
  for (const EdgeMutation& m : batch) {
    const bool sets_latency = m.kind == EdgeMutation::Kind::kOverrideLatency;
    if (m.kind == EdgeMutation::Kind::kAddEdge) {
      if (!added) added = std::make_shared<std::vector<AddedEdge>>(*added_);
      if (!m.latency.is_constant()) ++next.non_constant_;
      if (!m.presence.is_semi_periodic()) ++next.non_semi_periodic_;
      added->push_back(AddedEdge{m.from, m.to, m.label, m.presence,
                                 m.latency, m.name});
    } else if (m.edge >= base_edges_) {
      if (!added) added = std::make_shared<std::vector<AddedEdge>>(*added_);
      AddedEdge& ae = added->at(m.edge - base_edges_);
      if (sets_latency) {
        next.replace(ae.latency, m.latency);
      } else {
        next.replace(ae.presence, m.presence);
      }
    } else {
      OverrideRec& rec = next.own_record(base, *this, m.edge);
      if (sets_latency) {
        rec.has_latency = true;
        next.latency_overridden_ = true;
        next.replace(rec.latency, m.latency);
      } else {
        rec.has_presence = true;
        next.replace(rec.presence, m.presence);
      }
    }
  }

  if (added) {
    if (added->size() > added_->size()) {
      // Appended ids all exceed the old ones, so a stable sort by source
      // keeps ids ascending inside each node: the exact per-node order a
      // rebuilt CSR would list the appended edges in after the base
      // segment (its counting sort is stable and fills in edge-id order).
      auto adj = std::make_shared<Adjacency>(*added_adj_);
      for (std::size_t i = added_->size(); i < added->size(); ++i) {
        adj->emplace_back((*added)[i].from,
                          static_cast<EdgeId>(base_edges_ + i));
      }
      std::stable_sort(adj->begin(), adj->end(),
                       [](const std::pair<NodeId, EdgeId>& x,
                          const std::pair<NodeId, EdgeId>& y) {
                         return x.first < y.first;
                       });
      next.adj_ = *adj;
      next.added_adj_ = std::move(adj);
    }
    next.added_ = std::move(added);
  }
  return next;
}

const OverlaySnapshot::OverrideRec& OverlaySnapshot::override_rec(
    EdgeId e) const {
  const Leaf* leaf = leaves_.at(e >> kLeafShift).get();
  if (leaf != nullptr) {
    const auto it = std::lower_bound(
        leaf->recs.begin(), leaf->recs.end(), e,
        [](const Record& r, EdgeId id) { return r.first < id; });
    if (it != leaf->recs.end() && it->first == e) return *it->second;
  }
  throw std::out_of_range("OverlaySnapshot::override_rec: no override");
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
OverlaySnapshot::added_out_range_nonempty(NodeId v) const noexcept {
  const auto [lo, hi] =
      std::equal_range(adj_.begin(), adj_.end(), v, AdjNodeLess{});
  return {adj_.data() + (lo - adj_.begin()), adj_.data() + (hi - adj_.begin())};
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

}  // namespace tvg
