#include "tvg/delta_overlay.hpp"

#include <algorithm>

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
