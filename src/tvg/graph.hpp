// The time-varying graph G = (V, E, T, ρ, ζ) itself.
//
// V is a finite node set; E ⊆ V × V × Σ is a finite set of directed edges
// labeled over an alphabet Σ (we use printable chars); ρ and ζ are
// attached per-edge as Presence / Latency values. The lifetime T is
// implicit ([0, ∞) over discrete time); algorithms take explicit horizons.
//
// Storage is split into a build side and a query side. add_node/add_edge
// append to flat edge/name arrays; the first adjacency query freezes the
// current topology into CSR form (offset + flat edge-id arrays, plus a
// label-bucketed copy so out_edges_labeled answers with a span instead of
// allocating) and the first schedule query compiles the ρ/ζ tables (see
// schedule_index.hpp). Both caches are invalidated by mutation and
// rebuilt lazily; the lazy rebuild is NOT thread-safe — freeze the graph
// (issue one query) before sharing it across threads.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "tvg/latency.hpp"
#include "tvg/presence.hpp"
#include "tvg/time.hpp"

namespace tvg {

using NodeId = std::uint32_t;
using EdgeId = std::uint32_t;
using Symbol = char;
using Word = std::string;

inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);
inline constexpr EdgeId kInvalidEdge = static_cast<EdgeId>(-1);

class ScheduleIndex;  // schedule_index.hpp

/// A labeled temporal edge: (from, to, label) plus its ρ and ζ. The
/// diagnostic name lives in a side table on the graph (edge_name()) so
/// these records stay compact in the hot arrays.
struct Edge {
  NodeId from{kInvalidNode};
  NodeId to{kInvalidNode};
  Symbol label{'?'};
  Presence presence{Presence::always()};
  Latency latency{Latency::constant(1)};

  /// Can the edge be crossed departing at t?
  [[nodiscard]] bool present(Time t) const { return presence.present(t); }
  /// Arrival time when departing at t (caller must check presence).
  [[nodiscard]] Time arrival(Time t) const { return latency.arrival(t); }
};

/// A directed, edge-labeled time-varying multigraph.
class TimeVaryingGraph {
 public:
  TimeVaryingGraph() = default;

  /// Adds a node; `name` is for diagnostics/DOT (auto-generated if empty).
  NodeId add_node(std::string name = "");
  /// Adds `count` anonymous nodes, returning the first id.
  NodeId add_nodes(std::size_t count);

  /// Adds a labeled temporal edge. Nodes must already exist.
  EdgeId add_edge(NodeId from, NodeId to, Symbol label, Presence presence,
                  Latency latency, std::string name = "");
  /// Makes room for `count` more edges, so a bulk load (the text
  /// parser) appends without regrowing the edge arrays.
  void reserve_edges(std::size_t count) {
    edges_.reserve(edges_.size() + count);
    edge_names_.reserve(edge_names_.size() + count);
  }
  /// Convenience: always-present edge with constant latency.
  EdgeId add_static_edge(NodeId from, NodeId to, Symbol label,
                         Time latency = 1, std::string name = "");

  /// Replaces an existing edge's ρ (topology and label unchanged). Used
  /// by delta-overlay compaction / materialization; invalidates the
  /// frozen caches like any mutation.
  void set_edge_presence(EdgeId e, Presence presence);
  /// Replaces an existing edge's ζ. Same cache semantics as above.
  void set_edge_latency(EdgeId e, Latency latency);

  [[nodiscard]] std::size_t node_count() const noexcept {
    return node_names_.size();
  }
  [[nodiscard]] std::size_t edge_count() const noexcept {
    return edges_.size();
  }

  [[nodiscard]] const Edge& edge(EdgeId e) const { return edges_.at(e); }
  [[nodiscard]] const std::string& edge_name(EdgeId e) const {
    return edge_names_.at(e);
  }
  [[nodiscard]] const std::string& node_name(NodeId v) const {
    return node_names_.at(v);
  }
  /// The first node named `name`. A linear scan over every node name,
  /// meant for diagnostics and tests: the text parser resolves `v<N>` by
  /// index and other names through its own hash index instead.
  [[nodiscard]] std::optional<NodeId> find_node(std::string_view name) const;

  /// Ids of edges leaving / entering v, in insertion order. The spans
  /// point into the frozen CSR arrays and are invalidated by mutation.
  [[nodiscard]] std::span<const EdgeId> out_edges(NodeId v) const;
  [[nodiscard]] std::span<const EdgeId> in_edges(NodeId v) const;

  /// Out-edges of v carrying the given label (label-bucketed CSR: no
  /// allocation; within a label, insertion order). Invalidated like
  /// out_edges.
  [[nodiscard]] std::span<const EdgeId> out_edges_labeled(NodeId v,
                                                          Symbol label) const;

  /// The sorted set of distinct edge labels.
  [[nodiscard]] std::string alphabet() const;

  /// Edge ids present at time t (the "snapshot" G_t of the TVG).
  [[nodiscard]] std::vector<EdgeId> snapshot(Time t) const;
  /// Caller-buffer overload for per-instant sweeps: clears `out` and
  /// fills it with the snapshot, reusing its capacity.
  void snapshot(Time t, std::vector<EdgeId>& out) const;

  /// The compiled ρ/ζ query tables for this graph (built lazily on first
  /// use, cached until the next mutation). See schedule_index.hpp.
  [[nodiscard]] const ScheduleIndex& schedule_index() const;

  /// True iff every ρ is in the decidable semi-periodic fragment.
  [[nodiscard]] bool all_semi_periodic() const;
  /// True iff every ζ is a constant.
  [[nodiscard]] bool all_constant_latency() const;

  /// Edge-schedule determinism check used by the Figure 1 reproduction:
  /// at every instant in [t_lo, t_hi) and every (node, symbol), at most one
  /// out-edge is present. Returns the first violating (time, node) if any.
  [[nodiscard]] std::optional<std::pair<Time, NodeId>>
  first_nondeterministic_instant(Time t_lo, Time t_hi) const;

  [[nodiscard]] std::string to_string() const;

 private:
  /// Frozen adjacency: one offsets array per direction plus flat edge-id
  /// arrays; out_labeled is out_flat with each node's segment stably
  /// sorted by label (labels mirrored in label_keys for binary search).
  struct CsrCache {
    std::vector<std::uint32_t> out_offsets;  // node_count()+1
    std::vector<std::uint32_t> in_offsets;
    std::vector<EdgeId> out_flat;
    std::vector<EdgeId> in_flat;
    std::vector<EdgeId> out_labeled;
    std::vector<Symbol> label_keys;  // parallel to out_labeled
  };

  const CsrCache& csr() const;
  void invalidate_caches();

  std::vector<std::string> node_names_;
  std::vector<Edge> edges_;
  std::vector<std::string> edge_names_;

  mutable CsrCache csr_;
  mutable bool csr_built_{false};
  mutable std::shared_ptr<const ScheduleIndex> sched_;
};

}  // namespace tvg
