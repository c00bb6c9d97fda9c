#include "tvg/graph.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <stdexcept>

#include "tvg/schedule_index.hpp"

namespace tvg {

namespace {

/// `prefix` followed by `id` in decimal, appended into a fresh string:
/// gcc 12 at -O3 flags `"v" + std::to_string(id)`, and assigning a
/// literal into the name parameter, with a false -Wrestrict.
std::string generated_name(char prefix, std::size_t id) {
  std::string name(1, prefix);
  name += std::to_string(id);
  return name;
}

}  // namespace

NodeId TimeVaryingGraph::add_node(std::string name) {
  const NodeId id = static_cast<NodeId>(node_names_.size());
  if (name.empty()) name = generated_name('v', id);
  node_names_.push_back(std::move(name));
  invalidate_caches();
  return id;
}

NodeId TimeVaryingGraph::add_nodes(std::size_t count) {
  const NodeId first = static_cast<NodeId>(node_names_.size());
  for (std::size_t i = 0; i < count; ++i) add_node();
  return first;
}

EdgeId TimeVaryingGraph::add_edge(NodeId from, NodeId to, Symbol label,
                                  Presence presence, Latency latency,
                                  std::string name) {
  if (from >= node_count() || to >= node_count())
    throw std::out_of_range("TimeVaryingGraph::add_edge: bad node id");
  const EdgeId id = static_cast<EdgeId>(edges_.size());
  if (name.empty()) name = generated_name('e', id);
  edges_.push_back(Edge{from, to, label, std::move(presence),
                        std::move(latency)});
  edge_names_.push_back(std::move(name));
  invalidate_caches();
  return id;
}

EdgeId TimeVaryingGraph::add_static_edge(NodeId from, NodeId to, Symbol label,
                                         Time latency, std::string name) {
  return add_edge(from, to, label, Presence::always(),
                  Latency::constant(latency), std::move(name));
}

void TimeVaryingGraph::set_edge_presence(EdgeId e, Presence presence) {
  if (e >= edges_.size())
    throw std::out_of_range("set_edge_presence: bad edge id");
  edges_[e].presence = std::move(presence);
  invalidate_caches();
}

void TimeVaryingGraph::set_edge_latency(EdgeId e, Latency latency) {
  if (e >= edges_.size())
    throw std::out_of_range("set_edge_latency: bad edge id");
  edges_[e].latency = std::move(latency);
  invalidate_caches();
}

void TimeVaryingGraph::invalidate_caches() {
  csr_built_ = false;
  sched_.reset();
}

const TimeVaryingGraph::CsrCache& TimeVaryingGraph::csr() const {
  if (csr_built_) return csr_;
  const std::size_t n = node_count();
  const std::size_t m = edges_.size();

  csr_.out_offsets.assign(n + 1, 0);
  csr_.in_offsets.assign(n + 1, 0);
  for (const Edge& e : edges_) {
    ++csr_.out_offsets[e.from + 1];
    ++csr_.in_offsets[e.to + 1];
  }
  for (std::size_t v = 0; v < n; ++v) {
    csr_.out_offsets[v + 1] += csr_.out_offsets[v];
    csr_.in_offsets[v + 1] += csr_.in_offsets[v];
  }
  csr_.out_flat.resize(m);
  csr_.in_flat.resize(m);
  // Filling in edge-id order keeps each node's segment in insertion order
  // (a stable counting sort by endpoint).
  std::vector<std::uint32_t> out_pos(csr_.out_offsets.begin(),
                                     csr_.out_offsets.end() - 1);
  std::vector<std::uint32_t> in_pos(csr_.in_offsets.begin(),
                                    csr_.in_offsets.end() - 1);
  for (EdgeId e = 0; e < m; ++e) {
    csr_.out_flat[out_pos[edges_[e].from]++] = e;
    csr_.in_flat[in_pos[edges_[e].to]++] = e;
  }

  // Label buckets: each node's out segment, stably sorted by label.
  csr_.out_labeled = csr_.out_flat;
  csr_.label_keys.resize(m);
  for (std::size_t v = 0; v < n; ++v) {
    const auto seg_begin = csr_.out_labeled.begin() + csr_.out_offsets[v];
    const auto seg_end = csr_.out_labeled.begin() + csr_.out_offsets[v + 1];
    std::stable_sort(seg_begin, seg_end, [&](EdgeId a, EdgeId b) {
      return edges_[a].label < edges_[b].label;
    });
  }
  for (std::size_t i = 0; i < m; ++i) {
    csr_.label_keys[i] = edges_[csr_.out_labeled[i]].label;
  }
  csr_built_ = true;
  return csr_;
}

const ScheduleIndex& TimeVaryingGraph::schedule_index() const {
  if (!sched_) sched_ = std::make_shared<const ScheduleIndex>(*this);
  return *sched_;
}

std::optional<NodeId> TimeVaryingGraph::find_node(
    std::string_view name) const {
  for (NodeId v = 0; v < node_names_.size(); ++v) {
    if (node_names_[v] == name) return v;
  }
  return std::nullopt;
}

std::span<const EdgeId> TimeVaryingGraph::out_edges(NodeId v) const {
  if (v >= node_count()) throw std::out_of_range("out_edges: bad node id");
  const CsrCache& c = csr();
  return {c.out_flat.data() + c.out_offsets[v],
          c.out_flat.data() + c.out_offsets[v + 1]};
}

std::span<const EdgeId> TimeVaryingGraph::in_edges(NodeId v) const {
  if (v >= node_count()) throw std::out_of_range("in_edges: bad node id");
  const CsrCache& c = csr();
  return {c.in_flat.data() + c.in_offsets[v],
          c.in_flat.data() + c.in_offsets[v + 1]};
}

std::span<const EdgeId> TimeVaryingGraph::out_edges_labeled(
    NodeId v, Symbol label) const {
  if (v >= node_count())
    throw std::out_of_range("out_edges_labeled: bad node id");
  const CsrCache& c = csr();
  const Symbol* lo = c.label_keys.data() + c.out_offsets[v];
  const Symbol* hi = c.label_keys.data() + c.out_offsets[v + 1];
  const auto [first, last] = std::equal_range(lo, hi, label);
  const EdgeId* base = c.out_labeled.data() + c.out_offsets[v];
  return {base + (first - lo), base + (last - lo)};
}

std::string TimeVaryingGraph::alphabet() const {
  std::set<Symbol> symbols;
  for (const Edge& e : edges_) symbols.insert(e.label);
  return std::string{symbols.begin(), symbols.end()};
}

std::vector<EdgeId> TimeVaryingGraph::snapshot(Time t) const {
  std::vector<EdgeId> present;
  snapshot(t, present);
  return present;
}

void TimeVaryingGraph::snapshot(Time t, std::vector<EdgeId>& out) const {
  out.clear();
  const ScheduleIndex& sx = schedule_index();
  for (EdgeId e = 0; e < edges_.size(); ++e) {
    if (sx.present(e, t)) out.push_back(e);
  }
}

bool TimeVaryingGraph::all_semi_periodic() const {
  return std::all_of(edges_.begin(), edges_.end(), [](const Edge& e) {
    return e.presence.is_semi_periodic();
  });
}

bool TimeVaryingGraph::all_constant_latency() const {
  return std::all_of(edges_.begin(), edges_.end(), [](const Edge& e) {
    return e.latency.is_constant();
  });
}

std::optional<std::pair<Time, NodeId>>
TimeVaryingGraph::first_nondeterministic_instant(Time t_lo, Time t_hi) const {
  const ScheduleIndex& sx = schedule_index();
  const CsrCache& c = csr();
  for (Time t = t_lo; t < t_hi; ++t) {
    for (NodeId v = 0; v < node_count(); ++v) {
      // The labeled segment groups same-symbol edges adjacently, so one
      // pass with a per-run presence counter suffices.
      const std::uint32_t lo = c.out_offsets[v];
      const std::uint32_t hi = c.out_offsets[v + 1];
      Symbol run = '\0';
      bool run_present = false;
      for (std::uint32_t i = lo; i < hi; ++i) {
        if (!sx.present(c.out_labeled[i], t)) continue;
        if (run_present && c.label_keys[i] == run) return std::pair{t, v};
        run = c.label_keys[i];
        run_present = true;
      }
    }
  }
  return std::nullopt;
}

std::string TimeVaryingGraph::to_string() const {
  std::ostringstream os;
  os << "TVG(" << node_count() << " nodes, " << edge_count() << " edges)\n";
  for (EdgeId e = 0; e < edges_.size(); ++e) {
    const Edge& ed = edges_[e];
    os << "  " << edge_names_[e] << ": " << node_names_[ed.from] << " -"
       << ed.label << "-> " << node_names_[ed.to]
       << "  ρ=" << ed.presence.to_string()
       << "  ζ=" << ed.latency.to_string() << "\n";
  }
  return os.str();
}

}  // namespace tvg
