// The engine's one read path: a cache-free core, templated over the View
// the search kernels read through, that turns a journey or closure query
// into kernel calls.
//
// QueryEngine (query_engine.hpp) instantiates it with FrozenView while
// its captured overlay snapshot is empty and with OverlayView
// (delta_overlay.hpp) otherwise, so a never-written engine pays nothing
// for mutability and an overlay read takes exactly the code path,
// including the packed closure kernel, that a rebuild of base ∪ delta
// would take. Caching, epochs and invalidation stay in the engine.
//
// Internal header: included by the engine and kernel sources only.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "tvg/algorithms.hpp"
#include "tvg/query_engine.hpp"
#include "tvg/result_cache.hpp"
#include "tvg/schedule_index.hpp"

namespace tvg {

/// Builds g's lazily compiled ScheduleIndex and CSR adjacency now. The
/// engines call this while still single-threaded: the lazy builds
/// inside TimeVaryingGraph are not safe to race, and every read may run
/// on worker threads.
inline void freeze_compiled(const TimeVaryingGraph& g) {
  (void)g.schedule_index();
  if (g.node_count() > 0) (void)g.out_edges(0);
}

/// The frozen model of the View concept the search kernels and the
/// acceptance search are templated over: a (graph, compiled index)
/// pair, forwarding every call straight to the index and the CSR. The
/// mutable path's OverlayView (delta_overlay.hpp) is the other model;
/// both expose the same calls with identical contracts, so each kernel
/// is written once and an
/// overlay read takes exactly the code path, and the exploration order
/// on which truncation depends, that a from-scratch rebuild would take.
struct FrozenView {
  const TimeVaryingGraph* g;
  const ScheduleIndex* sx;

  using EventCursor = ScheduleIndex::EventCursor;

  explicit FrozenView(const TimeVaryingGraph& graph)
      : g(&graph), sx(&graph.schedule_index()) {}

  [[nodiscard]] std::size_t node_count() const { return g->node_count(); }
  [[nodiscard]] std::size_t edge_count() const { return sx->edge_count(); }
  /// Out-edges of v in CSR order; `fn(eid)` returns false to stop.
  template <typename Fn>
  void for_each_out(NodeId v, Fn&& fn) const {
    for (const EdgeId e : g->out_edges(v)) {
      if (!fn(e)) return;
    }
  }
  /// In-edges of v in CSR order; `fn(eid)` returns false to stop.
  template <typename Fn>
  void for_each_in(NodeId v, Fn&& fn) const {
    for (const EdgeId e : g->in_edges(v)) {
      if (!fn(e)) return;
    }
  }
  /// Out-edges of v labeled `label`, in the CSR's stable label order;
  /// `fn(eid)` returns false to stop.
  template <typename Fn>
  void for_each_out_labeled(NodeId v, Symbol label, Fn&& fn) const {
    for (const EdgeId e : g->out_edges_labeled(v, label)) {
      if (!fn(e)) return;
    }
  }
  [[nodiscard]] NodeId edge_from(EdgeId e) const { return sx->record(e).from; }
  [[nodiscard]] NodeId edge_to(EdgeId e) const { return sx->record(e).to; }
  [[nodiscard]] bool present(EdgeId e, Time t) const {
    return sx->present(e, t);
  }
  [[nodiscard]] Time next_present(EdgeId e, Time from) const {
    return sx->next_present(e, from);
  }
  [[nodiscard]] Time next_present(EdgeId e, Time from, EventCursor& c) const {
    return sx->next_present(e, from, c);
  }
  [[nodiscard]] Time arrival(EdgeId e, Time dep) const {
    return sx->arrival(e, dep);
  }
  /// True iff e's ζ is affine (arrival monotone in departure).
  [[nodiscard]] bool latency_affine(EdgeId e) const {
    return sx->record(e).lat_affine;
  }
  [[nodiscard]] bool all_latency_constant() const {
    return sx->all_latency_constant();
  }
  [[nodiscard]] bool all_semi_periodic() const {
    return sx->all_semi_periodic();
  }
  [[nodiscard]] Time uniform_constant_latency() const {
    return sx->uniform_constant_latency();
  }
};

/// True iff the packed closure kernel lane-packs words over `view`:
/// exact-predicate schedules may run user code (which could even
/// re-enter a search), and non-constant latencies break the Wait-mode
/// dominance argument, so either makes it scan source by source.
template <typename View>
[[nodiscard]] bool lane_packing_eligible(const View& view) {
  return view.all_semi_periodic() && view.all_latency_constant();
}

namespace detail {

/// The search kernels' entry points over one View model, defined in
/// algorithms.cpp and explicitly instantiated there for FrozenView and
/// OverlayView. foremost_arrivals / foremost_scan have the contracts of
/// the frozen-graph functions of the same names in algorithms.hpp,
/// except that they do not bounds-check `source` (the read core
/// validates first).
/// multi_source_foremost packs 64 sources per lane word (see the
/// algorithms.cpp kernel comment) and writes `rows[i]` / `truncated[i]`
/// bit-identical to foremost_scan(sources[i]) in every DirectionOptions
/// mode, falling back to serial scans where packing cannot guarantee
/// that. Both spans need sources.size() entries (std::invalid_argument);
/// a bad source throws std::out_of_range.
/// foremost_read is a targeted foremost JourneyQuery: the arrival and
/// journey of foremost_arrivals at `target`, from a search that stops
/// once that arrival is final (`truncated` then means a budget cut it
/// before that point); `footprint`, if set, gets its foremost_footprint.
/// shortest_journey is the minimum-hop journey and
/// fastest_journey_checked the minimum-duration journey whose first
/// edge departs in [depart_lo, depart_hi], scanning the presence events
/// of the source's out-edges as candidate first departures.
template <typename View>
struct Kernels {
  static JourneyResult foremost_read(const View& vw, NodeId source,
                                     NodeId target, Time start_time,
                                     Policy policy, SearchLimits limits,
                                     SearchArenas& a,
                                     std::uint64_t* footprint);
  static ForemostTree foremost_arrivals(const View& vw, NodeId source,
                                        Time start_time, Policy policy,
                                        SearchLimits limits, SearchArenas& a);
  static ForemostScan foremost_scan(const View& vw, NodeId source,
                                    Time start_time, Policy policy,
                                    SearchLimits limits, SearchArenas& a);
  static std::optional<Journey> shortest_journey(
      const View& vw, NodeId source, NodeId target, Time start_time,
      Policy policy, SearchLimits limits, SearchArenas& a);
  static FastestJourneyResult fastest_journey_checked(
      const View& vw, NodeId source, NodeId target, Time depart_lo,
      Time depart_hi, Policy policy, SearchLimits limits, SearchArenas& a);
  static void multi_source_foremost(
      const View& vw, std::span<const NodeId> sources, Time start_time,
      Policy policy, SearchLimits limits, DirectionOptions direction,
      SearchArenas& a, std::span<std::vector<Time>> rows,
      std::span<char> truncated);
};

}  // namespace detail

/// Journey::arrival evaluated through the view instead of the graph's
/// edge table (which cannot resolve an overlay-added edge id). For a
/// frozen view this is the same value: the compiled index's arrival is
/// the documented exact mirror of Edge::arrival.
template <typename View>
[[nodiscard]] Time journey_arrival(const View& vw, const Journey& j) {
  if (j.legs.empty()) return j.start_time;
  const JourneyLeg& last = j.legs.back();
  return vw.arrival(last.edge, last.departure);
}

/// The "empty = every node" expansion + bounds check of a closure-style
/// source list.
[[nodiscard]] inline std::vector<NodeId> materialize_sources(
    std::size_t node_count, const std::vector<NodeId>& sources,
    const char* what) {
  std::vector<NodeId> out = sources;
  if (out.empty()) {
    out.resize(node_count);
    for (NodeId v = 0; v < node_count; ++v) out[v] = v;
  }
  for (const NodeId u : out) {
    if (u >= node_count) throw std::out_of_range(what);
  }
  return out;
}

// Approximate heap footprints of cached results: the byte weights behind
// CacheConfig::max_bytes accounting. Deliberately rough (struct size +
// owned array payloads): the budget guards against row blowup, not
// malloc-exact bookkeeping.

[[nodiscard]] inline std::size_t approx_bytes(const Journey& j) {
  return sizeof(Journey) + j.legs.size() * sizeof(JourneyLeg);
}

[[nodiscard]] inline std::size_t approx_bytes(const JourneyResult& r) {
  return sizeof(JourneyResult) + r.arrivals.size() * sizeof(Time) +
         (r.journey ? approx_bytes(*r.journey) : 0);
}

/// Cache footprint of a foremost read (see result_cache.hpp): the
/// source's partition plus every explored config's node, or
/// kFootprintAll when truncated (the explored set is then incomplete).
/// A search that stopped early never expanded a node outside this set,
/// so a write on such a node's out-edges cannot change what it saw.
[[nodiscard]] inline std::uint64_t foremost_footprint(
    NodeId source, std::span<const ForemostTree::ConfigRec> explored,
    bool truncated) {
  if (truncated) return kFootprintAll;
  std::uint64_t footprint = footprint_bit(source);
  for (const ForemostTree::ConfigRec& c : explored) {
    footprint |= footprint_bit(c.node);
  }
  return footprint;
}

/// Runs one journey query over `view` on the caller's workspace. When
/// `footprint` is set it receives the result's cache footprint: the
/// foremost by-product above, or kFootprintAll for shortest / fastest
/// results, which have no cheap reached set.
template <typename View>
[[nodiscard]] JourneyResult read_journey(const View& view,
                                         const JourneyQuery& q,
                                         SearchWorkspace& ws,
                                         std::uint64_t* footprint = nullptr) {
  if (q.source >= view.node_count()) {
    throw std::out_of_range("JourneyQuery: source out of range");
  }
  if (q.target && *q.target >= view.node_count()) {
    throw std::out_of_range("JourneyQuery: target out of range");
  }
  using K = detail::Kernels<View>;
  if (footprint) *footprint = kFootprintAll;
  detail::SearchArenas& a = ws.arenas();
  JourneyResult result;
  switch (q.objective) {
    case JourneyObjective::kForemost: {
      if (q.target) {
        return K::foremost_read(view, q.source, *q.target, q.start_time,
                                q.policy, q.limits, a, footprint);
      }
      const ForemostScan scan = K::foremost_scan(
          view, q.source, q.start_time, q.policy, q.limits, a);
      result.truncated = scan.truncated;
      result.arrivals.assign(scan.arrival.begin(), scan.arrival.end());
      if (footprint) {
        *footprint =
            foremost_footprint(q.source, scan.configs, scan.truncated);
      }
      return result;
    }
    case JourneyObjective::kShortest: {
      if (!q.target) {
        throw std::invalid_argument(
            "JourneyQuery: shortest objective requires a target");
      }
      result.journey = K::shortest_journey(
          view, q.source, *q.target, q.start_time, q.policy, q.limits, a);
      if (result.journey) {
        result.arrival = journey_arrival(view, *result.journey);
      }
      return result;
    }
    case JourneyObjective::kFastest: {
      if (!q.target) {
        throw std::invalid_argument(
            "JourneyQuery: fastest objective requires a target");
      }
      if (q.depart_hi < q.start_time) {
        throw std::invalid_argument(
            "JourneyQuery: fastest depart_hi precedes start_time (empty "
            "departure window)");
      }
      FastestJourneyResult fastest = K::fastest_journey_checked(
          view, q.source, *q.target, q.start_time, q.depart_hi, q.policy,
          q.limits, a);
      result.truncated = fastest.truncated;
      result.journey = std::move(fastest.journey);
      if (result.journey) {
        result.arrival = journey_arrival(view, *result.journey);
        result.duration =  // time-arith: mirrors Journey::duration exactly
            result.journey->legs.empty()
                ? 0
                : result.arrival - result.journey->legs.front().departure;
      }
      return result;
    }
  }
  return result;
}

/// QueryEngine::closure_fold over `view` and the materialized `sources`.
/// The shard unit is the WORD: 64 sources when the view is
/// lane_packing_eligible, else one, so a fold that stops on its first
/// row costs one serial scan. Each task runs its word into the leased
/// workspace's word_rows and folds them on the same worker.
template <typename View, typename Fold>
bool fold_closure(const View& view, std::span<const NodeId> sources,
                  const ClosureQuery& q, const WorkspacePool& workers,
                  Fold&& fold) {
  const std::size_t unit = lane_packing_eligible(view) ? 64 : 1;
  const std::size_t words = (sources.size() + unit - 1) / unit;
  std::atomic<bool> truncated{false};
  std::atomic<bool> stop{false};
  workers.parallel_for(words, q.threads, [&](std::size_t w,
                                             SearchWorkspace& ws) {
    if (stop.load(std::memory_order_relaxed)) return;
    const std::size_t lo = w * unit;
    const std::size_t count = std::min(unit, sources.size() - lo);
    if (ws.word_rows.size() < count) ws.word_rows.resize(count);
    const auto rows = std::span<std::vector<Time>>(ws.word_rows).first(count);
    std::array<char, 64> flags{};
    detail::Kernels<View>::multi_source_foremost(
        view, sources.subspan(lo, count), q.start_time, q.policy, q.limits,
        q.direction, ws.arenas(), rows, std::span<char>(flags).first(count));
    if (std::any_of(flags.begin(), flags.end(),
                    [](char c) { return c != 0; })) {
      truncated.store(true, std::memory_order_relaxed);
    }
    if (!fold(lo, rows)) stop.store(true, std::memory_order_relaxed);
  });
  return truncated.load();
}

}  // namespace tvg
