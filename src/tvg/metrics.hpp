// Temporal metrics over time-varying graphs: the quantitative vocabulary
// (eccentricity, closeness, contact statistics, snapshot density) used by
// the benchmark tables and by anyone adopting the library for dynamic-
// network measurement.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "tvg/graph.hpp"
#include "tvg/policy.hpp"

namespace tvg {

struct SearchLimits;  // from algorithms.hpp

/// Temporal eccentricity of v: max over targets of (foremost arrival −
/// start_time); nullopt if some node is unreachable.
[[nodiscard]] std::optional<Time> temporal_eccentricity(
    const TimeVaryingGraph& g, NodeId v, Time start_time, Policy policy,
    Time horizon = kTimeInfinity);

/// Temporal closeness of v: sum over reachable targets u != v of
/// 1 / (arrival(u) − start_time + 1). Higher = temporally more central.
[[nodiscard]] double temporal_closeness(const TimeVaryingGraph& g, NodeId v,
                                        Time start_time, Policy policy,
                                        Time horizon = kTimeInfinity);

/// As above, from a precomputed foremost-arrival row for v (one row of
/// QueryEngine::closure() or ForemostScan::arrival) — the batched form:
/// one closure feeds every node's closeness without re-searching.
[[nodiscard]] double temporal_closeness(std::span<const Time> row, NodeId v,
                                        Time start_time);

/// Number of distinct contacts (maximal presence intervals) of an edge
/// within [0, horizon).
[[nodiscard]] std::size_t contact_count(const Edge& e, Time horizon);

/// Total instants of presence of the whole graph within [0, horizon).
[[nodiscard]] Time total_presence(const TimeVaryingGraph& g, Time horizon);

/// Fraction of ordered node pairs with a present edge at instant t.
[[nodiscard]] double snapshot_density(const TimeVaryingGraph& g, Time t);
/// As above, reusing `buf` for the snapshot (the zero-allocation form
/// per-instant sweeps want; `buf` is clobbered).
[[nodiscard]] double snapshot_density(const TimeVaryingGraph& g, Time t,
                                      std::vector<EdgeId>& buf);

/// Average snapshot density over [0, horizon).
[[nodiscard]] double average_density(const TimeVaryingGraph& g, Time horizon);

/// Characteristic temporal distance: mean over reachable ordered pairs of
/// (foremost arrival − start_time); nullopt when nothing is reachable.
/// A fold over the closure words of a cache-disabled engine on `g`
/// (QueryEngine::closure_fold), bit-identical to the rows overload.
[[nodiscard]] std::optional<double> characteristic_temporal_distance(
    const TimeVaryingGraph& g, Time start_time, Policy policy,
    Time horizon = kTimeInfinity);

/// As above, from precomputed all-source closure rows
/// (QueryEngine::closure() output) — rows[u][v] is
/// the foremost arrival at v from u. Sums per source row, then over the
/// rows in order.
[[nodiscard]] std::optional<double> characteristic_temporal_distance(
    const std::vector<std::vector<Time>>& rows, Time start_time);

}  // namespace tvg
