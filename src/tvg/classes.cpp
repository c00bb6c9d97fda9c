#include "tvg/classes.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "tvg/algorithms.hpp"
#include "tvg/query_engine.hpp"

namespace tvg {

bool edge_is_recurrent(const Edge& e, Time probe_horizon) {
  if (e.presence.is_semi_periodic()) {
    return !e.presence.pattern().empty();
  }
  // Predicate presence: probe. If a presence exists beyond half the
  // horizon, call it recurrent (conservative heuristic, documented).
  auto t = e.presence.next_present(probe_horizon / 2);
  return t.has_value() && *t <= probe_horizon;
}

std::optional<Time> edge_max_gap(const Edge& e) {
  if (!e.presence.is_semi_periodic()) return std::nullopt;
  const IntervalSet& pattern = e.presence.pattern();
  if (pattern.empty()) return std::nullopt;
  const Time period = e.presence.period();
  // Max gap in the periodic tail: for consecutive presence instants
  // (wrapping around the period), the largest difference.
  const auto points = pattern.points_in(0, period);
  Time max_gap = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Time next = i + 1 < points.size() ? points[i + 1]
                                            : sat_add(points.front(), period);
    // time-arith: next >= points[i] >= 0 (sorted pattern points)
    max_gap = std::max(max_gap, next - points[i]);
  }
  // Gaps in the initial segment (plus the hand-off into the tail).
  const Time t0 = e.presence.initial_length();
  Time prev = -1;
  auto consider = [&](Time t) {
    // time-arith: t > prev >= 0 (ascending presence points)
    if (prev >= 0) max_gap = std::max(max_gap, t - prev);
    prev = t;
  };
  for (Time t : e.presence.initial().points_in(0, t0)) consider(t);
  if (prev >= 0) {
    if (auto first_tail = e.presence.next_present(t0)) {
      consider(*first_tail);
    }
  }
  return max_gap;
}

bool all_edges_recurrent(const TimeVaryingGraph& g, Time probe_horizon) {
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (!edge_is_recurrent(g.edge(e), probe_horizon)) return false;
  }
  return g.edge_count() > 0;
}

std::optional<Time> recurrence_bound(const TimeVaryingGraph& g) {
  Time bound = 0;
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const auto gap = edge_max_gap(g.edge(e));
    if (!gap) return std::nullopt;
    bound = std::max(bound, *gap);
  }
  return bound;
}

bool recurrently_connected(const TimeVaryingGraph& g, Policy policy,
                           std::size_t max_configs) {
  if (!g.all_semi_periodic()) return false;
  // All behaviours are covered by start instants in [0, T + P).
  Time t_abs = 0;
  Time period = 1;
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    t_abs = std::max(t_abs, g.edge(e).presence.initial_length());
    period = std::lcm(period, g.edge(e).presence.period());
  }
  SearchLimits limits;
  limits.max_configs = max_configs;
  // sat ops: the lcm of edge periods can be astronomically large, and a
  // wrapped horizon would silently truncate every connectivity probe.
  const Time settle = sat_add(t_abs, period);
  limits.horizon = sat_add(sat_mul(settle, 8), 64);
  // One engine (index, workspaces, workers) serves every start instant.
  const QueryEngine engine(g, 0, CacheConfig::disabled());
  for (Time t0 = 0; t0 < settle; ++t0) {
    if (!temporally_connected(engine, t0, policy, limits)) return false;
  }
  return true;
}

std::string TvgClassReport::to_string() const {
  std::ostringstream os;
  os << "edge-recurrent: " << (edge_recurrent ? "yes" : "no");
  if (recurrence_bound) {
    os << " (bounded, max gap " << *recurrence_bound << ")";
  }
  os << "; TC(0): " << (temporally_connected_from_0 ? "yes" : "no")
     << "; TCR: " << (recurrently_connected ? "yes" : "no");
  return os.str();
}

TvgClassReport classify(const TimeVaryingGraph& g, Policy policy) {
  TvgClassReport report;
  report.edge_recurrent = all_edges_recurrent(g);
  report.recurrence_bound = recurrence_bound(g);
  report.temporally_connected_from_0 = temporally_connected(
      g, 0, policy, SearchLimits{/*horizon=*/1 << 12, /*max_configs=*/1
                                 << 18});
  report.recurrently_connected = recurrently_connected(g, policy);
  return report;
}

}  // namespace tvg
