#include "tvg/metrics.hpp"

#include "tvg/algorithms.hpp"
#include "tvg/query_engine.hpp"
#include "tvg/schedule_index.hpp"

namespace tvg {

std::optional<Time> temporal_eccentricity(const TimeVaryingGraph& g,
                                          NodeId v, Time start_time,
                                          Policy policy, Time horizon) {
  // Single-source point query: only the arrival row is read, so the
  // witness-free scan on a local workspace is the cheap form. Batched
  // callers should take rows from QueryEngine::closure() instead.
  SearchWorkspace ws;
  const ForemostScan scan = foremost_scan(
      g, v, start_time, policy, SearchLimits::up_to(horizon), ws);
  Time ecc = 0;
  for (Time arrival : scan.arrival) {
    if (arrival == kTimeInfinity) return std::nullopt;
    // sat_sub: a finite-but-huge arrival minus a negative start_time is
    // the PR-4 overflow class (UB pre-fix, saturates now).
    ecc = std::max(ecc, sat_sub(arrival, start_time));
  }
  return ecc;
}

double temporal_closeness(std::span<const Time> row, NodeId v,
                          Time start_time) {
  double closeness = 0.0;
  for (NodeId u = 0; u < row.size(); ++u) {
    if (u == v || row[u] == kTimeInfinity) continue;
    closeness +=
        1.0 / static_cast<double>(sat_add(sat_sub(row[u], start_time), 1));
  }
  return closeness;
}

double temporal_closeness(const TimeVaryingGraph& g, NodeId v,
                          Time start_time, Policy policy, Time horizon) {
  SearchWorkspace ws;
  return temporal_closeness(
      foremost_scan(g, v, start_time, policy, SearchLimits::up_to(horizon),
                    ws)
          .arrival,
      v, start_time);
}

std::size_t contact_count(const Edge& e, Time horizon) {
  std::size_t contacts = 0;
  bool in_contact = false;
  for (Time t = 0; t < horizon; ++t) {
    const bool present = e.present(t);
    if (present && !in_contact) ++contacts;
    in_contact = present;
  }
  return contacts;
}

Time total_presence(const TimeVaryingGraph& g, Time horizon) {
  const ScheduleIndex& sx = g.schedule_index();
  Time total = 0;
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    for (Time t = 0; t < horizon; ++t) {
      if (sx.present(e, t)) ++total;
    }
  }
  return total;
}

double snapshot_density(const TimeVaryingGraph& g, Time t,
                        std::vector<EdgeId>& buf) {
  const std::size_t n = g.node_count();
  if (n < 2) return 0.0;
  g.snapshot(t, buf);
  return static_cast<double>(buf.size()) /
         static_cast<double>(n * (n - 1));
}

double snapshot_density(const TimeVaryingGraph& g, Time t) {
  std::vector<EdgeId> buf;
  return snapshot_density(g, t, buf);
}

double average_density(const TimeVaryingGraph& g, Time horizon) {
  if (horizon <= 0) return 0.0;
  double total = 0.0;
  std::vector<EdgeId> buf;  // reused across instants
  for (Time t = 0; t < horizon; ++t) {
    total += snapshot_density(g, t, buf);  // time-arith: double accumulation
  }
  return total / static_cast<double>(horizon);
}

std::optional<double> characteristic_temporal_distance(
    const std::vector<std::vector<Time>>& rows, Time start_time) {
  double total = 0.0;
  std::size_t pairs = 0;
  for (NodeId u = 0; u < rows.size(); ++u) {
    for (NodeId v = 0; v < rows[u].size(); ++v) {
      if (u == v || rows[u][v] == kTimeInfinity) continue;
      // time-arith: double accumulation (sat_sub already guards the Time op)
      total += static_cast<double>(sat_sub(rows[u][v], start_time));
      ++pairs;
    }
  }
  if (pairs == 0) return std::nullopt;
  return total / static_cast<double>(pairs);
}

std::optional<double> characteristic_temporal_distance(
    const TimeVaryingGraph& g, Time start_time, Policy policy,
    Time horizon) {
  // One engine closure feeds the whole pair sum (the workspace pool
  // plays the role the explicit SearchWorkspace used to).
  QueryEngine engine(g, /*default_threads=*/1, CacheConfig::disabled());
  ClosureQuery q;
  q.start_time = start_time;
  q.policy = policy;
  q.limits = SearchLimits::up_to(horizon);
  return characteristic_temporal_distance(engine.closure(q).rows,
                                          start_time);
}

}  // namespace tvg
