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

namespace {

/// Source u's share of the characteristic temporal distance: the sum of
/// (arrival − start_time) over its reachable targets v != u, and their
/// count.
struct PairSum {
  double total{0.0};
  std::size_t pairs{0};
};

[[nodiscard]] PairSum row_pair_sum(std::span<const Time> row, NodeId u,
                                   Time start_time) {
  PairSum sum;
  for (NodeId v = 0; v < row.size(); ++v) {
    if (u == v || row[v] == kTimeInfinity) continue;
    // time-arith: double accumulation (sat_sub already guards the Time op)
    sum.total += static_cast<double>(sat_sub(row[v], start_time));
    ++sum.pairs;
  }
  return sum;
}

/// The mean over the shares, summed in source order: both overloads take
/// this path, so they agree bit for bit at any thread count.
[[nodiscard]] std::optional<double> mean_of(std::span<const PairSum> sums) {
  double total = 0.0;
  std::size_t pairs = 0;
  for (const PairSum& s : sums) {
    // time-arith: double accumulation of already-summed shares
    total += s.total;
    pairs += s.pairs;
  }
  if (pairs == 0) return std::nullopt;
  return total / static_cast<double>(pairs);
}

}  // namespace

std::optional<double> characteristic_temporal_distance(
    const std::vector<std::vector<Time>>& rows, Time start_time) {
  std::vector<PairSum> sums(rows.size());
  for (NodeId u = 0; u < rows.size(); ++u) {
    sums[u] = row_pair_sum(rows[u], u, start_time);
  }
  return mean_of(sums);
}

std::optional<double> characteristic_temporal_distance(
    const TimeVaryingGraph& g, Time start_time, Policy policy,
    Time horizon) {
  const QueryEngine engine(g, 0, CacheConfig::disabled());
  ClosureQuery q;
  q.start_time = start_time;
  q.policy = policy;
  q.limits = SearchLimits::up_to(horizon);
  std::vector<PairSum> sums(g.node_count());  // disjoint per word: no lock
  engine.closure_fold(q, [&](std::size_t lo,
                             std::span<std::vector<Time>> rows) {
    for (std::size_t i = 0; i < rows.size(); ++i) {
      sums[lo + i] =
          row_pair_sum(rows[i], static_cast<NodeId>(lo + i), start_time);
    }
    return true;
  });
  return mean_of(sums);
}

}  // namespace tvg
