// Temporal reachability and journey optimization over time-varying graphs.
//
// This is the algorithmic substrate of the TVG framework the paper builds
// on (its reference [1], Casteigts-Flocchini-Quattrociocchi-Santoro): the
// three classic notions of optimal journey —
//   * foremost  : earliest arrival,
//   * shortest  : fewest hops,
//   * fastest   : smallest (arrival − departure) duration —
// plus temporal reachability / connectivity / diameter, each under a
// waiting policy.
//
// A key structural fact drives the implementations: with unbounded
// waiting, "arriving earlier" dominates (an earlier arrival can imitate
// any later one by waiting), so foremost arrival admits a Dijkstra-style
// monotone relaxation. Under NoWait and BoundedWait(d) this dominance
// FAILS — arriving later can enable departures an early arrival cannot
// reach — so reachability must track the full set of (node, time)
// configurations. That asymmetry is the algorithmic shadow of the paper's
// expressivity gap, and bench_journeys measures it.
//
// Execution model: every search kernel runs over the graph's compiled
// ScheduleIndex + frozen CSR adjacency (schedule_index.hpp) and writes
// into a SearchWorkspace — no per-search allocation on the hot path.
// The single-source kernel entry points below (foremost_arrivals,
// foremost_scan) take that workspace explicitly. Journey, reachability,
// closure and all-pairs queries otherwise go through tvg::QueryEngine
// (query_engine.hpp), which validates them, caches results, owns a
// workspace pool and shards batches across threads; the all-pairs
// sweeps below (temporally_connected, temporal_diameter) stream its
// closure words.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "tvg/graph.hpp"
#include "tvg/journey.hpp"
#include "tvg/policy.hpp"

namespace tvg {

class QueryEngine;  // query_engine.hpp

namespace detail {
struct SearchArenas;  // algorithms.cpp
}

/// Reusable arenas for the search kernels: the config forest, per-node
/// arrival/witness arrays, the exact visited set, and the monotone
/// calendar queues (a ring of per-instant buckets plus a small overflow
/// for far-future items, at any horizon). One workspace serves any
/// number of sequential searches; buffers grow to the high-water mark
/// and are reused, so multi-source sweeps (QueryEngine::closure and
/// friends) stop paying per-source allocation. Not thread-safe: use one
/// per thread.
class SearchWorkspace {
 public:
  SearchWorkspace();
  ~SearchWorkspace();
  SearchWorkspace(SearchWorkspace&&) noexcept;
  SearchWorkspace& operator=(SearchWorkspace&&) noexcept;
  SearchWorkspace(const SearchWorkspace&) = delete;
  SearchWorkspace& operator=(const SearchWorkspace&) = delete;

  /// Kernel-internal arenas; layout is private to algorithms.cpp.
  [[nodiscard]] detail::SearchArenas& arenas() noexcept { return *arenas_; }

  /// The rows of one closure word (QueryEngine::closure_fold): the
  /// engine runs each word into the leased workspace's buffer and hands
  /// it to the fold, so a streaming fold reuses O(64 · n) memory.
  std::vector<std::vector<Time>> word_rows;

 private:
  std::unique_ptr<detail::SearchArenas> arenas_;
};

/// Common knobs for reachability searches.
struct SearchLimits {
  Time horizon{kTimeInfinity};       // ignore departures/arrivals beyond
  std::size_t max_configs{1 << 20};  // cap on explored (node,time) configs
  /// Cap on candidate first departures scanned by a fastest query; hitting
  /// it is reported via FastestJourneyResult::truncated.
  std::size_t max_fastest_candidates{4096};

  [[nodiscard]] static SearchLimits up_to(Time horizon) {
    SearchLimits limits;
    limits.horizon = horizon;
    return limits;
  }

  friend constexpr bool operator==(const SearchLimits&,
                                   const SearchLimits&) = default;
};

/// Which direction the packed multi-source kernel expands its frontier
/// (classic direction optimization: Beamer-style push/pull switching).
enum class FrontierMode : std::uint8_t {
  kAuto = 0,      // push until the frontier turns dense, then pull
  kPushOnly = 1,  // always scatter packets over out-edges
  kPullOnly = 2,  // gather over in-edges whenever the word is eligible
};

/// Direction-optimization knobs for the packed closure kernel. Scheduling
/// hints only: the pull path is gated to regimes where it provably
/// reproduces the push rows bit for bit (Wait policy, any horizon,
/// one uniform constant latency, an unexhaustible config budget) and
/// every ineligible word silently runs push — so rows are identical
/// across all modes and thresholds, and the engine's cache keys exclude
/// this struct exactly like the `threads` knob.
struct DirectionOptions {
  FrontierMode mode{FrontierMode::kAuto};
  /// kAuto switches push -> pull at the start of the first instant
  /// whose queued lane-deliveries (sum of packet-mask popcounts in the
  /// instant's calendar bucket) reach this fraction of lanes x the
  /// nodes not yet holding every lane. That normalizer bounds both the
  /// lane-bits still missing anywhere and the gather's per-instant
  /// rescan, so crossing it means one instant's queue traffic already
  /// dwarfs the whole pull-side cost — the dense blast wave, caught
  /// just BEFORE it pays its own (largest) scatter. Staggered sweeps
  /// with thin masks, or re-deliveries to nodes each missing only a
  /// few stragglers, never cross it and keep the push path. 0.0 =
  /// switch at the first instant; huge = effectively never.
  double pull_density{0.03};

  friend constexpr bool operator==(const DirectionOptions&,
                                   const DirectionOptions&) = default;
};

/// Result of a single-source foremost computation, with enough witness
/// structure to reconstruct an optimal journey to any node.
struct ForemostTree {
  NodeId source{kInvalidNode};
  Time start_time{0};
  /// arrival[v] = earliest arrival at v (kTimeInfinity if unreachable).
  std::vector<Time> arrival;
  /// True if the config cap truncated the search (arrivals are then an
  /// upper bound / reachability a lower bound).
  bool truncated{false};

  /// Explored configurations, as a parent forest.
  struct ConfigRec {
    NodeId node{kInvalidNode};
    Time time{0};
    std::int64_t parent{-1};   // index into configs, -1 for roots
    EdgeId via{kInvalidEdge};  // edge crossed to reach this config
    Time dep{0};               // its departure time
  };
  std::vector<ConfigRec> configs;
  /// Per node: index of the earliest-arrival config (-1 if unreachable).
  std::vector<std::int64_t> best_config;

  /// Reconstructs the foremost journey to `target`, if reachable.
  [[nodiscard]] std::optional<Journey> journey_to(NodeId target) const;
};

/// Single-source earliest-arrival under `policy`, departing `source` at
/// `start_time`. Exact under Wait (Dijkstra over monotone arrivals);
/// exact-up-to-horizon under NoWait / BoundedWait (configuration BFS).
/// The witness forest is moved out of `ws`, so the tree stays valid
/// across later searches. Throws std::out_of_range for a bad source.
[[nodiscard]] ForemostTree foremost_arrivals(const TimeVaryingGraph& g,
                                             NodeId source, Time start_time,
                                             Policy policy,
                                             SearchLimits limits,
                                             SearchWorkspace& ws);

/// Arrival row of a single-source search without extracting the witness
/// forest — the cheap form multi-source sweeps want.
struct ForemostScan {
  /// arrival[v] = earliest arrival at v (kTimeInfinity if unreachable).
  /// Points into `ws`; valid until the next search that uses `ws`.
  std::span<const Time> arrival;
  bool truncated{false};
};

/// Throws std::out_of_range for a bad source.
[[nodiscard]] ForemostScan foremost_scan(const TimeVaryingGraph& g,
                                         NodeId source, Time start_time,
                                         Policy policy, SearchLimits limits,
                                         SearchWorkspace& ws);

/// Outcome of a fastest (minimum-duration) search, with truncation
/// reporting (mirrors ForemostTree::truncated): `journey` may be
/// non-optimal — or absent despite the target being reachable — only
/// when `truncated` is true.
struct FastestJourneyResult {
  std::optional<Journey> journey;
  /// True if the candidate-departure enumeration hit
  /// SearchLimits::max_fastest_candidates, or any per-candidate search hit
  /// SearchLimits::max_configs.
  bool truncated{false};
};

/// True iff every ordered pair (u, v) is connected by a feasible journey
/// starting at `start_time` (the class "temporally connected" of [1]).
///
/// Streams the closure words of `engine` (QueryEngine::closure_fold,
/// O(threads · 64 · n) memory, never the n × n closure) across its
/// workers and stops at the first unreachable pair.
[[nodiscard]] bool temporally_connected(const QueryEngine& engine,
                                        Time start_time, Policy policy,
                                        SearchLimits limits = {});
/// As above, on a cache-disabled engine over `g`.
[[nodiscard]] bool temporally_connected(const TimeVaryingGraph& g,
                                        Time start_time, Policy policy,
                                        SearchLimits limits = {});

/// max over ordered pairs of (foremost arrival − start_time);
/// nullopt if some pair is unreachable. Streams words exactly like
/// temporally_connected.
[[nodiscard]] std::optional<Time> temporal_diameter(const QueryEngine& engine,
                                                    Time start_time,
                                                    Policy policy,
                                                    SearchLimits limits = {});
/// As above, on a cache-disabled engine over `g`.
[[nodiscard]] std::optional<Time> temporal_diameter(const TimeVaryingGraph& g,
                                                    Time start_time,
                                                    Policy policy,
                                                    SearchLimits limits = {});

}  // namespace tvg
