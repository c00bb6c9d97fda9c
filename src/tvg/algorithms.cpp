#include "tvg/algorithms.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <set>
#include <stdexcept>

#include "tvg/delta_overlay.hpp"
#include "tvg/departures.hpp"
#include "tvg/query_engine.hpp"
#include "tvg/read_core.hpp"
#include "tvg/schedule_index.hpp"
#include "tvg/sync.hpp"
#include "tvg/visited.hpp"

namespace tvg {

using ConfigRec = ForemostTree::ConfigRec;

namespace detail {

/// One packed frontier packet of the bit-parallel multi-source kernel:
/// the lanes in `mask` arrive at `node` at the packet's queue time.
struct MsPacket {
  NodeId node{kInvalidNode};
  std::uint64_t mask{0};
};

/// One settle-log entry of the pull gather: `mask` lanes settled at
/// `node` at `time`.
struct MsSettle {
  Time time{0};
  NodeId node{kInvalidNode};
  std::uint64_t mask{0};
};

/// Monotone calendar queue: items pop by instant, then in push order —
/// the order the Dijkstra witness forest and the packed drain rely on.
/// A power-of-two ring of per-instant buckets covers the sliding window
/// [now, now + ring size). A push further out waits in a small overflow
/// min-heap ordered by (instant, push order) and moves into the ring as
/// soon as `now` brings its instant into the window, which is before any
/// direct push can reach that instant, so it stays ahead of them. With
/// the ring empty, `now` jumps straight to the overflow top: far-future
/// items cost nothing per idle instant. Capacity persists across runs;
/// the queue is empty between runs (QueueReset keeps it so on every exit
/// path).
template <typename Item>
class CalendarQueue {
 public:
  /// Starts a run at `now` whose items all lie in [now, horizon]; the
  /// ring covers the whole window when it fits under kMaxRing.
  void start(Time now, Time horizon) {
    const Time span = sat_sub(horizon, now);
    const std::size_t want =
        span >= static_cast<Time>(kMaxRing)
            ? kMaxRing
            : std::bit_ceil(static_cast<std::size_t>(span) + 1);
    if (ring_.size() < want) ring_.resize(want);
    mask_ = ring_.size() - 1;
    now_ = now;
    seq_ = 0;
  }

  /// Queues `item` at instant t >= now.
  void push(Time t, Item item) {
    if (offset(t) <= mask_) {
      ring_[slot(t)].push_back(item);
      ++ring_items_;
      return;
    }
    overflow_.push_back(Far{t, seq_++, item});
    std::push_heap(overflow_.begin(), overflow_.end(), later);
  }

  /// The bucket of instant now(); a push to now() appends to it, so
  /// drain it with an index loop.
  [[nodiscard]] std::vector<Item>& current() { return ring_[slot(now_)]; }

  /// Earliest instant holding an item, kTimeInfinity when empty.
  [[nodiscard]] Time next_instant() const {
    if (ring_items_ == 0) {
      return overflow_.empty() ? kTimeInfinity : overflow_.front().time;
    }
    std::uint64_t d = 0;
    while (ring_[(static_cast<std::uint64_t>(now_) + d) & mask_].empty()) ++d;
    return now_ + static_cast<Time>(d);  // time-arith: an item is queued there
  }

  /// Moves now() to t; no item may be queued before t.
  void advance_to(Time t) {
    now_ = t;
    while (!overflow_.empty() && offset(overflow_.front().time) <= mask_) {
      std::pop_heap(overflow_.begin(), overflow_.end(), later);
      ring_[slot(overflow_.back().time)].push_back(overflow_.back().item);
      ++ring_items_;
      overflow_.pop_back();
    }
  }

  /// Drops the current bucket once every item in it has been consumed.
  void retire() {
    std::vector<Item>& bucket = current();
    ring_items_ -= bucket.size();
    bucket.clear();
  }

  /// Drops every queued item (O(1) when already empty).
  void clear() {
    for (std::uint64_t d = 0; ring_items_ != 0; ++d) {
      auto& bucket = ring_[(static_cast<std::uint64_t>(now_) + d) & mask_];
      ring_items_ -= bucket.size();
      bucket.clear();
    }
    overflow_.clear();
  }

 private:
  static constexpr std::size_t kMaxRing = std::size_t{1} << 14;

  struct Far {
    Time time;
    std::uint64_t seq;
    Item item;
  };
  static bool later(const Far& x, const Far& y) {
    return x.time != y.time ? x.time > y.time : x.seq > y.seq;
  }
  /// t - now without overflow (t >= now).
  [[nodiscard]] std::uint64_t offset(Time t) const {
    return static_cast<std::uint64_t>(t) - static_cast<std::uint64_t>(now_);
  }
  [[nodiscard]] std::size_t slot(Time t) const {
    return static_cast<std::uint64_t>(t) & mask_;
  }

  std::vector<std::vector<Item>> ring_;
  std::vector<Far> overflow_;
  std::size_t mask_{0};
  std::size_t ring_items_{0};  // items in ring_, consumed or not
  std::uint64_t seq_{0};
  Time now_{0};
};

/// Empties a calendar queue on scope exit, including an exception from a
/// user-supplied ρ/ζ (a throwing Presence::predicate, say) that unwinds
/// mid-drain and would otherwise leave stale items for the next search
/// on this workspace.
template <typename Item>
struct QueueReset {
  CalendarQueue<Item>& queue;
  ~QueueReset() { queue.clear(); }
};

/// The arenas behind SearchWorkspace (see algorithms.hpp). Kernels write
/// results into configs/best/arrival; admission, the calendar queues,
/// and the scan cursor persist across runs with their capacity intact.
struct SearchArenas {
  std::vector<ConfigRec> configs;
  std::vector<std::int64_t> best;  // per node
  std::vector<Time> arrival;       // per node
  ConfigAdmission admission{kTimeInfinity};
  CalendarQueue<std::int64_t> buckets;  // Dijkstra config indices
  bool truncated{false};
  std::int64_t first_goal{-1};  // first config hitting a kHop goal (BFS)

  /// Re-arms the per-source fields for a search over n nodes. A run
  /// writes arrival/best only at its configs' nodes, so this costs
  /// O(touched) unless the arrays have another size (or were moved out).
  void begin_search(std::size_t n) {
    if (arrival.size() == n && best.size() == n) {
      for (const ConfigRec& c : configs) {
        arrival[c.node] = kTimeInfinity;
        best[c.node] = -1;
      }
    } else {
      arrival.assign(n, kTimeInfinity);
      best.assign(n, -1);
    }
    configs.clear();
    truncated = false;
    first_goal = -1;
  }

  /// Bit-parallel multi-source kernel state (multi_source_foremost);
  /// disjoint from the per-source fields above so a packed word that
  /// aborts can fall back to foremost_scan on the SAME workspace.
  std::vector<std::uint64_t> ms_seen;      // per node, current-instant lanes
  std::vector<std::uint64_t> ms_expanded;  // per node, lanes expanded at it
  std::vector<std::uint64_t> ms_reached;   // per node, lanes with a row entry
  std::vector<NodeId> ms_touched;          // nodes with nonzero scratch
  CalendarQueue<MsPacket> ms_buckets;

  /// Direction-optimized (pull) extensions of the packed kernel: per-node
  /// settled lane words, the ascending-instant settle log feeding them
  /// (folded with the uniform-latency lag, compacted from the front), and
  /// the shrinking list of nodes still missing lanes that the gather
  /// scans. Reused across words and closure calls like every other arena
  /// (assign/clear keep the capacity).
  std::vector<std::uint64_t> ms_settled;
  std::vector<MsSettle> ms_settle_log;
  std::vector<NodeId> ms_unfinalized;
};

}  // namespace detail

SearchWorkspace::SearchWorkspace()
    : arenas_(std::make_unique<detail::SearchArenas>()) {}
SearchWorkspace::~SearchWorkspace() = default;
SearchWorkspace::SearchWorkspace(SearchWorkspace&&) noexcept = default;
SearchWorkspace& SearchWorkspace::operator=(SearchWorkspace&&) noexcept =
    default;

namespace {

using detail::SearchArenas;

/// Per-expansion departure-enumeration budget shared by config_bfs's
/// watchdog and the packed kernel's abort guard. ONE definition on
/// purpose: packed_word's fallback-exactness argument (packed completes
/// cleanly => no serial search could have tripped its watchdog) only
/// holds while both kernels derive the threshold from the same formula.
[[nodiscard]] std::size_t watchdog_steps(std::size_t max_configs) noexcept {
  constexpr std::size_t kStepsPerConfig = 16;
  return std::max<std::size_t>(
      std::size_t{1} << 16,
      max_configs <
              std::numeric_limits<std::size_t>::max() / kStepsPerConfig
          ? max_configs * kStepsPerConfig
          : std::numeric_limits<std::size_t>::max());
}

/// An early stop for run_search: kHop ends a config BFS at the first
/// config reaching `node` (min hops); kForemost ends any search once
/// `node`'s arrival and witness are final, i.e. equal the full search's.
struct Goal {
  enum Kind : std::uint8_t { kNone, kHop, kForemost };
  Kind kind{kNone};
  NodeId node{kInvalidNode};
};

/// Dijkstra over (node, arrival) — exact for the Wait policy, where
/// earlier arrivals dominate. `initial` are root configs. Results land in
/// the arenas (configs / best / arrival / truncated). The calendar queue
/// pops by arrival, then config creation order, at any horizon.
template <typename View>
void dijkstra_wait(const View& vw, std::span<const ConfigRec> initial,
                   SearchLimits limits, SearchArenas& a, Goal goal) {
  a.begin_search(vw.node_count());

  Time t_min = kTimeInfinity;
  for (const ConfigRec& c : initial) {
    if (c.time == kTimeInfinity || c.time > limits.horizon) continue;
    t_min = std::min(t_min, c.time);
  }
  if (t_min == kTimeInfinity) return;  // no admissible root

  auto& queue = a.buckets;
  queue.start(t_min, limits.horizon);
  const detail::QueueReset<std::int64_t> reset{queue};

  // Records config c as the new best at its node and queues it.
  auto improve = [&](const ConfigRec& c) {
    a.configs.push_back(c);
    const auto idx = static_cast<std::int64_t>(a.configs.size()) - 1;
    a.arrival[c.node] = c.time;
    a.best[c.node] = idx;
    queue.push(c.time, idx);
  };
  for (const ConfigRec& c : initial) {
    if (c.time == kTimeInfinity || c.time > limits.horizon) continue;
    if (c.time < a.arrival[c.node]) improve(c);
  }

  for (Time t = queue.next_instant(); t != kTimeInfinity;
       t = queue.next_instant()) {
    // Every config earlier than t is expanded, and a later one arrives
    // no earlier than t, so an arrival at or before t is final.
    if (goal.kind == Goal::kForemost && t >= a.arrival[goal.node]) return;
    queue.advance_to(t);
    const std::vector<std::int64_t>& bucket = queue.current();
    // Index loop: a zero-latency relaxation may append to the bucket
    // being drained.
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const std::int64_t idx = bucket[i];
      const NodeId v = a.configs[static_cast<std::size_t>(idx)].node;
      if (t != a.arrival[v]) continue;  // stale entry
      if (a.configs.size() >= limits.max_configs) {
        a.truncated = true;
        return;  // budget exhausted; `reset` empties the queue
      }
      vw.for_each_out(v, [&](EdgeId eid) {
        for_each_policy_departure(vw, eid, t, Policy::wait(), limits.horizon,
                                  1, [&](Time dep) {
          const Time arr = vw.arrival(eid, dep);
          if (arr == kTimeInfinity || arr > limits.horizon) return true;
          const NodeId to = vw.edge_to(eid);
          if (arr < a.arrival[to]) improve(ConfigRec{to, arr, idx, eid, dep});
          return true;
        });
        return true;
      });
    }
    queue.retire();
  }
}

/// Hop-ordered BFS over all (node, time) configurations — required for
/// NoWait / BoundedWait where early arrivals do not dominate. A kHop
/// goal records the first config reaching it (min hops).
/// Every admitted config is appended to a.configs exactly once and in
/// FIFO order, so the frontier queue is just a scan index over a.configs.
template <typename View>
void config_bfs(const View& vw, std::span<const ConfigRec> initial,
                Policy policy, SearchLimits limits, SearchArenas& a,
                Goal goal) {
  a.begin_search(vw.node_count());

  // Exact (node, time) dedup — membership compares the full pair, never a
  // hash of it, so a collision can no longer drop a reachable config (the
  // visited policy lives in visited.hpp, where it is unit-tested).
  a.admission.reset(limits.horizon);

  // Watchdog for departure enumeration. The config budget alone cannot
  // bound an unbounded departure window whose candidates are all
  // *rejected* (infinite arrival, beyond-horizon, duplicate): those never
  // grow a.configs, and such a window is enumerated within a SINGLE
  // config expansion. So the watchdog counts steps per expansion —
  // resetting on every pop and every admission — and only trips when one
  // expansion enumerates a budget-dwarfing number of fruitless
  // departures. Exhaustive duplicate-heavy searches (long queue tails
  // re-enumerating already-visited configs across many expansions) never
  // trip it; a single finite window larger than the step budget with
  // every departure rejected is conservatively reported as truncated.
  std::size_t expansion_steps = 0;
  const std::size_t max_expansion_steps = watchdog_steps(limits.max_configs);

  // kForemost stop: `early` counts the queued configs (configs[queued..])
  // earlier than the goal's best arrival T, recounted when T drops. A
  // config arrives no earlier than its parent's time, so at 0 nothing can
  // beat T or replace its witness (that takes a strict improvement).
  const bool to_target = goal.kind == Goal::kForemost;
  std::size_t queued = 0;
  std::size_t early = 0;

  // Returns false once a budget is exhausted; that stops the departure
  // enumeration feeding it (see for_each_policy_departure).
  auto push = [&](const ConfigRec& c) -> bool {
    if (a.configs.size() >= limits.max_configs) {
      a.truncated = true;
      return false;
    }
    if (!a.admission.admit(c.node, c.time)) return true;
    expansion_steps = 0;
    a.configs.push_back(c);
    const auto idx = static_cast<std::int64_t>(a.configs.size()) - 1;
    if (c.time < a.arrival[c.node]) {
      a.arrival[c.node] = c.time;
      a.best[c.node] = idx;
      if (to_target && c.node == goal.node) {
        early = static_cast<std::size_t>(std::count_if(
            a.configs.begin() + static_cast<std::ptrdiff_t>(queued),
            a.configs.end(),
            [&](const ConfigRec& q) { return q.time < c.time; }));
        return true;
      }
    }
    if (to_target && c.time < a.arrival[goal.node]) ++early;
    if (goal.kind == Goal::kHop && c.node == goal.node && a.first_goal < 0) {
      a.first_goal = idx;
    }
    return true;
  };

  for (const ConfigRec& c : initial) {
    if (!push(c)) break;
  }

  for (std::size_t next = 0; next < a.configs.size() && !a.truncated;
       ++next) {
    if (goal.kind == Goal::kHop && a.first_goal >= 0) break;
    if (to_target && early == 0) break;  // the goal's arrival is final
    const ConfigRec cur = a.configs[next];
    queued = next + 1;
    if (to_target && cur.time < a.arrival[goal.node]) --early;
    const auto idx = static_cast<std::int64_t>(next);
    expansion_steps = 0;
    vw.for_each_out(cur.node, [&](EdgeId eid) {
      for_each_policy_departure(vw, eid, cur.time, policy, limits.horizon, 1,
                                [&](Time dep) {
        if (++expansion_steps > max_expansion_steps) {
          a.truncated = true;
          return false;
        }
        const Time arr = vw.arrival(eid, dep);
        if (arr == kTimeInfinity || arr > limits.horizon) return true;
        return push(ConfigRec{vw.edge_to(eid), arr, idx, eid, dep});
      });
      return !a.truncated;
    });
  }
}

template <typename View>
void run_search(const View& vw, std::span<const ConfigRec> initial,
                Policy policy, SearchLimits limits, SearchArenas& a,
                Goal goal = {}) {
  if (policy.kind == WaitingPolicy::kWait && vw.all_latency_constant()) {
    // Dominance argument requires that departing later never arrives
    // earlier, which constant latencies guarantee. The fact is the
    // view's (= effective over base ∪ delta for an overlay): one
    // non-constant latency override must route the whole search to the
    // enumeration kernel, exactly as a rebuild's index would.
    dijkstra_wait(vw, initial, limits, a, goal);
    return;
  }
  if (policy.kind == WaitingPolicy::kWait) {
    // General latencies under Wait: fall back to bounded enumeration by
    // treating Wait as a very large bounded wait within the horizon.
    Policy capped = Policy::bounded_wait(limits.horizon == kTimeInfinity
                                             ? kTimeInfinity
                                             : limits.horizon);
    config_bfs(vw, initial, capped, limits, a, goal);
    return;
  }
  config_bfs(vw, initial, policy, limits, a, goal);
}

// ---------------------------------------------------------------------------
// Bit-parallel multi-source kernel (multi_source_foremost): one packed
// word of up to 64 source lanes, propagated together in ascending time
// order over the compiled index.
// ---------------------------------------------------------------------------

using detail::MsPacket;
using detail::MsSettle;

/// Runs ONE packed word (lane i = sources[i], i < 64) and fills the
/// word-relative `rows`. Returns false when a conservative guard fired;
/// the caller then redoes the word per-source, so the output stays
/// bit-identical to serial foremost_scan even under truncation.
///
/// Exactness: states are processed in ascending time, and every config
/// edge goes forward in time (latencies are non-negative), so the first
/// instant a lane appears at a node IS its foremost arrival. In Wait
/// mode a lane is finalized there (earlier arrivals dominate under
/// constant latencies — the serial Dijkstra's invariant); in NoWait /
/// BoundedWait mode the lane keeps propagating through every later
/// (node, time) state exactly like the serial configuration search,
/// deduplicated per state by the lane masks.
///
/// The guards over-approximate the serial budgets this word replaces:
///  * BFS modes — distinct (node, time) states admitted reaching
///    SearchLimits::max_configs (each per-source serial search admits a
///    subset of these states, so finishing strictly below the cap
///    proves every serial run would have been untruncated), and any
///    single expansion enumerating more departures than config_bfs's
///    per-expansion watchdog tolerates (the serial counter resets on
///    admissions, so its largest fruitless run is bounded by the
///    expansion's total enumeration, which both kernels share);
///  * Wait mode — total packets pushed + 1 reaching max_configs (serial
///    Dijkstra creates one config per improving push, and every
///    improving push for lane i maps to a packet containing lane i, so
///    the packet total bounds every serial config count). When
///    max_configs > edge_count + 1 the packet counter is skipped
///    entirely: a Wait-mode serial search over constant latencies
///    expands each node at most once and creates at most one improving
///    config per out-edge, so its config total is <= edges + 1 and no
///    per-source run can possibly truncate.
///
/// Direction optimization (`dopt`): in the regime where the pull gather
/// is provably exact — Wait mode, ONE uniform constant latency L >= 1
/// shared by every edge, unexhaustible budget, at any horizon — the
/// kernel may stop scattering packets and instead, at each instant t,
/// have every node still missing lanes OR in the lanes settled at its
/// in-neighbors by t - L over in-edges present at t - L. With a uniform
/// L, a lane settled at u at time s reaches v through edge e exactly at
/// the first instant t with presence(e, t - L) and s <= t - L, so the
/// gather finds precisely the serial foremost arrivals, instant by
/// ascending instant (L >= 1 keeps same-instant cascades out of the
/// gather's frame). kAuto switches push -> pull once, at the START of
/// the first instant whose queued lane-deliveries (sum of packet mask
/// popcounts in the instant's bucket) reach pull_density x lanes x the
/// nodes not yet holding every lane. That right-hand side bounds both
/// the lane-bits still missing anywhere AND what the gather would
/// rescan per instant, so crossing it means this single instant's
/// queue traffic already dwarfs the whole pull-side cost — which is
/// exactly the blast-wave instant of a dense sweep, caught BEFORE its
/// own — largest — scatter is paid. Staggered-arrival sweeps (thin
/// masks, or fat re-deliveries to nodes each missing only a few
/// stragglers — small Markovian traces, sparse Zipf regimes) never
/// cross the threshold, whatever the node count, and keep the push
/// path. Packets queued before the
/// switch still drain (they settle lanes without scattering; the
/// reached-mask dedup makes any double delivery harmless).
///
/// The pull walk skips idle instants: after an instant that drained no
/// packet and gathered nothing, it jumps to the earliest instant at
/// which the word can change — the next queued packet, the next settle
/// event old enough to fold, or the first instant t' at which an in-edge
/// (u, v) of an unfinalized v, with lanes settled at u that v lacks, is
/// present at t' - L. Before that instant no packet drains and the
/// settled words stay put, so every skipped gather would find nothing;
/// the word ends when no such instant exists within the horizon. Every
/// jump lands on a drain, a fold or a gather, so an unbounded sweep
/// over nodes no lane can reach still terminates.
///
/// Everything is read through the View, so a word over an OverlayView
/// is the same computation as over the FrozenView of the rebuilt graph.
/// The one asymmetry is deliberate: an overlay with added edges or
/// latency overrides reports no uniform latency, which only gives up
/// the pull switch (push and pull rows are bit-identical).
template <typename View>
bool packed_word(const View& vw, std::span<const NodeId> sources,
                 Time start_time, Policy policy, SearchLimits limits,
                 DirectionOptions dopt, SearchArenas& a,
                 std::span<std::vector<Time>> rows) {
  const std::size_t n = vw.node_count();
  const bool wait_mode = policy.kind == WaitingPolicy::kWait;
  a.ms_seen.assign(n, 0);
  a.ms_expanded.assign(n, 0);
  a.ms_reached.assign(n, 0);
  a.ms_touched.clear();

  // Mirrors the serial root admission: a start past the horizon (or the
  // sentinel itself) reaches nothing, including the sources themselves.
  if (start_time == kTimeInfinity || start_time > limits.horizon) return true;

  auto& queue = a.ms_buckets;
  queue.start(start_time, limits.horizon);
  const detail::QueueReset<MsPacket> reset{queue};

  // Same watchdog threshold as config_bfs (see watchdog_steps).
  const std::size_t max_expansion_steps = watchdog_steps(limits.max_configs);

  // A Wait-mode serial Dijkstra over constant latencies expands each
  // node at most once and records at most one improving config per
  // out-edge, so a budget above edges + 1 can never truncate any
  // per-source run this word replaces — the packed packet counter (whose
  // total grows with lane count, not config count) would otherwise
  // force spurious serial fallbacks at 10^5+ scale.
  const bool budget_unexhaustible =
      wait_mode && limits.max_configs > vw.edge_count() + 1;

  // Pull-gather eligibility — see the function comment. uniform_lat is
  // -1 unless every edge shares one constant latency.
  const Time uniform_lat = vw.uniform_constant_latency();
  const bool pull_eligible = wait_mode && uniform_lat >= 1 &&
                             budget_unexhaustible &&
                             dopt.mode != FrontierMode::kPushOnly;
  const std::uint64_t full_mask =
      sources.size() >= 64 ? ~std::uint64_t{0}
                           : (std::uint64_t{1} << sources.size()) - 1;
  bool ok = true;
  std::size_t admitted = 0;  // distinct (node, time) states (BFS modes)
  std::size_t pushes = 0;    // packets pushed (Wait-mode config bound)

  bool pull_active = false;
  std::size_t settle_cursor = 0;   // settle-log prefix already folded
  std::size_t complete_nodes = 0;  // nodes already holding every lane
  std::size_t settled_bits = 0;    // lane-work already done (push phase)
  // Switching is rare (once per word, and only on dense sweeps), so the
  // settle log is rebuilt HERE from the rows already written — the push
  // path pays nothing per finalize while pull stays dormant.
  auto activate_pull = [&] {
    pull_active = true;
    a.ms_settled.assign(n, 0);
    a.ms_settle_log.clear();
    settle_cursor = 0;
    a.ms_unfinalized.clear();
    for (std::size_t v = 0; v < n; ++v) {
      const std::uint64_t reached = a.ms_reached[v];
      if (reached != full_mask) {
        a.ms_unfinalized.push_back(static_cast<NodeId>(v));
      }
      for (std::uint64_t f = reached; f != 0; f &= f - 1) {
        const std::size_t lane = static_cast<std::size_t>(std::countr_zero(f));
        a.ms_settle_log.push_back(MsSettle{
            rows[lane][v], static_cast<NodeId>(v), std::uint64_t{1} << lane});
      }
    }
    std::sort(a.ms_settle_log.begin(), a.ms_settle_log.end(),
              [](const MsSettle& x, const MsSettle& y) {
                return x.time < y.time;
              });
  };
  if (pull_eligible && dopt.mode == FrontierMode::kPullOnly) activate_pull();
  // While true, kAuto is still shopping for a switch instant: the check
  // runs and the counters below feed it. Closed one-way by switching OR
  // by the sweep aging past the point where the O(settled)-cost
  // activation could still be amortized (outstanding lane-work only
  // shrinks) — after which the push path runs with zero eligibility
  // bookkeeping.
  bool switch_pending = pull_eligible && !pull_active;

  auto push_state = [&](NodeId to, Time t, std::uint64_t mask) {
    if (wait_mode && !budget_unexhaustible &&
        ++pushes + 1 >= limits.max_configs) {
      ok = false;
      return;
    }
    queue.push(t, MsPacket{to, mask});
  };

  // Records first sightings of, and expands, the not-yet-expanded lanes
  // of node v at the instant t currently being drained.
  auto process = [&](NodeId v, Time t) {
    std::uint64_t delta = a.ms_seen[v] & ~a.ms_expanded[v];
    if (wait_mode) delta &= ~a.ms_reached[v];  // finalized lanes stay put
    if (delta == 0) return;
    if (!wait_mode && a.ms_expanded[v] == 0) {
      // First lanes at this (v, t): one state admission.
      if (++admitted >= limits.max_configs) {
        ok = false;
        return;
      }
    }
    a.ms_expanded[v] |= delta;
    const std::uint64_t fresh = delta & ~a.ms_reached[v];
    if (fresh != 0) {
      a.ms_reached[v] |= fresh;
      for (std::uint64_t f = fresh; f != 0; f &= f - 1) {
        rows[static_cast<std::size_t>(std::countr_zero(f))][v] = t;
      }
      if (switch_pending) {
        // Feed the kAuto switch check: complete count normalizes the
        // density threshold, settled bits drive the halfway guard.
        if (a.ms_reached[v] == full_mask) ++complete_nodes;
        settled_bits += static_cast<std::size_t>(std::popcount(fresh));
      }
      if (pull_active) {
        // Log so a later gather can deliver these lanes onward once
        // t + L arrives (pre-switch history is rebuilt from rows inside
        // activate_pull; pre-switch-queued packets still draining after
        // the switch land here).
        a.ms_settle_log.push_back(MsSettle{t, v, fresh});
      }
    }
    if (pull_active) return;  // gather delivers these lanes from t + L on
    std::size_t steps = 0;
    vw.for_each_out(v, [&](EdgeId eid) {
      for_each_policy_departure(vw, eid, t, policy, limits.horizon, 1,
                                [&](Time dep) {
        if (++steps > max_expansion_steps) {
          ok = false;
          return false;
        }
        const Time arr = vw.arrival(eid, dep);
        if (arr == kTimeInfinity || arr > limits.horizon) return true;
        push_state(vw.edge_to(eid), arr, delta);
        return ok;
      });
      return ok;
    });
  };

  // Seed: every lane at its source at start_time (one packet per lane;
  // equal source nodes merge in the drain's scratch accumulation).
  for (std::size_t i = 0; i < sources.size(); ++i) {
    push_state(sources[i], start_time, std::uint64_t{1} << i);
  }

  // Folds settle events old enough to have departed by `dep` (event
  // time <= dep) into the per-node settled words.
  auto fold_settled = [&](Time dep) {
    auto& log = a.ms_settle_log;
    while (settle_cursor < log.size() && log[settle_cursor].time <= dep) {
      a.ms_settled[log[settle_cursor].node] |= log[settle_cursor].mask;
      ++settle_cursor;
    }
    if (settle_cursor >= 4096 && settle_cursor * 2 >= log.size()) {
      log.erase(log.begin(),
                log.begin() + static_cast<std::ptrdiff_t>(settle_cursor));
      settle_cursor = 0;
    }
  };

  // Pull gather for one instant: every node still missing lanes ORs in
  // the settled words of its in-neighbors over in-edges present at the
  // shared departure instant t - L (a uniform latency implies no added
  // edges on an overlay, so its in-edges are exactly the base CSR's).
  // Returns whether any lane arrived.
  auto pull_gather = [&](Time t) {
    const Time dep = sat_sub(t, uniform_lat);  // uniform L >= 1, so dep < t
    fold_settled(dep);
    bool any = false;
    for (std::size_t i = 0; i < a.ms_unfinalized.size();) {
      const NodeId v = a.ms_unfinalized[i];
      const std::uint64_t want = full_mask & ~a.ms_reached[v];
      if (want == 0) {  // finalized by a pre-switch packet since last scan
        a.ms_unfinalized[i] = a.ms_unfinalized.back();
        a.ms_unfinalized.pop_back();
        continue;
      }
      std::uint64_t gathered = 0;
      vw.for_each_in(v, [&](EdgeId eid) {
        const std::uint64_t cand =
            a.ms_settled[vw.edge_from(eid)] & want & ~gathered;
        if (cand == 0 || !vw.present(eid, dep)) return true;
        gathered |= cand;
        return gathered != want;
      });
      if (gathered != 0) {
        any = true;
        a.ms_reached[v] |= gathered;
        for (std::uint64_t f = gathered; f != 0; f &= f - 1) {
          rows[static_cast<std::size_t>(std::countr_zero(f))][v] = t;
        }
        a.ms_settle_log.push_back(MsSettle{t, v, gathered});
        if ((want ^ gathered) == 0) {
          a.ms_unfinalized[i] = a.ms_unfinalized.back();
          a.ms_unfinalized.pop_back();
          continue;
        }
      }
      ++i;
    }
    return any;
  };

  // The pull walk's skip rule (see the function comment): the earliest
  // instant >= t at which a packet drains, a settle event folds, or a
  // gather finds a lane; kTimeInfinity if none.
  auto next_pull_event = [&](Time t) {
    const Time dep = sat_sub(t, uniform_lat);
    fold_settled(dep);
    const auto& log = a.ms_settle_log;
    Time next = std::min(queue.next_instant(),
                         settle_cursor < log.size()
                             ? sat_add(log[settle_cursor].time, uniform_lat)
                             : kTimeInfinity);
    for (const NodeId v : a.ms_unfinalized) {
      const std::uint64_t want = full_mask & ~a.ms_reached[v];
      if (want == 0) continue;
      vw.for_each_in(v, [&](EdgeId eid) {
        if ((a.ms_settled[vw.edge_from(eid)] & want) == 0) return true;
        next = std::min(next, sat_add(vw.next_present(eid, dep), uniform_lat));
        return next > t;
      });
      if (next <= t) break;  // a gather at t itself: nothing to skip
    }
    return next;
  };

  // Drains one instant: accumulate packet masks into per-node scratch,
  // expand each touched node's new lanes, repeat until neither step has
  // work (zero-latency edges may append same-instant packets mid-drain),
  // then reset the scratch for the next instant.
  auto drain_instant = [&](Time t, std::vector<MsPacket>& bucket) {
    std::size_t scan = 0;
    std::size_t done = 0;
    while (ok) {
      const bool any_packet = scan < bucket.size();
      for (; scan < bucket.size(); ++scan) {
        const MsPacket p = bucket[scan];
        if ((p.mask & ~a.ms_seen[p.node]) == 0) continue;
        a.ms_seen[p.node] |= p.mask;
        a.ms_touched.push_back(p.node);  // duplicates fine: delta dedups
      }
      if (done < a.ms_touched.size()) {
        process(a.ms_touched[done++], t);
      } else if (!any_packet) {
        break;
      }
    }
    for (const NodeId v : a.ms_touched) {
      a.ms_seen[v] = 0;
      a.ms_expanded[v] = 0;
    }
    a.ms_touched.clear();
  };

  // Push instants come straight off the queue. The pull walk steps one
  // instant at a time (the gather must see every instant) until the
  // last one was quiet, then applies the skip rule; it ends once every
  // node holds every lane or nothing can change within the horizon.
  Time t = start_time;
  bool quiet = false;  // the last pull instant drained and gathered nothing
  while (ok) {
    if (!pull_active) {
      t = queue.next_instant();
      if (t == kTimeInfinity) break;
    } else {
      if (a.ms_unfinalized.empty()) break;
      if (quiet) t = next_pull_event(t);
      if (t == kTimeInfinity || t > limits.horizon) break;
    }
    queue.advance_to(t);
    std::vector<MsPacket>& bucket = queue.current();
    if (switch_pending) {
      // Amortization guard: activate_pull's settle-log rebuild costs
      // O(settled bits), so switching only pays while the sweep is
      // YOUNG — remaining lane-work at least 8x what a rebuild would
      // replay. A blast wave crosses the density threshold below at
      // ~0.5% settled; staggered traces (Markovian-style stragglers
      // whose fat-but-duplicate-heavy buckets only turn dense near
      // the end) reach it at 12%+ settled and are blocked here. The
      // guard is monotone, so crossing it retires the check for good.
      const std::size_t outstanding = sources.size() * n - settled_bits;
      if (outstanding <= 8 * (settled_bits + n)) {
        switch_pending = false;
      } else {
        // unfinalized x lanes bounds the lane-bits still missing
        // anywhere; unfinalized x avg-in-degree bounds the gather's
        // per-instant in-edge scan (a complete-topology word has few
        // nodes but hundreds of in-edges each — lanes alone
        // undercount what pull would pay there). The queue traffic of
        // ONE instant must dwarf both before switching makes sense.
        const double threshold =
            dopt.pull_density * static_cast<double>(n - complete_nodes) *
            std::max(static_cast<double>(sources.size()),
                     static_cast<double>(vw.edge_count()) /
                         static_cast<double>(n));
        // 64 x packet count bounds the bucket's lane-deliveries, so
        // most instants skip the popcount pass outright.
        if (static_cast<double>(64 * bucket.size()) >= threshold) {
          std::size_t queued_lanes = 0;
          for (const MsPacket& p : bucket) {
            queued_lanes += static_cast<std::size_t>(std::popcount(p.mask));
          }
          if (static_cast<double>(queued_lanes) >= threshold) {
            activate_pull();
            switch_pending = false;
          }
        }
      }
    }
    const bool gathered = pull_active && pull_gather(t);
    quiet = !gathered && bucket.empty();
    drain_instant(t, bucket);
    queue.retire();
    t = sat_add(t, 1);  // the pull walk's next instant
  }
  return ok;
}

Journey journey_from_config(const std::vector<ConfigRec>& configs,
                            std::int64_t idx, NodeId source,
                            Time start_time) {
  std::vector<JourneyLeg> legs;
  for (std::int64_t i = idx; i >= 0; i = configs[static_cast<std::size_t>(i)].parent) {
    const ConfigRec& c = configs[static_cast<std::size_t>(i)];
    if (c.via != kInvalidEdge) legs.push_back(JourneyLeg{c.via, c.dep});
  }
  std::reverse(legs.begin(), legs.end());
  return Journey{source, start_time, std::move(legs)};
}

}  // namespace

// ---------------------------------------------------------------------------
// Kernel entry points over one View (declared in read_core.hpp). The
// engines' read core calls them over FrozenView or OverlayView; the
// frozen-graph entry points further down are thin wrappers over the
// FrozenView instantiation.
// ---------------------------------------------------------------------------

namespace detail {

template <typename View>
ForemostTree Kernels<View>::foremost_arrivals(const View& vw, NodeId source,
                                              Time start_time, Policy policy,
                                              SearchLimits limits,
                                              SearchArenas& a) {
  const ConfigRec root{source, start_time, -1, kInvalidEdge, 0};
  run_search(vw, {&root, 1}, policy, limits, a);
  ForemostTree tree;
  tree.source = source;
  tree.start_time = start_time;
  tree.truncated = a.truncated;
  tree.arrival = std::move(a.arrival);
  tree.configs = std::move(a.configs);
  tree.best_config = std::move(a.best);
  a.arrival.clear();  // moved-from: restore to a definite empty state
  a.configs.clear();
  a.best.clear();
  return tree;
}

template <typename View>
JourneyResult Kernels<View>::foremost_read(const View& vw, NodeId source,
                                           NodeId target, Time start_time,
                                           Policy policy, SearchLimits limits,
                                           SearchArenas& a,
                                           std::uint64_t* footprint) {
  const ConfigRec root{source, start_time, -1, kInvalidEdge, 0};
  run_search(vw, {&root, 1}, policy, limits, a,
             Goal{Goal::kForemost, target});
  if (footprint) {
    *footprint = foremost_footprint(source, a.configs, a.truncated);
  }
  JourneyResult out;
  out.truncated = a.truncated;
  out.arrival = a.arrival[target];
  if (a.best[target] >= 0) {
    out.journey =
        journey_from_config(a.configs, a.best[target], source, start_time);
  }
  return out;
}

template <typename View>
ForemostScan Kernels<View>::foremost_scan(const View& vw, NodeId source,
                                          Time start_time, Policy policy,
                                          SearchLimits limits,
                                          SearchArenas& a) {
  const ConfigRec root{source, start_time, -1, kInvalidEdge, 0};
  run_search(vw, {&root, 1}, policy, limits, a);
  return ForemostScan{a.arrival, a.truncated, a.configs};
}

template <typename View>
void Kernels<View>::multi_source_foremost(
    const View& vw, std::span<const NodeId> sources, Time start_time,
    Policy policy, SearchLimits limits, DirectionOptions direction,
    SearchArenas& a, std::span<std::vector<Time>> rows,
    std::span<char> truncated) {
  if (rows.size() != sources.size() || truncated.size() != sources.size()) {
    throw std::invalid_argument(
        "multi_source_foremost: rows/truncated must have one entry per "
        "source");
  }
  const std::size_t n = vw.node_count();
  for (const NodeId u : sources) {
    if (u >= n) {
      throw std::out_of_range("multi_source_foremost: source out of range");
    }
  }
  // Ineligible graphs (see lane_packing_eligible) take the per-source
  // serial path below, which is exactly the code the packed path is
  // measured against.
  const bool eligible = lane_packing_eligible(vw);
  if (eligible) {
    // One up-front reservation per kernel call: the packed scratch is
    // assign()ed per word, so sizing it here keeps the 10^6-node sweeps
    // free of mid-word growth (the leased arenas keep the capacity).
    a.ms_seen.reserve(n);
    a.ms_expanded.reserve(n);
    a.ms_reached.reserve(n);
    a.ms_settled.reserve(n);
    a.ms_touched.reserve(n);
    a.ms_unfinalized.reserve(n);
  }
  for (std::size_t base = 0; base < sources.size(); base += 64) {
    const std::size_t count = std::min<std::size_t>(64, sources.size() - base);
    const auto word_sources = sources.subspan(base, count);
    const auto word_rows = rows.subspan(base, count);
    bool packed_ok = false;
    if (eligible) {
      for (auto& row : word_rows) row.assign(n, kTimeInfinity);
      packed_ok = packed_word(vw, word_sources, start_time, policy, limits,
                              direction, a, word_rows);
      if (packed_ok) {
        // The guards proved no per-source serial search could have been
        // truncated (see packed_word), so the serial flags are all false.
        for (std::size_t i = 0; i < count; ++i) truncated[base + i] = 0;
      }
    }
    if (!packed_ok) {
      for (std::size_t i = 0; i < count; ++i) {
        const ForemostScan scan = foremost_scan(vw, word_sources[i],
                                                start_time, policy, limits, a);
        word_rows[i].assign(scan.arrival.begin(), scan.arrival.end());
        truncated[base + i] = scan.truncated ? 1 : 0;
      }
    }
  }
}

template <typename View>
std::optional<Journey> Kernels<View>::shortest_journey(
    const View& vw, NodeId source, NodeId target, Time start_time,
    Policy policy, SearchLimits limits, SearchArenas& a) {
  if (source == target) return Journey{source, start_time, {}};
  if (policy.kind == WaitingPolicy::kWait && vw.all_latency_constant()) {
    // Hop-layered DP: under Wait a min-hop journey never revisits a node,
    // so |V| - 1 layers suffice; per layer, earlier arrival dominates.
    const std::size_t n = vw.node_count();
    std::vector<Time> arr(n, kTimeInfinity);
    std::vector<Time> cur = arr;
    cur[source] = start_time;
    std::vector<ConfigRec> parents;  // flattened witness forest
    parents.push_back(ConfigRec{source, start_time, -1, kInvalidEdge, 0});
    std::vector<std::int64_t> cfg_of(n, -1);
    cfg_of[source] = 0;
    for (std::size_t hop = 0; hop < n; ++hop) {
      std::vector<Time> next(n, kTimeInfinity);
      std::vector<std::int64_t> next_cfg(n, -1);
      for (NodeId v = 0; v < n; ++v) {
        if (cur[v] == kTimeInfinity) continue;
        vw.for_each_out(v, [&](EdgeId eid) {
          for_each_policy_departure(
              vw, eid, cur[v], Policy::wait(), limits.horizon, 1,
              [&](Time dep) {
                const Time at = vw.arrival(eid, dep);
                if (at == kTimeInfinity || at > limits.horizon) return true;
                const NodeId to = vw.edge_to(eid);
                if (at < next[to]) {
                  next[to] = at;
                  parents.push_back(ConfigRec{to, at, cfg_of[v], eid, dep});
                  next_cfg[to] =
                      static_cast<std::int64_t>(parents.size()) - 1;
                }
                return true;
              });
          return true;
        });
      }
      if (next[target] != kTimeInfinity) {
        return journey_from_config(parents, next_cfg[target], source,
                                   start_time);
      }
      cur = std::move(next);
      cfg_of = std::move(next_cfg);
      if (std::all_of(cur.begin(), cur.end(),
                      [](Time t) { return t == kTimeInfinity; })) {
        break;
      }
    }
    return std::nullopt;
  }
  const ConfigRec root{source, start_time, -1, kInvalidEdge, 0};
  run_search(vw, {&root, 1}, policy, limits, a, Goal{Goal::kHop, target});
  if (a.first_goal < 0) return std::nullopt;
  return journey_from_config(a.configs, a.first_goal, source, start_time);
}

template <typename View>
FastestJourneyResult Kernels<View>::fastest_journey_checked(
    const View& vw, NodeId source, NodeId target, Time depart_lo,
    Time depart_hi, Policy policy, SearchLimits limits, SearchArenas& a) {
  FastestJourneyResult result;
  if (source == target) {
    result.journey = Journey{source, depart_lo, {}};
    return result;
  }
  // Candidate first departures: presence events of source out-edges,
  // deduplicated across edges so shared schedules don't charge the budget
  // twice for one instant.
  std::set<Time> candidates;
  vw.for_each_out(source, [&](EdgeId eid) {
    if (result.truncated) return false;  // no further edge can add one
    typename View::EventCursor cursor;
    Time at = depart_lo;
    while (at <= depart_hi) {
      const Time dep = vw.next_present(eid, at, cursor);
      if (dep == kTimeInfinity || dep > depart_hi) break;
      if (!candidates.contains(dep)) {
        if (candidates.size() >= limits.max_fastest_candidates) {
          // A further distinct presence event exists but the enumeration
          // budget is spent: the optimum may depart at an unexplored
          // candidate.
          result.truncated = true;
          break;
        }
        candidates.insert(dep);
      }
      at = dep + 1;  // time-arith: dep < kTimeInfinity (guarded above)
    }
    return true;
  });

  std::optional<Journey> best;
  Time best_duration = kTimeInfinity;
  for (Time s : candidates) {
    const ConfigRec root{source, s, -1, kInvalidEdge, 0};
    run_search(vw, {&root, 1}, policy, limits, a);
    if (a.truncated) result.truncated = true;
    if (a.best[target] < 0) continue;
    Journey j = journey_from_config(a.configs, a.best[target], source, s);
    if (j.legs.empty()) continue;
    // If the search waited at the source past s, the same journey is found
    // (with its true duration) under the later candidate equal to its
    // actual first departure; skip it here.
    if (j.legs.front().departure != s) continue;
    // Journey::duration through the view — same raw subtraction.
    const Time duration =  // time-arith: mirrors Journey::duration exactly
        journey_arrival(vw, j) - j.legs.front().departure;
    if (duration < best_duration) {
      best_duration = duration;
      best = std::move(j);
    }
  }
  result.journey = std::move(best);
  return result;
}

template struct Kernels<FrozenView>;
template struct Kernels<OverlayView>;

}  // namespace detail

using FrozenKernels = detail::Kernels<FrozenView>;

std::optional<Journey> ForemostTree::journey_to(NodeId target) const {
  if (target >= best_config.size() || best_config[target] < 0)
    return std::nullopt;
  return journey_from_config(configs, best_config[target], source,
                             start_time);
}

ForemostTree foremost_arrivals(const TimeVaryingGraph& g, NodeId source,
                               Time start_time, Policy policy,
                               SearchLimits limits, SearchWorkspace& ws) {
  // The engine's read core validates its sources; this entry point
  // bypasses it, and the kernels index per-node arrays by `source`.
  if (source >= g.node_count()) {
    throw std::out_of_range("foremost_arrivals: source out of range");
  }
  return FrozenKernels::foremost_arrivals(FrozenView(g), source, start_time,
                                          policy, limits, ws.arenas());
}

ForemostScan foremost_scan(const TimeVaryingGraph& g, NodeId source,
                           Time start_time, Policy policy,
                           SearchLimits limits, SearchWorkspace& ws) {
  if (source >= g.node_count()) {
    throw std::out_of_range("foremost_scan: source out of range");
  }
  return FrozenKernels::foremost_scan(FrozenView(g), source, start_time,
                                      policy, limits, ws.arenas());
}

std::optional<Time> temporal_diameter(const QueryEngine& engine,
                                      Time start_time, Policy policy,
                                      SearchLimits limits) {
  ClosureQuery q;
  q.start_time = start_time;
  q.policy = policy;
  q.limits = limits;
  Mutex mu;
  std::optional<Time> diameter = 0;  // nullopt once a pair is unreachable
  engine.closure_fold(q, [&](std::size_t, std::span<std::vector<Time>> rows) {
    const MutexLock lock(mu);
    if (!diameter) return false;  // another word already decided
    for (const std::vector<Time>& row : rows) {
      for (const Time t : row) {
        if (t == kTimeInfinity) {
          diameter.reset();
          return false;  // one unreachable pair decides the answer
        }
        // sat_sub: finite-but-huge arrival minus a negative start_time
        // must saturate, not wrap (the PR-4 overflow class).
        diameter = std::max(*diameter, sat_sub(t, start_time));
      }
    }
    return true;
  });
  return diameter;
}

std::optional<Time> temporal_diameter(const TimeVaryingGraph& g,
                                      Time start_time, Policy policy,
                                      SearchLimits limits) {
  const QueryEngine engine(g, 0, CacheConfig::disabled());
  return temporal_diameter(engine, start_time, policy, limits);
}

bool temporally_connected(const QueryEngine& engine, Time start_time,
                          Policy policy, SearchLimits limits) {
  return temporal_diameter(engine, start_time, policy, limits).has_value();
}

bool temporally_connected(const TimeVaryingGraph& g, Time start_time,
                          Policy policy, SearchLimits limits) {
  const QueryEngine engine(g, 0, CacheConfig::disabled());
  return temporally_connected(engine, start_time, policy, limits);
}

}  // namespace tvg
