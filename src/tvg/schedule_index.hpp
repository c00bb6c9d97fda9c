// Compiled hot-path representation of a TVG's schedules (ρ) and latencies
// (ζ): the query kernel behind the journey search engine.
//
// `Presence` / `Latency` are value types that dispatch through a
// shared_ptr<const variant<...>> — ideal for construction and composition,
// but a pointer chase plus a variant branch per ρ-query, issued once per
// edge per configuration expansion in every search. A ScheduleIndex lowers
// the whole graph once into flat, cache-resident tables:
//
//  * per edge, one packed CompiledEdge record (topology, schedule tag,
//    affine latency coefficients) in a contiguous array indexed by EdgeId;
//  * the semi-periodic fragment becomes sorted interval-endpoint runs
//    (initial segment and one period) in a single shared event array —
//    present(t) is a parity check over a binary search, next_present(t) is
//    O(log k), and EventCursor gives amortized-O(1) stepping for the
//    ascending query runs that departure-window enumerations issue;
//  * predicate schedules and function latencies keep their exact existing
//    semantics behind a dispatch tag (the fallback holds cheap value
//    copies of the original Presence/Latency, so the index is
//    self-contained and survives moves of the source graph).
//
// Query results agree EXACTLY with Presence::present / next_present on
// every fragment (property-tested in tests/test_schedule_index.cpp),
// including the saturation behavior near kTimeInfinity.
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "tvg/graph.hpp"

namespace tvg {

/// Immutable compiled form of one graph's schedules; build once per graph
/// (TimeVaryingGraph caches one lazily — see schedule_index()).
class ScheduleIndex {
 public:
  enum class Kind : std::uint8_t {
    kNever,         // ρ = 0 everywhere
    kAlways,        // ρ = 1 on t >= 0
    kSemiPeriodic,  // event tables below
    kPredicate,     // exact fallback through the original Presence
  };

  /// Short segments (initial run or period no longer than this) compile
  /// to presence bitmasks instead of endpoint runs: present(t) is a bit
  /// test and next_present(t) a count-trailing-zeros word scan — O(1)
  /// instead of O(log k). Edge-Markovian traces and small-period
  /// schedules, the bulk of the bench workloads, live entirely here.
  static constexpr Time kMaxBitmaskBits = 512;

  /// Packed per-edge record: everything an expansion loop touches, with
  /// the cold parts (names, shared_ptr impls) left out. For a bitmask
  /// segment, lo/hi index 64-bit words in bits(); for an endpoint-run
  /// segment they index sorted Times in events().
  struct CompiledEdge {
    NodeId from{kInvalidNode};
    NodeId to{kInvalidNode};
    Symbol label{'?'};
    Kind kind{Kind::kNever};
    bool lat_affine{true};      // ζ(t) = lat_a·t + lat_b fast path
    bool init_bits{false};      // initial segment is a bitmask
    bool pat_bits{false};       // pattern segment is a bitmask
    bool pat_empty{true};       // pattern has no presence at all
    Time lat_a{0};
    Time lat_b{0};
    Time t0{0};                 // initial-segment length
    Time period{1};
    Time pat_min{0};            // min of pattern (valid iff !pat_empty)
    std::uint32_t init_lo{0};   // initial segment range (words or endpoints)
    std::uint32_t init_hi{0};
    std::uint32_t pat_lo{0};    // pattern segment range (words or endpoints)
    std::uint32_t pat_hi{0};
    std::uint32_t aux{0};       // fallback Presence index (kPredicate)
    std::uint32_t lat_aux{0};   // fallback Latency index (!lat_affine)
  };

  explicit ScheduleIndex(const TimeVaryingGraph& g);

  [[nodiscard]] std::size_t edge_count() const noexcept {
    return edges_.size();
  }
  [[nodiscard]] const CompiledEdge& record(EdgeId e) const {
    return edges_[e];
  }

  /// Graph-wide facts the kernels branch on once per search (precomputed
  /// here so they cost O(1) instead of an O(E) pointer-chasing sweep).
  [[nodiscard]] bool all_latency_constant() const noexcept {
    return all_latency_constant_;
  }
  [[nodiscard]] bool all_semi_periodic() const noexcept {
    return all_semi_periodic_;
  }
  /// The single constant ζ shared by EVERY edge, or -1 when the graph
  /// has no edges, any ζ is non-constant, or two edges disagree. The
  /// direction-optimized (pull) closure kernel gates on this: with one
  /// uniform latency L, "who arrives at v at instant t" is exactly "who
  /// was settled at an in-neighbor by t − L with the edge present at
  /// t − L" — a per-edge word OR instead of a scatter.
  [[nodiscard]] Time uniform_constant_latency() const noexcept {
    return uniform_latency_;
  }
  /// Number of edges whose ζ is NOT a constant. The delta overlay starts
  /// from this and adjusts it per mutation instead of rescanning the
  /// base graph.
  [[nodiscard]] std::size_t non_constant_latency_count() const noexcept {
    return non_constant_latency_count_;
  }
  /// Number of edges whose ρ is NOT semi-periodic (kPredicate records).
  [[nodiscard]] std::size_t non_semi_periodic_count() const noexcept {
    return non_semi_periodic_count_;
  }

  /// ρ_e(t); exact mirror of Presence::present. Defined inline below —
  /// these three queries are issued once per edge per configuration
  /// expansion, so they must inline into the search kernels.
  [[nodiscard]] bool present(EdgeId e, Time t) const;

  /// min { t' >= from : ρ_e(t') } with kTimeInfinity as the "no such
  /// time" sentinel (the searches already treat a kTimeInfinity result as
  /// absence — see for_each_policy_departure in departures.hpp).
  [[nodiscard]] Time next_present(EdgeId e, Time from) const;

  /// optional-returning wrapper with Presence::next_present's signature
  /// (for parity tests and non-kernel callers).
  [[nodiscard]] std::optional<Time> next_present_opt(EdgeId e,
                                                     Time from) const {
    const Time t = next_present(e, from);
    if (t == kTimeInfinity) return std::nullopt;
    return t;
  }

  /// Arrival time dep + ζ_e(dep); exact mirror of Edge::arrival.
  [[nodiscard]] Time arrival(EdgeId e, Time dep) const;

  /// Positional state for a run of ascending next_present queries on one
  /// edge (a departure-window enumeration, a candidate sweep). The cursor
  /// remembers which edge seeded it and re-seeds itself (by binary
  /// search) on an edge switch or a descending query, so correctness
  /// never depends on monotonicity or single-edge use — only the
  /// amortized cost does.
  struct EventCursor {
    EdgeId edge{kInvalidEdge};  // edge whose positions are cached
    Time last_from{-1};         // < 0 means unseeded
    Time base{0};               // absolute start of the current period copy
    std::uint32_t init_pos{0};  // endpoints of the initial segment consumed
    std::uint32_t pat_pos{0};   // endpoints of the current copy consumed
  };

  /// next_present(e, from) in amortized O(1) when `from` is ascending
  /// across calls with the same cursor; O(log k) re-seed otherwise.
  [[nodiscard]] Time next_present(EdgeId e, Time from, EventCursor& c) const;

 private:
  // Out-of-line slow paths for the dispatch-tag fallbacks.
  [[nodiscard]] bool present_fallback(const CompiledEdge& ce, Time t) const;
  [[nodiscard]] Time next_present_fallback(const CompiledEdge& ce,
                                           Time from) const;
  [[nodiscard]] Time arrival_fallback(const CompiledEdge& ce, Time dep) const;

  /// Number of endpoints in [begin, end) that are <= t. The endpoint run
  /// of one normalized interval set is strictly increasing (lo0 < hi0 <
  /// lo1 < ...), so an odd count means t sits inside an interval and an
  /// even count means the endpoint at that position (if any) is the next
  /// interval's lo.
  [[nodiscard]] static std::uint32_t endpoints_at_most(const Time* begin,
                                                       const Time* end,
                                                       Time t) noexcept;
  [[nodiscard]] static bool run_contains(const Time* begin, const Time* end,
                                         Time t) noexcept;
  /// IntervalSet::next_in over a flat endpoint run; kTimeInfinity if none.
  [[nodiscard]] static Time run_next(const Time* begin, const Time* end,
                                     Time t) noexcept;

  /// Bit-test / ctz-scan over a bitmask segment ([lo, hi) words in bits_).
  [[nodiscard]] bool bits_contains(std::uint32_t lo, Time t) const noexcept;
  [[nodiscard]] Time bits_next(std::uint32_t lo, std::uint32_t hi,
                               Time t) const noexcept;

  /// Mode-dispatching segment queries (t relative to the segment start).
  [[nodiscard]] bool seg_contains(bool bits, std::uint32_t lo,
                                  std::uint32_t hi, Time t) const noexcept;
  [[nodiscard]] Time seg_next(bool bits, std::uint32_t lo, std::uint32_t hi,
                              Time t) const noexcept;

  std::vector<CompiledEdge> edges_;
  std::vector<Time> events_;  // lo,hi endpoint runs, strictly increasing
                              // within each edge's init / pattern segment
  std::vector<std::uint64_t> bits_;  // bitmask words for short segments
  std::vector<Presence> fallback_presence_;
  std::vector<Latency> fallback_latency_;
  bool all_latency_constant_{true};
  bool all_semi_periodic_{true};
  std::size_t non_constant_latency_count_{0};
  std::size_t non_semi_periodic_count_{0};
  Time uniform_latency_{-1};  // -1 = no shared constant ζ (see accessor)
};

// ---------------------------------------------------------------------------
// Hot-path query implementations (kept in the header so the search
// kernels inline them; the cold fallbacks live in schedule_index.cpp).
// ---------------------------------------------------------------------------

inline std::uint32_t ScheduleIndex::endpoints_at_most(const Time* begin,
                                                      const Time* end,
                                                      Time t) noexcept {
  // upper_bound over a short sorted run.
  const Time* lo = begin;
  std::size_t n = static_cast<std::size_t>(end - begin);
  while (n > 0) {
    const std::size_t half = n / 2;
    if (lo[half] <= t) {
      lo += half + 1;
      n -= half + 1;
    } else {
      n = half;
    }
  }
  return static_cast<std::uint32_t>(lo - begin);
}

inline bool ScheduleIndex::run_contains(const Time* begin, const Time* end,
                                        Time t) noexcept {
  return (endpoints_at_most(begin, end, t) & 1u) != 0;
}

inline Time ScheduleIndex::run_next(const Time* begin, const Time* end,
                                    Time t) noexcept {
  const std::uint32_t pos = endpoints_at_most(begin, end, t);
  if ((pos & 1u) != 0) return t;  // inside an interval
  if (begin + pos == end) return kTimeInfinity;
  return begin[pos];  // next interval's lo
}

inline bool ScheduleIndex::bits_contains(std::uint32_t lo,
                                         Time t) const noexcept {
  return (bits_[lo + static_cast<std::uint32_t>(t >> 6)] >>
          (static_cast<std::uint32_t>(t) & 63u)) &
         1u;
}

inline Time ScheduleIndex::bits_next(std::uint32_t lo, std::uint32_t hi,
                                     Time t) const noexcept {
  // Bits at or past the segment length are never set, so the scan is a
  // pure word walk with the first word masked below t.
  std::uint32_t w = lo + static_cast<std::uint32_t>(t >> 6);
  if (w >= hi) return kTimeInfinity;
  std::uint64_t word =
      bits_[w] & (~std::uint64_t{0} << (static_cast<std::uint32_t>(t) & 63u));
  while (word == 0) {
    if (++w >= hi) return kTimeInfinity;
    word = bits_[w];
  }
  return (static_cast<Time>(w - lo) << 6) +
         static_cast<Time>(std::countr_zero(word));
}

inline bool ScheduleIndex::seg_contains(bool bits, std::uint32_t lo,
                                        std::uint32_t hi,
                                        Time t) const noexcept {
  if (bits) return bits_contains(lo, t);
  const Time* ev = events_.data();
  return run_contains(ev + lo, ev + hi, t);
}

inline Time ScheduleIndex::seg_next(bool bits, std::uint32_t lo,
                                    std::uint32_t hi, Time t) const noexcept {
  if (bits) return bits_next(lo, hi, t);
  const Time* ev = events_.data();
  return run_next(ev + lo, ev + hi, t);
}

inline bool ScheduleIndex::present(EdgeId e, Time t) const {
  if (t < 0) return false;
  const CompiledEdge& ce = edges_[e];
  switch (ce.kind) {
    case Kind::kNever:
      return false;
    case Kind::kAlways:
      return true;
    case Kind::kPredicate:
      return present_fallback(ce, t);
    case Kind::kSemiPeriodic:
      break;
  }
  if (t < ce.t0) return seg_contains(ce.init_bits, ce.init_lo, ce.init_hi, t);
  return seg_contains(ce.pat_bits, ce.pat_lo, ce.pat_hi,
                      (t - ce.t0) % ce.period);  // time-arith: t >= t0 >= 0
}

inline Time ScheduleIndex::next_present(EdgeId e, Time from) const {
  from = from < 0 ? 0 : from;
  const CompiledEdge& ce = edges_[e];
  switch (ce.kind) {
    case Kind::kNever:
      return kTimeInfinity;
    case Kind::kAlways:
      return from;
    case Kind::kPredicate:
      return next_present_fallback(ce, from);
    case Kind::kSemiPeriodic:
      break;
  }
  if (from < ce.t0) {
    const Time t = seg_next(ce.init_bits, ce.init_lo, ce.init_hi, from);
    if (t != kTimeInfinity && t < ce.t0) return t;
    from = ce.t0;
  }
  if (ce.pat_empty) return kTimeInfinity;
  // time-arith: from >= t0 >= 0 (initial segment handled above)
  const Time r = (from - ce.t0) % ce.period;
  const Time nr = seg_next(ce.pat_bits, ce.pat_lo, ce.pat_hi, r);
  // sat_add mirrors Presence::next_present: a hit within a period copy
  // of kTimeInfinity saturates to the sentinel instead of overflowing.
  // time-arith: nr >= r, both in [0, period)
  if (nr != kTimeInfinity) return sat_add(from, nr - r);
  // Wrap to the first presence of the next period (mirrors
  // Presence::next_present, including its saturation; the inner sum
  // saturates too — (period - r) + pat_min can pass kTimeInfinity for
  // periods above half the Time range).
  return sat_add(from, sat_add(sat_sub(ce.period, r), ce.pat_min));
}

inline Time ScheduleIndex::arrival(EdgeId e, Time dep) const {
  const CompiledEdge& ce = edges_[e];
  if (ce.lat_affine) {
    if (ce.lat_a == 0) return sat_add(dep, ce.lat_b);  // constant ζ
    return sat_add(dep,
                   sat_add(sat_mul(ce.lat_a, dep < 0 ? 0 : dep), ce.lat_b));
  }
  return arrival_fallback(ce, dep);
}

}  // namespace tvg
