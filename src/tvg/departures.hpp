// The one departure enumerator: the search kernels (algorithms.cpp) and
// the configuration walkers (batched acceptance, constrained journeys,
// exhaustive enumeration) all take their admissible departures from it.
//
// One policy switch instead of a hand-rolled copy per walker: admissible
// departures for an edge when ready at t, clamped to the horizon. The
// index's kTimeInfinity next_present result is the "no such time"
// sentinel (a user-supplied predicate_with_next accelerator returning
// the literal kTimeInfinity is likewise treated as absence and never
// reaches `fn`).
//
// Under Wait the departure window is unbounded, so the enumeration is
// capped at `wait_budget` candidates: pass 1 when arrival is monotone in
// the departure (affine ζ — the earliest departure dominates and the cap
// is exact; the foremost kernels under constant ζ), or the caller's
// departures-per-edge budget otherwise.
// Latencies are non-negative, so clamping departures to the horizon
// never hides an in-horizon arrival.
#pragma once

#include <algorithm>
#include <cstddef>

#include "tvg/policy.hpp"
#include "tvg/schedule_index.hpp"

namespace tvg {

/// Invokes `fn(dep)` for each admissible departure of `eid` when ready
/// at `t` under `policy`, in ascending order. `fn` returns false to stop
/// the enumeration early (goal hit, branch resolved, budget spent).
///
/// `Index` is anything with the ScheduleIndex presence interface —
/// present / next_present(+cursor) and a nested EventCursor type. The
/// delta overlay's OverlayView (delta_overlay.hpp) satisfies it, so the
/// same enumeration serves base-only and base ∪ delta reads.
template <typename Index, typename Fn>
void for_each_policy_departure(const Index& sx, EdgeId eid, Time t,
                               Policy policy, Time horizon,
                               std::size_t wait_budget, Fn&& fn) {
  switch (policy.kind) {
    case WaitingPolicy::kNoWait: {
      if (t != kTimeInfinity && t <= horizon && sx.present(eid, t)) fn(t);
      return;
    }
    case WaitingPolicy::kBoundedWait: {
      // An infinite ready time admits no departure: max_departure
      // saturates to kTimeInfinity there, which would degenerate the
      // window check and feed the sentinel into next_present.
      if (t == kTimeInfinity) return;
      const Time last = std::min(policy.max_departure(t), horizon);
      typename Index::EventCursor cursor;
      Time at = t;
      while (at <= last && at != kTimeInfinity) {
        const Time dep = sx.next_present(eid, at, cursor);
        if (dep == kTimeInfinity || dep > last) return;
        if (!fn(dep)) return;
        if (dep == last) return;
        at = dep + 1;  // time-arith: dep < kTimeInfinity (guarded above)
      }
      return;
    }
    case WaitingPolicy::kWait: {
      if (t == kTimeInfinity) return;  // see the bounded-wait note
      if (wait_budget == 1) {
        // Earliest departure only (the kernels' hot path): one direct
        // lookup, no cursor to seed.
        const Time dep = sx.next_present(eid, t);
        if (dep != kTimeInfinity && dep <= horizon) fn(dep);
        return;
      }
      typename Index::EventCursor cursor;
      Time at = t;
      for (std::size_t k = 0; k < wait_budget; ++k) {
        if (at == kTimeInfinity) return;
        const Time dep = sx.next_present(eid, at, cursor);
        if (dep == kTimeInfinity || dep > horizon) return;
        if (!fn(dep)) return;
        at = dep + 1;  // time-arith: dep < kTimeInfinity (guarded above)
      }
      return;
    }
  }
}

}  // namespace tvg
