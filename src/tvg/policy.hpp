// Waiting policies: the paper's three feasibility regimes for journeys.
//
//  * NoWait        — only *direct* journeys are feasible
//                    (∀i, t(i+1) = ti + ζ(ei, ti)); the environment offers
//                    no store-carry-forward buffering.
//  * Wait          — *indirect* journeys are feasible (∃i, t(i+1) > ...);
//                    nodes may buffer and wait indefinitely.
//  * BoundedWait d — waiting at a node is allowed for at most d time units
//                    between consecutive edges (the L_wait[d] regime of
//                    Theorem 2.3).
#pragma once

#include <cstdint>
#include <string>

#include "tvg/time.hpp"

namespace tvg {

enum class WaitingPolicy : std::uint8_t { kNoWait, kWait, kBoundedWait };

/// A waiting regime; value type, freely copyable.
struct Policy {
  WaitingPolicy kind{WaitingPolicy::kNoWait};
  Time bound{0};  // meaningful only for kBoundedWait

  [[nodiscard]] static constexpr Policy no_wait() noexcept {
    return {WaitingPolicy::kNoWait, 0};
  }
  [[nodiscard]] static constexpr Policy wait() noexcept {
    return {WaitingPolicy::kWait, 0};
  }
  [[nodiscard]] static constexpr Policy bounded_wait(Time d) noexcept {
    return {WaitingPolicy::kBoundedWait, d < 0 ? 0 : d};
  }

  /// Maximum admissible waiting before a departure, given arrival time t:
  /// the departure window is [t, max_departure(t)].
  [[nodiscard]] constexpr Time max_departure(Time t) const noexcept {
    switch (kind) {
      case WaitingPolicy::kNoWait:
        return t;
      case WaitingPolicy::kWait:
        return kTimeInfinity;
      case WaitingPolicy::kBoundedWait:
        return sat_add(t, bound);
    }
    return t;
  }

  [[nodiscard]] constexpr bool allows_waiting() const noexcept {
    return kind == WaitingPolicy::kWait ||
           (kind == WaitingPolicy::kBoundedWait && bound > 0);
  }

  [[nodiscard]] std::string to_string() const {
    switch (kind) {
      case WaitingPolicy::kNoWait:
        return "nowait";
      case WaitingPolicy::kWait:
        return "wait";
      case WaitingPolicy::kBoundedWait:
        return "wait[" + std::to_string(bound) + "]";
    }
    return "?";
  }

  friend constexpr bool operator==(const Policy&, const Policy&) = default;
};

}  // namespace tvg
