#include "tvg/enumerate.hpp"

#include <queue>

#include "tvg/departures.hpp"
#include "tvg/schedule_index.hpp"

namespace tvg {

std::vector<Journey> enumerate_journeys(const TimeVaryingGraph& g,
                                        NodeId source, Time start_time,
                                        Policy policy,
                                        const EnumerateOptions& options) {
  // Schedule queries run on the compiled index; a next_present result of
  // kTimeInfinity is the "no such time" sentinel (see
  // for_each_policy_departure in departures.hpp).
  const ScheduleIndex& sx = g.schedule_index();
  std::vector<Journey> result;
  std::queue<Journey> frontier;
  frontier.push(Journey{source, start_time, {}});

  while (!frontier.empty() && result.size() < options.max_journeys) {
    Journey current = std::move(frontier.front());
    frontier.pop();
    result.push_back(current);
    if (current.hops() >= options.max_hops) continue;

    const NodeId at = current.end_node(g);
    const Time ready = current.arrival(g);
    for (EdgeId eid : g.out_edges(at)) {
      // Every feasible journey is wanted (not just an optimal one), so
      // Wait enumerates the full departures_per_edge budget even when ζ
      // is affine — no earliest-departure shortcut here.
      for_each_policy_departure(
          sx, eid, ready, policy, options.horizon,
          options.departures_per_edge, [&](Time dep) {
            const Time arr = sx.arrival(eid, dep);
            if (arr != kTimeInfinity && arr <= options.horizon) {
              Journey next = current;
              next.legs.push_back(JourneyLeg{eid, dep});
              frontier.push(std::move(next));
            }
            return true;
          });
    }
  }
  return result;
}

}  // namespace tvg
