// Quickstart: build a time-varying graph, test journeys under the three
// waiting policies, run a TVG-automaton, and compute optimal journeys.
//
//   $ ./quickstart
#include <cstdio>

#include "core/tvg_automaton.hpp"
#include "tvg/dot.hpp"
#include "tvg/query_engine.hpp"

using namespace tvg;
using tvg::core::TvgAutomaton;

int main() {
  // 1. A tiny dynamic network: three nodes, two contacts that never
  //    overlap in time (the store-carry-forward situation).
  TimeVaryingGraph g;
  const NodeId alice = g.add_node("alice");
  const NodeId relay = g.add_node("relay");
  const NodeId bob = g.add_node("bob");
  // alice <-> relay only during [0, 3); relay <-> bob only during [10, 12).
  g.add_edge(alice, relay, 'm', Presence::intervals(IntervalSet::single(0, 3)),
             Latency::constant(1), "uplink");
  g.add_edge(relay, bob, 'm', Presence::intervals(IntervalSet::single(10, 12)),
             Latency::constant(1), "downlink");

  std::printf("The network:\n%s\n", g.to_string().c_str());

  // 2. No path ever exists end-to-end, but a journey does — if the relay
  //    may buffer ("waiting"). Journey queries go through a QueryEngine.
  const QueryEngine engine(g);
  for (const Policy policy : {Policy::no_wait(), Policy::bounded_wait(5),
                              Policy::wait()}) {
    const auto journey = engine
                             .run(JourneyQuery::foremost(alice, 0)
                                      .to(bob)
                                      .under(policy)
                                      .within(SearchLimits::up_to(100)))
                             .journey;
    if (journey) {
      std::printf("%-10s alice -> bob arrives at t=%lld via %s\n",
                  policy.to_string().c_str(),
                  static_cast<long long>(journey->arrival(g)),
                  journey->to_string(g).c_str());
    } else {
      std::printf("%-10s alice -> bob: UNREACHABLE\n",
                  policy.to_string().c_str());
    }
  }

  // 3. The same graph as a TVG-automaton: words are journey label
  //    sequences ("mm" = message relayed twice).
  TvgAutomaton automaton(g, /*start_time=*/0);
  automaton.set_initial(alice);
  automaton.set_accepting(bob);
  std::printf("\nA(G) accepts \"mm\"?  nowait: %s   wait: %s\n",
              automaton.accepts("mm", Policy::no_wait()).accepted ? "yes"
                                                                  : "no",
              automaton.accepts("mm", Policy::wait()).accepted ? "yes"
                                                               : "no");

  // 4. Witness journeys are real journeys — validate one.
  const core::AcceptResult r = automaton.accepts("mm", Policy::wait());
  if (r.witness) {
    const JourneyValidation v =
        validate_journey(g, *r.witness, Policy::wait());
    std::printf("witness: %s  (valid: %s, waits up to %lld)\n",
                r.witness->to_string(g).c_str(), v.ok ? "yes" : "no",
                static_cast<long long>(r.witness->max_wait(g)));
  }

  // 5. Export to Graphviz for inspection.
  DotOptions dot;
  dot.start_node = "alice";
  dot.highlight_node = "bob";
  std::printf("\nGraphviz:\n%s", to_dot(g, dot).c_str());
  return 0;
}
