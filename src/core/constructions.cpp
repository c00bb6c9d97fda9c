#include "core/constructions.hpp"

#include <stdexcept>

namespace tvg::core {

// --------------------------------------------------------------------
// Figure 1 / Table 1
// --------------------------------------------------------------------

bool is_pq_power(Time t, Time p, Time q) {
  if (t < 1) return false;
  // m_i = p^i * q^(i-1), i >= 2.
  Time m = sat_mul(p, p);  // i = 2 numerator before q factor: p^2 * q^1
  m = sat_mul(m, q);
  for (;;) {
    if (m == kTimeInfinity || m > t) return false;
    if (m == t) return true;
    m = sat_mul(m, sat_mul(p, q));  // i -> i+1 multiplies by p*q
  }
}

std::optional<Time> next_pq_power(Time from, Time p, Time q) {
  Time m = sat_mul(sat_mul(p, p), q);  // i = 2
  for (;;) {
    if (m == kTimeInfinity) return std::nullopt;
    if (m >= from) return m;
    m = sat_mul(m, sat_mul(p, q));
  }
}

TvgAutomaton AnbnConstruction::automaton() const {
  TvgAutomaton a(graph, start_time);
  a.set_initial(v0);
  a.set_accepting(v2);
  return a;
}

AnbnConstruction make_anbn_tvg(Time p, Time q, Time any_latency) {
  if (p < 2 || q < 2 || p == q) {
    throw std::invalid_argument(
        "make_anbn_tvg: p, q must be two distinct primes > 1");
  }
  AnbnConstruction c;
  c.p = p;
  c.q = q;
  c.v0 = c.graph.add_node("v0");
  c.v1 = c.graph.add_node("v1");
  c.v2 = c.graph.add_node("v2");

  // e0 : v0 -a-> v0, always present, ζ = (p-1)t  (crossing at t lands p·t).
  c.e0 = c.graph.add_edge(c.v0, c.v0, 'a', Presence::always(),
                          // time-arith: p is a small validated prime
                          Latency::affine(p - 1, 0), "e0");

  // e1 : v0 -b-> v1, present iff t > p, ζ = (q-1)t.
  // time-arith: p, q are small validated primes (>= 2)
  c.e1 = c.graph.add_edge(c.v0, c.v1, 'b', Presence::eventually_always(p + 1),
                          // time-arith: q is a small validated prime
                          Latency::affine(q - 1, 0), "e1");

  // e2 : v1 -b-> v1, present iff t != p^i q^(i-1) (i>1), ζ = (q-1)t.
  c.e2 = c.graph.add_edge(
      c.v1, c.v1, 'b',
      Presence::predicate_with_next(
          [p, q](Time t) { return t >= 0 && !is_pq_power(t, p, q); },
          [p, q](Time from) -> std::optional<Time> {
            if (from < 0) from = 0;
            // Magic instants are isolated (never adjacent), so either
            // `from` itself or `from + 1` is non-magic. sat_add: probes
            // can land on the very last representable instant.
            return is_pq_power(from, p, q) ? sat_add(from, 1) : from;
          },
          "t != p^i*q^(i-1)"),
      // time-arith: p, q are small validated primes (>= 2)
      Latency::affine(q - 1, 0), "e2");

  // e3 : v0 -b-> v2, present iff t = p, ζ = any.
  c.e3 = c.graph.add_edge(c.v0, c.v2, 'b', Presence::at_times({p}),
                          Latency::constant(any_latency), "e3");

  // e4 : v1 -b-> v2, present iff t = p^i q^(i-1) (i>1), ζ = any.
  c.e4 = c.graph.add_edge(
      c.v1, c.v2, 'b',
      Presence::predicate_with_next(
          [p, q](Time t) { return is_pq_power(t, p, q); },
          [p, q](Time from) { return next_pq_power(from, p, q); },
          "t = p^i*q^(i-1)"),
      Latency::constant(any_latency), "e4");

  // Largest n whose reading keeps all times representable: the deepest
  // instant touched by aⁿbⁿ is p^n·q^(n-1) (departure of the final b).
  std::size_t n = 1;
  Time deepest = p;  // n = 1: e3 departs at t = p
  for (;;) {
    // n -> n+1 multiplies the deepest instant by p·q.
    const Time next = sat_mul(deepest, sat_mul(p, q));
    if (next == kTimeInfinity) break;
    deepest = next;
    ++n;
  }
  c.max_n = n;
  return c;
}

// --------------------------------------------------------------------
// Theorem 2.1
// --------------------------------------------------------------------

Time encode_word(const Word& w, const std::string& alphabet) {
  const Time K = static_cast<Time>(alphabet.size()) + 1;
  Time t = 1;
  for (char c : w) {
    const auto pos = alphabet.find(c);
    if (pos == std::string::npos) {
      throw std::invalid_argument("encode_word: symbol '" +
                                  std::string(1, c) + "' not in alphabet");
    }
    const Time digit = static_cast<Time>(pos) + 1;
    if (mul_overflows(t, K) || sat_add(sat_mul(t, K), digit) == kTimeInfinity) {
      throw std::overflow_error("encode_word: word too long for Time");
    }
    t = t * K + digit;  // time-arith: overflow rejected just above
  }
  return t;
}

std::optional<Word> decode_time(Time t, const std::string& alphabet) {
  if (t < 1) return std::nullopt;
  const Time K = static_cast<Time>(alphabet.size()) + 1;
  Word reversed;
  while (t > 1) {
    const Time digit = t % K;
    if (digit == 0) return std::nullopt;
    // time-arith: digit in [1, K)
    reversed.push_back(alphabet[static_cast<std::size_t>(digit - 1)]);
    t /= K;
  }
  if (t != 1) return std::nullopt;
  return Word{reversed.rbegin(), reversed.rend()};
}

TvgAutomaton ComputableConstruction::automaton() const {
  TvgAutomaton a(graph, start_time);
  a.set_initial(hub);
  a.set_accepting(acc);
  if (eps_acc) {
    a.set_initial(*eps_acc);
    a.set_accepting(*eps_acc);
  }
  return a;
}

ComputableConstruction computable_to_tvg(tm::Decider language) {
  ComputableConstruction c;
  c.alphabet = language.alphabet();
  if (c.alphabet.empty()) {
    throw std::invalid_argument("computable_to_tvg: empty alphabet");
  }
  c.K = static_cast<Time>(c.alphabet.size()) + 1;
  c.hub = c.graph.add_node("hub");
  c.acc = c.graph.add_node("acc");

  for (std::size_t idx = 0; idx < c.alphabet.size(); ++idx) {
    const Symbol sym = c.alphabet[idx];
    const Time digit = static_cast<Time>(idx) + 1;
    // Self-loop: departing the hub at time t arrives at K·t + digit, i.e.
    // at the encoding of (word-so-far)·σ. ζ(t) = (K-1)·t + digit.
    c.graph.add_edge(c.hub, c.hub, sym, Presence::always(),
                     // time-arith: K = |alphabet| + 1 >= 2
                     Latency::affine(c.K - 1, digit),
                     std::string("loop_") + sym);
    // Accepting edge: present at departure time t exactly when the word
    // encoded by the arrival K·t + digit is in L. The predicate runs the
    // decider — the schedule computes, as Theorem 2.1's proof requires.
    const Time K = c.K;
    const std::string alphabet = c.alphabet;
    auto present = [language, K, digit, alphabet](Time t) {
      if (t < 1 || mul_overflows(t, K)) return false;
      const Time arrival = sat_add(t * K, digit);
      if (arrival == kTimeInfinity) return false;
      const auto word = decode_time(arrival, alphabet);
      return word.has_value() && language(*word);
    };
    c.graph.add_edge(c.hub, c.acc, sym,
                     Presence::predicate(present,
                                         std::string("L-gate(") + sym + ")",
                                         /*scan_limit=*/1 << 12),
                     // time-arith: K = |alphabet| + 1 >= 2
                     Latency::affine(c.K - 1, digit),
                     std::string("accept_") + sym);
  }

  if (language("")) {
    c.eps_acc = c.graph.add_node("eps_acc");
  }

  // Encoding capacity: longest word all of whose prefixes encode within
  // Time (worst case: every digit is K-1... any digit pattern has the
  // same K-ary magnitude growth, so measure with the largest digit).
  std::size_t len = 0;
  Time t = 1;
  // time-arith: K >= 2; the loop body is overflow-guarded by the condition
  while (!mul_overflows(t, c.K) &&
         sat_add(sat_mul(t, c.K), c.K - 1) != kTimeInfinity) {  // time-arith: K >= 2
    t = t * c.K + (c.K - 1);  // time-arith: guarded by the loop condition
    ++len;
  }
  c.max_word_length = len;
  return c;
}

// --------------------------------------------------------------------
// Theorem 2.2 (⊇)
// --------------------------------------------------------------------

TvgAutomaton regular_to_tvg(const fa::Dfa& dfa) {
  TimeVaryingGraph g;
  for (fa::State s = 0; s < dfa.state_count(); ++s) {
    // Appended into a fresh string: gcc 12 at -O3 flags
    // `"q" + std::to_string(s)` with a false -Wrestrict.
    std::string name(1, 'q');
    name += std::to_string(s);
    g.add_node(std::move(name));
  }
  for (fa::State s = 0; s < dfa.state_count(); ++s) {
    for (char symbol : dfa.alphabet()) {
      g.add_static_edge(static_cast<NodeId>(s),
                        static_cast<NodeId>(dfa.transition(s, symbol)),
                        symbol);
    }
  }
  TvgAutomaton a(std::move(g), /*start_time=*/0);
  a.set_initial(static_cast<NodeId>(dfa.initial()));
  for (fa::State s = 0; s < dfa.state_count(); ++s) {
    if (dfa.is_accepting(s)) a.set_accepting(static_cast<NodeId>(s));
  }
  return a;
}

// --------------------------------------------------------------------
// Theorem 2.3
// --------------------------------------------------------------------

TimeVaryingGraph dilate(const TimeVaryingGraph& g, Time s) {
  if (s < 1) throw std::invalid_argument("dilate: factor must be >= 1");
  TimeVaryingGraph out;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    out.add_node(g.node_name(v));
  }
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const Edge& ed = g.edge(e);
    out.add_edge(ed.from, ed.to, ed.label, ed.presence.dilated(s),
                 ed.latency.dilated(s), g.edge_name(e));
  }
  return out;
}

TvgAutomaton dilate(const TvgAutomaton& a, Time s) {
  TvgAutomaton out(dilate(a.graph(), s), sat_mul(a.start_time(), s));
  for (NodeId v : a.initial()) out.set_initial(v);
  for (NodeId v : a.accepting()) out.set_accepting(v);
  return out;
}

}  // namespace tvg::core
