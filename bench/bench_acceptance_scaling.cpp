// E7 — the systems cost of each waiting regime: acceptance time and
// configurations explored vs word length, on the paper's two
// constructions. NoWait on deterministic schedules explores O(|w|)
// configs; Wait pays for its nondeterministic departure freedom. This is
// the operational face of "waiting trades expressivity for
// tractability".
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "core/constructions.hpp"
#include "tm/machines.hpp"

namespace {

using namespace tvg;
using namespace tvg::core;

std::vector<Word> words_of_length(const std::string& alphabet,
                                  std::size_t len) {
  std::vector<Word> frontier{Word{}};
  for (std::size_t i = 0; i < len; ++i) {
    std::vector<Word> next;
    next.reserve(frontier.size() * alphabet.size());
    for (const Word& w : frontier) {
      for (const Symbol c : alphabet) next.push_back(w + c);
    }
    frontier = std::move(next);
  }
  return frontier;
}

void print_reproduction() {
  std::printf("=== E7: acceptance cost per waiting policy (configs "
              "explored) ===\n");
  std::printf("%-6s %-18s %-18s %-18s\n", "|w|", "nowait(Fig1)",
              "wait(Fig1)", "wait[2](Fig1)");
  const TvgAutomaton fig1 = make_anbn_tvg(2, 3).automaton();
  auto cell = [](const AcceptResult& r) {
    return std::to_string(r.configs_explored) +
           (r.truncated ? " (cap!)" : "");
  };
  for (std::size_t n = 2; n <= 20; n += 3) {
    const Word w = Word(n, 'a') + Word(n, 'b');
    const auto c_nowait = cell(fig1.accepts(w, Policy::no_wait()));
    const auto c_wait = cell(fig1.accepts(w, Policy::wait()));
    const auto c_bounded = cell(fig1.accepts(w, Policy::bounded_wait(2)));
    std::printf("%-6zu %-18s %-18s %-18s\n", 2 * n, c_nowait.c_str(),
                c_wait.c_str(), c_bounded.c_str());
  }
  std::printf("(wait[d] on always-present affine edges branches per "
              "instant: the exponential blow-up is real, and the config "
              "cap reports itself honestly)\n");

  std::printf("\n%-6s %-18s %-18s  (Theorem 2.1 graph, anbncn; encoding "
              "capacity 30 symbols)\n",
              "|w|", "nowait configs", "accepted");
  const ComputableConstruction thm21 = computable_to_tvg(
      tm::Decider::from_function(tm::is_anbncn, "anbncn", "abc"));
  const TvgAutomaton a21 = thm21.automaton();
  for (std::size_t n = 1; n <= thm21.max_word_length / 3; n += 2) {
    const Word w = Word(n, 'a') + Word(n, 'b') + Word(n, 'c');
    const AcceptResult r = a21.accepts(w, Policy::no_wait());
    std::printf("%-6zu %-18zu %s\n", 3 * n, r.configs_explored,
                r.accepted ? "yes" : "NO");
  }
  std::printf("\n");
}

void BM_ScalingNoWait(benchmark::State& state) {
  const TvgAutomaton a = make_anbn_tvg(2, 3).automaton();
  const auto n = static_cast<std::size_t>(state.range(0));
  const Word w = Word(n, 'a') + Word(n, 'b');
  std::size_t configs = 0;
  for (auto _ : state) {
    const AcceptResult r = a.accepts(w, Policy::no_wait());
    configs = r.configs_explored;
    benchmark::DoNotOptimize(r.accepted);
  }
  state.counters["configs"] = static_cast<double>(configs);
  state.counters["len"] = static_cast<double>(2 * n);
}
BENCHMARK(BM_ScalingNoWait)->DenseRange(2, 22, 4);

void BM_ScalingWait(benchmark::State& state) {
  const TvgAutomaton a = make_anbn_tvg(2, 3).automaton();
  const auto n = static_cast<std::size_t>(state.range(0));
  const Word w = Word(n, 'a') + Word(n, 'b');
  std::size_t configs = 0;
  for (auto _ : state) {
    const AcceptResult r = a.accepts(w, Policy::wait());
    configs = r.configs_explored;
    benchmark::DoNotOptimize(r.accepted);
  }
  state.counters["configs"] = static_cast<double>(configs);
}
BENCHMARK(BM_ScalingWait)->DenseRange(2, 22, 4);

void BM_ScalingBoundedWait(benchmark::State& state) {
  const TvgAutomaton a = make_anbn_tvg(2, 3).automaton();
  const auto n = static_cast<std::size_t>(state.range(0));
  const Word w = Word(n, 'a') + Word(n, 'b');
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        a.accepts(w, Policy::bounded_wait(2)).accepted);
  }
}
BENCHMARK(BM_ScalingBoundedWait)->DenseRange(2, 22, 4);

void BM_ScalingThm21NoWait(benchmark::State& state) {
  const ComputableConstruction c = computable_to_tvg(
      tm::Decider::from_function(tm::is_palindrome, "palindrome", "ab"));
  const TvgAutomaton a = c.automaton();
  const auto n = static_cast<std::size_t>(state.range(0));
  Word w;
  for (std::size_t i = 0; i < n; ++i) w.push_back(i % 2 != 0u ? 'a' : 'b');
  Word pal = w;
  pal.append(w.rbegin(), w.rend());
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.accepts(pal, Policy::no_wait()).accepted);
  }
  state.counters["len"] = static_cast<double>(2 * n);
}
BENCHMARK(BM_ScalingThm21NoWait)->DenseRange(2, 18, 4);

// Deciding ALL 2^n words of length n, one accepts() call per word: every
// word re-explores the configurations its prefix shares with the others.
void BM_AcceptsPerWord(benchmark::State& state) {
  const TvgAutomaton a = make_anbn_tvg(2, 3).automaton();
  const auto words =
      words_of_length("ab", static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    std::size_t accepted = 0;
    for (const Word& w : words) {
      accepted += a.accepts(w, Policy::no_wait()).accepted ? 1 : 0;
    }
    benchmark::DoNotOptimize(accepted);
  }
  state.counters["words"] = static_cast<double>(words.size());
}
BENCHMARK(BM_AcceptsPerWord)->Arg(6)->Arg(8)->Arg(10);

// The same word set in ONE QueryEngine::accepts batch: the words are
// compiled into a trie and shared prefixes are explored once. The delta
// against BM_AcceptsPerWord is the ROADMAP "batched acceptance" win.
void BM_AcceptsBatched(benchmark::State& state) {
  const TvgAutomaton a = make_anbn_tvg(2, 3).automaton();
  const auto words =
      words_of_length("ab", static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    std::size_t accepted = 0;
    for (const AcceptResult& r :
         a.accepts_batch(words, Policy::no_wait())) {
      accepted += r.accepted ? 1 : 0;
    }
    benchmark::DoNotOptimize(accepted);
  }
  state.counters["words"] = static_cast<double>(words.size());
}
BENCHMARK(BM_AcceptsBatched)->Arg(6)->Arg(8)->Arg(10);

}  // namespace

int main(int argc, char** argv) {
  // Timing loops run first: the reproduction table's allocator churn
  // would otherwise distort the per-iteration numbers (see
  // bench_report.hpp).
  const int rc = tvg::benchsupport::run_benchmarks_with_json(argc, argv);
  if (rc != 0) return rc;
  print_reproduction();
  return 0;
}
