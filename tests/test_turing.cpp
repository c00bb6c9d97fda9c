// Unit tests for the Turing-machine substrate: every machine in the
// library agrees with its C++ oracle, exhaustively on short words.
#include <gtest/gtest.h>

#include "tm/decider.hpp"
#include "tm/machines.hpp"

namespace tvg::tm {
namespace {

std::vector<std::string> words_up_to(const std::string& alphabet, int max_len) {
  std::vector<std::string> all{""};
  std::size_t begin = 0;
  for (int len = 1; len <= max_len; ++len) {
    const std::size_t end = all.size();
    for (std::size_t i = begin; i < end; ++i) {
      for (char c : alphabet) all.push_back(all[i] + c);
    }
    begin = end;
  }
  return all;
}

TEST(Machine, RunReportsStepsAndTape) {
  const TuringMachine m = make_even_a_machine();
  const auto r = m.run("abab");
  EXPECT_EQ(r.outcome, TuringMachine::Outcome::kAccept);
  EXPECT_GT(r.steps, 0u);
  EXPECT_EQ(r.final_tape, "abab");  // parity machine never writes
}

TEST(Machine, UndefinedTransitionRejects) {
  TuringMachine m("q0", "acc", "rej");
  m.add_transition("q0", 'a', "acc", 'a', Move::kStay);
  EXPECT_EQ(m.decides("a"), true);
  EXPECT_EQ(m.decides("b"), false);  // no (q0, b) rule
}

TEST(Machine, FuelExhaustionIsReported) {
  TuringMachine m("q0", "acc", "rej");
  m.add_transition("q0", kBlank, "q0", kBlank, Move::kRight);  // runs forever
  EXPECT_EQ(m.decides("", 100), std::nullopt);
  EXPECT_EQ(m.run("", 100).outcome, TuringMachine::Outcome::kTimeout);
}

TEST(Machine, GuardsAgainstMalformedConstruction) {
  EXPECT_THROW(TuringMachine("q", "halt", "halt"), std::invalid_argument);
  TuringMachine m("q0", "acc", "rej");
  m.add_transition("q0", 'a', "q0", 'a', Move::kRight);
  EXPECT_THROW(m.add_transition("q0", 'a', "acc", 'a', Move::kStay),
               std::invalid_argument);  // duplicate
  EXPECT_THROW(m.add_transition("acc", 'a', "q0", 'a', Move::kStay),
               std::invalid_argument);  // from halting state
}

struct MachineCase {
  std::string name;
  std::string alphabet;
  int max_len;
};

// Without this, gtest prints the case as raw bytes, heap pointers included,
// so the listed test names would change from one run to the next.
void PrintTo(const MachineCase& c, std::ostream* os) { *os << c.name; }

class MachineVsOracle : public ::testing::TestWithParam<MachineCase> {};

TEST_P(MachineVsOracle, AgreesExhaustively) {
  const auto& param = GetParam();
  TuringMachine machine = make_even_a_machine();
  std::function<bool(const std::string&)> oracle = has_even_a;
  if (param.name == "anbn") {
    machine = make_anbn_machine();
    oracle = is_anbn;
  } else if (param.name == "anbncn") {
    machine = make_anbncn_machine();
    oracle = is_anbncn;
  } else if (param.name == "palindrome") {
    machine = make_palindrome_machine();
    oracle = is_palindrome;
  } else if (param.name == "dyck") {
    machine = make_dyck_machine();
    oracle = is_dyck;
  }
  for (const std::string& w : words_up_to(param.alphabet, param.max_len)) {
    const auto verdict = machine.decides(w);
    ASSERT_TRUE(verdict.has_value()) << "'" << w << "' timed out";
    EXPECT_EQ(*verdict, oracle(w)) << "'" << w << "'";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Library, MachineVsOracle,
    ::testing::Values(MachineCase{"anbn", "ab", 10},
                      MachineCase{"anbncn", "abc", 7},
                      MachineCase{"palindrome", "ab", 9},
                      MachineCase{"even_a", "ab", 9},
                      MachineCase{"dyck", "ab", 10}),
    [](const ::testing::TestParamInfo<MachineCase>& param_info) {
      return param_info.param.name;
    });

TEST(Machine, LongInputsStillDecide) {
  const TuringMachine m = make_anbncn_machine();
  const std::string good =
      std::string(30, 'a') + std::string(30, 'b') + std::string(30, 'c');
  EXPECT_EQ(m.decides(good), true);
  EXPECT_EQ(m.decides(good + "c"), false);
}

TEST(Oracles, WwAndUnaryPrime) {
  EXPECT_TRUE(is_ww(""));
  EXPECT_TRUE(is_ww("abab"));
  EXPECT_TRUE(is_ww("aa"));
  EXPECT_FALSE(is_ww("aba"));
  EXPECT_FALSE(is_ww("abba"));
  EXPECT_FALSE(is_unary_prime(""));
  EXPECT_FALSE(is_unary_prime("a"));
  EXPECT_TRUE(is_unary_prime("aa"));
  EXPECT_TRUE(is_unary_prime("aaa"));
  EXPECT_FALSE(is_unary_prime("aaaa"));
  EXPECT_TRUE(is_unary_prime(std::string(13, 'a')));
  EXPECT_FALSE(is_unary_prime(std::string(15, 'a')));
  EXPECT_FALSE(is_unary_prime("ab"));
}

TEST(Decider, FromFunctionAndFromMachineAgree) {
  const Decider fn = Decider::from_function(is_anbn, "anbn", "ab");
  const Decider mach =
      Decider::from_machine(make_anbn_machine(), "anbn-tm", "ab");
  for (const std::string& w : words_up_to("ab", 8)) {
    EXPECT_EQ(fn(w), mach(w)) << "'" << w << "'";
  }
  EXPECT_EQ(fn.name(), "anbn");
  EXPECT_EQ(mach.alphabet(), "ab");
}

TEST(Decider, MachineTimeoutThrows) {
  TuringMachine loop("q0", "acc", "rej");
  loop.add_transition("q0", kBlank, "q0", kBlank, Move::kRight);
  const Decider d = Decider::from_machine(std::move(loop), "loop", "a", 50);
  EXPECT_THROW((void)d(""), std::runtime_error);
}

TEST(Suite, StandardLanguagesAreWellFormed) {
  const auto suite = standard_language_suite();
  EXPECT_GE(suite.size(), 7u);
  for (const auto& lang : suite) {
    EXPECT_FALSE(lang.name.empty());
    EXPECT_FALSE(lang.alphabet.empty());
    // Oracle is callable and total on short words.
    for (const std::string& w : words_up_to(lang.alphabet, 4)) {
      (void)lang.oracle(w);
    }
  }
}

}  // namespace
}  // namespace tvg::tm
