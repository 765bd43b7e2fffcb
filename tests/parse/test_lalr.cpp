#include "parse/lalr.hpp"

#include <gtest/gtest.h>

#include "exprlang.hpp"
#include "small_grammars.hpp"

namespace mmx::parse {
namespace {

using test::ExprLang;

TEST(Grammar, FirstSetsOfExprGrammar) {
  ExprLang l;
  // Every E, T and F derivation starts with '(' or id: none derives ε.
  for (auto nt : {l.E, l.T, l.F}) EXPECT_FALSE(l.g.nullable(nt));
}

TEST(Grammar, NullableDetection) {
  grammar::Grammar g = test::nullablePrefix(); // A -> B a ; B -> ε | a
  grammar::NonterminalId A = 0, B = 0;
  ASSERT_TRUE(g.findNonterminal("A", A) && g.findNonterminal("B", B));
  EXPECT_TRUE(g.nullable(B));
  EXPECT_FALSE(g.nullable(A));
}

TEST(Lalr, ExprGrammarIsConflictFree) {
  ExprLang l;
  LalrTables t = LalrTables::build(l.g);
  EXPECT_TRUE(t.conflicts().empty());
  EXPECT_GT(t.stateCount(), 5u);
}

TEST(Lalr, ValidTerminalsMatchClassicTable) {
  ExprLang l;
  LalrTables t = LalrTables::build(l.g);
  // State 0 can start an expression: '(' and id only.
  const auto& v = t.validTerminals(0);
  EXPECT_TRUE(v.test(l.tId));
  EXPECT_TRUE(v.test(l.tLp));
  EXPECT_FALSE(v.test(l.tPlus));
  EXPECT_FALSE(v.test(l.tRp));
  EXPECT_FALSE(t.eofValid(0));
}

TEST(Lalr, ShiftReduceConflictDetectedAndShiftWins) {
  grammar::Grammar g = test::danglingElse(); // S -> i S | i S e S | x
  LalrTables t = LalrTables::build(g);
  ASSERT_FALSE(t.conflicts().empty());
  const Conflict& c = t.conflicts()[0];
  EXPECT_EQ(c.kind, Conflict::Kind::ShiftReduce);
  EXPECT_EQ(c.kept.kind, Action::Kind::Shift);
  EXPECT_EQ(c.terminal, test::termId(g, "e"));
}

TEST(Lalr, ReduceReduceConflictDetected) {
  // S -> A | B ; A -> a ; B -> a
  LalrTables t = LalrTables::build(test::reduceReduce());
  ASSERT_FALSE(t.conflicts().empty());
  const Conflict& c = t.conflicts()[0];
  EXPECT_EQ(c.kind, Conflict::Kind::ReduceReduce);
  // Extension attribution feeds the modular determinism analysis.
  EXPECT_EQ(c.extensionA, "host");
  EXPECT_EQ(c.extensionB, "ext1");
}

TEST(Lalr, LalrNotSlr) {
  // S -> A a | b A c | d c | b d a ;  A -> d. SLR would conflict on 'a'/'c'
  // after d; exact LALR(1) lookaheads do not.
  LalrTables t = LalrTables::build(test::lalrNotSlr());
  EXPECT_TRUE(t.conflicts().empty());
}

TEST(Lalr, EofOnlyAcceptedAtEnd) {
  ExprLang l;
  LalrTables t = LalrTables::build(l.g);
  size_t statesAcceptingEof = 0;
  for (uint32_t s = 0; s < t.stateCount(); ++s)
    if (t.eofValid(s)) ++statesAcceptingEof;
  EXPECT_GT(statesAcceptingEof, 0u);
  EXPECT_LT(statesAcceptingEof, t.stateCount());
}

TEST(Lalr, ExpectedTerminalsRendersNames) {
  ExprLang l;
  LalrTables t = LalrTables::build(l.g);
  std::string e = t.expectedTerminals(l.g, 0);
  EXPECT_NE(e.find("id"), std::string::npos);
  EXPECT_NE(e.find("'('"), std::string::npos);
}

// ---- DeRemer–Pennello relations -------------------------------------------
// Each test spells out the whole action table: every non-error cell as
// (state, column, action). States are numbered in discovery order (per
// state: terminals ascending, then nonterminals); the last column is EOF.

struct Cell {
  uint32_t state, col;
  Action action;
  friend bool operator==(const Cell&, const Cell&) = default;
};

std::ostream& operator<<(std::ostream& o, const Cell& c) {
  static const char* kinds[] = {"error", "shift", "reduce", "accept"};
  return o << "(" << c.state << ", " << c.col << ", "
           << kinds[int(c.action.kind)] << " " << c.action.target << ")";
}

Action shift(uint32_t state) { return {Action::Kind::Shift, state}; }
Action reduce(uint32_t prod) { return {Action::Kind::Reduce, prod}; }
const Action kAccept{Action::Kind::Accept, 0};

std::vector<Cell> actionCells(const LalrTables& t) {
  std::vector<Cell> cells;
  for (uint32_t s = 0; s < t.stateCount(); ++s)
    for (uint32_t c = 0; c <= t.eofColumn(); ++c)
      if (t.action(s, c).kind != Action::Kind::Error)
        cells.push_back({s, c, t.action(s, c)});
  return cells;
}

TEST(LalrRelations, LookaheadReachesReduceOnlyThroughReads) {
  // S -> A B c ; A -> a ; B -> b | ε. After `a`, `c` is a lookahead of
  // A -> a only because (3, B) is a nullable transition that (0, A) reads.
  LalrTables t = LalrTables::build(test::readsOnly());
  enum : uint32_t { a, b, c, eof };
  enum : uint32_t { S_ABc, A_a, B_b, B_eps };
  EXPECT_TRUE(t.conflicts().empty());
  EXPECT_EQ(actionCells(t), (std::vector<Cell>{
      {0, a, shift(1)},
      {1, b, reduce(A_a)}, {1, c, reduce(A_a)},
      {2, eof, kAccept},
      {3, b, shift(4)}, {3, c, reduce(B_eps)},
      {4, c, reduce(B_b)},
      {5, c, shift(6)},
      {6, eof, reduce(S_ABc)}}));
}

TEST(LalrRelations, IncludesCycleCollapsesToOneFollowSet) {
  // S -> a B | c ; B -> S | a c S. The transitions (2, S), (2, B), (4, S),
  // (4, B) and (7, S) form one includes cycle that EOF enters only from
  // (0, S). The digraph pass finishes (4, S) before the cycle's root has
  // seen EOF, so S -> c in state 7 (lookback (4, S)) reduces on EOF only
  // if the SCC's members take the root's set.
  LalrTables t = LalrTables::build(test::includesCycle());
  enum : uint32_t { c, a, eof };
  enum : uint32_t { S_aB, S_c, B_S, B_acS };
  EXPECT_TRUE(t.conflicts().empty());
  EXPECT_EQ(actionCells(t), (std::vector<Cell>{
      {0, c, shift(1)}, {0, a, shift(2)},
      {1, eof, reduce(S_c)},
      {2, c, shift(1)}, {2, a, shift(4)},
      {3, eof, kAccept},
      {4, c, shift(7)}, {4, a, shift(4)},
      {5, eof, reduce(B_S)},
      {6, eof, reduce(S_aB)},
      {7, c, shift(1)}, {7, a, shift(2)}, {7, eof, reduce(S_c)},
      {8, eof, reduce(B_acS)}}));
}

TEST(LalrRelations, EpsilonProductionLooksBackToItsOwnState) {
  // S -> x E y | w E v ; E -> ε | z. E -> ε reduces in states 1 and 2, each
  // on the follow of its own E transition only; E -> z, whose state both
  // reach, merges the two.
  LalrTables t = LalrTables::build(test::epsilonOwnState());
  enum : uint32_t { x, y, w, v, z, eof };
  enum : uint32_t { S_xEy, S_wEv, E_eps, E_z };
  EXPECT_TRUE(t.conflicts().empty());
  EXPECT_EQ(actionCells(t), (std::vector<Cell>{
      {0, x, shift(1)}, {0, w, shift(2)},
      {1, y, reduce(E_eps)}, {1, z, shift(4)},
      {2, v, reduce(E_eps)}, {2, z, shift(4)},
      {3, eof, kAccept},
      {4, y, reduce(E_z)}, {4, v, reduce(E_z)},
      {5, y, shift(7)},
      {6, v, shift(8)},
      {7, eof, reduce(S_xEy)},
      {8, eof, reduce(S_wEv)}}));
}

TEST(LalrRelations, ThreeWayEpsilonConflictRecordsInProductionOrder) {
  // S -> A x | B x | C x ; A -> ε ; B -> ε ; C -> ε. All three
  // ε-productions reduce in (0, x). A state records its completed kernel
  // items first, then its ε-productions by ascending id, so the lowest id
  // is in the cell before either clash is recorded.
  LalrTables t = LalrTables::build(test::threeWayEpsilon());
  enum : uint32_t { x, eof };
  enum : uint32_t { S_Ax, S_Bx, S_Cx, A_eps, B_eps, C_eps };
  EXPECT_EQ(actionCells(t), (std::vector<Cell>{
      {0, x, reduce(A_eps)},
      {1, eof, kAccept},
      {2, x, shift(5)}, {3, x, shift(6)}, {4, x, shift(7)},
      {5, eof, reduce(S_Ax)}, {6, eof, reduce(S_Bx)},
      {7, eof, reduce(S_Cx)}}));
  ASSERT_EQ(t.conflicts().size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    const Conflict& c = t.conflicts()[i];
    EXPECT_EQ(c.kind, Conflict::Kind::ReduceReduce);
    EXPECT_EQ(c.state, 0u);
    EXPECT_EQ(c.terminal, x);
    EXPECT_EQ(c.kept, reduce(A_eps));
  }
  EXPECT_EQ(t.conflicts()[0].dropped, reduce(B_eps));
  EXPECT_EQ(t.conflicts()[1].dropped, reduce(C_eps));
  EXPECT_EQ(t.conflicts()[0].description,
            "reduce/reduce conflict in state 0 on x (reduce b0)");
  EXPECT_EQ(t.conflicts()[1].description,
            "reduce/reduce conflict in state 0 on x (reduce c0)");
}

} // namespace
} // namespace mmx::parse
