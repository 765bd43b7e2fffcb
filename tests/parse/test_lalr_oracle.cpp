// Table identity: LalrTables::build (DeRemer–Pennello lookaheads) against
// the propagation-based builder it replaced (lalr_oracle.hpp), compared
// through LalrTables' public accessors. Kernels, action, goto and
// valid-terminal tables must match everywhere. Conflict records must match
// field by field, in order, on every named grammar; on random grammars,
// whose cells may hold several ε-reductions (recorded in production-id
// order now, in closure worklist order before), the conflicting cells and
// their kept actions must match.
#include "lalr_oracle.hpp"

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <sstream>
#include <tuple>

#include "cminus/host_grammar.hpp"
#include "exprlang.hpp"
#include "ext_matrix/matrix_ext.hpp"
#include "ext_refcount/refcount_ext.hpp"
#include "ext_transform/transform_ext.hpp"
#include "small_grammars.hpp"

namespace mmx::parse {
namespace {

using oracle::OracleTables;

std::string show(Action a) {
  static const char* kinds[] = {"error", "shift", "reduce", "accept"};
  return std::string(kinds[int(a.kind)]) + " " + std::to_string(a.target);
}

/// First difference in kernels, action, goto or valid terminals, or "".
std::string tableDiff(const OracleTables& o, const LalrTables& t) {
  std::ostringstream d;
  if (o.numStates != t.stateCount() || o.nTerm != t.eofColumn()) {
    d << "states " << t.stateCount() << " vs " << o.numStates << ", eof column "
      << t.eofColumn() << " vs " << o.nTerm;
    return d.str();
  }
  for (uint32_t s = 0; s < o.numStates; ++s) {
    if (t.kernel(s) != o.kernels[s]) d << "kernel of state " << s;
    else if (!(t.validTerminals(s) == o.validTerms[s]))
      d << "valid terminals of state " << s;
    for (uint32_t c = 0; c <= o.nTerm && d.str().empty(); ++c)
      if (t.action(s, c) != o.actionAt(s, c))
        d << "action(" << s << ", " << c << ") = " << show(t.action(s, c))
          << ", oracle " << show(o.actionAt(s, c));
    for (uint32_t nt = 0; nt < o.nNT && d.str().empty(); ++nt)
      if (t.gotoState(s, nt) != o.gotoAt(s, nt))
        d << "goto(" << s << ", " << nt << ") = " << t.gotoState(s, nt)
          << ", oracle " << o.gotoAt(s, nt);
    if (!d.str().empty()) return d.str();
  }
  return "";
}

/// First difference between the conflict records, field by field, or "".
std::string conflictDiff(const OracleTables& o, const LalrTables& t) {
  const auto& a = t.conflicts();
  if (a.size() != o.conflicts.size())
    return std::to_string(a.size()) + " conflicts, oracle " +
           std::to_string(o.conflicts.size());
  for (size_t i = 0; i < a.size(); ++i) {
    const Conflict& x = a[i];
    const Conflict& y = o.conflicts[i];
    if (std::tie(x.kind, x.state, x.terminal, x.kept, x.dropped, x.description,
                 x.extensionA, x.extensionB) !=
        std::tie(y.kind, y.state, y.terminal, y.kept, y.dropped, y.description,
                 y.extensionA, y.extensionB))
      return "conflict " + std::to_string(i) + ": " + x.description +
             " (keeps " + show(x.kept) + "), oracle " + y.description +
             " (keeps " + show(y.kept) + ")";
  }
  return "";
}

/// The conflicting (state, terminal, kind) cells with each cell's kept
/// action, compared as sets.
std::string conflictCellDiff(const OracleTables& o, const LalrTables& t) {
  using Cell = std::tuple<uint32_t, uint32_t, int>;
  std::set<Cell> mine, theirs;
  for (const Conflict& c : t.conflicts())
    mine.insert({c.state, c.terminal, int(c.kind)});
  for (const Conflict& c : o.conflicts)
    theirs.insert({c.state, c.terminal, int(c.kind)});
  if (mine != theirs)
    return std::to_string(mine.size()) + " conflicting cells, oracle " +
           std::to_string(theirs.size()) + " (or different ones)";
  for (auto [s, col, kind] : mine)
    if (t.action(s, col) != o.actionAt(s, col))
      return "kept action at (" + std::to_string(s) + ", " +
             std::to_string(col) + ")";
  return "";
}

void expectIdentical(const grammar::Grammar& g, const std::string& what) {
  OracleTables o = oracle::buildOracle(g);
  LalrTables t = LalrTables::build(g);
  EXPECT_EQ(tableDiff(o, t), "") << what;
  EXPECT_EQ(conflictDiff(o, t), "") << what;
}

/// Composes `frags` (host first) the way the Translator and the
/// determinism analysis do; false when the composition is rejected.
bool compose(const std::vector<const ext::GrammarFragment*>& frags,
             grammar::Grammar& g) {
  DiagnosticEngine diags;
  return ext::composeGrammar(frags, g, diags);
}

TEST(LalrOracle, EveryComposableFragmentSubsetMatches) {
  const ext::GrammarFragment host = cm::hostFragment();
  const std::vector<ext::GrammarFragment> exts = {
      cm::tupleFragment(), ext_matrix::matrixExtension()->grammarFragment(),
      ext_refcount::refcountExtension()->grammarFragment(),
      ext_transform::transformExtension()->grammarFragment(),
      cm::tupleAltFragment()};
  int composed = 0;
  for (unsigned mask = 0; mask < (1u << exts.size()); ++mask) {
    std::vector<const ext::GrammarFragment*> frags{&host};
    std::string what = "host";
    for (size_t i = 0; i < exts.size(); ++i)
      if (mask & (1u << i)) {
        frags.push_back(&exts[i]);
        what += "+" + exts[i].name;
      }
    grammar::Grammar g;
    if (!compose(frags, g)) continue;
    ++composed;
    expectIdentical(g, what);
  }
  EXPECT_EQ(composed, 24);
}

TEST(LalrOracle, DeterminismAnalysisGrammarsMatch) {
  // The compositions test_determinism.cpp builds through isComposable and
  // composedConflicts, conflicting ones (amb) included.
  const auto host = cm::hostFragment();
  const auto withTuples = ext::mergeFragments(host, cm::tupleFragment(), "host");
  const auto matrix = ext_matrix::matrixExtension()->grammarFragment();
  const auto rc = ext_refcount::refcountExtension()->grammarFragment();
  const auto tf = ext_transform::transformExtension()->grammarFragment();
  const auto alt = cm::tupleAltFragment();
  const auto tuple = cm::tupleFragment();
  const auto hostMatrix = ext::mergeFragments(withTuples, matrix, "host+matrix");

  ext::GrammarFragment bad;
  bad.name = "bad";
  bad.terminals.push_back({"'atomic'", "atomic", true, 10, false});
  bad.productions.push_back({"Simple", {"'{'", "'atomic'", "'}'"}, "bad_atomic"});
  ext::GrammarFragment bad2;
  bad2.name = "bad2";
  bad2.terminals.push_back({"'gadget'", "gadget", true, 10, false});
  bad2.nonterminals.push_back("GadgetBody");
  bad2.productions.push_back(
      {"Simple", {"'gadget'", "GadgetBody", "';'"}, "g_stmt"});
  bad2.productions.push_back({"GadgetBody", {"ID", "'gadget'", "ID"}, "g_body"});
  ext::GrammarFragment powop;
  powop.name = "powop";
  powop.terminals.push_back({"'.**'", ".**", true, 6, false});
  powop.productions.push_back({"MulE", {"MulE", "'.**'", "Unary"}, "mul_pow"});
  ext::GrammarFragment amb;
  amb.name = "amb";
  amb.terminals.push_back({"'wrap'", "wrap", true, 10, false});
  amb.productions.push_back({"Primary", {"'('", "Expr", "')'"}, "prim_paren2"});
  ext::GrammarFragment alpha, beta;
  alpha.name = "alpha";
  alpha.terminals.push_back({"'alpha'", "alpha", true, 10, false});
  alpha.productions.push_back(
      {"Primary", {"'alpha'", "'('", "Expr", "')'"}, "prim_alpha"});
  beta.name = "beta";
  beta.terminals.push_back({"'beta'", "beta", true, 10, false});
  beta.productions.push_back(
      {"Primary", {"'beta'", "'('", "Expr", "')'"}, "prim_beta"});

  using Frags = std::vector<const ext::GrammarFragment*>;
  const std::vector<std::pair<std::string, Frags>> cases = {
      {"host+tuples", {&withTuples}},
      {"+matrix", {&withTuples, &matrix}},
      {"+refcount", {&withTuples, &rc}},
      {"host+tuple", {&host, &tuple}},
      {"host+tupleAlt", {&host, &alt}},
      {"host+matrix+transform", {&hostMatrix, &tf}},
      {"full", {&withTuples, &matrix, &rc, &tf, &alt}},
      {"bad", {&host, &bad}},
      {"bad2", {&host, &bad2}},
      {"powop", {&host, &powop}},
      {"amb", {&host, &amb}},
      {"alpha", {&host, &alpha}},
      {"beta", {&host, &beta}},
      {"alpha+beta", {&host, &alpha, &beta}}};
  for (const auto& [what, frags] : cases) {
    grammar::Grammar g;
    ASSERT_TRUE(compose(frags, g)) << what;
    expectIdentical(g, what);
  }
  grammar::Grammar g;
  ASSERT_TRUE(compose({&host, &amb}, g));
  EXPECT_FALSE(LalrTables::build(g).conflicts().empty())
      << "amb must keep exercising conflict records";
}

TEST(LalrOracle, SmallGrammarsMatch) {
  expectIdentical(test::ExprLang().g, "ExprLang");
  expectIdentical(test::danglingElse(), "dangling else");
  expectIdentical(test::reduceReduce(), "reduce/reduce");
  expectIdentical(test::lalrNotSlr(), "LALR not SLR");
  expectIdentical(test::nullablePrefix(), "nullable prefix");
  expectIdentical(test::nullableChain(), "nullable chain");
  expectIdentical(test::readsOnly(), "reads only");
  expectIdentical(test::includesCycle(), "includes cycle");
  expectIdentical(test::epsilonOwnState(), "epsilon own state");
}

TEST(LalrOracle, ThreeWayEpsilonCellDiffersOnlyInRecordOrder) {
  grammar::Grammar g = test::threeWayEpsilon();
  OracleTables o = oracle::buildOracle(g);
  LalrTables t = LalrTables::build(g);
  EXPECT_EQ(tableDiff(o, t), "");
  EXPECT_EQ(conflictCellDiff(o, t), "");
  EXPECT_NE(conflictDiff(o, t), "") << "the oracle records ε-items in closure "
                                       "worklist order, not by production id";
}

/// A seeded random grammar: 1-4 terminals, 1-5 nonterminals, 1-3
/// productions each of length 0-4 (a quarter of them ε).
grammar::Grammar randomGrammar(uint32_t seed) {
  std::mt19937 rng(seed);
  auto pick = [&](uint32_t n) { return uint32_t(rng() % n); };
  grammar::Grammar g;
  const uint32_t nT = 1 + pick(4), nN = 1 + pick(5);
  for (uint32_t t = 0; t < nT; ++t) {
    std::string name = "t" + std::to_string(t);
    g.addTerminal({name, name, true, 0, false});
  }
  for (uint32_t n = 0; n < nN; ++n) g.addNonterminal("N" + std::to_string(n));
  for (uint32_t n = 0; n < nN; ++n) {
    for (uint32_t k = 0, np = 1 + pick(3); k < np; ++k) {
      std::vector<grammar::GSym> rhs;
      for (uint32_t i = 0, len = pick(4) == 0 ? 0 : 1 + pick(4); i < len; ++i)
        rhs.push_back(pick(2) ? grammar::GSym::term(pick(nT))
                              : grammar::GSym::nonterm(pick(nN)));
      g.addProduction(n, std::move(rhs),
                      "N" + std::to_string(n) + "_" + std::to_string(k),
                      pick(2) ? "host" : "ext");
    }
  }
  g.setStart(0);
  g.computeFirstSets();
  return g;
}

TEST(LalrOracle, RandomGrammarsMatch) {
  int withConflicts = 0, withEpsilon = 0;
  for (uint32_t seed = 1; seed <= 400; ++seed) {
    grammar::Grammar g = randomGrammar(seed);
    OracleTables o = oracle::buildOracle(g);
    LalrTables t = LalrTables::build(g);
    const std::string what = "seed " + std::to_string(seed);
    ASSERT_EQ(tableDiff(o, t), "") << what;
    ASSERT_EQ(conflictCellDiff(o, t), "") << what;
    withConflicts += !t.conflicts().empty();
    for (const auto& p : g.productions()) {
      if (!p.rhs.empty()) continue;
      ++withEpsilon;
      break;
    }
  }
  // The sample must exercise what it is meant to.
  EXPECT_GT(withConflicts, 100);
  EXPECT_GT(withEpsilon, 200);
}

} // namespace
} // namespace mmx::parse
