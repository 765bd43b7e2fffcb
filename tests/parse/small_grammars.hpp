// Small hand-written grammars shared by the parse/ unit tests, plus the spec
// reader that builds them.
#pragma once

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "grammar/grammar.hpp"

namespace mmx::test {

/// Builds a grammar from productions written `name: A -> x B y` (nothing
/// after `->` is ε); `name@ext:` sets the production's extension (default
/// "host"). `terminals` lists the terminal names in id order; every other
/// symbol is a nonterminal, numbered by first appearance. The first
/// production's left-hand side is the start symbol. Nullability is computed.
inline grammar::Grammar makeGrammar(const std::vector<std::string>& terminals,
                                    const std::vector<std::string>& prods) {
  grammar::Grammar g;
  for (const auto& t : terminals) g.addTerminal({t, t, true, 0, false});
  auto sym = [&](const std::string& s) {
    for (uint32_t t = 0; t < terminals.size(); ++t)
      if (terminals[t] == s) return grammar::GSym::term(t);
    return grammar::GSym::nonterm(g.addNonterminal(s));
  };
  for (size_t i = 0; i < prods.size(); ++i) {
    std::istringstream in(prods[i]);
    std::string label, lhs, arrow, s;
    in >> label >> lhs >> arrow;
    label.pop_back(); // ':'
    std::string ext = "host";
    if (auto at = label.find('@'); at != std::string::npos) {
      ext = label.substr(at + 1);
      label.resize(at);
    }
    grammar::NonterminalId a = g.addNonterminal(lhs);
    if (i == 0) g.setStart(a);
    std::vector<grammar::GSym> rhs;
    while (in >> s) rhs.push_back(sym(s));
    g.addProduction(a, std::move(rhs), label, ext);
  }
  g.computeNullable();
  return g;
}

/// Terminal id by name.
inline uint32_t termId(const grammar::Grammar& g, std::string_view name) {
  for (uint32_t t = 0; t < g.terminalCount(); ++t)
    if (g.lexSpec().def(t).name == name) return t;
  ADD_FAILURE() << "no terminal " << name;
  return 0;
}

/// Dangling-else skeleton: one shift/reduce conflict on `e`.
inline grammar::Grammar danglingElse() {
  return makeGrammar({"i", "e", "x"}, {"s_if: S -> i S",
                                       "s_ifelse: S -> i S e S",
                                       "s_x: S -> x"});
}

/// S -> A | B ; A -> a ; B -> a, with B from a second extension: one
/// reduce/reduce conflict that crosses extensions.
inline grammar::Grammar reduceReduce() {
  return makeGrammar({"a"}, {"s_a: S -> A", "s_b@ext1: S -> B",
                             "a_a: A -> a", "b_a@ext1: B -> a"});
}

/// LALR(1) but not SLR(1) (the classic dragon-book example).
inline grammar::Grammar lalrNotSlr() {
  return makeGrammar({"a", "b", "c", "d"},
                     {"s1: S -> A a", "s2: S -> b A c", "s3: S -> d c",
                      "s4: S -> b d a", "a1: A -> d"});
}

/// A -> B a ; B -> ε | a: FIRST(A) reaches `a` through the nullable B.
inline grammar::Grammar nullablePrefix() {
  return makeGrammar({"a"}, {"p1: A -> B a", "p2: B ->", "p3: B -> a"});
}

/// A chain of nullable nonterminals: lookaheads travel through `reads`
/// (over C and D) and `includes` (through the nullable tails of A).
inline grammar::Grammar nullableChain() {
  return makeGrammar({"b", "x", "y", "z"},
                     {"s: S -> A b", "a: A -> B C D", "b0: B ->", "b1: B -> x",
                      "c0: C ->", "c1: C -> y", "d0: D ->", "d1: D -> z"});
}

/// S -> A B c ; A -> a ; B -> b | ε: `c` reaches the reduce of A -> a only
/// through `reads` over the nullable B.
inline grammar::Grammar readsOnly() {
  return makeGrammar({"a", "b", "c"}, {"s: S -> A B c", "a: A -> a",
                                       "b1: B -> b", "b0: B ->"});
}

/// S -> a B | c ; B -> S | a c S: B -> S and S -> a B put every S and B
/// transition except (0, S) on one includes cycle. EOF enters it only from
/// (0, S), and reaches (4, S) only when the SCC's members take the root's
/// set; (4, S) is the lookback of S -> c in state 7.
inline grammar::Grammar includesCycle() {
  return makeGrammar({"c", "a"}, {"s1: S -> a B", "s2: S -> c", "b1: B -> S",
                                  "b2: B -> a c S"});
}

/// E -> ε is reduced in two states; each one's lookback is the transition
/// on E out of that same state, so each reduces on its own follow only.
inline grammar::Grammar epsilonOwnState() {
  return makeGrammar({"x", "y", "w", "v", "z"},
                     {"s1: S -> x E y", "s2: S -> w E v", "e0: E ->",
                      "e1: E -> z"});
}

/// Three ε-productions reducing in one cell: a three-way reduce/reduce
/// conflict whose records follow the documented order (ascending
/// production id).
inline grammar::Grammar threeWayEpsilon() {
  return makeGrammar({"x"}, {"s1: S -> A x", "s2: S -> B x", "s3: S -> C x",
                             "a0: A ->", "b0: B ->", "c0: C ->"});
}

} // namespace mmx::test
