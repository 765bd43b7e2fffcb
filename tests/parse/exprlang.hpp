// A tiny arithmetic language used by the parse/ unit tests: the classic
// LALR(1) expression grammar E -> E+T | T; T -> T*F | F; F -> (E) | id.
#pragma once

#include "grammar/grammar.hpp"

namespace mmx::test {

struct ExprLang {
  grammar::Grammar g;
  lex::TerminalId tId, tPlus, tStar, tLp, tRp;
  grammar::NonterminalId E, T, F;

  ExprLang() {
    g.addTerminal({"WS", "[ \\t\\n]+", false, 0, true});
    tId = g.addTerminal({"id", "[a-z]+", false, 0, false});
    tPlus = g.addTerminal({"'+'", "+", true, 10, false});
    tStar = g.addTerminal({"'*'", "*", true, 10, false});
    tLp = g.addTerminal({"'('", "(", true, 10, false});
    tRp = g.addTerminal({"')'", ")", true, 10, false});

    E = g.addNonterminal("E");
    T = g.addNonterminal("T");
    F = g.addNonterminal("F");

    using grammar::GSym;
    g.addProduction(E, {GSym::nonterm(E), GSym::term(tPlus), GSym::nonterm(T)},
                    "e_add", "host");
    g.addProduction(E, {GSym::nonterm(T)}, "e_t", "host");
    g.addProduction(T, {GSym::nonterm(T), GSym::term(tStar), GSym::nonterm(F)},
                    "t_mul", "host");
    g.addProduction(T, {GSym::nonterm(F)}, "t_f", "host");
    g.addProduction(F, {GSym::term(tLp), GSym::nonterm(E), GSym::term(tRp)},
                    "f_paren", "host");
    g.addProduction(F, {GSym::term(tId)}, "f_id", "host");

    g.setStart(E);
    g.computeNullable();
  }
};

} // namespace mmx::test
