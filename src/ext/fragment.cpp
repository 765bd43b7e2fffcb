#include "ext/fragment.hpp"

#include <map>
#include <set>

namespace mmx::ext {

GrammarFragment mergeFragments(const GrammarFragment& a,
                               const GrammarFragment& b, std::string name) {
  GrammarFragment out = a;
  out.name = std::move(name);
  out.terminals.insert(out.terminals.end(), b.terminals.begin(),
                       b.terminals.end());
  out.nonterminals.insert(out.nonterminals.end(), b.nonterminals.begin(),
                          b.nonterminals.end());
  out.productions.insert(out.productions.end(), b.productions.begin(),
                         b.productions.end());
  if (out.startNT.empty()) out.startNT = b.startNT;
  return out;
}

bool composeGrammar(const std::vector<const GrammarFragment*>& fragments,
                    grammar::Grammar& out, DiagnosticEngine& diags) {
  bool ok = true;

  // Pass 1: declare all terminals, checking for cross-fragment clashes.
  std::map<std::string, std::pair<lex::TerminalId, std::string>> termByName;
  for (const GrammarFragment* f : fragments) {
    DiagnosticEngine::OriginScope origin(diags, f->name);
    for (const TerminalSpec& t : f->terminals) {
      auto it = termByName.find(t.name);
      if (it != termByName.end()) {
        diags.error({}, "terminal '" + t.name + "' declared by both '" +
                            it->second.second + "' and '" + f->name + "'");
        ok = false;
        continue;
      }
      lex::TerminalId id =
          out.addTerminal({t.name, t.pattern, t.literal, t.precedence, t.layout});
      termByName[t.name] = {id, f->name};
    }
  }

  // Pass 2: declare nonterminals (shared names are *allowed* — extensions
  // add productions to host nonterminals — but a nonterminal must not
  // collide with a terminal name).
  for (const GrammarFragment* f : fragments) {
    DiagnosticEngine::OriginScope origin(diags, f->name);
    for (const std::string& nt : f->nonterminals) {
      if (termByName.count(nt)) {
        diags.error({}, "nonterminal '" + nt + "' of fragment '" + f->name +
                            "' collides with a terminal name");
        ok = false;
        continue;
      }
      out.addNonterminal(nt);
    }
  }

  // Pass 3: productions, resolving symbol names.
  std::set<std::string> prodNames;
  for (const GrammarFragment* f : fragments) {
    DiagnosticEngine::OriginScope origin(diags, f->name);
    for (const ProdSpec& p : f->productions) {
      if (!prodNames.insert(p.name).second) {
        diags.error({}, "duplicate production name '" + p.name + "' (fragment '" +
                            f->name + "')");
        ok = false;
        continue;
      }
      grammar::NonterminalId lhs;
      if (!out.findNonterminal(p.lhs, lhs)) {
        diags.error({}, "production '" + p.name + "': unknown nonterminal '" +
                            p.lhs + "'");
        ok = false;
        continue;
      }
      std::vector<grammar::GSym> rhs;
      bool bad = false;
      for (const std::string& s : p.rhs) {
        auto t = termByName.find(s);
        if (t != termByName.end()) {
          rhs.push_back(grammar::GSym::term(t->second.first));
          continue;
        }
        grammar::NonterminalId nt;
        if (out.findNonterminal(s, nt)) {
          rhs.push_back(grammar::GSym::nonterm(nt));
          continue;
        }
        diags.error({}, "production '" + p.name + "': unresolved symbol '" + s +
                            "'");
        ok = false;
        bad = true;
        break;
      }
      if (!bad) out.addProduction(lhs, std::move(rhs), p.name, f->name);
    }
  }

  // Start symbol comes from the first fragment that sets one (the host).
  bool haveStart = false;
  for (const GrammarFragment* f : fragments) {
    if (f->startNT.empty()) continue;
    grammar::NonterminalId s;
    if (!out.findNonterminal(f->startNT, s)) {
      diags.error({}, "start nonterminal '" + f->startNT + "' undeclared");
      ok = false;
    } else if (!haveStart) {
      out.setStart(s);
      haveStart = true;
    }
  }
  if (!haveStart) {
    diags.error({}, "no fragment declares a start nonterminal");
    ok = false;
  }

  if (ok) out.computeNullable();
  return ok;
}

} // namespace mmx::ext
