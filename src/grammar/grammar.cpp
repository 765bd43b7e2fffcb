#include "grammar/grammar.hpp"

#include <cassert>
#include <unordered_map>

namespace mmx::grammar {

NonterminalId Grammar::addNonterminal(std::string_view name) {
  NonterminalId id;
  if (findNonterminal(name, id)) return id;
  ntNames_.emplace_back(name);
  byLhs_.emplace_back();
  return static_cast<NonterminalId>(ntNames_.size() - 1);
}

bool Grammar::findNonterminal(std::string_view name, NonterminalId& out) const {
  for (NonterminalId i = 0; i < ntNames_.size(); ++i)
    if (ntNames_[i] == name) { out = i; return true; }
  return false;
}

uint32_t Grammar::addProduction(NonterminalId lhs, std::vector<GSym> rhs,
                                std::string name, std::string extension) {
  assert(lhs < ntNames_.size());
  Production p;
  p.id = static_cast<uint32_t>(prods_.size());
  p.lhs = lhs;
  p.rhs = std::move(rhs);
  p.name = std::move(name);
  p.extension = std::move(extension);
  byLhs_[lhs].push_back(p.id);
  prods_.push_back(std::move(p));
  return prods_.back().id;
}

std::string Grammar::symbolName(GSym s) const {
  if (s.isTerm()) return lexSpec_.def(s.idx).name;
  return std::string(ntNames_[s.idx]);
}

void Grammar::computeFirstSets() {
  size_t nTerm = terminalCount();
  size_t nNT = nonterminalCount();
  nullable_.assign(nNT, 0);
  first_.assign(nNT, DynBitset(nTerm + 1));

  bool changed = true;
  while (changed) {
    changed = false;
    for (const Production& p : prods_) {
      // nullable
      if (!nullable_[p.lhs]) {
        bool allNullable = true;
        for (const GSym& s : p.rhs) {
          if (s.isTerm() || !nullable_[s.idx]) { allNullable = false; break; }
        }
        if (allNullable) { nullable_[p.lhs] = 1; changed = true; }
      }
      // FIRST
      for (const GSym& s : p.rhs) {
        if (s.isTerm()) {
          if (!first_[p.lhs].test(s.idx)) {
            first_[p.lhs].set(s.idx);
            changed = true;
          }
          break;
        }
        if (first_[p.lhs].merge(first_[s.idx])) changed = true;
        if (!nullable_[s.idx]) break;
      }
    }
  }
}

} // namespace mmx::grammar
