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

void Grammar::computeNullable() {
  nullable_.assign(nonterminalCount(), 0);
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Production& p : prods_) {
      if (nullable_[p.lhs]) continue;
      bool allNullable = true;
      for (const GSym& s : p.rhs) {
        if (s.isTerm() || !nullable_[s.idx]) { allNullable = false; break; }
      }
      if (allNullable) { nullable_[p.lhs] = 1; changed = true; }
    }
  }
}

} // namespace mmx::grammar
