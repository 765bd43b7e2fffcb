// Test-only oracle: the dragon-book LALR(1) builder (Aho et al., Algorithm
// 4.63 — spontaneous lookaheads plus propagation links over LR(1) closures)
// that parse/lalr.cpp used before it moved to DeRemer–Pennello relations.
// test_lalr_oracle compares the two table for table; once that comparison
// has run against the new builder for a while, this copy is deleted.
#pragma once

#include <cstdint>
#include <vector>

#include "grammar/grammar.hpp"
#include "parse/lalr.hpp"
#include "support/bitset.hpp"

namespace mmx::parse::oracle {

/// The same tables LalrTables holds, as plain data.
struct OracleTables {
  size_t numStates = 0, nTerm = 0, nNT = 0;
  std::vector<Action> action;  // numStates x (nTerm + 1)
  std::vector<int32_t> gotoTab; // numStates x nNT
  std::vector<DynBitset> validTerms;
  std::vector<Conflict> conflicts;
  std::vector<std::vector<Item>> kernels;

  Action actionAt(uint32_t s, uint32_t col) const {
    return action[size_t(s) * (nTerm + 1) + col];
  }
  int32_t gotoAt(uint32_t s, uint32_t nt) const {
    return gotoTab[size_t(s) * nNT + nt];
  }
};

/// Builds tables with the propagation algorithm. `g` must have
/// computeFirstSets() already run.
OracleTables buildOracle(const grammar::Grammar& g);

} // namespace mmx::parse::oracle
