// LALR(1) table construction in the style of Copper: exact LALR lookaheads
// computed with DeRemer & Pennello's relations (TOPLAS 1982) over the LR(0)
// nonterminal transitions — `reads` and `includes`, each solved by one SCC
// digraph pass over terminal bitsets, and `lookback` from each reduction to
// the transitions whose Follow sets it unions — so no LR(1) closure runs.
// Conflict reporting is precise enough to drive the modular determinism
// analysis (analysis/determinism.hpp), and per-state valid-terminal sets
// feed the context-aware scanner. Conflicts are recorded per state: shifts
// in terminal order, then reductions of completed kernel items in kernel
// order, then ε-productions in ascending production id.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "grammar/grammar.hpp"
#include "support/bitset.hpp"

namespace mmx::parse {

namespace detail { class LalrBuilder; }

/// An LR item: dot position within a production. prod == kAugmented refers
/// to the internal augmented production S' -> S.
struct Item {
  uint32_t prod = 0;
  uint32_t dot = 0;
  friend auto operator<=>(const Item&, const Item&) = default;
};

/// One parse action.
struct Action {
  enum class Kind : uint8_t { Error, Shift, Reduce, Accept };
  Kind kind = Kind::Error;
  uint32_t target = 0; // Shift: next state; Reduce: production id
  friend bool operator==(const Action&, const Action&) = default;
};

/// A table conflict (the composed grammar is not LALR(1) at this cell).
struct Conflict {
  enum class Kind { ShiftReduce, ReduceReduce };
  Kind kind;
  uint32_t state;
  uint32_t terminal;      // column (may be the EOF column)
  Action kept, dropped;   // resolution applied (shift wins; lower prod id wins)
  std::string description;
  /// Extensions owning the clashing productions — the determinism analysis
  /// uses this to decide whether a conflict crosses extension boundaries.
  std::string extensionA, extensionB;
};

/// Immutable LALR(1) tables for a composed grammar.
class LalrTables {
public:
  /// Builds tables. `g` must have computeNullable() already run.
  static LalrTables build(const grammar::Grammar& g);

  size_t stateCount() const { return numStates_; }
  size_t eofColumn() const { return nTerm_; }

  /// Action for (state, terminal column). Column eofColumn() is end of input.
  Action action(uint32_t state, uint32_t termCol) const {
    return action_[size_t(state) * (nTerm_ + 1) + termCol];
  }

  /// Goto for (state, nonterminal) or -1.
  int32_t gotoState(uint32_t state, uint32_t nt) const {
    return goto_[size_t(state) * nNT_ + nt];
  }

  /// Terminals the scanner may match in `state` (excludes EOF column).
  const DynBitset& validTerminals(uint32_t state) const {
    return validTerms_[state];
  }

  /// True if end-of-input is acceptable (reduce/accept) in `state`.
  bool eofValid(uint32_t state) const {
    return action(state, static_cast<uint32_t>(nTerm_)).kind != Action::Kind::Error;
  }

  const std::vector<Conflict>& conflicts() const { return conflicts_; }

  /// Kernel items of a state, for diagnostics.
  const std::vector<Item>& kernel(uint32_t state) const { return kernels_[state]; }

  /// Human-readable "expected TOKEN, TOKEN, ..." list for a state.
  std::string expectedTerminals(const grammar::Grammar& g, uint32_t state) const;

private:
  friend class detail::LalrBuilder;
  size_t numStates_ = 0, nTerm_ = 0, nNT_ = 0;
  std::vector<Action> action_;
  std::vector<int32_t> goto_;
  std::vector<DynBitset> validTerms_;
  std::vector<Conflict> conflicts_;
  std::vector<std::vector<Item>> kernels_;
};

} // namespace mmx::parse
