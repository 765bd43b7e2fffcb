// Context-free grammar model. A composed language is one Grammar built from
// the host fragment plus each chosen extension's fragment (see ext/). The
// parse/ module turns a Grammar into LALR(1) tables; analysis/ runs the
// modular determinism check over per-extension fragments.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "lex/scanner.hpp"

namespace mmx::grammar {

using NonterminalId = uint32_t;

/// A grammar symbol: terminal (index into the LexSpec) or nonterminal.
struct GSym {
  enum class Kind : uint8_t { Terminal, Nonterminal };
  Kind kind = Kind::Terminal;
  uint32_t idx = 0;

  static GSym term(lex::TerminalId t) { return {Kind::Terminal, t}; }
  static GSym nonterm(NonterminalId n) { return {Kind::Nonterminal, n}; }
  bool isTerm() const { return kind == Kind::Terminal; }
  friend bool operator==(const GSym&, const GSym&) = default;
};

/// One production A -> X1 ... Xn. `name` identifies the production for
/// semantic analysis (node kinds); `extension` records which language
/// fragment contributed it (used by the modular analyses and diagnostics).
struct Production {
  uint32_t id = 0;
  NonterminalId lhs = 0;
  std::vector<GSym> rhs;
  std::string name;
  std::string extension;
};

/// A context-free grammar over a LexSpec's terminals.
///
/// The grammar owns its LexSpec: terminals and productions are added
/// through this interface so extension fragments compose into one
/// consistent id space.
class Grammar {
public:
  // --- construction ---------------------------------------------------
  /// Adds a terminal (see lex::TerminalDef). Returns its id.
  lex::TerminalId addTerminal(lex::TerminalDef def) {
    return lexSpec_.add(std::move(def));
  }

  /// Adds (or finds) a nonterminal by name.
  NonterminalId addNonterminal(std::string_view name);

  /// Looks up a nonterminal; returns true + id when it exists.
  bool findNonterminal(std::string_view name, NonterminalId& out) const;

  /// Adds a production. `name` must be unique across the grammar (checked
  /// by the composer, asserted here).
  uint32_t addProduction(NonterminalId lhs, std::vector<GSym> rhs,
                         std::string name, std::string extension);

  void setStart(NonterminalId s) { start_ = s; }
  NonterminalId start() const { return start_; }

  // --- access -----------------------------------------------------------
  const lex::LexSpec& lexSpec() const { return lexSpec_; }
  size_t terminalCount() const { return lexSpec_.count(); }
  size_t nonterminalCount() const { return ntNames_.size(); }
  std::string_view nonterminalName(NonterminalId n) const { return ntNames_[n]; }
  const std::vector<Production>& productions() const { return prods_; }
  const Production& production(uint32_t id) const { return prods_[id]; }
  /// Productions with the given left-hand side.
  const std::vector<uint32_t>& productionsOf(NonterminalId n) const {
    return byLhs_[n];
  }

  /// Human-readable symbol name for diagnostics.
  std::string symbolName(GSym s) const;

  // --- analysis -----------------------------------------------------------
  /// Computes which nonterminals derive ε. Must be called after the
  /// grammar is complete and before nullable().
  void computeNullable();

  bool nullable(NonterminalId n) const { return nullable_[n]; }

private:
  lex::LexSpec lexSpec_;
  std::vector<std::string> ntNames_;
  std::vector<Production> prods_;
  std::vector<std::vector<uint32_t>> byLhs_;
  NonterminalId start_ = 0;

  std::vector<uint8_t> nullable_;
};

} // namespace mmx::grammar
