// The pre-DeRemer–Pennello LALR(1) builder, kept verbatim as a test oracle
// (see lalr_oracle.hpp). Only its namespace and result type differ, and
// FIRST(beta a), which the grammar no longer offers, is computed here.
#include "lalr_oracle.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <sstream>
#include <stdexcept>

namespace mmx::parse::oracle {

using grammar::Grammar;
using grammar::GSym;

namespace {

constexpr uint32_t kAugmented = 0xfffffffeu;

/// FIRST of a symbol sequence followed by the terminal-set `tail`
/// (FIRST(beta a) for the LR(1) closure). `out` has terminalCount()+2
/// columns: terminals, EOF, probe.
void firstOfSeq(const Grammar& g, const GSym* seq, size_t len,
                const DynBitset& tail, DynBitset& out) {
  for (size_t i = 0; i < len; ++i) {
    const GSym& s = seq[i];
    if (s.isTerm()) {
      out.set(s.idx);
      return;
    }
    out.merge(g.first(s.idx));
    if (!g.nullable(s.idx)) return;
  }
  out.merge(tail);
}

/// Builder holding the LR(0) automaton plus LALR lookahead machinery.
class LalrBuilder {
public:
  explicit LalrBuilder(const Grammar& g)
      : g_(g),
        nTerm_(g.terminalCount()),
        nNT_(g.nonterminalCount()),
        augRhs_{GSym::nonterm(g.start())} {}

  OracleTables run();

private:
  // --- production access (handles the augmented production) --------------
  const GSym* rhs(uint32_t prod) const {
    if (prod == kAugmented) return augRhs_.data();
    return g_.production(prod).rhs.data();
  }
  size_t rhsLen(uint32_t prod) const {
    if (prod == kAugmented) return 1;
    return g_.production(prod).rhs.size();
  }

  // --- LR(0) ----------------------------------------------------------
  /// LR(0) closure of a kernel: returns all items (kernel + derived).
  std::vector<Item> closure0(const std::vector<Item>& kernel) const;
  void buildLr0();

  // --- LALR lookaheads -----------------------------------------------------
  /// LR(1) closure over (item, lookahead-set) pairs. Lookahead sets use
  /// nTerm_+2 columns: [0,nTerm_) terminals, nTerm_ = EOF, nTerm_+1 = probe.
  struct LItem {
    Item item;
    DynBitset la;
  };
  std::vector<LItem> closure1(const std::vector<LItem>& seed) const;
  void computeLookaheads();

  // --- tables ------------------------------------------------------------
  OracleTables fillTables();

  void recordAction(std::vector<Action>& action, uint32_t state, uint32_t col,
                    Action a, std::vector<Conflict>& conflicts,
                    uint32_t reduceProdForDiag);

  const Grammar& g_;
  size_t nTerm_, nNT_;
  std::array<GSym, 1> augRhs_;

  // LR(0) automaton.
  std::vector<std::vector<Item>> kernels_;               // per state, sorted
  std::map<std::vector<Item>, uint32_t> stateIds_;
  std::vector<std::map<uint32_t, uint32_t>> gotoTerm_;   // state -> term -> state
  std::vector<std::map<uint32_t, uint32_t>> gotoNT_;     // state -> nt -> state

  // Lookaheads per (state, kernel item index).
  std::vector<std::vector<DynBitset>> la_;
  // Propagation links: (state, kidx) -> list of (state, kidx).
  std::vector<std::vector<std::vector<std::pair<uint32_t, uint32_t>>>> links_;
};

std::vector<Item> LalrBuilder::closure0(const std::vector<Item>& kernel) const {
  std::vector<Item> items = kernel;
  std::vector<uint8_t> ntAdded(nNT_, 0);
  for (size_t i = 0; i < items.size(); ++i) {
    const Item it = items[i];
    if (it.dot >= rhsLen(it.prod)) continue;
    GSym s = rhs(it.prod)[it.dot];
    if (s.isTerm() || ntAdded[s.idx]) continue;
    ntAdded[s.idx] = 1;
    for (uint32_t p : g_.productionsOf(s.idx))
      items.push_back({p, 0});
  }
  return items;
}

void LalrBuilder::buildLr0() {
  std::vector<Item> k0{{kAugmented, 0}};
  stateIds_[k0] = 0;
  kernels_.push_back(k0);
  gotoTerm_.emplace_back();
  gotoNT_.emplace_back();

  for (uint32_t cur = 0; cur < kernels_.size(); ++cur) {
    auto items = closure0(kernels_[cur]);
    // Group items by the symbol after the dot.
    std::map<std::pair<int, uint32_t>, std::vector<Item>> moved;
    for (const Item& it : items) {
      if (it.dot >= rhsLen(it.prod)) continue;
      GSym s = rhs(it.prod)[it.dot];
      moved[{s.isTerm() ? 0 : 1, s.idx}].push_back({it.prod, it.dot + 1});
    }
    for (auto& [key, kern] : moved) {
      std::sort(kern.begin(), kern.end());
      kern.erase(std::unique(kern.begin(), kern.end()), kern.end());
      auto [slot, inserted] =
          stateIds_.emplace(kern, static_cast<uint32_t>(kernels_.size()));
      if (inserted) {
        kernels_.push_back(kern);
        gotoTerm_.emplace_back();
        gotoNT_.emplace_back();
      }
      if (key.first == 0)
        gotoTerm_[cur][key.second] = slot->second;
      else
        gotoNT_[cur][key.second] = slot->second;
    }
  }
}

std::vector<LalrBuilder::LItem> LalrBuilder::closure1(
    const std::vector<LItem>& seed) const {
  // Map (prod, dot) -> index in result.
  std::vector<LItem> items;
  std::map<Item, size_t> index;
  std::vector<size_t> work;

  auto add = [&](Item it, const DynBitset& la) {
    auto f = index.find(it);
    if (f == index.end()) {
      index[it] = items.size();
      items.push_back({it, la});
      work.push_back(items.size() - 1);
    } else if (items[f->second].la.merge(la)) {
      work.push_back(f->second);
    }
  };

  for (const auto& s : seed) add(s.item, s.la);

  while (!work.empty()) {
    size_t i = work.back();
    work.pop_back();
    Item it = items[i].item;
    DynBitset la = items[i].la; // copy: items may reallocate below
    if (it.dot >= rhsLen(it.prod)) continue;
    GSym s = rhs(it.prod)[it.dot];
    if (s.isTerm()) continue;
    // FIRST(beta . la)
    DynBitset firstBeta(nTerm_ + 2);
    firstOfSeq(g_, rhs(it.prod) + it.dot + 1, rhsLen(it.prod) - it.dot - 1,
               la, firstBeta);
    for (uint32_t p : g_.productionsOf(s.idx)) add({p, 0}, firstBeta);
  }
  return items;
}

void LalrBuilder::computeLookaheads() {
  const size_t cols = nTerm_ + 2; // terminals + EOF + probe
  const size_t probe = nTerm_ + 1;

  la_.resize(kernels_.size());
  links_.resize(kernels_.size());
  for (uint32_t s = 0; s < kernels_.size(); ++s) {
    la_[s].assign(kernels_[s].size(), DynBitset(cols));
    links_[s].assign(kernels_[s].size(), {});
  }

  auto kernelIndex = [&](uint32_t state, Item it) -> uint32_t {
    const auto& k = kernels_[state];
    auto f = std::lower_bound(k.begin(), k.end(), it);
    if (f == k.end() || !(*f == it))
      throw std::logic_error("LALR: kernel item not found");
    return static_cast<uint32_t>(f - k.begin());
  };

  // Spontaneous lookaheads + propagation links (Algorithm 4.63).
  for (uint32_t s = 0; s < kernels_.size(); ++s) {
    for (uint32_t ki = 0; ki < kernels_[s].size(); ++ki) {
      DynBitset seedLa(cols);
      seedLa.set(probe);
      auto closure = closure1({{kernels_[s][ki], seedLa}});
      for (const auto& ci : closure) {
        if (ci.item.dot >= rhsLen(ci.item.prod)) continue;
        GSym x = rhs(ci.item.prod)[ci.item.dot];
        uint32_t tgtState = x.isTerm() ? gotoTerm_[s].at(x.idx)
                                       : gotoNT_[s].at(x.idx);
        uint32_t tgtIdx =
            kernelIndex(tgtState, {ci.item.prod, ci.item.dot + 1});
        ci.la.forEach([&](size_t t) {
          if (t == probe)
            links_[s][ki].push_back({tgtState, tgtIdx});
          else
            la_[tgtState][tgtIdx].set(t);
        });
      }
    }
  }

  // EOF on the augmented start item.
  la_[0][kernelIndex(0, {kAugmented, 0})].set(nTerm_);

  // Propagate to fixpoint.
  bool changed = true;
  while (changed) {
    changed = false;
    for (uint32_t s = 0; s < kernels_.size(); ++s)
      for (uint32_t ki = 0; ki < kernels_[s].size(); ++ki)
        for (auto [ts, tk] : links_[s][ki])
          if (la_[ts][tk].merge(la_[s][ki])) changed = true;
  }
}

void LalrBuilder::recordAction(std::vector<Action>& action, uint32_t state,
                           uint32_t col, Action a,
                           std::vector<Conflict>& conflicts,
                           uint32_t reduceProdForDiag) {
  Action& cell = action[size_t(state) * (nTerm_ + 1) + col];
  if (cell.kind == Action::Kind::Error) {
    cell = a;
    return;
  }
  if (cell == a) return;

  // Conflict. Resolution: shift beats reduce; between reduces the lower
  // production id wins (stable, but still reported as a conflict).
  Conflict c;
  c.state = state;
  c.terminal = col;
  auto extOf = [&](const Action& x) -> std::string {
    if (x.kind == Action::Kind::Reduce) return g_.production(x.target).extension;
    return "";
  };
  if (cell.kind == Action::Kind::Shift || a.kind == Action::Kind::Shift) {
    c.kind = Conflict::Kind::ShiftReduce;
    Action shift = cell.kind == Action::Kind::Shift ? cell : a;
    Action red = cell.kind == Action::Kind::Shift ? a : cell;
    c.kept = shift;
    c.dropped = red;
    c.extensionA = extOf(red);
    c.extensionB = ""; // shift side: terminal, attribute below
    cell = shift;
  } else {
    c.kind = Conflict::Kind::ReduceReduce;
    Action keep = cell.target < a.target ? cell : a;
    Action drop = cell.target < a.target ? a : cell;
    c.kept = keep;
    c.dropped = drop;
    c.extensionA = extOf(keep);
    c.extensionB = extOf(drop);
    cell = keep;
  }
  std::ostringstream d;
  d << (c.kind == Conflict::Kind::ShiftReduce ? "shift/reduce"
                                              : "reduce/reduce")
    << " conflict in state " << state << " on "
    << (col == nTerm_ ? std::string("<eof>")
                      : std::string(g_.lexSpec().def(col).name));
  if (reduceProdForDiag != kAugmented)
    d << " (reduce " << g_.production(reduceProdForDiag).name << ")";
  c.description = d.str();
  conflicts.push_back(std::move(c));
}

OracleTables LalrBuilder::fillTables() {
  OracleTables t;
  t.numStates = kernels_.size();
  t.nTerm = nTerm_;
  t.nNT = nNT_;
  t.action.assign(t.numStates * (nTerm_ + 1), Action{});
  t.gotoTab.assign(t.numStates * nNT_, -1);
  t.kernels = kernels_;

  for (uint32_t s = 0; s < kernels_.size(); ++s) {
    for (auto [term, tgt] : gotoTerm_[s])
      recordAction(t.action, s, term,
                   {Action::Kind::Shift, tgt}, t.conflicts, kAugmented);
    for (auto [nt, tgt] : gotoNT_[s])
      t.gotoTab[size_t(s) * nNT_ + nt] = static_cast<int32_t>(tgt);

    // Reduce/accept: LR(1) closure of the kernel with final lookaheads.
    std::vector<LItem> seed;
    for (uint32_t ki = 0; ki < kernels_[s].size(); ++ki)
      seed.push_back({kernels_[s][ki], la_[s][ki]});
    for (const auto& ci : closure1(seed)) {
      if (ci.item.dot < rhsLen(ci.item.prod)) continue;
      if (ci.item.prod == kAugmented) {
        recordAction(t.action, s, static_cast<uint32_t>(nTerm_),
                     {Action::Kind::Accept, 0}, t.conflicts, kAugmented);
        continue;
      }
      ci.la.forEach([&](size_t col) {
        if (col > nTerm_) return; // probe column never reaches here
        recordAction(t.action, s, static_cast<uint32_t>(col),
                     {Action::Kind::Reduce, ci.item.prod}, t.conflicts,
                     ci.item.prod);
      });
    }
  }

  // Per-state valid-terminal sets for the context-aware scanner.
  t.validTerms.reserve(t.numStates);
  for (uint32_t s = 0; s < t.numStates; ++s) {
    DynBitset v(nTerm_);
    for (uint32_t c = 0; c < nTerm_; ++c)
      if (t.action[size_t(s) * (nTerm_ + 1) + c].kind != Action::Kind::Error)
        v.set(c);
    t.validTerms.push_back(std::move(v));
  }
  return t;
}

OracleTables LalrBuilder::run() {
  buildLr0();
  computeLookaheads();
  return fillTables();
}

} // namespace

OracleTables buildOracle(const Grammar& g) {
  return LalrBuilder(g).run();
}

} // namespace mmx::parse::oracle
