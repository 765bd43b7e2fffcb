#include "parse/lalr.hpp"

#include <algorithm>
#include <array>
#include <sstream>
#include <unordered_map>

namespace mmx::parse {

using grammar::Grammar;
using grammar::GSym;

namespace detail {

constexpr uint32_t kAugmented = 0xfffffffeu;

namespace {

/// FNV-1a over a sorted kernel: the LR(0) state index key.
struct KernelHash {
  size_t operator()(const std::vector<Item>& kernel) const {
    uint64_t h = 0xcbf29ce484222325ull;
    for (const Item& it : kernel)
      h = (h ^ (uint64_t(it.prod) << 32 | it.dot)) * 0x100000001b3ull;
    return static_cast<size_t>(h);
  }
};

/// An LR(0) transition. The nonterminal ones are the nodes of the
/// DeRemer–Pennello relations; their index is the node id.
struct Transition {
  uint32_t from, sym, to;
};

/// F(x) = F(x) ∪ ⋃{F(y) | x R y} for every x, in one Tarjan SCC pass
/// (DeRemer & Pennello's `digraph`): every member of a strongly connected
/// component ends with the component's union.
void digraph(const std::vector<std::vector<uint32_t>>& rel,
             std::vector<DynBitset>& f) {
  constexpr uint32_t kDone = UINT32_MAX;
  std::vector<uint32_t> depth(f.size(), 0), stack;
  auto traverse = [&](auto& self, uint32_t x) -> void {
    stack.push_back(x);
    const auto d = static_cast<uint32_t>(stack.size());
    depth[x] = d;
    for (uint32_t y : rel[x]) {
      if (depth[y] == 0) self(self, y);
      depth[x] = std::min(depth[x], depth[y]);
      f[x].merge(f[y]);
    }
    if (depth[x] != d) return;
    for (;;) {
      uint32_t top = stack.back();
      stack.pop_back();
      depth[top] = kDone;
      if (top == x) break;
      f[top] = f[x];
    }
  };
  for (uint32_t x = 0; x < f.size(); ++x)
    if (depth[x] == 0) traverse(traverse, x);
}

} // namespace

/// Builder holding the LR(0) automaton plus the lookahead relations.
class LalrBuilder {
public:
  explicit LalrBuilder(const Grammar& g)
      : g_(g),
        nTerm_(g.terminalCount()),
        nNT_(g.nonterminalCount()),
        augRhs_{GSym::nonterm(g.start())} {}

  LalrTables run();

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

  void buildLr0();
  /// Index of the transition on `sym` out of `state` (it must exist).
  static uint32_t find(const std::vector<Transition>& trans,
                       const std::vector<uint32_t>& begin, uint32_t state,
                       uint32_t sym) {
    auto f = std::lower_bound(
        trans.begin() + begin[state], trans.begin() + begin[state + 1], sym,
        [](const Transition& t, uint32_t s) { return t.sym < s; });
    return static_cast<uint32_t>(f - trans.begin());
  }
  void computeLookaheads();
  LalrTables fillTables();

  void recordAction(std::vector<Action>& action, uint32_t state, uint32_t col,
                    Action a, std::vector<Conflict>& conflicts,
                    uint32_t reduceProdForDiag);

  const Grammar& g_;
  size_t nTerm_, nNT_;
  std::array<GSym, 1> augRhs_;

  // LR(0) automaton. Transitions are sorted by (from, sym); state s owns
  // [begin[s], begin[s + 1]).
  std::vector<std::vector<Item>> kernels_; // per state, sorted
  std::unordered_map<std::vector<Item>, uint32_t, KernelHash> stateIds_;
  std::vector<Transition> termTrans_, ntTrans_;
  std::vector<uint32_t> termBegin_, ntBegin_;

  // Follow set per nonterminal transition (terminals + the EOF column).
  std::vector<DynBitset> follow_;
  // lookback: (key, transition) with key = state << 33 | isEpsilon << 32 |
  // prod. Sorted, a state's reductions come in table-filling order: its
  // completed kernel items by production (the augmented one sorts last,
  // as in the kernel), then its ε-productions by id.
  std::vector<std::pair<uint64_t, uint32_t>> lookback_;
};

void LalrBuilder::buildLr0() {
  // Kernel items moved over each symbol (terminals first, then
  // nonterminals at nTerm_ + nt), reused across states.
  std::vector<std::vector<Item>> bucket(nTerm_ + nNT_);
  std::vector<uint32_t> touched, ntQueue;
  std::vector<uint32_t> ntSeen(nNT_, UINT32_MAX); // state that queued an NT
  kernels_.push_back({{kAugmented, 0}});
  stateIds_.emplace(kernels_[0], 0);

  for (uint32_t cur = 0; cur < kernels_.size(); ++cur) {
    termBegin_.push_back(static_cast<uint32_t>(termTrans_.size()));
    ntBegin_.push_back(static_cast<uint32_t>(ntTrans_.size()));
    auto move = [&](Item it) {
      GSym s = rhs(it.prod)[it.dot];
      const auto key =
          static_cast<uint32_t>(s.isTerm() ? s.idx : nTerm_ + s.idx);
      if (bucket[key].empty()) touched.push_back(key);
      bucket[key].push_back({it.prod, it.dot + 1});
      if (!s.isTerm() && ntSeen[s.idx] != cur) {
        ntSeen[s.idx] = cur;
        ntQueue.push_back(s.idx);
      }
    };
    // LR(0) closure, walked without materializing the derived items.
    for (const Item& it : kernels_[cur])
      if (it.dot < rhsLen(it.prod)) move(it);
    for (size_t i = 0; i < ntQueue.size(); ++i)
      for (uint32_t p : g_.productionsOf(ntQueue[i]))
        if (!g_.production(p).rhs.empty()) move({p, 0});
    ntQueue.clear();

    std::sort(touched.begin(), touched.end());
    for (uint32_t key : touched) {
      std::vector<Item>& kern = bucket[key];
      std::sort(kern.begin(), kern.end());
      auto [slot, inserted] = stateIds_.try_emplace(
          kern, static_cast<uint32_t>(kernels_.size()));
      if (inserted) kernels_.push_back(kern);
      if (key < nTerm_)
        termTrans_.push_back({cur, key, slot->second});
      else
        ntTrans_.push_back(
            {cur, static_cast<uint32_t>(key - nTerm_), slot->second});
      kern.clear();
    }
    touched.clear();
  }
  termBegin_.push_back(static_cast<uint32_t>(termTrans_.size()));
  ntBegin_.push_back(static_cast<uint32_t>(ntTrans_.size()));
}

// DeRemer & Pennello, "Efficient Computation of LALR(1) Look-Ahead Sets"
// (TOPLAS 1982), over the nonterminal transitions x = (p, A):
//   DR(x)      terminals shifted from goto(p, A) (+ EOF after the start)
//   reads      (p, A) reads (r, C)     r = goto(p, A), C nullable
//   Read       = digraph(DR, reads)
//   includes   (p, A) includes (p', B) B -> β A γ, γ nullable, p' -β-> p
//   Follow     = digraph(Read, includes)
//   lookback   (q, A -> ω) to (p, A)   p -ω-> q
//   LA(q, A -> ω) = ⋃ Follow over its lookback.
void LalrBuilder::computeLookaheads() {
  const size_t nX = ntTrans_.size();
  follow_.assign(nX, DynBitset(nTerm_ + 1));
  std::vector<std::vector<uint32_t>> reads(nX), includes(nX);
  for (uint32_t x = 0; x < nX; ++x) {
    const uint32_t r = ntTrans_[x].to;
    for (uint32_t i = termBegin_[r]; i < termBegin_[r + 1]; ++i)
      follow_[x].set(termTrans_[i].sym);
    for (uint32_t y = ntBegin_[r]; y < ntBegin_[r + 1]; ++y)
      if (g_.nullable(ntTrans_[y].sym)) reads[x].push_back(y);
  }
  const uint32_t start = find(ntTrans_, ntBegin_, 0, g_.start());
  follow_[start].set(nTerm_);
  digraph(reads, follow_);

  for (uint32_t x = 0; x < nX; ++x) {
    for (uint32_t p : g_.productionsOf(ntTrans_[x].sym)) {
      const std::vector<GSym>& r = g_.production(p).rhs;
      size_t nullableTail = r.size(); // r[nullableTail..] derives ε
      while (nullableTail > 0 && !r[nullableTail - 1].isTerm() &&
             g_.nullable(r[nullableTail - 1].idx))
        --nullableTail;
      uint32_t cur = ntTrans_[x].from;
      for (size_t i = 0; i < r.size(); ++i) {
        if (r[i].isTerm()) {
          cur = termTrans_[find(termTrans_, termBegin_, cur, r[i].idx)].to;
          continue;
        }
        const uint32_t y = find(ntTrans_, ntBegin_, cur, r[i].idx);
        if (i + 1 >= nullableTail) includes[y].push_back(x);
        cur = ntTrans_[y].to;
      }
      lookback_.push_back(
          {uint64_t(cur) << 33 | uint64_t(r.empty()) << 32 | p, x});
    }
  }
  digraph(includes, follow_);
  // The accept item S' -> S. in goto(0, S).
  lookback_.push_back({uint64_t(ntTrans_[start].to) << 33 | kAugmented, start});
  std::sort(lookback_.begin(), lookback_.end());
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

LalrTables LalrBuilder::fillTables() {
  LalrTables t;
  t.numStates_ = kernels_.size();
  t.nTerm_ = nTerm_;
  t.nNT_ = nNT_;
  t.action_.assign(t.numStates_ * (nTerm_ + 1), Action{});
  t.goto_.assign(t.numStates_ * nNT_, -1);

  DynBitset la(nTerm_ + 1);
  size_t lb = 0;
  for (uint32_t s = 0; s < t.numStates_; ++s) {
    for (uint32_t i = termBegin_[s]; i < termBegin_[s + 1]; ++i)
      recordAction(t.action_, s, termTrans_[i].sym,
                   {Action::Kind::Shift, termTrans_[i].to}, t.conflicts_,
                   kAugmented);
    for (uint32_t i = ntBegin_[s]; i < ntBegin_[s + 1]; ++i)
      t.goto_[size_t(s) * nNT_ + ntTrans_[i].sym] =
          static_cast<int32_t>(ntTrans_[i].to);

    while (lb < lookback_.size() && (lookback_[lb].first >> 33) == s) {
      const uint64_t key = lookback_[lb].first;
      la.clear();
      for (; lb < lookback_.size() && lookback_[lb].first == key; ++lb)
        la.merge(follow_[lookback_[lb].second]);
      const auto prod = static_cast<uint32_t>(key);
      if (prod == kAugmented) {
        recordAction(t.action_, s, static_cast<uint32_t>(nTerm_),
                     {Action::Kind::Accept, 0}, t.conflicts_, kAugmented);
        continue;
      }
      la.forEach([&](size_t col) {
        recordAction(t.action_, s, static_cast<uint32_t>(col),
                     {Action::Kind::Reduce, prod}, t.conflicts_, prod);
      });
    }
  }

  // Per-state valid-terminal sets for the context-aware scanner.
  t.validTerms_.reserve(t.numStates_);
  for (uint32_t s = 0; s < t.numStates_; ++s) {
    DynBitset v(nTerm_);
    for (uint32_t c = 0; c < nTerm_; ++c)
      if (t.action_[size_t(s) * (nTerm_ + 1) + c].kind != Action::Kind::Error)
        v.set(c);
    t.validTerms_.push_back(std::move(v));
  }
  t.kernels_ = std::move(kernels_);
  return t;
}

LalrTables LalrBuilder::run() {
  buildLr0();
  computeLookaheads();
  return fillTables();
}

} // namespace detail

LalrTables LalrTables::build(const Grammar& g) {
  return detail::LalrBuilder(g).run();
}

std::string LalrTables::expectedTerminals(const Grammar& g,
                                          uint32_t state) const {
  std::ostringstream out;
  bool first = true;
  validTerminals(state).forEach([&](size_t t) {
    if (!first) out << ", ";
    first = false;
    out << g.lexSpec().def(static_cast<uint32_t>(t)).name;
  });
  if (eofValid(state)) {
    if (!first) out << ", ";
    out << "<eof>";
  }
  return out.str();
}

} // namespace mmx::parse
