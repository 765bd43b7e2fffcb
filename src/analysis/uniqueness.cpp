#include "analysis/uniqueness.hpp"


namespace mmx::analysis {

namespace {

bool isMatVar(const ir::Expr& e) {
  return e.k == ir::Expr::K::Var && e.ty == ir::Ty::Mat;
}

/// True when evaluating `e` yields a Mat buffer freshly allocated by the
/// expression itself: with-loop result allocations, slices, range
/// literals, and elementwise/matmul arithmetic all produce new buffers.
bool freshMatExpr(const ir::Expr& e) {
  if (e.ty != ir::Ty::Mat) return false;
  switch (e.k) {
    case ir::Expr::K::Call:
      return ir::builtinInfo(e.builtin).returnsFresh;
    case ir::Expr::K::Index:
    case ir::Expr::K::RangeLit:
    case ir::Expr::K::Arith:
    case ir::Expr::K::Cmp:
    case ir::Expr::K::Neg:
    case ir::Expr::K::Not:
      return true;
    default:
      return false;
  }
}

const FnSummary* lookupSummary(const SummaryMap& m, const std::string& name) {
  auto it = m.find(name);
  return it == m.end() ? nullptr : &it->second;
}

/// Mat Var slots appearing anywhere under `e`.
void collectMatVars(const ir::Expr& e, std::vector<int32_t>& out) {
  forEachExpr(e, [&](const ir::Expr& x) {
    if (isMatVar(x)) out.push_back(x.slot);
  });
}

// ---------------------------------------------------------------------------
// Per-function summary computation (one improvement round).

/// Transitive closure of "may alias a slot in `seed`" over handle copies
/// and alias-returning calls, flow-insensitively.
std::vector<bool> aliasClosure(const ir::Function& f,
                               const std::vector<bool>& seed,
                               const SummaryMap& sums) {
  std::vector<bool> alias = seed;
  bool changed = true;
  while (changed) {
    changed = false;
    forEachStmt(*f.body, [&](const ir::Stmt& s) {
      auto mark = [&](int32_t slot) {
        if (slot >= 0 && static_cast<size_t>(slot) < alias.size() &&
            !alias[slot])
          alias[slot] = changed = true;
      };
      if (s.k == ir::Stmt::K::Assign && !s.exprs.empty() && s.exprs[0] &&
          f.locals[s.slot].ty == ir::Ty::Mat) {
        const ir::Expr& e = *s.exprs[0];
        if (e.k == ir::Expr::K::Var) {
          if (alias[e.slot]) mark(s.slot);
        } else if (!freshMatExpr(e)) {
          // e.g. matToFloat(p): the result may alias any Mat operand.
          std::vector<int32_t> vars;
          collectMatVars(e, vars);
          for (int32_t v : vars)
            if (alias[v]) mark(s.slot);
        }
      } else if (s.k == ir::Stmt::K::CallAssign) {
        const FnSummary* sum = lookupSummary(sums, s.callee);
        if (sum && sum->returnsFresh) return;
        bool anyAliasedArg = false;
        for (const auto& a : s.exprs)
          if (a && isMatVar(*a) && alias[a->slot]) anyAliasedArg = true;
        if (anyAliasedArg)
          for (int32_t d : s.dsts)
            if (d >= 0 && f.locals[d].ty == ir::Ty::Mat) mark(d);
      }
    });
  }
  return alias;
}

/// "Escaping" uses that disqualify borrowing: the slot's handle leaves the
/// function through a return value, a capturing builtin, an observing
/// builtin, or a callee that does not borrow the matching parameter.
std::vector<bool> escapingUse(const ir::Function& f, const SummaryMap& sums) {
  std::vector<bool> esc(f.locals.size(), false);
  forEachStmt(*f.body, [&](const ir::Stmt& s) {
    forEachStmtExpr(s, [&](const ir::Expr& root) {
      forEachExpr(root, [&](const ir::Expr& x) {
        if (x.k != ir::Expr::K::Call || ir::builtinInfo(x.builtin).borrowsArgs)
          return;
        for (const auto& a : x.args)
          if (a && isMatVar(*a)) esc[a->slot] = true;
      });
    });
    if (s.k == ir::Stmt::K::Ret) {
      for (const auto& e : s.exprs) {
        if (!e || e->ty != ir::Ty::Mat || freshMatExpr(*e)) continue;
        std::vector<int32_t> vars;
        collectMatVars(*e, vars);
        for (int32_t v : vars) esc[v] = true;
      }
    } else if (s.k == ir::Stmt::K::CallAssign) {
      const FnSummary* sum = lookupSummary(sums, s.callee);
      for (size_t i = 0; i < s.exprs.size(); ++i) {
        const auto& a = s.exprs[i];
        if (!a || !isMatVar(*a)) continue;
        bool borrowed = sum && i < sum->borrowedParams.size() &&
                        sum->borrowedParams[i];
        if (!borrowed) esc[a->slot] = true;
      }
    }
  });
  return esc;
}

FnSummary summarizeFunction(const ir::Function& f, const SummaryMap& sums) {
  FnSummary out;
  out.borrowedParams.assign(f.numParams, true);
  if (!f.body) {
    out.returnsFresh = true;
    return out;
  }

  std::vector<bool> esc = escapingUse(f, sums);
  for (size_t p = 0; p < f.numParams; ++p) {
    if (f.locals[p].ty != ir::Ty::Mat) continue; // scalars: trivially borrowed
    std::vector<bool> seed(f.locals.size(), false);
    seed[p] = true;
    std::vector<bool> alias = aliasClosure(f, seed, sums);
    for (size_t s = 0; s < alias.size(); ++s)
      if (alias[s] && esc[s]) out.borrowedParams[p] = false;
  }

  // Fresh-slot greatest fixpoint: a slot is fresh when every definition is
  // a fresh expression, a copy of a fresh slot, or a fresh-returning call.
  // Cyclic local copies may keep each other fresh — sound, because locals
  // die at return and the single-Mat-return rule below prevents handing
  // the caller two aliases of one buffer.
  std::vector<bool> freshSlot(f.locals.size(), true);
  for (size_t p = 0; p < f.numParams; ++p) freshSlot[p] = false;
  bool changed = true;
  while (changed) {
    changed = false;
    forEachStmt(*f.body, [&](const ir::Stmt& s) {
      auto kill = [&](int32_t slot) {
        if (slot >= 0 && freshSlot[slot]) freshSlot[slot] = false, changed = true;
      };
      if (s.k == ir::Stmt::K::Assign && f.locals[s.slot].ty == ir::Ty::Mat) {
        const ir::Expr& e = *s.exprs[0];
        if (e.k == ir::Expr::K::Var) {
          if (!freshSlot[e.slot]) kill(s.slot);
        } else if (!freshMatExpr(e)) {
          kill(s.slot);
        }
      } else if (s.k == ir::Stmt::K::CallAssign) {
        const FnSummary* sum = lookupSummary(sums, s.callee);
        if (!sum || !sum->returnsFresh)
          for (int32_t d : s.dsts)
            if (d >= 0 && f.locals[d].ty == ir::Ty::Mat) kill(d);
      }
    });
  }

  out.returnsFresh = true;
  forEachStmt(*f.body, [&](const ir::Stmt& s) {
    if (s.k != ir::Stmt::K::Ret) return;
    int matRets = 0;
    for (const auto& e : s.exprs) {
      if (!e || e->ty != ir::Ty::Mat) continue;
      ++matRets;
      bool fresh = freshMatExpr(*e) ||
                   (e->k == ir::Expr::K::Var && freshSlot[e->slot]);
      if (!fresh) out.returnsFresh = false;
    }
    // Two Mat returns could be two handles to one buffer; don't promise
    // freshness for tuple returns.
    if (matRets > 1) out.returnsFresh = false;
  });
  return out;
}

} // namespace

SummaryMap summarizeModule(const ir::Module& m) {
  SummaryMap sums;
  for (const auto& f : m.functions) {
    if (!f) continue;
    FnSummary init;
    init.borrowedParams.assign(f->numParams, false);
    init.returnsFresh = false;
    sums[f->name] = init;
  }
  // Improve monotonically from the conservative bottom; recursion settles
  // wherever it can still be proved without assuming itself.
  for (size_t round = 0; round <= m.functions.size() + 1; ++round) {
    bool changed = false;
    for (const auto& f : m.functions) {
      if (!f) continue;
      FnSummary next = summarizeFunction(*f, sums);
      FnSummary& cur = sums[f->name];
      if (next.borrowedParams != cur.borrowedParams ||
          next.returnsFresh != cur.returnsFresh) {
        cur = next;
        changed = true;
      }
    }
    if (!changed) break;
  }
  return sums;
}

// ---------------------------------------------------------------------------
// Per-function forward uniqueness.

namespace {

/// Slots whose refcount the program may observe, flow-insensitively and
/// closed over handle aliasing. A slot in this set is never unique: a
/// rewrite that changed its buffer's refcount would change what
/// refCount()/rcLive() print.
SlotSet observedSlots(const ir::Function& f, const SummaryMap& sums) {
  std::vector<bool> seed(f.locals.size(), false);
  forEachStmt(*f.body, [&](const ir::Stmt& s) {
    forEachStmtExpr(s, [&](const ir::Expr& root) {
      forEachExpr(root, [&](const ir::Expr& x) {
        if (x.k != ir::Expr::K::Call ||
            !ir::builtinInfo(x.builtin).observesRefcount)
          return;
        for (const auto& a : x.args)
          if (a && isMatVar(*a)) seed[a->slot] = true;
      });
    });
    if (s.k == ir::Stmt::K::CallAssign) {
      // A callee that keeps (or observes) an argument makes its refcount
      // observable beyond this function's control.
      const FnSummary* sum = lookupSummary(sums, s.callee);
      for (size_t i = 0; i < s.exprs.size(); ++i) {
        const auto& a = s.exprs[i];
        if (!a || !isMatVar(*a)) continue;
        bool borrowed = sum && i < sum->borrowedParams.size() &&
                        sum->borrowedParams[i];
        if (!borrowed) seed[a->slot] = true;
      }
    }
  });

  // Close over aliasing in both directions: observation of either end of a
  // handle copy taints the shared buffer.
  bool changed = true;
  while (changed) {
    changed = false;
    forEachStmt(*f.body, [&](const ir::Stmt& s) {
      auto link = [&](int32_t a, int32_t b) {
        if (a < 0 || b < 0) return;
        bool v = seed[a] || seed[b];
        if (v && !seed[a]) seed[a] = changed = true;
        if (v && !seed[b]) seed[b] = changed = true;
      };
      if (s.k == ir::Stmt::K::Assign && f.locals[s.slot].ty == ir::Ty::Mat &&
          !s.exprs.empty() && s.exprs[0]) {
        const ir::Expr& e = *s.exprs[0];
        if (e.k == ir::Expr::K::Var) {
          link(s.slot, e.slot);
        } else if (!freshMatExpr(e)) {
          std::vector<int32_t> vars;
          collectMatVars(e, vars);
          for (int32_t v : vars) link(s.slot, v);
        }
      } else if (s.k == ir::Stmt::K::CallAssign) {
        const FnSummary* sum = lookupSummary(sums, s.callee);
        if (sum && sum->returnsFresh) return;
        for (int32_t d : s.dsts) {
          if (d < 0 || f.locals[d].ty != ir::Ty::Mat) continue;
          for (const auto& a : s.exprs)
            if (a && isMatVar(*a)) link(d, a->slot);
        }
      }
    });
  }

  SlotSet out(f.locals.size());
  for (size_t i = 0; i < seed.size(); ++i)
    if (seed[i]) out.set(static_cast<int32_t>(i));
  return out;
}

struct UniqueTransfer {
  using State = SlotSet;

  const ir::Function& f;
  const SummaryMap& sums;
  const Liveness& live;
  Uniqueness& out;

  State copy(const State& s) { return s; }
  bool join(State& a, const State& b) { return a.intersectWith(b); }

  void record(const ir::Stmt& s, const State& st) {
    auto it = out.uniqueBefore.find(&s);
    if (it == out.uniqueBefore.end())
      out.uniqueBefore.emplace(&s, st);
    else
      it->second.intersectWith(st);
  }

  void transfer(const ir::Stmt& s, State& st) {
    record(s, st);
    // Calls evaluated by this statement may capture or observe Mat args.
    forEachStmtExpr(s, [&](const ir::Expr& root) {
      forEachExpr(root, [&](const ir::Expr& x) {
        if (x.k != ir::Expr::K::Call || ir::builtinInfo(x.builtin).borrowsArgs)
          return;
        for (const auto& a : x.args)
          if (a && isMatVar(*a)) st.set(a->slot, false);
      });
    });
    switch (s.k) {
      case ir::Stmt::K::Assign: {
        if (f.locals[s.slot].ty != ir::Ty::Mat) break;
        const ir::Expr& e = *s.exprs[0];
        bool u = false;
        if (e.k == ir::Expr::K::Var) {
          // A handle copy transfers uniqueness only when the source handle
          // is dead afterwards (the `A = %wres` closing a with-loop);
          // otherwise two live handles share the buffer.
          u = st.get(e.slot) && !live.isLiveAfter(&s, e.slot);
          st.set(e.slot, false);
        } else {
          u = freshMatExpr(e);
        }
        st.set(s.slot, u && !out.observed.get(s.slot));
        break;
      }
      case ir::Stmt::K::CallAssign: {
        const FnSummary* sum = lookupSummary(sums, s.callee);
        for (size_t i = 0; i < s.exprs.size(); ++i) {
          const auto& a = s.exprs[i];
          if (!a || !isMatVar(*a)) continue;
          bool borrowed = sum && i < sum->borrowedParams.size() &&
                          sum->borrowedParams[i];
          if (!borrowed) st.set(a->slot, false);
        }
        for (int32_t d : s.dsts)
          if (d >= 0 && f.locals[d].ty == ir::Ty::Mat)
            st.set(d, sum && sum->returnsFresh && !out.observed.get(d));
        break;
      }
      default:
        // StoreFlat/IndexStore mutate the buffer, not the handle count.
        break;
    }
  }
};

} // namespace

Uniqueness analyzeUniqueness(const ir::Function& f, const SummaryMap& sums,
                             const Liveness& live) {
  Uniqueness out;
  out.observed = SlotSet(f.locals.size());
  if (!f.body) return out;
  out.observed = observedSlots(f, sums);
  UniqueTransfer t{f, sums, live, out};
  ForwardEngine<UniqueTransfer> fwd(t);
  // Parameters enter shared with the caller: nothing is unique on entry.
  fwd.run(*f.body, SlotSet(f.locals.size()));
  return out;
}

} // namespace mmx::analysis
