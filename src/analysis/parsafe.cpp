#include "analysis/parsafe.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "analysis/constprop.hpp"
#include "analysis/dataflow.hpp"
#include "support/metrics.hpp"

// Implementation notes — the documented approximations
// ----------------------------------------------------
// The pass is a conservative race detector with two deliberate, documented
// assumptions that match the code the lowering emits:
//
//  (1) Symbolic strides are assumed nonzero. A flat index `i*s + j` with a
//      loop-invariant `s` (usually a shape temp) is accepted as
//      distributing; constant strides that fold to 0 are rejected. The
//      invariant remainder (`j`, an inner loop variable) is assumed to
//      range below the stride — true for the row-major offsets genarray
//      and split/tile emit, where the stride *is* the inner extent.
//
//  (2) The mixed-radix "digit cover" rule: an IndexStore whose scalar
//      selectors are the digits `t % d0`, `(t/d0) % d1`, ... at distinct,
//      contiguous chain levels is accepted, assuming the loop range does
//      not exceed the product of the radices — true for matrixMap, which
//      derives the trip count from the same dimSize() products.
//
// Control dependence on the loop variable is not tracked: a scalar that
// takes different branch-assigned values per iteration joins to
// "invariant unknown". This cannot mis-approve a store (invariant store
// indexes are rejected as same-cell races anyway); it only affects the
// invariant-remainder part of assumption (1).

namespace mmx::analysis {

namespace {

// ---------------------------------------------------------------------------
// Symbolic per-iteration values.

struct SymVal {
  enum class K : uint8_t {
    Unknown,  // arbitrary, possibly iteration-dependent
    Inv,      // invariant across iterations; cv may pin a constant
    IVar,     // the analyzed loop's variable
    Affine,   // ivar*coef + invariant (coefKnown ? coef : symbolic nonzero)
    RemChain, // ivar / r1 / ... / r_level
    Digit,    // (ivar / r1 .. r_level) % m — mixed-radix digit
    FreshMat, // matrix allocated within the current iteration
  };

  K k = K::Unknown;
  ConstVal cv;
  bool coefKnown = false;
  int64_t coef = 0;
  int level = 0;

  static SymVal unknown() { return {}; }
  static SymVal inv(ConstVal c = {}) {
    SymVal v;
    v.k = K::Inv;
    v.cv = c;
    return v;
  }
  static SymVal ivar() {
    SymVal v;
    v.k = K::IVar;
    return v;
  }
  static SymVal affineKnown(int64_t c) {
    if (c == 0) return inv();
    SymVal v;
    v.k = K::Affine;
    v.coefKnown = true;
    v.coef = c;
    return v;
  }
  static SymVal affineSym() {
    SymVal v;
    v.k = K::Affine;
    return v;
  }
  static SymVal remChain(int l) {
    SymVal v;
    v.k = K::RemChain;
    v.level = l;
    return v;
  }
  static SymVal digit(int l) {
    SymVal v;
    v.k = K::Digit;
    v.level = l;
    return v;
  }
  static SymVal fresh() {
    SymVal v;
    v.k = K::FreshMat;
    return v;
  }

  friend bool operator==(const SymVal& a, const SymVal& b) {
    return a.k == b.k && a.cv == b.cv && a.coefKnown == b.coefKnown &&
           a.coef == b.coef && a.level == b.level;
  }
};

/// Index values that provably differ across iterations.
bool distributes(const SymVal& v) {
  return v.k == SymVal::K::IVar || v.k == SymVal::K::Affine;
}

ConstVal foldArith(ir::ArithOp op, const ConstVal& a, const ConstVal& b) {
  if (!a.isInt() || !b.isInt()) return ConstVal::unknown();
  switch (op) {
    case ir::ArithOp::Add: return ConstVal::intVal(a.i + b.i);
    case ir::ArithOp::Sub: return ConstVal::intVal(a.i - b.i);
    case ir::ArithOp::Mul:
    case ir::ArithOp::EwMul: return ConstVal::intVal(a.i * b.i);
    case ir::ArithOp::Div:
      return b.i ? ConstVal::intVal(a.i / b.i) : ConstVal::unknown();
    case ir::ArithOp::Mod:
      return b.i ? ConstVal::intVal(a.i % b.i) : ConstVal::unknown();
    case ir::ArithOp::Min: return ConstVal::intVal(std::min(a.i, b.i));
    case ir::ArithOp::Max: return ConstVal::intVal(std::max(a.i, b.i));
  }
  return ConstVal::unknown();
}

SymVal combineArith(ir::ArithOp op, SymVal a, SymVal b, ir::Ty ty) {
  using K = SymVal::K;
  if (ty == ir::Ty::Mat) return SymVal::fresh(); // elementwise ops allocate
  if (a.k == K::Unknown || b.k == K::Unknown) return SymVal::unknown();
  if (a.k == K::FreshMat || b.k == K::FreshMat) return SymVal::unknown();

  auto indexish = [](const SymVal& v) {
    return v.k == K::IVar || v.k == K::Affine;
  };
  auto asAffine = [](const SymVal& v) {
    return v.k == K::IVar ? SymVal::affineKnown(1) : v;
  };
  auto chainLevel = [](const SymVal& v) -> int {
    if (v.k == K::IVar) return 0;
    if (v.k == K::RemChain) return v.level;
    return -1;
  };

  switch (op) {
    case ir::ArithOp::Add:
    case ir::ArithOp::Sub: {
      if (a.k == K::Inv && b.k == K::Inv)
        return SymVal::inv(foldArith(op, a.cv, b.cv));
      if (indexish(a) && b.k == K::Inv) return asAffine(a);
      if (a.k == K::Inv && indexish(b)) {
        SymVal r = asAffine(b);
        if (op == ir::ArithOp::Sub) {
          if (!r.coefKnown) return SymVal::affineSym();
          return SymVal::affineKnown(-r.coef);
        }
        return r;
      }
      if (indexish(a) && indexish(b)) {
        SymVal ra = asAffine(a), rb = asAffine(b);
        if (!ra.coefKnown || !rb.coefKnown) return SymVal::unknown();
        int64_t c = op == ir::ArithOp::Add ? ra.coef + rb.coef
                                           : ra.coef - rb.coef;
        return SymVal::affineKnown(c);
      }
      return SymVal::unknown();
    }
    case ir::ArithOp::Mul:
    case ir::ArithOp::EwMul: {
      if (a.k == K::Inv && b.k == K::Inv)
        return SymVal::inv(foldArith(op, a.cv, b.cv));
      // Normalize to indexish * invariant.
      if (a.k == K::Inv && indexish(b)) std::swap(a, b);
      if (indexish(a) && b.k == K::Inv) {
        SymVal ra = asAffine(a);
        if (b.cv.isInt()) {
          if (b.cv.i == 0) return SymVal::inv(ConstVal::intVal(0));
          if (ra.coefKnown) return SymVal::affineKnown(ra.coef * b.cv.i);
        }
        return SymVal::affineSym(); // symbolic stride, assumed nonzero
      }
      return SymVal::unknown();
    }
    case ir::ArithOp::Div: {
      if (a.k == K::Inv && b.k == K::Inv)
        return SymVal::inv(foldArith(op, a.cv, b.cv));
      int l = chainLevel(a);
      if (l >= 0 && b.k == K::Inv) {
        if (b.cv.isInt() && b.cv.i == 1) return a; // x / 1 == x
        if (b.cv.isInt() && b.cv.i <= 0) return SymVal::unknown();
        return SymVal::remChain(l + 1);
      }
      return SymVal::unknown();
    }
    case ir::ArithOp::Mod: {
      if (a.k == K::Inv && b.k == K::Inv)
        return SymVal::inv(foldArith(op, a.cv, b.cv));
      int l = chainLevel(a);
      if (l >= 0 && b.k == K::Inv) {
        if (b.cv.isInt() && b.cv.i == 1)
          return SymVal::inv(ConstVal::intVal(0));
        if (b.cv.isInt() && b.cv.i <= 0) return SymVal::unknown();
        return SymVal::digit(l);
      }
      return SymVal::unknown();
    }
    case ir::ArithOp::Min:
    case ir::ArithOp::Max: {
      if (a.k == K::Inv && b.k == K::Inv)
        return SymVal::inv(foldArith(op, a.cv, b.cv));
      return SymVal::unknown();
    }
  }
  return SymVal::unknown();
}

// ---------------------------------------------------------------------------
// Per-iteration effects collected during the symbolic walk.

struct MatAccess {
  std::vector<const ir::Expr*> flatWrites; // StoreFlat indexes
  std::vector<const ir::Stmt*> idxWrites;  // IndexStore statements
  std::vector<const ir::Expr*> flatReads;  // LoadFlat indexes
  bool wholeRead = false;                  // slice/arith/call element read
};

struct Effects {
  std::map<int32_t, MatAccess> mat; // shared matrices touched by the body
  std::vector<std::string> reasons;
  std::set<std::string> seen;
  std::set<int32_t> badVars;

  void reason(std::string r, int32_t slot = -1) {
    if (seen.insert(r).second) reasons.push_back(std::move(r));
    if (slot >= 0) badVars.insert(slot);
  }
};

std::string varName(const ir::Function& f, int32_t slot) {
  if (slot >= 0 && static_cast<size_t>(slot) < f.locals.size())
    return f.locals[slot].name;
  return "<slot " + std::to_string(slot) + ">";
}

// ---------------------------------------------------------------------------
// The symbolic walk, phrased as a ForwardEngine policy.

struct SymTransfer {
  using State = std::vector<SymVal>;

  const ir::Function& f;
  const ir::Module& mod;
  const std::map<const ir::Function*, FnSummary>& sums;
  Effects& eff;

  State copy(const State& s) { return s; }

  bool join(State& a, const State& b) {
    bool changed = false;
    for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
      if (a[i] == b[i]) continue;
      // Two fresh matrices from different paths are still iteration-
      // private; anything else degrades to unknown.
      SymVal m = (a[i].k == SymVal::K::FreshMat &&
                  b[i].k == SymVal::K::FreshMat)
                     ? SymVal::fresh()
                     : SymVal::unknown();
      if (!(a[i] == m)) a[i] = m, changed = true;
    }
    return changed;
  }

  bool shared(const State& st, int32_t slot) const {
    if (slot < 0 || static_cast<size_t>(slot) >= st.size()) return true;
    return st[slot].k != SymVal::K::FreshMat;
  }

  SymVal eval(const ir::Expr& e, const State& st) const {
    switch (e.k) {
      case ir::Expr::K::ConstI: return SymVal::inv(ConstVal::intVal(e.i));
      case ir::Expr::K::ConstB: return SymVal::inv(ConstVal::intVal(e.i));
      case ir::Expr::K::ConstF:
      case ir::Expr::K::ConstS: return SymVal::inv();
      case ir::Expr::K::Var:
        if (e.slot >= 0 && static_cast<size_t>(e.slot) < st.size())
          return st[e.slot];
        return SymVal::unknown();
      case ir::Expr::K::Arith:
        return combineArith(e.aop, eval(*e.args[0], st), eval(*e.args[1], st),
                            e.ty);
      case ir::Expr::K::Neg: {
        SymVal a = eval(*e.args[0], st);
        if (a.k == SymVal::K::Inv)
          return SymVal::inv(a.cv.isInt() ? ConstVal::intVal(-a.cv.i)
                                          : ConstVal::unknown());
        if (a.k == SymVal::K::IVar) return SymVal::affineKnown(-1);
        if (a.k == SymVal::K::Affine)
          return a.coefKnown ? SymVal::affineKnown(-a.coef)
                             : SymVal::affineSym();
        return SymVal::unknown();
      }
      case ir::Expr::K::Cast: {
        SymVal a = eval(*e.args[0], st);
        if (a.k != SymVal::K::Inv) return SymVal::unknown();
        return SymVal::inv(e.ty == ir::Ty::I32 && a.cv.isInt()
                               ? a.cv
                               : ConstVal::unknown());
      }
      case ir::Expr::K::Cmp:
      case ir::Expr::K::Logic:
      case ir::Expr::K::Not: {
        for (const auto& a : e.args)
          if (a && !(eval(*a, st).k == SymVal::K::Inv))
            return SymVal::unknown();
        return SymVal::inv();
      }
      case ir::Expr::K::Call: {
        const ir::BuiltinInfo& bi = ir::builtinInfo(e.builtin);
        if (bi.aliasArg0 && !e.args.empty()) return eval(*e.args[0], st);
        if (bi.io) return SymVal::unknown();
        if (e.ty == ir::Ty::Mat) return SymVal::fresh();
        for (const auto& a : e.args)
          if (a && !(eval(*a, st).k == SymVal::K::Inv))
            return SymVal::unknown();
        return SymVal::inv();
      }
      case ir::Expr::K::Index:
      case ir::Expr::K::RangeLit:
        return e.ty == ir::Ty::Mat ? SymVal::fresh() : SymVal::unknown();
      case ir::Expr::K::DimSize: {
        // The shape of a matrix that predates the loop never changes
        // (stores mutate elements, not metadata).
        const ir::Expr& m = *e.args[0];
        if (m.k == ir::Expr::K::Var && m.slot >= 0 &&
            static_cast<size_t>(m.slot) < st.size() &&
            st[m.slot].k == SymVal::K::Inv) {
          SymVal d = eval(*e.args[1], st);
          if (d.k == SymVal::K::Inv && d.cv.isInt())
            return SymVal::inv(
                ConstVal::shape(m.slot, static_cast<int32_t>(d.cv.i)));
          return SymVal::inv();
        }
        return SymVal::unknown();
      }
      case ir::Expr::K::LoadFlat:
      default: return SymVal::unknown();
    }
  }

  // Records element reads of shared matrices (and IO) inside `e`.
  void scanReads(const ir::Expr& e, const State& st) {
    switch (e.k) {
      case ir::Expr::K::Var:
        if (e.ty == ir::Ty::Mat && shared(st, e.slot))
          eff.mat[e.slot].wholeRead = true;
        return;
      case ir::Expr::K::LoadFlat: {
        const ir::Expr& base = *e.args[0];
        scanReads(*e.args[1], st);
        if (base.k == ir::Expr::K::Var && base.ty == ir::Ty::Mat) {
          if (shared(st, base.slot))
            eff.mat[base.slot].flatReads.push_back(e.args[1].get());
        } else {
          scanReads(base, st);
        }
        return;
      }
      case ir::Expr::K::DimSize:
        // Metadata read only; the base matrix's elements are untouched.
        if (e.args[0]->k != ir::Expr::K::Var) scanReads(*e.args[0], st);
        scanReads(*e.args[1], st);
        return;
      case ir::Expr::K::Call: {
        const ir::BuiltinInfo& bi = ir::builtinInfo(e.builtin);
        if (bi.io)
          eff.reason("the body calls '" + std::string(bi.name) +
                     "', which performs IO");
        for (const auto& a : e.args) {
          if (a->k == ir::Expr::K::Var && a->ty == ir::Ty::Mat) {
            if (!bi.metaOnly && shared(st, a->slot))
              eff.mat[a->slot].wholeRead = true;
          } else {
            scanReads(*a, st);
          }
        }
        return;
      }
      default:
        for (const auto& a : e.args)
          if (a) scanReads(*a, st);
        for (const auto& d : e.dims) {
          if (d.a) scanReads(*d.a, st);
          if (d.b) scanReads(*d.b, st);
        }
        return;
    }
  }

  void checkIndexStoreDistributes(const ir::Stmt& s, const State& st) {
    bool ok = false;
    std::vector<int> digitLevels;
    int remLevel = -1;
    bool multiRem = false;
    for (const auto& d : s.dims) {
      if (d.kind != ir::IndexDim::Kind::Scalar || !d.a) continue;
      SymVal v = eval(*d.a, st);
      if (distributes(v)) ok = true;
      else if (v.k == SymVal::K::Digit) digitLevels.push_back(v.level);
      else if (v.k == SymVal::K::RemChain) {
        if (remLevel >= 0) multiRem = true;
        remLevel = v.level;
      }
    }
    if (!ok && !multiRem && (!digitLevels.empty() || remLevel >= 0)) {
      // Mixed-radix digit cover: distinct levels, contiguous from 0, with
      // an optional single remainder chain as the most significant digit.
      std::sort(digitLevels.begin(), digitLevels.end());
      bool contiguous = true;
      for (size_t i = 0; i < digitLevels.size(); ++i)
        if (digitLevels[i] != static_cast<int>(i)) contiguous = false;
      int top = static_cast<int>(digitLevels.size());
      if (contiguous &&
          (remLevel < 0 ? !digitLevels.empty() : remLevel == top))
        ok = true;
    }
    if (!ok)
      eff.reason("cannot prove stores to matrix '" + varName(f, s.slot) +
                     "' write disjoint regions in distinct iterations",
                 s.slot);
  }

  void transfer(const ir::Stmt& s, State& st) {
    for (const auto& e : s.exprs)
      if (e) scanReads(*e, st);
    for (const auto& d : s.dims) {
      if (d.a) scanReads(*d.a, st);
      if (d.b) scanReads(*d.b, st);
    }

    switch (s.k) {
      case ir::Stmt::K::Assign:
        if (s.slot >= 0 && static_cast<size_t>(s.slot) < st.size())
          st[s.slot] = eval(*s.exprs[0], st);
        break;
      case ir::Stmt::K::StoreFlat: {
        if (!shared(st, s.slot)) break;
        eff.mat[s.slot].flatWrites.push_back(s.exprs[0].get());
        SymVal idx = eval(*s.exprs[0], st);
        if (!distributes(idx)) {
          if (idx.k == SymVal::K::Inv)
            eff.reason("every iteration stores to the same element of "
                       "matrix '" +
                           varName(f, s.slot) + "'",
                       s.slot);
          else
            eff.reason("cannot prove stores to matrix '" +
                           varName(f, s.slot) +
                           "' hit distinct elements in distinct iterations",
                       s.slot);
        }
        break;
      }
      case ir::Stmt::K::IndexStore:
        if (!shared(st, s.slot)) break;
        eff.mat[s.slot].idxWrites.push_back(&s);
        checkIndexStoreDistributes(s, st);
        break;
      case ir::Stmt::K::For:
        // An inner loop variable spans the same range in every iteration
        // of the analyzed loop: invariant for distribution purposes.
        if (s.slot >= 0 && static_cast<size_t>(s.slot) < st.size())
          st[s.slot] = SymVal::inv();
        break;
      case ir::Stmt::K::CallAssign: {
        const ir::Function* callee = mod.find(s.callee);
        const FnSummary* cs = nullptr;
        if (callee) {
          auto it = sums.find(callee);
          if (it != sums.end()) cs = &it->second;
        }
        if (!cs)
          eff.reason("the body calls '" + s.callee +
                     "', whose effects are unknown");
        else if (cs->hasIO)
          eff.reason("the body calls '" + s.callee +
                     "', which performs IO");
        bool retAliasesShared = false;
        for (size_t j = 0; j < s.exprs.size(); ++j) {
          const ir::Expr& a = *s.exprs[j];
          if (a.k != ir::Expr::K::Var || a.ty != ir::Ty::Mat) continue;
          bool sh = shared(st, a.slot);
          if (sh && (!cs || (j < cs->writesParam.size() &&
                             cs->writesParam[j])))
            eff.reason("matrix '" + varName(f, a.slot) +
                           "' may be written through the call to '" +
                           s.callee + "'",
                       a.slot);
          if (sh && (!cs || (j < cs->retMayAliasParam.size() &&
                             cs->retMayAliasParam[j])))
            retAliasesShared = true;
        }
        for (int32_t d : s.dsts) {
          if (d < 0 || static_cast<size_t>(d) >= st.size()) continue;
          if (f.locals[d].ty == ir::Ty::Mat)
            st[d] = retAliasesShared ? SymVal::unknown() : SymVal::fresh();
          else
            st[d] = SymVal::unknown();
        }
        break;
      }
      default: break;
    }
  }
};

// ---------------------------------------------------------------------------
// Definite-assignment within one iteration: flags reads of body-written
// locals that may still hold the previous iteration's value.

struct DefAssignTransfer {
  using State = SlotSet;

  const std::set<int32_t>& bodyWritten;
  std::set<int32_t> exposed; // upward-exposed (loop-carried) reads

  State copy(const State& s) { return s; }
  bool join(State& a, const State& b) { return a.intersectWith(b); }

  void transfer(const ir::Stmt& s, State& st) {
    for (int32_t r : readSlots(s))
      if (bodyWritten.count(r) && !st.get(r)) exposed.insert(r);
    for (int32_t w : writtenSlots(s)) st.set(w);
  }
};

/// Break out of the analyzed loop / return from inside it.
void scanControl(const ir::Stmt& s, int depth, Effects& eff) {
  switch (s.k) {
    case ir::Stmt::K::Break:
      if (depth == 0) eff.reason("the body breaks out of the loop");
      return;
    case ir::Stmt::K::Ret:
      eff.reason("the body returns from inside the loop");
      return;
    case ir::Stmt::K::For:
    case ir::Stmt::K::While:
      for (const auto& k : s.kids)
        if (k) scanControl(*k, depth + 1, eff);
      return;
    default:
      for (const auto& k : s.kids)
        if (k) scanControl(*k, depth, eff);
      return;
  }
}

/// Does `root` (excluding the `skip` subtree) read any of `slots`?
void collectOutsideReads(const ir::Stmt& root, const ir::Stmt& skip,
                         std::set<int32_t>& reads) {
  if (&root == &skip) return;
  for (int32_t r : readSlots(root)) reads.insert(r);
  for (const auto& k : root.kids)
    if (k) collectOutsideReads(*k, skip, reads);
}

/// Checks the `acc = acc op e` pattern for `slot` over the loop body.
bool reductionPattern(const ir::Stmt& body, int32_t slot, ir::ArithOp& opOut) {
  int updates = 0;
  size_t totalReads = 0;
  bool ok = true, first = true;
  ir::ArithOp op{};
  forEachStmt(body, [&](const ir::Stmt& s) {
    forEachStmtExpr(s, [&](const ir::Expr& e) {
      if (e.k == ir::Expr::K::Var && e.slot == slot) ++totalReads;
    });
    auto ws = writtenSlots(s);
    if (std::find(ws.begin(), ws.end(), slot) == ws.end()) return;
    if (s.k != ir::Stmt::K::Assign) {
      ok = false;
      return;
    }
    const ir::Expr& rhs = *s.exprs[0];
    bool opOk = rhs.k == ir::Expr::K::Arith &&
                (rhs.aop == ir::ArithOp::Add || rhs.aop == ir::ArithOp::Mul ||
                 rhs.aop == ir::ArithOp::Min || rhs.aop == ir::ArithOp::Max);
    if (!opOk) {
      ok = false;
      return;
    }
    const ir::Expr& a = *rhs.args[0];
    const ir::Expr& b = *rhs.args[1];
    bool selfLeft = a.k == ir::Expr::K::Var && a.slot == slot &&
                    !exprReadsSlot(b, slot);
    bool selfRight = b.k == ir::Expr::K::Var && b.slot == slot &&
                     !exprReadsSlot(a, slot);
    if (!selfLeft && !selfRight) {
      ok = false;
      return;
    }
    if (first) op = rhs.aop, first = false;
    else if (op != rhs.aop) ok = false;
    ++updates;
  });
  if (!ok || updates == 0 || totalReads != static_cast<size_t>(updates))
    return false;
  opOut = op;
  return true;
}

FnSummary computeSummary(const ir::Module& m, const ir::Function& f,
                         const std::map<const ir::Function*, FnSummary>& sums) {
  FnSummary out;
  out.writesParam.assign(f.numParams, false);
  out.retMayAliasParam.assign(f.numParams, false);
  if (!f.body) return out;

  size_t n = f.locals.size();
  std::vector<std::vector<bool>> alias(n, std::vector<bool>(f.numParams));
  for (size_t i = 0; i < f.numParams && i < n; ++i)
    if (f.locals[i].ty == ir::Ty::Mat) alias[i][i] = true;

  std::function<void(const ir::Expr&, std::vector<bool>&)> aliasOf =
      [&](const ir::Expr& e, std::vector<bool>& acc) {
        if (e.k == ir::Expr::K::Var) {
          if (e.slot >= 0 && static_cast<size_t>(e.slot) < n)
            for (size_t j = 0; j < f.numParams; ++j)
              if (alias[e.slot][j]) acc[j] = true;
          return;
        }
        if (e.k == ir::Expr::K::Call && ir::builtinInfo(e.builtin).aliasArg0 &&
            !e.args.empty())
          aliasOf(*e.args[0], acc);
        // Everything else evaluates to a fresh matrix or a scalar.
      };
  auto orInto = [](std::vector<bool>& into, const std::vector<bool>& from) {
    bool ch = false;
    for (size_t j = 0; j < into.size() && j < from.size(); ++j)
      if (from[j] && !into[j]) into[j] = ch = true;
    return ch;
  };

  // Flow-insensitive alias fixpoint over Mat-typed frame assignments.
  for (size_t pass = 0; pass < n + 2; ++pass) {
    bool changed = false;
    forEachStmt(*f.body, [&](const ir::Stmt& s) {
      if (s.k == ir::Stmt::K::Assign && s.slot >= 0 &&
          static_cast<size_t>(s.slot) < n &&
          f.locals[s.slot].ty == ir::Ty::Mat) {
        std::vector<bool> acc(f.numParams);
        aliasOf(*s.exprs[0], acc);
        changed |= orInto(alias[s.slot], acc);
      } else if (s.k == ir::Stmt::K::CallAssign) {
        const ir::Function* callee = m.find(s.callee);
        auto it = callee ? sums.find(callee) : sums.end();
        std::vector<bool> acc(f.numParams);
        for (size_t j = 0; j < s.exprs.size(); ++j) {
          bool mayAlias =
              it == sums.end() ||
              (j < it->second.retMayAliasParam.size() &&
               it->second.retMayAliasParam[j]);
          if (mayAlias && s.exprs[j]) aliasOf(*s.exprs[j], acc);
        }
        for (int32_t d : s.dsts)
          if (d >= 0 && static_cast<size_t>(d) < n &&
              f.locals[d].ty == ir::Ty::Mat)
            changed |= orInto(alias[d], acc);
      }
    });
    if (!changed) break;
  }

  forEachStmt(*f.body, [&](const ir::Stmt& s) {
    if (s.k == ir::Stmt::K::StoreFlat || s.k == ir::Stmt::K::IndexStore) {
      if (s.slot >= 0 && static_cast<size_t>(s.slot) < n)
        for (size_t j = 0; j < f.numParams; ++j)
          if (alias[s.slot][j]) out.writesParam[j] = true;
    } else if (s.k == ir::Stmt::K::CallAssign) {
      const ir::Function* callee = m.find(s.callee);
      auto it = callee ? sums.find(callee) : sums.end();
      if (it == sums.end() || it->second.hasIO) out.hasIO = true;
      for (size_t j = 0; j < s.exprs.size(); ++j) {
        bool writes = it == sums.end() ||
                      (j < it->second.writesParam.size() &&
                       it->second.writesParam[j]);
        if (!writes || !s.exprs[j]) continue;
        std::vector<bool> acc(f.numParams);
        aliasOf(*s.exprs[j], acc);
        for (size_t p = 0; p < f.numParams; ++p)
          if (acc[p]) out.writesParam[p] = true;
      }
    } else if (s.k == ir::Stmt::K::Ret) {
      for (const auto& e : s.exprs) {
        if (!e) continue;
        std::vector<bool> acc(f.numParams);
        aliasOf(*e, acc);
        orInto(out.retMayAliasParam, acc);
      }
    }
    forEachStmtExpr(s, [&](const ir::Expr& e) {
      if (e.k == ir::Expr::K::Call && ir::builtinInfo(e.builtin).io)
        out.hasIO = true;
    });
  });
  return out;
}

bool summaryEq(const FnSummary& a, const FnSummary& b) {
  return a.hasIO == b.hasIO && a.writesParam == b.writesParam &&
         a.retMayAliasParam == b.retMayAliasParam;
}

} // namespace

// ---------------------------------------------------------------------------

std::map<const ir::Function*, FnSummary> summarizeModule(const ir::Module& m) {
  std::map<const ir::Function*, FnSummary> sums;
  for (const auto& f : m.functions) {
    FnSummary s;
    s.writesParam.assign(f->numParams, false);
    s.retMayAliasParam.assign(f->numParams, false);
    sums[f.get()] = std::move(s);
  }
  // Optimistic start + monotone re-evaluation converges even through
  // recursion; the bound is a belt-and-braces guard.
  for (size_t pass = 0; pass < m.functions.size() + 2; ++pass) {
    bool changed = false;
    for (const auto& f : m.functions) {
      FnSummary next = computeSummary(m, *f, sums);
      if (!summaryEq(next, sums[f.get()])) {
        sums[f.get()] = std::move(next);
        changed = true;
      }
    }
    if (!changed) break;
  }
  return sums;
}

const char* loopClassName(LoopClass c) {
  switch (c) {
    case LoopClass::Safe: return "safe";
    case LoopClass::Reduction: return "reduction";
    case LoopClass::Unsafe: return "unsafe";
  }
  return "?";
}

struct ParSafe::FnCtx {
  ConstShapeProp cp;
  explicit FnCtx(const ir::Function& f) : cp(f) {}
};

ParSafe::ParSafe(const ir::Module& m)
    : mod_(m), summaries_(summarizeModule(m)) {}

ParSafe::~ParSafe() = default;

const ParSafe::FnCtx& ParSafe::ctx(const ir::Function& f) const {
  auto& p = ctx_[&f];
  if (!p) p = std::make_unique<FnCtx>(f);
  return *p;
}

LoopFinding ParSafe::classifyLoop(const ir::Function& f,
                                  const ir::Stmt& loop) const {
  LoopFinding out;
  out.loop = &loop;
  out.fn = &f;
  if (loop.k != ir::Stmt::K::For || loop.kids.empty() || !loop.kids[0]) {
    out.cls = LoopClass::Unsafe;
    out.detail = "not a for loop";
    return out;
  }
  const ir::Stmt& body = *loop.kids[0];

  const ConstEnv* base = ctx(f).cp.atLoop(&loop);
  ConstEnv fallback;
  if (!base) {
    fallback.assign(f.locals.size(), ConstVal::unknown());
    base = &fallback;
  }

  // Trivial trip counts cannot race.
  ConstVal lo = evalConst(*loop.exprs[0], *base);
  ConstVal hi = evalConst(*loop.exprs[1], *base);
  if (lo.isInt() && hi.isInt() && hi.i - lo.i <= 1) {
    out.cls = LoopClass::Safe;
    out.detail = "at most one iteration";
    return out;
  }

  Effects eff;
  scanControl(body, 0, eff);

  // Symbolic walk: matrix effects + index distribution.
  SymTransfer sym{f, mod_, summaries_, eff};
  SymTransfer::State init(f.locals.size());
  for (size_t i = 0; i < f.locals.size(); ++i)
    init[i] = f.locals[i].ty == ir::Ty::Mat ? SymVal::inv()
                                            : SymVal::inv((*base)[i]);
  if (loop.slot >= 0 && static_cast<size_t>(loop.slot) < init.size())
    init[loop.slot] = SymVal::ivar();
  ForwardEngine<SymTransfer> symEngine(sym);
  symEngine.run(body, std::move(init));

  // Frame slots the body writes.
  std::set<int32_t> bodyWritten;
  forEachStmt(body, [&](const ir::Stmt& s) {
    for (int32_t w : writtenSlots(s)) bodyWritten.insert(w);
  });
  if (bodyWritten.count(loop.slot)) {
    eff.reason("the loop variable '" + varName(f, loop.slot) +
                   "' is modified in the body",
               loop.slot);
    bodyWritten.erase(loop.slot);
  }

  // Upward-exposed reads: a read of a body-written slot before the body
  // writes it sees the previous iteration's value.
  DefAssignTransfer da{bodyWritten, {}};
  ForwardEngine<DefAssignTransfer> daEngine(da);
  SlotSet daInit(f.locals.size());
  daInit.set(loop.slot);
  daEngine.run(body, std::move(daInit));

  // Reads after the loop (last-value dependences; the interpreter's
  // parallel-for gives workers private frames, so those writes are lost).
  std::set<int32_t> outsideReads;
  if (f.body) collectOutsideReads(*f.body, loop, outsideReads);

  std::vector<std::pair<int32_t, ir::ArithOp>> reductions;
  for (int32_t slot : da.exposed) {
    ir::Ty ty = slot >= 0 && static_cast<size_t>(slot) < f.locals.size()
                    ? f.locals[slot].ty
                    : ir::Ty::Void;
    ir::ArithOp op{};
    if ((ty == ir::Ty::I32 || ty == ir::Ty::F32) &&
        reductionPattern(body, slot, op)) {
      reductions.push_back({slot, op});
      continue;
    }
    if (ty == ir::Ty::Mat)
      eff.reason("matrix variable '" + varName(f, slot) +
                     "' is rebound from the previous iteration",
                 slot);
    else
      eff.reason("scalar '" + varName(f, slot) +
                     "' is read before it is written — its value is "
                     "carried from the previous iteration",
                 slot);
  }

  std::set<int32_t> reductionSlots;
  for (auto& [slot, op] : reductions) reductionSlots.insert(slot);
  for (int32_t slot : bodyWritten) {
    if (da.exposed.count(slot) || reductionSlots.count(slot)) continue;
    if (outsideReads.count(slot))
      eff.reason("'" + varName(f, slot) +
                     "' is assigned in the loop and read after it; a "
                     "parallel schedule would lose the last iteration's "
                     "value",
                 slot);
  }
  if (outsideReads.count(loop.slot))
    eff.reason("the loop variable '" + varName(f, loop.slot) +
                   "' is read after the loop",
               loop.slot);

  // Matrix read/write interplay.
  for (auto& [slot, acc] : eff.mat) {
    bool hasWrite = !acc.flatWrites.empty() || !acc.idxWrites.empty();
    if (!hasWrite) continue;
    std::string nm = varName(f, slot);
    bool uniform = acc.flatWrites.empty() || acc.idxWrites.empty();
    for (size_t i = 1; uniform && i < acc.flatWrites.size(); ++i)
      uniform = exprEquals(*acc.flatWrites[0], *acc.flatWrites[i]);
    for (size_t i = 1; uniform && i < acc.idxWrites.size(); ++i)
      uniform = dimsEqual(acc.idxWrites[0]->dims, acc.idxWrites[i]->dims);
    if (!uniform)
      eff.reason("stores to matrix '" + nm +
                     "' at different indices may overlap across iterations",
                 slot);
    if (acc.wholeRead)
      eff.reason("matrix '" + nm + "' is both read and written in the loop",
                 slot);
    for (const ir::Expr* r : acc.flatReads) {
      bool sameCell = uniform && !acc.flatWrites.empty() &&
                      acc.idxWrites.empty() &&
                      exprEquals(*r, *acc.flatWrites[0]);
      if (!sameCell) {
        eff.reason("matrix '" + nm +
                       "' is read at an index that may overlap another "
                       "iteration's store",
                   slot);
        break;
      }
    }
  }

  if (!eff.reasons.empty()) {
    out.cls = LoopClass::Unsafe;
    std::string d;
    for (const auto& r : eff.reasons) {
      if (!d.empty()) d += "; ";
      d += r;
    }
    out.detail = std::move(d);
    out.vars.assign(eff.badVars.begin(), eff.badVars.end());
    return out;
  }
  if (!reductions.empty()) {
    out.cls = LoopClass::Reduction;
    std::string d;
    for (auto& [slot, op] : reductions) {
      if (!d.empty()) d += "; ";
      d += "reduction into '" + varName(f, slot) + "' (" +
           ir::arithName(op) + ")";
      out.vars.push_back(slot);
    }
    out.detail = std::move(d);
    return out;
  }
  out.cls = LoopClass::Safe;
  return out;
}

std::vector<LoopFinding> ParSafe::analyzeAll() const {
  std::vector<LoopFinding> out;
  for (const auto& f : mod_.functions) {
    if (!f->body) continue;
    forEachStmt(*f->body, [&](const ir::Stmt& s) {
      if (s.k == ir::Stmt::K::For) out.push_back(classifyLoop(*f, s));
    });
  }
  return out;
}

std::vector<LoopFinding> enforceParallelSafety(ir::Module& m,
                                               DiagnosticEngine& diags,
                                               const ParSafeOptions& opts) {
  ParSafe ps(m);
  std::vector<LoopFinding> demoted;
  uint64_t checked = 0;
  for (const auto& f : m.functions) {
    if (!f->body) continue;
    forEachStmt(*f->body, [&](ir::Stmt& s) {
      if (s.k != ir::Stmt::K::For || !s.parallel) return;
      // Autopar promotions carry a dependence-analysis proof; this pass's
      // coarser exact-read-match test would wrongly demote them.
      if (s.parSrc == ir::Stmt::Par::Proven) return;
      ++checked;
      LoopFinding lf = ps.classifyLoop(*f, s);
      if (lf.cls == LoopClass::Safe) return;

      s.parallel = false; // never execute a racy schedule
      bool explicitReq = s.parSrc == ir::Stmt::Par::Explicit;
      std::string ln =
          s.loopName.empty() ? "loop" : "loop '" + s.loopName + "'";
      std::string msg =
          (explicitReq ? "cannot parallelize " : "not auto-parallelizing ") +
          ln + ": " + lf.detail + "; the loop runs serially";
      if (explicitReq) {
        if (opts.strictParallel)
          diags.error(s.range, msg);
        else
          diags.warning(s.range, msg);
      } else if (opts.warnParallel) {
        diags.warning(s.range, msg);
      }
      demoted.push_back(std::move(lf));
    });
  }
  if (metrics::enabled()) {
    metrics::counter("parallel.checked").add(checked);
    metrics::counter("parallel.demoted").add(demoted.size());
  }
  return demoted;
}

std::string renderAnalysis(const ir::Module& m,
                           const std::vector<LoopFinding>& findings) {
  std::ostringstream out;
  out << "parallel-safety analysis:\n";
  const ir::Function* cur = nullptr;
  bool any = false;
  for (const auto& lf : findings) {
    if (!lf.fn || !lf.loop) continue;
    any = true;
    if (lf.fn != cur) {
      cur = lf.fn;
      out << "  function " << cur->name << ":\n";
    }
    out << "    loop '"
        << (lf.loop->loopName.empty() ? "<anon>" : lf.loop->loopName) << "'";
    if (lf.loop->parallel) {
      if (lf.loop->parSrc == ir::Stmt::Par::Explicit)
        out << " [parallel, explicit]";
      else if (lf.loop->parSrc == ir::Stmt::Par::Proven)
        out << " [parallel, proven]";
      else
        out << " [parallel]";
    }
    out << ": " << loopClassName(lf.cls);
    if (!lf.detail.empty()) out << " — " << lf.detail;
    out << '\n';
  }
  if (!any) out << "  (no loops)\n";
  (void)m;
  return out.str();
}

} // namespace mmx::analysis
