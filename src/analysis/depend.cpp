#include "analysis/depend.hpp"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <tuple>

#include "analysis/dataflow.hpp"

// Implementation notes — the documented approximations
// ----------------------------------------------------
// Index expressions are polynomials over interned loop-invariant atoms
// plus loop-variable terms. Two access polynomials may collide iff the
// dependence equation  Σ C_L·d_L (+ aux terms) = Δ  has an integer
// solution within the loop bounds; the solver groups terms by atom
// monomial and peels levels top-down, which is exact for the row-major
// offsets the lowering emits. Deliberate, documented assumptions:
//
//  (1) Atoms are >= 1. Atoms stand for matrix extents, strides, and
//      trip bounds; zero/negative extents make the nest empty, so any
//      answer is vacuously safe. Mirrors parsafe's assumption that
//      symbolic strides are nonzero.
//
//  (2) Distinct incoming matrix handles do not alias. Parameters and
//      pre-nest locals get distinct roots; copies propagate roots and
//      fresh allocations mint new ones. Mirrors parsafe's call-summary
//      treatment of parameters.
//
//  (3) Same-iteration (distance-zero) pairs are ignored: every clause
//      the verifier checks permutes or partitions loop iterations but
//      preserves the statement order within one iteration.
//
// Everything that falls outside the model — non-affine indexes, slots
// with multiple reaching definitions, accesses under While loops, calls
// without analyzable summaries — degrades to "unknown" vectors, never to
// silence.

namespace mmx::analysis {

namespace {

// ---------------------------------------------------------------------------
// Atoms and polynomials.

struct AtomInfo {
  enum class K : uint8_t {
    Opaque,    // nest-invariant local slot (single value during the nest)
    Dim,       // dimSize(root, dim) of a matrix root
    Param,     // scalar parameter (call-summary domain)
    ParamDim,  // dimSize(param, dim) (call-summary domain)
  };
  K k = K::Opaque;
  int a = -1;  // slot / root / param index
  int b = -1;  // dim
};

using Mono = std::vector<int>;  // sorted multiset of atom ids

struct PKey {
  int loop = -1;  // loop id, or -1 for loop-free terms
  Mono m;
  bool operator<(const PKey& o) const {
    if (loop != o.loop) return loop < o.loop;
    return m < o.m;
  }
  bool operator==(const PKey& o) const { return loop == o.loop && m == o.m; }
};

constexpr long long kCoeffCap = 1LL << 45;
constexpr size_t kMonoDegreeCap = 4;

struct Poly {
  bool ok = true;
  std::map<PKey, long long> t;  // no zero coefficients stored

  static Poly bad() {
    Poly p;
    p.ok = false;
    return p;
  }
  static Poly cst(long long c) {
    Poly p;
    if (c) p.t[PKey{}] = c;
    return p;
  }
  static Poly unit(PKey k) {
    Poly p;
    p.t[std::move(k)] = 1;
    return p;
  }
  static Poly atom(int id) { return unit(PKey{-1, {id}}); }
  static Poly loopVar(int id) { return unit(PKey{id, {}}); }

  bool isConst(long long* v = nullptr) const {
    if (!ok) return false;
    if (t.empty()) {
      if (v) *v = 0;
      return true;
    }
    if (t.size() == 1 && t.begin()->first == PKey{}) {
      if (v) *v = t.begin()->second;
      return true;
    }
    return false;
  }
  bool hasLoop() const {
    for (auto& [k, c] : t)
      if (k.loop >= 0) return true;
    return false;
  }
  bool operator==(const Poly& o) const { return ok && o.ok && t == o.t; }
};

Poly add(const Poly& a, const Poly& b) {
  if (!a.ok || !b.ok) return Poly::bad();
  Poly r = a;
  for (auto& [k, c] : b.t) {
    long long& v = r.t[k];
    v += c;
    if (std::llabs(v) > kCoeffCap) return Poly::bad();
    if (v == 0) r.t.erase(k);
  }
  return r;
}

Poly mulC(const Poly& a, long long c) {
  if (!a.ok) return Poly::bad();
  Poly r;
  if (c == 0) return r;
  for (auto& [k, v] : a.t) {
    long long nv = v * c;
    if (std::llabs(nv) > kCoeffCap) return Poly::bad();
    r.t[k] = nv;
  }
  return r;
}

Poly sub(const Poly& a, const Poly& b) { return add(a, mulC(b, -1)); }

Poly mul(const Poly& a, const Poly& b) {
  if (!a.ok || !b.ok) return Poly::bad();
  if (a.hasLoop() && b.hasLoop()) return Poly::bad();
  Poly r;
  for (auto& [ka, ca] : a.t)
    for (auto& [kb, cb] : b.t) {
      PKey k;
      k.loop = ka.loop >= 0 ? ka.loop : kb.loop;
      k.m = ka.m;
      k.m.insert(k.m.end(), kb.m.begin(), kb.m.end());
      std::sort(k.m.begin(), k.m.end());
      if (k.m.size() > kMonoDegreeCap) return Poly::bad();
      long long& v = r.t[k];
      v += ca * cb;
      if (std::llabs(v) > kCoeffCap) return Poly::bad();
      if (v == 0) r.t.erase(k);
    }
  return r;
}

/// Coefficient of loop `id` as a loop-free polynomial.
Poly coeffOf(const Poly& p, int id) {
  Poly r;
  for (auto& [k, c] : p.t)
    if (k.loop == id) r.t[PKey{-1, k.m}] = c;
  return r;
}

Poly loopFreePart(const Poly& p) {
  Poly r;
  for (auto& [k, c] : p.t)
    if (k.loop < 0) r.t[k] = c;
  return r;
}

Poly monoPoly(const Mono& m) { return Poly::unit(PKey{-1, m}); }

/// Proves p >= 1 for every valuation with atoms >= 1 (assumption (1)):
/// every non-constant coefficient must be >= 0, and the sum of all
/// coefficients (each monomial contributes at least its coefficient)
/// plus the constant must reach 1.
bool proveGE1(const Poly& p) {
  if (!p.ok || p.hasLoop()) return false;
  long long total = 0;
  for (auto& [k, c] : p.t) {
    if (!k.m.empty() && c < 0) return false;
    total += c;
  }
  return total >= 1;
}

/// a contains b as a multiset.
bool monoDivides(const Mono& b, const Mono& a) {
  return std::includes(a.begin(), a.end(), b.begin(), b.end());
}

// ---------------------------------------------------------------------------
// Call summaries: per-parameter affine access lists.

struct PAccess {
  int param = -1;
  bool write = false;
  Poly idx;  // over Param/ParamDim atoms only
};

struct PSummary {
  bool hasIO = false;
  std::vector<char> wholeRead, wholeWrite;  // per parameter
  std::vector<char> retMayAlias;            // per parameter
  std::vector<PAccess> accesses;
};

constexpr size_t kSummaryAccessCap = 16;

// ---------------------------------------------------------------------------
// A matrix access inside a nest.

struct Access {
  std::vector<int> chain;  // enclosing loop ids, outermost first
  std::set<int> roots;
  bool write = false;
  Poly idx;  // !ok => whole-matrix access
  std::string mat;
  SourceRange range;
};

struct LoopRec {
  const ir::Stmt* stmt = nullptr;
  int id = -1;
  Poly trip;  // upper bound on (hi - lo); bad when unknown
  bool haveConstTrip = false;
  long long constTrip = 0;
  bool haveLoConst = false;
  long long loConst = 0;
  // split-group: this loop's variable combines with groupOut's as
  // value = groupFactor * out + this, bounded by groupBound.
  int groupOut = -1;
  long long groupFactor = 0;
  Poly groupBound;
};

}  // namespace

// ---------------------------------------------------------------------------
// Impl: atom interner + summaries.

struct Depend::Impl {
  const ir::Module& mod;

  std::map<std::tuple<int, int, int>, int> atomIds;
  std::vector<AtomInfo> atoms;

  std::map<const ir::Function*, std::unique_ptr<PSummary>> summaries;
  std::set<const ir::Function*> inProgress;

  explicit Impl(const ir::Module& m) : mod(m) {}

  int atomId(AtomInfo::K k, int a, int b) {
    auto key = std::make_tuple(static_cast<int>(k), a, b);
    auto it = atomIds.find(key);
    if (it != atomIds.end()) return it->second;
    int id = static_cast<int>(atoms.size());
    atoms.push_back({k, a, b});
    atomIds.emplace(key, id);
    return id;
  }

  const PSummary* summaryFor(const ir::Function& f);
};

namespace {

// ---------------------------------------------------------------------------
// The access-collecting walker, shared by nest analysis (loop terms and
// chains tracked) and summary computation (param atoms, no loop terms).

struct Walker {
  Depend::Impl& D;
  const ir::Function& fn;
  bool summaryMode;
  PSummary* out = nullptr;  // summary mode sink

  // Nest-invariant resolution (nest mode).
  std::set<int32_t> writtenInNest;
  std::map<int32_t, int> writeCount;
  std::map<int32_t, const ir::Expr*> onlyRhs;
  std::set<int32_t> resolvableWrite;  // single write dominating the nest
  std::map<int32_t, Poly> invMemo;
  std::set<int32_t> resolving;
  bool seenNest = false;
  std::set<const ir::Stmt*> ancestors;  // stmts containing the nest
  const ir::Stmt* nest = nullptr;

  std::map<int32_t, Poly> env;
  std::map<int32_t, std::set<int>> roots;
  int freshRoot = 0;

  std::vector<LoopRec> stack;
  std::map<int, LoopRec> loopsById;
  std::vector<const ir::Stmt*> loopOrder;
  int nextLoopId = 0;

  std::vector<Access> accesses;
  bool hasIO = false;
  bool hasEscape = false;
  int whileDepth = 0;
  SourceRange curRange{};

  Walker(Depend::Impl& d, const ir::Function& f, bool summary)
      : D(d), fn(f), summaryMode(summary) {}

  // --- invariant pre-pass ------------------------------------------------

  void findAncestors(const ir::Stmt& st) {
    if (&st == nest) return;
    for (auto& k : st.kids)
      if (k) {
        if (k.get() == nest) {
          ancestors.insert(&st);
          return;
        }
        findAncestors(*k);
        if (ancestors.count(k.get())) {
          ancestors.insert(&st);
          return;
        }
      }
  }

  void bump(int32_t slot, const ir::Expr* rhs, bool resolvable) {
    int c = ++writeCount[slot];
    if (c == 1) {
      onlyRhs[slot] = rhs;
      if (resolvable && rhs) resolvableWrite.insert(slot);
    } else {
      onlyRhs.erase(slot);
      resolvableWrite.erase(slot);
    }
  }

  /// Counts writes in `st`; `dom` is true while the walk stays on a path
  /// of statements that execute (in order) before the nest runs.
  void countWrites(const ir::Stmt& st, bool dom) {
    if (&st == nest) seenNest = true;
    bool resolvable = dom && !seenNest;
    switch (st.k) {
      case ir::Stmt::K::Assign:
        bump(st.slot, st.exprs.empty() ? nullptr : st.exprs[0].get(),
             resolvable);
        break;
      case ir::Stmt::K::For:
        bump(st.slot, nullptr, false);
        break;
      case ir::Stmt::K::CallAssign:
        for (int32_t d : st.dsts) bump(d, nullptr, false);
        break;
      default:
        break;
    }
    for (auto& k : st.kids) {
      if (!k) continue;
      bool kidDom =
          dom && (st.k == ir::Stmt::K::Block || k.get() == nest ||
                  ancestors.count(k.get()) > 0);
      countWrites(*k, kidDom);
    }
  }

  /// Value of a slot that is never written during the nest: resolve the
  /// dominating single assignment to a polynomial, or fall back to an
  /// opaque atom (sound — the value is fixed while the nest runs).
  Poly resolveInv(int32_t slot) {
    auto it = invMemo.find(slot);
    if (it != invMemo.end()) return it->second;
    if (resolving.count(slot)) return Poly::bad();
    resolving.insert(slot);
    Poly r;
    if (resolvableWrite.count(slot)) {
      r = evalInv(*onlyRhs[slot]);
      if (!r.ok) r = Poly::atom(D.atomId(AtomInfo::K::Opaque, slot, -1));
    } else {
      r = Poly::atom(D.atomId(AtomInfo::K::Opaque, slot, -1));
    }
    resolving.erase(slot);
    invMemo.emplace(slot, r);
    return r;
  }

  /// Evaluates an expression in the pre-nest environment (invariant
  /// slots only).
  Poly evalInv(const ir::Expr& e) {
    switch (e.k) {
      case ir::Expr::K::ConstI:
      case ir::Expr::K::ConstB:
        return Poly::cst(e.i);
      case ir::Expr::K::Var:
        if (e.ty != ir::Ty::I32) return Poly::bad();
        if (writtenInNest.count(e.slot)) return Poly::bad();
        return resolveInv(e.slot);
      case ir::Expr::K::Neg:
        return mulC(evalInv(*e.args[0]), -1);
      case ir::Expr::K::Arith: {
        if (e.aop == ir::ArithOp::Add)
          return add(evalInv(*e.args[0]), evalInv(*e.args[1]));
        if (e.aop == ir::ArithOp::Sub)
          return sub(evalInv(*e.args[0]), evalInv(*e.args[1]));
        if (e.aop == ir::ArithOp::Mul)
          return mul(evalInv(*e.args[0]), evalInv(*e.args[1]));
        return Poly::bad();
      }
      case ir::Expr::K::DimSize:
        return dimPoly(e);
      default:
        return Poly::bad();
    }
  }

  // --- evaluation --------------------------------------------------------

  std::set<int>& rootsOf(int32_t slot) {
    auto it = roots.find(slot);
    if (it == roots.end())
      it = roots.emplace(slot, std::set<int>{-slot - 1}).first;
    return it->second;
  }

  Poly dimPoly(const ir::Expr& e) {
    if (e.args.size() < 2 || e.args[0]->k != ir::Expr::K::Var ||
        e.args[1]->k != ir::Expr::K::ConstI)
      return Poly::bad();
    int32_t slot = e.args[0]->slot;
    int dim = e.args[1]->i;
    const std::set<int>& rs = rootsOf(slot);
    if (rs.size() != 1) return Poly::bad();
    int r = *rs.begin();
    if (summaryMode) {
      int p = -r - 1;
      if (r < 0 && p < static_cast<int>(fn.numParams))
        return Poly::atom(D.atomId(AtomInfo::K::ParamDim, p, dim));
      return Poly::bad();
    }
    return Poly::atom(D.atomId(AtomInfo::K::Dim, r, dim));
  }

  Poly slotPoly(int32_t slot) {
    auto it = env.find(slot);
    if (it != env.end()) return it->second;
    if (summaryMode) {
      if (slot < static_cast<int32_t>(fn.numParams) &&
          fn.locals[slot].ty == ir::Ty::I32)
        return Poly::atom(D.atomId(AtomInfo::K::Param, slot, -1));
      return Poly::bad();
    }
    if (writtenInNest.count(slot)) return Poly::bad();
    return resolveInv(slot);
  }

  Poly ev(const ir::Expr& e) {
    switch (e.k) {
      case ir::Expr::K::ConstI:
      case ir::Expr::K::ConstB:
        return Poly::cst(e.i);
      case ir::Expr::K::Var:
        return e.ty == ir::Ty::I32 ? slotPoly(e.slot) : Poly::bad();
      case ir::Expr::K::Neg:
        return mulC(ev(*e.args[0]), -1);
      case ir::Expr::K::Arith:
        if (e.aop == ir::ArithOp::Add) return add(ev(*e.args[0]), ev(*e.args[1]));
        if (e.aop == ir::ArithOp::Sub) return sub(ev(*e.args[0]), ev(*e.args[1]));
        if (e.aop == ir::ArithOp::Mul) return mul(ev(*e.args[0]), ev(*e.args[1]));
        return Poly::bad();
      case ir::Expr::K::DimSize:
        return dimPoly(e);
      default:
        return Poly::bad();
    }
  }

  // --- access recording --------------------------------------------------

  std::vector<int> chainIds() const {
    std::vector<int> c;
    c.reserve(stack.size());
    for (auto& r : stack) c.push_back(r.id);
    return c;
  }

  void record(int32_t matSlot, bool write, Poly idx) {
    if (whileDepth > 0) idx = Poly::bad();  // iteration count unknown
    const std::set<int>& rs = rootsOf(matSlot);
    if (summaryMode) {
      for (int r : rs) {
        if (r >= 0) continue;  // callee-local buffer, invisible to callers
        int p = -r - 1;
        if (p >= static_cast<int>(fn.numParams)) continue;
        if (!idx.ok || out->accesses.size() >= kSummaryAccessCap) {
          (write ? out->wholeWrite : out->wholeRead)[p] = 1;
        } else {
          out->accesses.push_back({p, write, idx});
        }
      }
      return;
    }
    Access a;
    a.chain = chainIds();
    a.roots = rs;
    a.write = write;
    a.idx = std::move(idx);
    a.mat = matSlot >= 0 && matSlot < static_cast<int32_t>(fn.locals.size())
                ? fn.locals[matSlot].name
                : "?";
    a.range = curRange;
    accesses.push_back(std::move(a));
  }

  void reads(const ir::Expr& e) {
    switch (e.k) {
      case ir::Expr::K::Var:
        if (e.ty == ir::Ty::Mat) record(e.slot, false, Poly::bad());
        return;
      case ir::Expr::K::LoadFlat: {
        reads(*e.args[1]);
        Poly idx = ev(*e.args[1]);
        if (e.args[0]->k == ir::Expr::K::Var)
          record(e.args[0]->slot, false, std::move(idx));
        else
          reads(*e.args[0]);
        return;
      }
      case ir::Expr::K::Index: {
        for (auto& d : e.dims) {
          if (d.a) reads(*d.a);
          if (d.b) reads(*d.b);
        }
        if (e.args[0]->k == ir::Expr::K::Var)
          record(e.args[0]->slot, false, Poly::bad());
        else
          reads(*e.args[0]);
        return;
      }
      case ir::Expr::K::DimSize:
        return;  // metadata only
      case ir::Expr::K::Call: {
        const ir::BuiltinInfo& bi = ir::builtinInfo(e.builtin);
        if (bi.io) hasIO = true;
        for (auto& a : e.args) {
          if (!a) continue;
          if (a->ty == ir::Ty::Mat) {
            if (bi.metaOnly) continue;
            if (a->k == ir::Expr::K::Var)
              record(a->slot, false, Poly::bad());
            else
              reads(*a);
          } else {
            reads(*a);
          }
        }
        return;
      }
      default:
        for (auto& a : e.args)
          if (a) reads(*a);
        return;
    }
  }

  // --- statement walk ----------------------------------------------------

  void invalidateWrites(const ir::Stmt& body) {
    forEachStmt(body, [&](const ir::Stmt& s) {
      for (int32_t w : writtenSlots(s)) env[w] = Poly::bad();
    });
  }

  void mergeEnvFrom(std::map<int32_t, Poly>& other) {
    for (auto& [k, v] : other) {
      auto it = env.find(k);
      if (it == env.end() || !(it->second == v)) env[k] = Poly::bad();
    }
    for (auto& [k, v] : env)
      if (!other.count(k)) v = Poly::bad();
  }

  void walk(const ir::Stmt& s) {
    SourceRange prev = curRange;
    if (s.range.valid()) curRange = s.range;
    walkInner(s);
    curRange = prev;
  }

  void walkInner(const ir::Stmt& s) {
    switch (s.k) {
      case ir::Stmt::K::Block:
        for (auto& k : s.kids)
          if (k) walk(*k);
        break;
      case ir::Stmt::K::Assign: {
        const ir::Expr& rhs = *s.exprs[0];
        bool isMat = s.slot >= 0 &&
                     s.slot < static_cast<int32_t>(fn.locals.size()) &&
                     fn.locals[s.slot].ty == ir::Ty::Mat;
        if (isMat) {
          if (rhs.k == ir::Expr::K::Var && rhs.ty == ir::Ty::Mat) {
            roots[s.slot] = rootsOf(rhs.slot);  // handle copy, no element read
          } else {
            reads(rhs);
            if (rhs.k == ir::Expr::K::Call &&
                ir::builtinInfo(rhs.builtin).aliasArg0 &&
                !rhs.args.empty() && rhs.args[0]->k == ir::Expr::K::Var)
              roots[s.slot] = rootsOf(rhs.args[0]->slot);
            else
              roots[s.slot] = {freshRoot++};
          }
        } else {
          reads(rhs);
          env[s.slot] = ev(rhs);
        }
        break;
      }
      case ir::Stmt::K::StoreFlat: {
        reads(*s.exprs[0]);
        reads(*s.exprs[1]);
        record(s.slot, true, ev(*s.exprs[0]));
        break;
      }
      case ir::Stmt::K::IndexStore: {
        for (auto& d : s.dims) {
          if (d.a) reads(*d.a);
          if (d.b) reads(*d.b);
        }
        if (!s.exprs.empty()) reads(*s.exprs[0]);
        record(s.slot, true, Poly::bad());
        break;
      }
      case ir::Stmt::K::For:
        walkFor(s);
        break;
      case ir::Stmt::K::While: {
        ++whileDepth;
        invalidateWrites(*s.kids[0]);
        reads(*s.exprs[0]);
        walk(*s.kids[0]);
        invalidateWrites(*s.kids[0]);
        --whileDepth;
        break;
      }
      case ir::Stmt::K::If: {
        reads(*s.exprs[0]);
        auto envSave = env;
        auto rootsSave = roots;
        if (!s.kids.empty() && s.kids[0]) walk(*s.kids[0]);
        auto envThen = std::move(env);
        auto rootsThen = std::move(roots);
        env = std::move(envSave);
        roots = std::move(rootsSave);
        if (s.kids.size() > 1 && s.kids[1]) walk(*s.kids[1]);
        mergeEnvFrom(envThen);
        for (auto& [k, rs] : rootsThen)
          roots[k].insert(rs.begin(), rs.end());
        break;
      }
      case ir::Stmt::K::Ret: {
        if (summaryMode) {
          for (auto& e : s.exprs) {
            if (!e) continue;
            if (e->ty == ir::Ty::Mat) {
              if (e->k == ir::Expr::K::Var) {
                for (int r : rootsOf(e->slot)) {
                  int p = -r - 1;
                  if (r < 0 && p < static_cast<int>(fn.numParams))
                    out->retMayAlias[p] = 1;
                }
              } else {
                reads(*e);
                std::fill(out->retMayAlias.begin(), out->retMayAlias.end(),
                          1);
              }
            } else {
              reads(*e);
            }
          }
        } else {
          hasEscape = true;
          for (auto& e : s.exprs)
            if (e) reads(*e);
        }
        break;
      }
      case ir::Stmt::K::CallStmt:
        reads(*s.exprs[0]);
        break;
      case ir::Stmt::K::CallAssign:
        handleCall(s);
        break;
      case ir::Stmt::K::Break:
        if (!summaryMode) hasEscape = true;
        break;
      case ir::Stmt::K::Continue:
        break;
    }
  }

  void walkFor(const ir::Stmt& s) {
    reads(*s.exprs[0]);
    reads(*s.exprs[1]);

    if (summaryMode) {
      invalidateWrites(*s.kids[0]);
      env[s.slot] = Poly::bad();
      walk(*s.kids[0]);
      invalidateWrites(*s.kids[0]);
      env[s.slot] = Poly::bad();
      return;
    }

    LoopRec rec;
    rec.stmt = &s;
    rec.id = nextLoopId++;
    Poly lo = ev(*s.exprs[0]);
    Poly hi = ev(*s.exprs[1]);
    long long c;
    if (lo.ok && lo.isConst(&c)) {
      rec.haveLoConst = true;
      rec.loConst = c;
    }
    rec.trip = (lo.ok && hi.ok) ? sub(hi, lo) : Poly::bad();

    // split/tile inner-loop pattern: for v in [0, min(N, X - N*outer)).
    const ir::Expr& hiE = *s.exprs[1];
    if (hiE.k == ir::Expr::K::Arith && hiE.aop == ir::ArithOp::Min &&
        hiE.args[0]->k == ir::Expr::K::ConstI && rec.haveLoConst &&
        rec.loConst == 0) {
      long long n = hiE.args[0]->i;
      if (n >= 1) {
        rec.haveConstTrip = true;
        rec.constTrip = n;
        rec.trip = Poly::cst(n);  // hi <= N, lo == 0
        Poly rest = ev(*hiE.args[1]);
        if (rest.ok) {
          // rest must be X - N*L for exactly one active loop L.
          int loopL = -1;
          bool oneLoop = true;
          for (auto& [k, cf] : rest.t) {
            if (k.loop < 0) continue;
            if (loopL >= 0 || !k.m.empty() || cf != -n) {
              oneLoop = false;
              break;
            }
            loopL = k.loop;
          }
          if (oneLoop && loopL >= 0) {
            bool active = false;
            for (auto& r : stack)
              if (r.id == loopL) active = true;
            if (active) {
              Poly x = rest;
              x.t.erase(PKey{loopL, {}});
              if (!x.hasLoop()) {
                rec.groupOut = loopL;
                rec.groupFactor = n;
                rec.groupBound = x;
              }
            }
          }
        }
      }
    }
    if (rec.trip.ok) {
      long long t;
      if (rec.trip.isConst(&t)) {
        rec.haveConstTrip = true;
        rec.constTrip = std::max(t, 0LL);
      }
    }

    invalidateWrites(*s.kids[0]);
    env[s.slot] = Poly::loopVar(rec.id);
    stack.push_back(rec);
    loopsById.emplace(rec.id, rec);
    loopOrder.push_back(&s);
    walk(*s.kids[0]);
    stack.pop_back();
    invalidateWrites(*s.kids[0]);
    env[s.slot] = Poly::bad();
  }

  // --- calls --------------------------------------------------------------

  Poly substAtom(int atomId, const std::vector<Poly>& argPoly,
                 const std::vector<int32_t>& argMatSlot) {
    const AtomInfo& info = D.atoms[atomId];
    switch (info.k) {
      case AtomInfo::K::Param:
        return info.a < static_cast<int>(argPoly.size()) ? argPoly[info.a]
                                                         : Poly::bad();
      case AtomInfo::K::ParamDim: {
        if (info.a >= static_cast<int>(argMatSlot.size()) ||
            argMatSlot[info.a] < 0)
          return Poly::bad();
        int32_t slot = argMatSlot[info.a];
        const std::set<int>& rs = rootsOf(slot);
        if (rs.size() != 1) return Poly::bad();
        if (summaryMode) {
          int p = -*rs.begin() - 1;
          if (*rs.begin() < 0 && p < static_cast<int>(fn.numParams))
            return Poly::atom(D.atomId(AtomInfo::K::ParamDim, p, info.b));
          return Poly::bad();
        }
        return Poly::atom(D.atomId(AtomInfo::K::Dim, *rs.begin(), info.b));
      }
      default:
        return Poly::bad();  // callee-local atoms never appear in summaries
    }
  }

  Poly substPoly(const Poly& p, const std::vector<Poly>& argPoly,
                 const std::vector<int32_t>& argMatSlot) {
    if (!p.ok) return Poly::bad();
    Poly r;
    for (auto& [k, c] : p.t) {
      if (k.loop >= 0) return Poly::bad();
      Poly term = Poly::cst(c);
      for (int a : k.m) {
        term = mul(term, substAtom(a, argPoly, argMatSlot));
        if (!term.ok) return Poly::bad();
      }
      r = add(r, term);
      if (!r.ok) return Poly::bad();
    }
    return r;
  }

  void handleCall(const ir::Stmt& s) {
    const ir::Function* callee = D.mod.find(s.callee);
    const PSummary* sum = callee ? D.summaryFor(*callee) : nullptr;

    std::vector<Poly> argPoly(s.exprs.size(), Poly::bad());
    std::vector<int32_t> argMatSlot(s.exprs.size(), -1);
    for (size_t i = 0; i < s.exprs.size(); ++i) {
      const ir::Expr& a = *s.exprs[i];
      if (a.ty == ir::Ty::Mat) {
        if (a.k == ir::Expr::K::Var)
          argMatSlot[i] = a.slot;
        else
          reads(a);  // matrix-valued temp argument: whole-read its parts
      } else {
        reads(a);
        argPoly[i] = ev(a);
      }
    }

    if (!sum) {
      // Unknown callee (recursive, or body not lowered yet): assume the
      // worst — IO plus whole read/write of every matrix argument.
      hasIO = true;
      for (size_t i = 0; i < s.exprs.size(); ++i)
        if (argMatSlot[i] >= 0) {
          record(argMatSlot[i], false, Poly::bad());
          record(argMatSlot[i], true, Poly::bad());
        }
      for (int32_t d : s.dsts) {
        if (d >= 0 && d < static_cast<int32_t>(fn.locals.size()) &&
            fn.locals[d].ty == ir::Ty::Mat) {
          std::set<int> rs = {freshRoot++};
          for (size_t i = 0; i < s.exprs.size(); ++i)
            if (argMatSlot[i] >= 0) {
              auto& ar = rootsOf(argMatSlot[i]);
              rs.insert(ar.begin(), ar.end());
            }
          roots[d] = std::move(rs);
        } else {
          env[d] = Poly::bad();
        }
      }
      return;
    }

    if (sum->hasIO) hasIO = true;
    for (size_t i = 0; i < sum->wholeRead.size() && i < s.exprs.size(); ++i) {
      if (argMatSlot[i] < 0) continue;
      if (sum->wholeRead[i]) record(argMatSlot[i], false, Poly::bad());
      if (sum->wholeWrite[i]) record(argMatSlot[i], true, Poly::bad());
    }
    for (const PAccess& pa : sum->accesses) {
      if (pa.param < 0 || pa.param >= static_cast<int>(s.exprs.size()) ||
          argMatSlot[pa.param] < 0)
        continue;
      record(argMatSlot[pa.param], pa.write,
             substPoly(pa.idx, argPoly, argMatSlot));
    }
    for (int32_t d : s.dsts) {
      if (d >= 0 && d < static_cast<int32_t>(fn.locals.size()) &&
          fn.locals[d].ty == ir::Ty::Mat) {
        std::set<int> rs = {freshRoot++};
        for (size_t i = 0; i < sum->retMayAlias.size() && i < s.exprs.size();
             ++i)
          if (sum->retMayAlias[i] && argMatSlot[i] >= 0) {
            auto& ar = rootsOf(argMatSlot[i]);
            rs.insert(ar.begin(), ar.end());
          }
        roots[d] = std::move(rs);
      } else {
        env[d] = Poly::bad();
      }
    }
  }
};

// ---------------------------------------------------------------------------
// The dependence-equation solver.

struct SysU {
  long long c = 0;  // single-monomial coefficient
  Mono m;
  bool haveRange = false;
  long long rlo = 0, rhi = 0;  // enumeration range [rlo, rhi]
  Poly ub;                     // |u| <= ub when ok (else unbounded)
  int dLevel = -1;             // distance component (chain position)
  int dLevel2 = -1;            // split-group inner component
};

enum class SolKind : uint8_t { None, Some, Unk };

struct SysResult {
  SolKind k = SolKind::Unk;
  // Per solution: value per unknown (nullopt = unknown/fuzzy).
  std::vector<std::vector<std::optional<long long>>> sols;
};

constexpr size_t kEnumCap = 4096;
constexpr size_t kSolCapPerLevel = 8;
constexpr size_t kSolCapTotal = 8;

SysResult solveSystem(const std::vector<SysU>& us, const Poly& delta) {
  SysResult res;
  if (!delta.ok || delta.hasLoop()) return res;  // Unk

  std::map<Mono, std::vector<size_t>> byMono;
  for (size_t i = 0; i < us.size(); ++i) byMono[us[i].m].push_back(i);
  std::map<Mono, long long> dm;
  for (auto& [k, c] : delta.t) dm[k.m] += c;

  std::set<Mono> levelSet;
  for (auto& [m, v] : byMono) levelSet.insert(m);
  for (auto& [m, c] : dm)
    if (c != 0) levelSet.insert(m);
  if (levelSet.empty()) {
    res.k = SolKind::None;  // 0 = 0 with no unknowns: no distinct-iteration
    return res;             // collision beyond the free/zero components
  }
  std::vector<Mono> levels(levelSet.begin(), levelSet.end());
  std::sort(levels.begin(), levels.end(), [](const Mono& a, const Mono& b) {
    if (a.size() != b.size()) return a.size() > b.size();
    return a < b;
  });
  for (size_t i = 0; i + 1 < levels.size(); ++i)
    if (!monoDivides(levels[i + 1], levels[i])) return res;  // Unk

  // Dominance: each level's monomial must strictly exceed the largest
  // value the lower levels can contribute —
  //   mono_i >= 1 + sum_j>i |c_u| * ub_u * mono_j + |delta_j| * mono_j.
  for (size_t i = 0; i + 1 < levels.size(); ++i) {
    Poly blow;
    for (size_t j = i + 1; j < levels.size(); ++j) {
      auto it = byMono.find(levels[j]);
      if (it != byMono.end())
        for (size_t u : it->second) {
          Poly ub;
          if (us[u].ub.ok)
            ub = us[u].ub;
          else if (us[u].haveRange)
            ub = Poly::cst(
                std::max(std::llabs(us[u].rlo), std::llabs(us[u].rhi)));
          else
            return res;
          Poly part = mulC(mul(ub, monoPoly(levels[j])), std::llabs(us[u].c));
          if (!part.ok) return res;
          blow = add(blow, part);
        }
      auto dit = dm.find(levels[j]);
      if (dit != dm.end() && dit->second != 0)
        blow = add(blow, mulC(monoPoly(levels[j]), std::llabs(dit->second)));
      if (!blow.ok) return res;
    }
    if (!proveGE1(sub(monoPoly(levels[i]), blow))) return res;  // Unk
  }

  // Per-level solving.
  std::vector<std::vector<std::vector<std::optional<long long>>>> levelSols;
  for (const Mono& lev : levels) {
    std::vector<size_t> uids;
    if (auto it = byMono.find(lev); it != byMono.end()) uids = it->second;
    long long d = 0;
    if (auto it = dm.find(lev); it != dm.end()) d = it->second;

    std::vector<std::vector<std::optional<long long>>> sols;
    if (uids.empty()) {
      if (d != 0) {
        res.k = SolKind::None;
        return res;
      }
      continue;
    }

    bool allRanged = true;
    size_t combos = 1;
    for (size_t u : uids) {
      if (!us[u].haveRange) {
        allRanged = false;
        break;
      }
      long long width = us[u].rhi - us[u].rlo + 1;
      if (width <= 0) {
        res.k = SolKind::None;  // empty loop: no iterations, no deps
        return res;
      }
      combos *= static_cast<size_t>(std::min<long long>(width, kEnumCap + 1));
      if (combos > kEnumCap) break;
    }

    bool fuzzy = false;
    if (allRanged && combos <= kEnumCap) {
      std::vector<long long> vals(uids.size(), 0);
      std::function<void(size_t, long long)> rec = [&](size_t i,
                                                       long long acc) {
        if (sols.size() > kSolCapPerLevel) return;
        if (i == uids.size()) {
          if (acc == d) {
            std::vector<std::optional<long long>> s(uids.size());
            for (size_t j = 0; j < uids.size(); ++j) s[j] = vals[j];
            sols.push_back(std::move(s));
          }
          return;
        }
        for (long long v = us[uids[i]].rlo; v <= us[uids[i]].rhi; ++v) {
          vals[i] = v;
          rec(i + 1, acc + us[uids[i]].c * v);
        }
      };
      rec(0, 0);
      if (sols.empty()) {
        res.k = SolKind::None;
        return res;
      }
      if (sols.size() > kSolCapPerLevel) fuzzy = true;
    } else if (uids.size() == 1) {
      long long c = us[uids[0]].c;
      if (c == 0) {
        fuzzy = true;  // should not happen (zero coeffs filtered)
      } else if (d % c != 0) {
        res.k = SolKind::None;
        return res;
      } else {
        sols.push_back({d / c});
      }
    } else {
      long long g = 0;
      for (size_t u : uids) g = std::gcd(g, std::llabs(us[u].c));
      if (g != 0 && d % g != 0) {
        res.k = SolKind::None;
        return res;
      }
      fuzzy = true;
    }

    if (fuzzy) {
      sols.clear();
      sols.push_back(std::vector<std::optional<long long>>(uids.size(),
                                                           std::nullopt));
    }
    // Map level-local solution positions back to global unknown indices.
    std::vector<std::vector<std::optional<long long>>> mapped;
    for (auto& s : sols) {
      std::vector<std::optional<long long>> full(us.size(), std::nullopt);
      for (size_t j = 0; j < uids.size(); ++j) full[uids[j]] = s[j];
      mapped.push_back(std::move(full));
    }
    levelSols.push_back(std::move(mapped));
  }

  // Combine levels (cross product, capped).
  std::vector<std::vector<std::optional<long long>>> combined;
  combined.push_back(
      std::vector<std::optional<long long>>(us.size(), std::nullopt));
  // Start from "unset" and overlay each level's assignments.
  for (auto& ls : levelSols) {
    std::vector<std::vector<std::optional<long long>>> next;
    for (auto& base : combined)
      for (auto& s : ls) {
        auto merged = base;
        for (size_t i = 0; i < us.size(); ++i)
          if (s[i].has_value()) merged[i] = s[i];
        next.push_back(std::move(merged));
        if (next.size() > kSolCapTotal) break;
      }
    if (next.size() > kSolCapTotal) {
      combined.clear();
      combined.push_back(
          std::vector<std::optional<long long>>(us.size(), std::nullopt));
      res.k = SolKind::Some;
      res.sols = std::move(combined);
      return res;
    }
    combined = std::move(next);
  }
  // Unknowns in no level (zero coefficient) stay nullopt — but zero-coeff
  // unknowns are filtered by the caller, so every unknown had a level.
  res.k = SolKind::Some;
  res.sols = std::move(combined);
  return res;
}

// ---------------------------------------------------------------------------
// Pairing: build the equation for two accesses and emit DepVectors.

constexpr size_t kVectorCap = 64;
constexpr size_t kAccessCap = 512;

struct PairSolver {
  const Walker& w;
  NestDeps& nd;
  bool capped = false;

  void pushUnknown(const Access& a, const Access& b,
                   const std::vector<const ir::Stmt*>& chain) {
    if (nd.vectors.size() >= kVectorCap) {
      capped = true;
      return;
    }
    DepVector v;
    v.src = {a.mat, a.write, a.range};
    v.dst = {b.mat, b.write, b.range};
    v.chain = chain;
    v.dist.assign(chain.size(), 0);
    v.known.assign(chain.size(), false);
    nd.vectors.push_back(std::move(v));
  }

  void solvePair(const Access& A, const Access& B) {
    // Common enclosing loops.
    size_t n = std::min(A.chain.size(), B.chain.size());
    std::vector<int> common;
    for (size_t i = 0; i < n && A.chain[i] == B.chain[i]; ++i)
      common.push_back(A.chain[i]);
    if (common.empty()) return;
    std::vector<const ir::Stmt*> chain;
    for (int id : common) chain.push_back(w.loopsById.at(id).stmt);

    if (!A.idx.ok || !B.idx.ok) {
      pushUnknown(A, B, chain);
      return;
    }

    std::vector<SysU> us;
    std::set<size_t> freeLevels;
    std::vector<std::pair<Poly, Poly>> coeffs(common.size());

    auto loopUB = [&](const LoopRec& r, SysU& u, bool distance) {
      if (distance) {
        if (r.haveConstTrip) {
          u.haveRange = true;
          u.rlo = -(r.constTrip - 1);
          u.rhi = r.constTrip - 1;
        }
        if (r.trip.ok) u.ub = sub(r.trip, Poly::cst(1));
      } else {
        // The variable itself: [lo, lo + trip).
        if (r.haveLoConst && r.haveConstTrip) {
          u.haveRange = true;
          u.rlo = r.loConst;
          u.rhi = r.loConst + r.constTrip - 1;
        }
        if (r.haveLoConst && r.loConst >= 0 && r.trip.ok)
          u.ub = add(Poly::cst(r.loConst - 1), r.trip);
      }
    };

    bool failed = false;
    auto singleMono = [&](const Poly& p, long long* c, Mono* m) {
      if (!p.ok || p.hasLoop()) return false;
      if (p.t.empty()) {
        *c = 0;
        m->clear();
        return true;
      }
      if (p.t.size() != 1) return false;
      *c = p.t.begin()->second;
      *m = p.t.begin()->first.m;
      return true;
    };

    for (size_t pos = 0; pos < common.size(); ++pos) {
      int id = common[pos];
      const LoopRec& r = w.loopsById.at(id);
      Poly ca = coeffOf(A.idx, id);
      Poly cb = coeffOf(B.idx, id);
      coeffs[pos] = {ca, cb};
      if (ca == cb) {
        long long c;
        Mono m;
        if (!singleMono(cb, &c, &m)) {
          failed = true;
          break;
        }
        if (c == 0) {
          freeLevels.insert(pos);
          continue;
        }
        SysU u;
        u.c = c;
        u.m = m;
        u.dLevel = static_cast<int>(pos);
        loopUB(r, u, true);
        us.push_back(std::move(u));
      } else {
        long long c;
        Mono m;
        if (!singleMono(cb, &c, &m)) {
          failed = true;
          break;
        }
        if (c != 0) {
          SysU u;
          u.c = c;
          u.m = m;
          u.dLevel = static_cast<int>(pos);
          loopUB(r, u, true);
          us.push_back(std::move(u));
        } else {
          freeLevels.insert(pos);
        }
        Poly diff = sub(cb, ca);
        if (!singleMono(diff, &c, &m)) {
          failed = true;
          break;
        }
        if (c != 0) {
          SysU u;
          u.c = c;
          u.m = m;
          loopUB(r, u, false);
          us.push_back(std::move(u));
        }
      }
    }
    // Non-common loops contribute auxiliary unknowns (their variables).
    auto auxFor = [&](const Access& acc, long long sign) {
      for (size_t i = common.size(); i < acc.chain.size() && !failed; ++i) {
        int id = acc.chain[i];
        const LoopRec& r = w.loopsById.at(id);
        Poly cp = coeffOf(acc.idx, id);
        long long c;
        Mono m;
        if (!singleMono(cp, &c, &m)) {
          failed = true;
          return;
        }
        if (c == 0) continue;
        SysU u;
        u.c = sign * c;
        u.m = m;
        loopUB(r, u, false);
        us.push_back(std::move(u));
      }
    };
    auxFor(A, -1);
    auxFor(B, 1);
    if (failed) {
      pushUnknown(A, B, chain);
      return;
    }

    // Split-group merging: d_out and d_in with C_out == factor * C_in
    // combine into one unknown bounded by the original extent.
    for (size_t pos = 0; pos < common.size(); ++pos) {
      const LoopRec& rin = w.loopsById.at(common[pos]);
      if (rin.groupOut < 0) continue;
      // Find the chain position of the group's outer loop.
      size_t outPos = common.size();
      for (size_t q = 0; q < common.size(); ++q)
        if (common[q] == rin.groupOut) outPos = q;
      if (outPos == common.size()) continue;
      int uin = -1, uout = -1;
      for (size_t k = 0; k < us.size(); ++k) {
        if (us[k].dLevel == static_cast<int>(pos)) uin = static_cast<int>(k);
        if (us[k].dLevel == static_cast<int>(outPos))
          uout = static_cast<int>(k);
      }
      if (uin < 0 || uout < 0) continue;
      // Only merge the plain distance unknowns of Ca==Cb levels.
      if (!(coeffs[pos].first == coeffs[pos].second) ||
          !(coeffs[outPos].first == coeffs[outPos].second))
        continue;
      if (us[uout].m != us[uin].m ||
          us[uout].c != us[uin].c * rin.groupFactor)
        continue;
      SysU merged;
      merged.c = us[uin].c;
      merged.m = us[uin].m;
      merged.dLevel = static_cast<int>(outPos);
      merged.dLevel2 = static_cast<int>(pos);
      if (rin.groupBound.ok) merged.ub = sub(rin.groupBound, Poly::cst(1));
      long long gb;
      if (rin.groupBound.ok && rin.groupBound.isConst(&gb)) {
        merged.haveRange = true;
        merged.rlo = -(gb - 1);
        merged.rhi = gb - 1;
      }
      std::vector<SysU> kept;
      for (size_t k = 0; k < us.size(); ++k)
        if (static_cast<int>(k) != uin && static_cast<int>(k) != uout)
          kept.push_back(std::move(us[k]));
      kept.push_back(std::move(merged));
      us = std::move(kept);
    }

    Poly delta = sub(loopFreePart(A.idx), loopFreePart(B.idx));
    SysResult r = solveSystem(us, delta);
    if (r.k == SolKind::None) return;
    if (r.k == SolKind::Unk) {
      pushUnknown(A, B, chain);
      return;
    }

    for (auto& sol : r.sols) {
      std::vector<int64_t> dist(common.size(), 0);
      std::vector<bool> known(common.size(), true);
      for (size_t pos : freeLevels) known[pos] = false;
      for (size_t k = 0; k < us.size(); ++k) {
        if (us[k].dLevel < 0) continue;
        if (!sol[k].has_value()) {
          known[us[k].dLevel] = false;
          if (us[k].dLevel2 >= 0) known[us[k].dLevel2] = false;
          continue;
        }
        long long v = *sol[k];
        if (us[k].dLevel2 >= 0) {
          if (v == 0) {
            dist[us[k].dLevel] = 0;
            dist[us[k].dLevel2] = 0;
          } else {
            known[us[k].dLevel] = false;
            known[us[k].dLevel2] = false;
          }
        } else {
          dist[us[k].dLevel] = v;
        }
      }
      bool allZero = true;
      for (size_t i = 0; i < dist.size(); ++i)
        if (!known[i] || dist[i] != 0) allZero = false;
      if (allZero) continue;  // loop-independent (assumption (3))

      // Lexicographic normalization when the leading component is known.
      bool swap = false;
      for (size_t i = 0; i < dist.size(); ++i) {
        if (!known[i]) break;  // ambiguous orientation, keep as-is
        if (dist[i] != 0) {
          swap = dist[i] < 0;
          break;
        }
      }
      if (swap)
        for (size_t i = 0; i < dist.size(); ++i)
          if (known[i]) dist[i] = -dist[i];

      if (nd.vectors.size() >= kVectorCap) {
        capped = true;
        break;
      }
      DepVector v;
      v.src = swap ? DepAccess{B.mat, B.write, B.range}
                   : DepAccess{A.mat, A.write, A.range};
      v.dst = swap ? DepAccess{A.mat, A.write, A.range}
                   : DepAccess{B.mat, B.write, B.range};
      v.chain = chain;
      v.dist = std::move(dist);
      v.known = std::move(known);
      // Deduplicate within the result set.
      bool dup = false;
      for (auto& e : nd.vectors)
        if (e.chain == v.chain && e.dist == v.dist && e.known == v.known &&
            e.src.range.begin == v.src.range.begin &&
            e.dst.range.begin == v.dst.range.begin &&
            e.src.mat == v.src.mat)
          dup = true;
      if (!dup) nd.vectors.push_back(std::move(v));
    }
  }

  void run() {
    if (accessesTooMany()) return;
    for (size_t i = 0; i < w.accesses.size(); ++i)
      for (size_t j = i; j < w.accesses.size(); ++j) {
        const Access& A = w.accesses[i];
        const Access& B = w.accesses[j];
        if (!A.write && !B.write) continue;
        bool inter = false;
        for (int r : A.roots)
          if (B.roots.count(r)) inter = true;
        if (!inter) continue;
        solvePair(A, B);
        if (capped) {
          // Conservative blanket once the cap is hit.
          std::vector<const ir::Stmt*> chain = {nd.top};
          pushAtCap(A, B, chain);
          return;
        }
      }
  }

  bool accessesTooMany() {
    if (w.accesses.size() <= kAccessCap) return false;
    std::vector<const ir::Stmt*> chain = {nd.top};
    DepVector v;
    v.chain = chain;
    v.dist = {0};
    v.known = {false};
    if (!w.accesses.empty()) {
      const Access& a = w.accesses.front();
      v.src = v.dst = {a.mat, a.write, a.range};
    }
    nd.vectors.push_back(std::move(v));
    return true;
  }

  void pushAtCap(const Access& a, const Access& b,
                 const std::vector<const ir::Stmt*>& chain) {
    DepVector v;
    v.src = {a.mat, a.write, a.range};
    v.dst = {b.mat, b.write, b.range};
    v.chain = chain;
    v.dist = {0};
    v.known = {false};
    nd.vectors.push_back(std::move(v));
  }
};

void collectNestRoots(const ir::Stmt& st, std::vector<const ir::Stmt*>& out) {
  if (st.k == ir::Stmt::K::For) {
    out.push_back(&st);
    return;
  }
  for (auto& k : st.kids)
    if (k) collectNestRoots(*k, out);
}

}  // namespace

// ---------------------------------------------------------------------------
// Summaries.

const PSummary* Depend::Impl::summaryFor(const ir::Function& f) {
  auto it = summaries.find(&f);
  if (it != summaries.end()) return it->second.get();
  if (!f.body || inProgress.count(&f)) return nullptr;
  inProgress.insert(&f);

  auto sum = std::make_unique<PSummary>();
  size_t np = f.numParams;
  sum->wholeRead.assign(np, 0);
  sum->wholeWrite.assign(np, 0);
  sum->retMayAlias.assign(np, 0);

  Walker w(*this, f, /*summaryMode=*/true);
  w.out = sum.get();
  w.walk(*f.body);
  if (w.hasIO) sum->hasIO = true;

  inProgress.erase(&f);
  auto* raw = sum.get();
  summaries.emplace(&f, std::move(sum));
  return raw;
}

// ---------------------------------------------------------------------------
// Public API.

Depend::Depend(const ir::Module& m) : impl_(std::make_unique<Impl>(m)) {
  for (auto& f : m.functions)
    if (f && f->body) impl_->summaryFor(*f);
}

Depend::~Depend() = default;

NestDeps Depend::analyzeNest(const ir::Function& f, const ir::Stmt& top,
                             const std::vector<const ir::Stmt*>* context)
    const {
  Impl& D = const_cast<Impl&>(*impl_);  // interner is an internal cache
  NestDeps nd;
  nd.fn = &f;
  nd.top = &top;
  if (top.k != ir::Stmt::K::For) return nd;

  Walker w(D, f, /*summaryMode=*/false);
  w.nest = &top;
  forEachStmt(top, [&](const ir::Stmt& s) {
    for (int32_t x : writtenSlots(s)) w.writtenInNest.insert(x);
  });

  std::vector<const ir::Stmt*> ctx;
  if (context)
    ctx = *context;
  else if (f.body)
    ctx.push_back(f.body.get());
  for (const ir::Stmt* st : ctx)
    if (st) w.findAncestors(*st);
  for (const ir::Stmt* st : ctx)
    if (st) w.countWrites(*st, /*dom=*/true);
  if (!w.seenNest) {
    // Hook-time context: the nest is not emitted yet; count its writes so
    // multiply-assigned slots are not mistaken for single-assignment.
    w.countWrites(top, /*dom=*/false);
  }

  w.walk(top);

  nd.loops = w.loopOrder;
  nd.hasIO = w.hasIO;
  nd.hasEscape = w.hasEscape;
  nd.accesses = w.accesses.size();
  PairSolver ps{w, nd};
  ps.run();
  return nd;
}

std::vector<NestDeps> Depend::analyzeModule(DependStats* stats) const {
  std::vector<NestDeps> out;
  for (auto& f : impl_->mod.functions) {
    if (!f || !f->body) continue;
    std::vector<const ir::Stmt*> nests;
    collectNestRoots(*f->body, nests);
    for (const ir::Stmt* n : nests) out.push_back(analyzeNest(*f, *n));
  }
  if (stats) {
    for (auto& nd : out) {
      ++stats->nests;
      stats->vectors += nd.vectors.size();
      for (auto& v : nd.vectors)
        if (!v.fullyKnown()) ++stats->unknown;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Vector / nest queries.

const char* depKindName(DepKind k) {
  switch (k) {
    case DepKind::None:
      return "none";
    case DepKind::Forward:
      return "forward";
    case DepKind::Backward:
      return "backward";
    case DepKind::Unknown:
      return "unknown";
  }
  return "?";
}

bool DepVector::fullyKnown() const {
  for (bool b : known)
    if (!b) return false;
  return true;
}

bool DepVector::possiblyCarriedAt(size_t level) const {
  if (level >= chain.size()) return false;
  for (size_t i = 0; i < level; ++i)
    if (known[i] && dist[i] != 0) return false;  // carried strictly outside
  return !known[level] || dist[level] != 0;
}

bool DepVector::possiblyCarriedBy(const ir::Stmt* loop) const {
  for (size_t i = 0; i < chain.size(); ++i)
    if (chain[i] == loop) return possiblyCarriedAt(i);
  return false;
}

std::string DepVector::render() const {
  std::ostringstream os;
  os << '(';
  for (size_t i = 0; i < dist.size(); ++i) {
    if (i) os << ',';
    if (known[i])
      os << dist[i];
    else
      os << '*';
  }
  os << ')';
  return os.str();
}

DepKind NestDeps::classify() const {
  if (vectors.empty()) return DepKind::None;
  bool backward = false;
  for (auto& v : vectors) {
    if (!v.fullyKnown()) return DepKind::Unknown;
    for (size_t i = 0; i < v.dist.size(); ++i)
      if (v.dist[i] < 0) backward = true;
  }
  return backward ? DepKind::Backward : DepKind::Forward;
}

DepKind NestDeps::classifyLoop(const ir::Stmt* loop) const {
  bool any = false, unknown = false, backward = false;
  for (auto& v : vectors) {
    size_t pos = v.chain.size();
    for (size_t i = 0; i < v.chain.size(); ++i)
      if (v.chain[i] == loop) pos = i;
    if (pos == v.chain.size()) continue;
    if (!v.possiblyCarriedAt(pos)) continue;
    any = true;
    if (!v.fullyKnown()) unknown = true;
    for (size_t i = pos; i < v.dist.size(); ++i)
      if (v.known[i] && v.dist[i] < 0) backward = true;
  }
  if (!any) return DepKind::None;
  if (unknown) return DepKind::Unknown;
  return backward ? DepKind::Backward : DepKind::Forward;
}

const DepVector* NestDeps::witnessFor(const ir::Stmt* loop) const {
  const DepVector* unknown = nullptr;
  for (auto& v : vectors) {
    if (!v.possiblyCarriedBy(loop)) continue;
    if (v.fullyKnown()) return &v;
    if (!unknown) unknown = &v;
  }
  return unknown;
}

std::string renderDependReport(const std::vector<NestDeps>& nests) {
  std::ostringstream os;
  os << "depend:\n";
  if (nests.empty()) {
    os << "  (no loop nests)\n";
    return os.str();
  }
  for (const NestDeps& nd : nests) {
    os << "  " << (nd.fn ? nd.fn->name : "?") << ": nest '"
       << (nd.top ? nd.top->loopName : "?") << "' [";
    for (size_t i = 0; i < nd.loops.size(); ++i) {
      if (i) os << ", ";
      os << nd.loops[i]->loopName;
    }
    os << "]: " << depKindName(nd.classify());
    if (nd.hasIO) os << ", io";
    if (nd.hasEscape) os << ", escape";
    os << " (" << nd.vectors.size() << " vectors, " << nd.accesses
       << " accesses)\n";
    size_t shown = 0;
    for (const DepVector& v : nd.vectors) {
      if (shown++ >= 8) {
        os << "    ... (" << nd.vectors.size() - 8 << " more)\n";
        break;
      }
      os << "    " << v.src.mat << " " << v.render() << ": "
         << (v.src.write ? "store" : "load") << " -> "
         << (v.dst.write ? "store" : "load") << "\n";
    }
  }
  return os.str();
}

}  // namespace mmx::analysis
