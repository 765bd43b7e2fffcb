#include "ir/optimize.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/dataflow.hpp"
#include "analysis/depend.hpp"
#include "analysis/liveness.hpp"
#include "analysis/uniqueness.hpp"
#include "support/metrics.hpp"

namespace mmx::ir {

namespace {

namespace an = mmx::analysis;

#define OPTDBG(...)                                                            \
  do {                                                                         \
    if (getenv("MMX_OPT_DEBUG")) fprintf(stderr, "[opt] " __VA_ARGS__);        \
  } while (0)

// ---------------------------------------------------------------------------
// Block-scoped value numbering. Numbers are meaningful only along one
// sequential scan: equal numbers imply equal runtime values at their
// respective evaluation points (given the invalidation discipline below);
// unequal numbers imply nothing. Mat slots are numbered by *buffer
// identity* — a number minted by an initMatrix right-hand side denotes
// that one allocation, and carries the allocation's element code and
// extent numbers, which is how `dimSize(A, k)` resolves to the same
// number as the `%wsh` scalar the allocation was built from.

class VN {
public:
  explicit VN(size_t numSlots) : slotVN_(numSlots, -1) {}

  struct Buf {
    int elem = -1;         // rt::Elem code from the initMatrix call
    std::vector<int> dims; // value numbers of the allocation extents
  };

  int fresh() { return next_++; }

  int ofSlot(int32_t s) {
    if (s < 0 || static_cast<size_t>(s) >= slotVN_.size()) return fresh();
    if (slotVN_[s] < 0) slotVN_[s] = fresh();
    return slotVN_[s];
  }
  void setSlot(int32_t s, int vn) {
    if (s >= 0 && static_cast<size_t>(s) < slotVN_.size()) slotVN_[s] = vn;
  }
  void invalidate(int32_t s) { setSlot(s, fresh()); }

  const Buf* buf(int vn) const {
    auto it = bufs_.find(vn);
    return it == bufs_.end() ? nullptr : &it->second;
  }
  const Buf* bufOfSlot(int32_t s) { return buf(ofSlot(s)); }

  int intern(const std::string& key) {
    auto [it, inserted] = table_.try_emplace(key, next_);
    if (inserted) ++next_;
    return it->second;
  }
  int constIVN(int32_t v) { return intern("i:" + std::to_string(v)); }
  int mulVN(int a, int b) {
    return intern("A" + std::to_string(static_cast<int>(ArithOp::Mul)) + ":" +
                  std::to_string(a) + ":" + std::to_string(b));
  }
  int addVN(int a, int b) {
    return intern("A" + std::to_string(static_cast<int>(ArithOp::Add)) + ":" +
                  std::to_string(a) + ":" + std::to_string(b));
  }

  /// Value number of `e`, or -1 when opaque (calls, loads, Mat values).
  int ofExpr(const Expr& e) {
    auto sub = [&](size_t i) -> int {
      return i < e.args.size() && e.args[i] ? ofExpr(*e.args[i]) : -1;
    };
    switch (e.k) {
      case Expr::K::ConstI:
        return constIVN(e.i);
      case Expr::K::ConstB:
        return intern("b:" + std::to_string(e.i));
      case Expr::K::ConstF: {
        uint32_t bits = 0;
        std::memcpy(&bits, &e.f, sizeof bits);
        return intern("f:" + std::to_string(bits));
      }
      case Expr::K::Var:
        return ofSlot(e.slot);
      case Expr::K::Arith: {
        if (e.ty == Ty::Mat) return -1;
        int a = sub(0), b = sub(1);
        if (a < 0 || b < 0) return -1;
        return intern("A" + std::to_string(static_cast<int>(e.aop)) + ":" +
                      std::to_string(a) + ":" + std::to_string(b));
      }
      case Expr::K::Cmp: {
        if (e.ty == Ty::Mat) return -1;
        int a = sub(0), b = sub(1);
        if (a < 0 || b < 0) return -1;
        return intern("C" + std::to_string(static_cast<int>(e.cop)) + ":" +
                      std::to_string(a) + ":" + std::to_string(b));
      }
      case Expr::K::Logic: {
        int a = sub(0), b = sub(1);
        if (a < 0 || b < 0) return -1;
        return intern("L" + std::to_string(static_cast<int>(e.lop)) + ":" +
                      std::to_string(a) + ":" + std::to_string(b));
      }
      case Expr::K::Not: {
        int a = sub(0);
        return a < 0 ? -1 : intern("n:" + std::to_string(a));
      }
      case Expr::K::Neg: {
        if (e.ty == Ty::Mat) return -1;
        int a = sub(0);
        return a < 0 ? -1 : intern("g:" + std::to_string(a));
      }
      case Expr::K::Cast: {
        int a = sub(0);
        if (a < 0) return -1;
        return intern("t" + std::to_string(static_cast<int>(e.ty)) + ":" +
                      std::to_string(a));
      }
      case Expr::K::DimSize: {
        if (e.args.size() < 2 || !e.args[0] || !e.args[1]) return -1;
        if (e.args[0]->k != Expr::K::Var) return -1;
        int bv = ofSlot(e.args[0]->slot);
        if (const Buf* b = buf(bv))
          if (e.args[1]->k == Expr::K::ConstI && e.args[1]->i >= 0 &&
              static_cast<size_t>(e.args[1]->i) < b->dims.size())
            return b->dims[e.args[1]->i];
        int d = sub(1);
        if (d < 0) return -1;
        return intern("d:" + std::to_string(bv) + ":" + std::to_string(d));
      }
      default:
        return -1; // Call, Index, RangeLit, LoadFlat: opaque
    }
  }

  /// Effects of one *leaf* statement (compound statements go through
  /// invalidateWritesIn).
  void applyShallow(const Function& f, const Stmt& s) {
    switch (s.k) {
      case Stmt::K::Assign: {
        const Expr* e = s.exprs.empty() ? nullptr : s.exprs[0].get();
        if (!e) {
          invalidate(s.slot);
          break;
        }
        if (f.locals[s.slot].ty == Ty::Mat) {
          if (e->k == Expr::K::Var) {
            setSlot(s.slot, ofSlot(e->slot));
          } else if (isInitMatrix(*e)) {
            int bv = fresh();
            Buf b;
            b.elem = e->args[0]->i;
            for (size_t i = 1; i < e->args.size(); ++i) {
              int dv = e->args[i] ? ofExpr(*e->args[i]) : -1;
              b.dims.push_back(dv < 0 ? fresh() : dv);
            }
            bufs_[bv] = std::move(b);
            setSlot(s.slot, bv);
          } else {
            invalidate(s.slot);
          }
        } else {
          int v = ofExpr(*e);
          setSlot(s.slot, v < 0 ? fresh() : v);
        }
        break;
      }
      case Stmt::K::CallAssign:
        for (int32_t d : s.dsts) invalidate(d);
        break;
      default:
        break; // StoreFlat/IndexStore/CallStmt/Ret/...: no slot rebinding
    }
  }

  static bool isInitMatrix(const Expr& e) {
    return e.k == Expr::K::Call && e.builtin == Builtin::InitMatrix &&
           !e.args.empty() && e.args[0] && e.args[0]->k == Expr::K::ConstI;
  }

private:
  int next_ = 0;
  std::vector<int> slotVN_;
  std::map<std::string, int> table_;
  std::map<int, Buf> bufs_;
};

/// The lowering omits the Block wrapper around single-statement loop and
/// branch bodies. Wrap them so every structural edit below has a kid list
/// to splice into; both backends treat Block transparently, so the
/// normalized module is semantically identical. Only runs when a pass is
/// enabled — -O0 IR is never touched.
void normalizeBodies(Stmt& s) {
  if (s.k == Stmt::K::For || s.k == Stmt::K::While || s.k == Stmt::K::If) {
    for (StmtPtr& k : s.kids) {
      if (k && k->k != Stmt::K::Block) {
        std::vector<StmtPtr> one;
        one.push_back(std::move(k));
        k = block(std::move(one));
      }
    }
  }
  for (StmtPtr& k : s.kids)
    if (k) normalizeBodies(*k);
}

void invalidateWritesIn(VN& env, const Stmt& s) {
  an::forEachStmt(s, [&](const Stmt& x) {
    for (int32_t w : an::writtenSlots(x)) env.invalidate(w);
  });
}

// ---------------------------------------------------------------------------
// Small syntactic helpers.

/// No builtin call appears anywhere under `e`, so the rewrites below may
/// duplicate, delete or reorder it.
bool callFree(const Expr& e) {
  bool none = true;
  an::forEachExpr(e, [&](const Expr& x) {
    if (x.k == Expr::K::Call) none = false;
  });
  return none;
}

/// The call's *arguments* are call-free (the call itself is judged
/// separately).
bool argsCallFree(const Expr& call) {
  for (const auto& a : call.args)
    if (a && !callFree(*a)) return false;
  return true;
}

/// True when some statement outside the `skip` subtree reads `slot`.
bool slotReadOutside(const Function& f, const Stmt* skip, int32_t slot) {
  bool found = false;
  std::function<void(const Stmt&)> walk = [&](const Stmt& s) {
    if (&s == skip || found) return;
    for (int32_t r : an::readSlots(s))
      if (r == slot) {
        found = true;
        return;
      }
    for (const auto& k : s.kids)
      if (k) walk(*k);
  };
  if (f.body) walk(*f.body);
  return found;
}

// ---------------------------------------------------------------------------
// Loop-nest shape analysis: recognizes the with-loop lowering pattern (a
// perfect For chain whose innermost block holds the element stores) and
// value-numbers its bounds, store indexes, and element reads so the
// passes can compare producer against consumer symbolically.

struct StoreRec {
  Stmt* stmt = nullptr;
  int32_t slot = -1;
  int idxVN = -1;
  int bufVN = -1;
  bool bufKnown = false; // buffer traced to a tracked initMatrix
};

struct NestInfo {
  bool ok = false;         // structure recognized and analyzable
  std::vector<Stmt*> levels;
  std::vector<int32_t> ivars;
  std::vector<int> ivarVN, loVN, hiVN;
  Stmt* innerBlock = nullptr;
  std::vector<StoreRec> stores;                // top-level StoreFlats
  std::vector<std::pair<int, int>> elemLoads;  // (bufVN, idxVN) LoadFlats
  std::vector<int> otherElemReadBufs;          // Index/Call-arg element reads
  bool opaqueElemRead = false;                 // read via non-Var matrix expr
  bool cleanCalls = true;                      // no builtin calls

  const StoreRec* storeFor(int bufVN) const {
    for (const StoreRec& r : stores)
      if (r.bufVN == bufVN) return &r;
    return nullptr;
  }
};

/// Mutates `env` in place: every number the result carries was minted in
/// the caller's chain, so the caller may keep interning (canonical index
/// construction, alias lookups) and compare against the result safely.
NestInfo analyzeNest(Stmt& loop, VN& env, const Function& f,
                     const std::vector<int>* presetIvarVNs) {
  NestInfo n;
  bool simple = true;

  Stmt* cur = &loop;
  while (cur && cur->k == Stmt::K::For) {
    if (cur->vecWidth != 1) simple = false;
    n.levels.push_back(cur);
    n.ivars.push_back(cur->slot);
    n.loVN.push_back(cur->exprs[0] ? env.ofExpr(*cur->exprs[0]) : -1);
    n.hiVN.push_back(cur->exprs[1] ? env.ofExpr(*cur->exprs[1]) : -1);
    size_t depth = n.levels.size() - 1;
    if (presetIvarVNs && depth < presetIvarVNs->size()) {
      env.setSlot(cur->slot, (*presetIvarVNs)[depth]);
    } else {
      env.invalidate(cur->slot);
    }
    n.ivarVN.push_back(env.ofSlot(cur->slot));
    Stmt* body = cur->kids.empty() ? nullptr : cur->kids[0].get();
    if (!body || body->k != Stmt::K::Block) return n; // ok stays false
    if (body->kids.size() == 1 && body->kids[0] &&
        body->kids[0]->k == Stmt::K::For) {
      cur = body->kids[0].get(); // perfect-nest descent
    } else {
      n.innerBlock = body;
      break;
    }
  }
  if (!n.innerBlock) return n;

  // Sequential scan of the innermost block (recursing into interior fold
  // loops / ifs), value-numbering element reads at their use points.
  std::function<void(Stmt&, bool)> scan = [&](Stmt& st, bool top) {
    an::forEachStmtExpr(st, [&](const Expr& root) {
      an::forEachExpr(root, [&](const Expr& x) {
        if (x.k == Expr::K::LoadFlat) {
          if (x.args.size() >= 2 && x.args[0] &&
              x.args[0]->k == Expr::K::Var && x.args[1]) {
            n.elemLoads.emplace_back(env.ofSlot(x.args[0]->slot),
                                     env.ofExpr(*x.args[1]));
          } else {
            n.opaqueElemRead = true;
          }
        } else if (x.k == Expr::K::Index) {
          if (!x.args.empty() && x.args[0] && x.args[0]->k == Expr::K::Var)
            n.otherElemReadBufs.push_back(env.ofSlot(x.args[0]->slot));
          else
            n.opaqueElemRead = true;
        } else if (x.k == Expr::K::Call) {
          n.cleanCalls = false;
          for (const auto& a : x.args)
            if (a && a->k == Expr::K::Var && a->ty == Ty::Mat)
              n.otherElemReadBufs.push_back(env.ofSlot(a->slot));
        }
      });
    });
    switch (st.k) {
      case Stmt::K::Assign:
        if (f.locals[st.slot].ty == Ty::Mat) simple = false;
        env.applyShallow(f, st);
        break;
      case Stmt::K::StoreFlat: {
        if (!top) {
          simple = false;
          break;
        }
        StoreRec r;
        r.stmt = &st;
        r.slot = st.slot;
        r.idxVN = st.exprs[0] ? env.ofExpr(*st.exprs[0]) : -1;
        r.bufVN = env.ofSlot(st.slot);
        r.bufKnown = env.buf(r.bufVN) != nullptr;
        n.stores.push_back(r);
        break;
      }
      case Stmt::K::For:
      case Stmt::K::While:
      case Stmt::K::If:
        invalidateWritesIn(env, st);
        for (const auto& k : st.kids)
          if (k) scan(*k, false);
        break;
      case Stmt::K::Block:
        for (const auto& k : st.kids)
          if (k) scan(*k, false);
        break;
      default:
        simple = false; // IndexStore, CallStmt, CallAssign, Ret, Break, ...
    }
  };
  for (const auto& kid : n.innerBlock->kids)
    if (kid) scan(*kid, true);

  for (int v : n.loVN)
    if (v < 0) simple = false;
  for (int v : n.hiVN)
    if (v < 0) simple = false;
  // A store whose buffer two distinct records claim would confuse the
  // matchers; the lowering never produces it.
  for (size_t a = 0; a < n.stores.size(); ++a)
    for (size_t b = a + 1; b < n.stores.size(); ++b)
      if (n.stores[a].bufVN == n.stores[b].bufVN) simple = false;

  n.ok = simple && !n.levels.empty();
  return n;
}

// ---------------------------------------------------------------------------
// Pass context.

struct Ctx {
  Function& f;
  const an::SummaryMap& sums;
  const OptOptions& opts;
  OptStats& stats;
  const an::Liveness* live = nullptr;
  const an::Uniqueness* uniq = nullptr;
  int fuseCounter = 0; // unique %fuse local names
};

/// Entry env for scanning a loop body: scalars written in the loop become
/// unknown; Mat slots keep their buffer binding only when one simulated
/// pass of the body restores a buffer with the same element code and
/// extent numbers (the loop-invariant-shape case: `out` reassigned to a
/// same-shaped fresh result every iteration).
void simulateShallow(const Function& f, const Stmt& s, VN& env) {
  switch (s.k) {
    case Stmt::K::Block:
      for (const auto& k : s.kids)
        if (k) simulateShallow(f, *k, env);
      break;
    case Stmt::K::Assign:
    case Stmt::K::CallAssign:
      env.applyShallow(f, s);
      break;
    case Stmt::K::For:
    case Stmt::K::While:
    case Stmt::K::If:
      invalidateWritesIn(env, s);
      break;
    default:
      break;
  }
}

VN loopBodyEnv(const Function& f, const Stmt& loop, const VN& outer) {
  std::set<int32_t> written;
  an::forEachStmt(loop, [&](const Stmt& x) {
    for (int32_t w : an::writtenSlots(x)) written.insert(w);
  });
  VN env = outer;
  std::vector<int32_t> mats;
  for (int32_t w : written) {
    if (f.locals[w].ty == Ty::Mat)
      mats.push_back(w);
    else
      env.invalidate(w);
  }
  const Stmt* body = loop.kids.empty() ? nullptr : loop.kids[0].get();
  if (!body) return env;
  std::set<int32_t> dropped;
  for (size_t round = 0; round <= mats.size(); ++round) {
    VN scratch = env;
    simulateShallow(f, *body, scratch);
    bool any = false;
    for (int32_t mw : mats) {
      if (dropped.count(mw)) continue;
      const VN::Buf* be = env.bufOfSlot(mw);
      const VN::Buf* bf = scratch.bufOfSlot(mw);
      bool invariant = be && bf && be->elem == bf->elem && be->dims == bf->dims;
      if (!invariant) {
        env.invalidate(mw);
        dropped.insert(mw);
        any = true;
      }
    }
    if (!any) break;
  }
  return env;
}

// ---------------------------------------------------------------------------
// Expression/statement rewriting used by fusion.

struct FuseRewrite {
  const std::map<int32_t, int32_t>& ivarMap;   // consumer ivar -> producer ivar
  const std::map<int32_t, int32_t>& loadSlots; // mat slot -> %fuse slot
  const Function& f;
};

void rewriteExpr(ExprPtr& e, const FuseRewrite& rw) {
  if (!e) return;
  if (e->k == Expr::K::LoadFlat && !e->args.empty() && e->args[0] &&
      e->args[0]->k == Expr::K::Var) {
    auto it = rw.loadSlots.find(e->args[0]->slot);
    if (it != rw.loadSlots.end()) {
      Ty ty = e->ty;
      e = var(it->second, ty);
      return;
    }
  }
  if (e->k == Expr::K::Var) {
    auto it = rw.ivarMap.find(e->slot);
    if (it != rw.ivarMap.end()) e->slot = it->second;
    return;
  }
  for (ExprPtr& a : e->args) rewriteExpr(a, rw);
  for (IndexDim& d : e->dims) {
    rewriteExpr(d.a, rw);
    rewriteExpr(d.b, rw);
  }
}

void rewriteStmt(Stmt& s, const FuseRewrite& rw) {
  for (ExprPtr& e : s.exprs) rewriteExpr(e, rw);
  for (IndexDim& d : s.dims) {
    rewriteExpr(d.a, rw);
    rewriteExpr(d.b, rw);
  }
  for (StmtPtr& k : s.kids)
    if (k) rewriteStmt(*k, rw);
}

// ---------------------------------------------------------------------------
// Fusion: producer nest at kids[i], glue statements, then a consumer nest
// over the same iteration space whose only reads of the producer's result
// are at the just-stored index. The consumer body migrates into the
// producer's innermost block, reading the freshly computed element from a
// scalar instead of the temporary matrix.

bool tryFuse(Ctx& c, Stmt& blk, size_t i, VN& env) {
  Stmt* pLoop = blk.kids[i].get();
  VN env2 = env; // one numbering chain through P, the glue, and C
  NestInfo P = analyzeNest(*pLoop, env2, c.f, nullptr);
  if (!P.ok || !P.cleanCalls || P.opaqueElemRead || P.stores.empty())
    return false;
  for (const StoreRec& r : P.stores)
    if (!r.bufKnown || r.idxVN < 0) return false;

  std::set<int32_t> pReads, pWrites;
  an::forEachStmt(*pLoop, [&](const Stmt& x) {
    for (int32_t r : an::readSlots(x)) pReads.insert(r);
    for (int32_t w : an::writtenSlots(x)) pWrites.insert(w);
  });

  invalidateWritesIn(env2, *pLoop);

  std::set<int> pStoreBufs;
  for (const StoreRec& r : P.stores) pStoreBufs.insert(r.bufVN);

  // Walk the glue. Any dependency on the producer, or an element read of a
  // produced buffer, ends the fusion window.
  size_t j = i + 1;
  for (; j < blk.kids.size(); ++j) {
    Stmt* g = blk.kids[j].get();
    if (!g) continue;
    if (g->k == Stmt::K::For) break; // consumer candidate
    if (g->k != Stmt::K::Assign && g->k != Stmt::K::CallStmt) return false;
    if (g->k == Stmt::K::CallStmt) {
      const Expr* call = g->exprs.empty() ? nullptr : g->exprs[0].get();
      if (!call || call->k != Expr::K::Call ||
          !builtinInfo(call->builtin).borrowsArgs)
        return false;
    }
    for (int32_t w : an::writtenSlots(*g))
      if (pReads.count(w) || pWrites.count(w)) return false;
    for (int32_t r : an::readSlots(*g))
      if (pWrites.count(r)) return false;
    bool badRead = false;
    an::forEachStmtExpr(*g, [&](const Expr& root) {
      an::forEachExpr(root, [&](const Expr& x) {
        int32_t matSlot = -1;
        if ((x.k == Expr::K::LoadFlat || x.k == Expr::K::Index) &&
            !x.args.empty() && x.args[0]) {
          if (x.args[0]->k == Expr::K::Var)
            matSlot = x.args[0]->slot;
          else
            badRead = true;
        } else if (x.k == Expr::K::Call) {
          for (const auto& a : x.args)
            if (a && a->k == Expr::K::Var && a->ty == Ty::Mat &&
                pStoreBufs.count(env2.ofSlot(a->slot)))
              badRead = true;
        }
        if (matSlot >= 0 && pStoreBufs.count(env2.ofSlot(matSlot)))
          badRead = true;
      });
    });
    if (badRead) return false;
    env2.applyShallow(c.f, *g);
  }
  if (j >= blk.kids.size()) return false;

  Stmt* cLoop = blk.kids[j].get();
  NestInfo C = analyzeNest(*cLoop, env2, c.f, &P.ivarVN);
  if (!C.ok || !C.cleanCalls || C.opaqueElemRead) return false;
  if (C.levels.size() != P.levels.size()) return false;
  for (size_t k = 0; k < P.levels.size(); ++k) {
    if (C.loVN[k] != P.loVN[k] || C.hiVN[k] != P.hiVN[k]) return false;
    // Mismatched parallel flags are reconciled by demoting to serial,
    // which is only allowed for Auto/None loops.
    if (C.levels[k]->parallel != P.levels[k]->parallel &&
        (C.levels[k]->parSrc == Stmt::Par::Explicit ||
         P.levels[k]->parSrc == Stmt::Par::Explicit))
      return false;
  }
  // The consumer may read produced buffers only at the stored index, and
  // its own stores must land in distinct, tracked-fresh buffers.
  std::set<int> neededBufs;
  for (const auto& [bv, iv] : C.elemLoads) {
    const StoreRec* r = P.storeFor(bv);
    if (!r) continue;
    if (iv < 0 || iv != r->idxVN) return false;
    neededBufs.insert(bv);
  }
  for (int bv : C.otherElemReadBufs)
    if (pStoreBufs.count(bv)) return false;
  for (const StoreRec& r : C.stores) {
    if (!r.bufKnown || pStoreBufs.count(r.bufVN)) return false;
  }
  if (neededBufs.empty()) return false; // nothing flows: not a consumer
  // Consumer loop variables must not outlive the consumer (their final
  // values vanish with the fused loop).
  for (int32_t iv : C.ivars)
    if (slotReadOutside(c.f, cLoop, iv)) return false;

  // --- rewrite ---------------------------------------------------------
  // 1. Hoist each needed stored value into a fresh scalar before its store.
  std::map<int, int32_t> fuseSlotByBuf; // bufVN -> %fuse slot
  Stmt* inner = P.innerBlock;
  for (const StoreRec& r : P.stores) {
    if (!neededBufs.count(r.bufVN)) continue;
    Ty vt = r.stmt->exprs[1]->ty;
    int32_t vf = c.f.addLocal("%fuse" + std::to_string(c.fuseCounter++), vt);
    for (size_t k = 0; k < inner->kids.size(); ++k) {
      if (inner->kids[k].get() != r.stmt) continue;
      StmtPtr init = assign(vf, std::move(r.stmt->exprs[1]));
      r.stmt->exprs[1] = var(vf, vt);
      inner->kids.insert(inner->kids.begin() + k, std::move(init));
      break;
    }
    fuseSlotByBuf[r.bufVN] = vf;
  }
  // 2. Map consumer reads: any slot bound to a needed buffer reads the
  //    hoisted scalar; consumer loop variables become producer ones.
  std::map<int32_t, int32_t> loadSlots;
  for (size_t s = 0; s < c.f.locals.size(); ++s) {
    if (c.f.locals[s].ty != Ty::Mat) continue;
    int bv = env2.ofSlot(static_cast<int32_t>(s));
    auto it = fuseSlotByBuf.find(bv);
    if (it != fuseSlotByBuf.end()) loadSlots[static_cast<int32_t>(s)] = it->second;
  }
  std::map<int32_t, int32_t> ivarMap;
  for (size_t k = 0; k < C.ivars.size(); ++k) ivarMap[C.ivars[k]] = P.ivars[k];
  FuseRewrite rw{ivarMap, loadSlots, c.f};
  for (auto& kid : C.innerBlock->kids) {
    if (!kid) continue;
    StmtPtr copy = cloneStmt(*kid);
    rewriteStmt(*copy, rw);
    inner->kids.push_back(std::move(copy));
  }
  // 3. Reconcile parallel flags (demote mismatches to serial).
  for (size_t k = 0; k < P.levels.size(); ++k) {
    if (C.levels[k]->parallel != P.levels[k]->parallel) {
      P.levels[k]->parallel = false;
      P.levels[k]->parSrc = Stmt::Par::None;
    }
  }
  // 4. The fused nest takes the consumer's position (after the glue).
  blk.kids[j] = std::move(blk.kids[i]);
  blk.kids.erase(blk.kids.begin() + i);
  ++c.stats.fused;
  return true;
}

// ---------------------------------------------------------------------------
// In-place update: [t = initMatrix(e, d...)] [checkGenBounds...] [nest
// storing every element of t] [A = t]  becomes the nest writing A's
// existing buffer directly, when A provably holds the only live handle to
// a buffer of identical shape. The checkGenBounds guards stay, so the
// rewritten program traps exactly when the original did; full coverage
// (bounds 0..dims with the canonical row-major index) makes overwriting
// equivalent to the fresh zero-filled allocation.

bool tryInplace(Ctx& c, Stmt& blk, size_t i, VN& env) {
  Stmt* alloc = blk.kids[i].get();
  if (alloc->k != Stmt::K::Assign || alloc->exprs.empty() || !alloc->exprs[0])
    return false;
  const Expr& rhs = *alloc->exprs[0];
  if (c.f.locals[alloc->slot].ty != Ty::Mat || !VN::isInitMatrix(rhs))
    return false;
  int32_t t = alloc->slot;

  // Window: only checkGenBounds between the allocation and the nest, and
  // the closing handle copy immediately after the nest.
  size_t jLoop = i + 1;
  for (; jLoop < blk.kids.size(); ++jLoop) {
    Stmt* g = blk.kids[jLoop].get();
    if (!g) continue;
    if (g->k == Stmt::K::For) break;
    if (g->k != Stmt::K::CallStmt || g->exprs.empty() || !g->exprs[0] ||
        g->exprs[0]->k != Expr::K::Call ||
        g->exprs[0]->builtin != Builtin::CheckGenBounds ||
        !argsCallFree(*g->exprs[0]))
      return false;
    for (const auto& a : g->exprs[0]->args)
      if (a && a->ty == Ty::Mat) return false;
  }
  if (jLoop >= blk.kids.size() || jLoop + 1 >= blk.kids.size()) return false;
  Stmt* closing = blk.kids[jLoop + 1].get();
  if (!closing || closing->k != Stmt::K::Assign || closing->exprs.empty() ||
      !closing->exprs[0] || closing->exprs[0]->k != Expr::K::Var ||
      closing->exprs[0]->slot != t)
    return false;
  int32_t A = closing->slot;
  if (A == t || c.f.locals[A].ty != Ty::Mat) return false;

  VN envA = env;
  // A's buffer facts come from the pre-allocation state.
  const VN::Buf* aBufPre = envA.bufOfSlot(A);
  int aBufVN = envA.ofSlot(A);
  VN::Buf aBuf;
  bool aKnown = aBufPre != nullptr;
  if (aBufPre) aBuf = *aBufPre;

  envA.applyShallow(c.f, *alloc);
  const VN::Buf* tBufP = envA.bufOfSlot(t);
  if (!tBufP) return false;
  std::vector<int> dimVNs = tBufP->dims;
  int tElem = tBufP->elem;
  int tBufVN = envA.ofSlot(t);

  NestInfo N = analyzeNest(*blk.kids[jLoop], envA, c.f, nullptr);
  OPTDBG("inplace t=%s A=%s nest ok=%d levels=%zu/%zu\n",
         c.f.locals[t].name.c_str(), c.f.locals[A].name.c_str(), N.ok,
         N.levels.size(), dimVNs.size());
  if (!N.ok || !N.cleanCalls || N.opaqueElemRead) return false;
  if (N.levels.size() != dimVNs.size()) return false;
  const StoreRec* tStore = nullptr;
  for (const StoreRec& r : N.stores) {
    if (r.slot == t) {
      tStore = &r;
    } else if (!r.bufKnown || r.bufVN == tBufVN) {
      return false; // untracked side store could touch A's buffer
    }
  }
  if (!tStore || tStore->bufVN != tBufVN) {
    OPTDBG("inplace: store missing or wrong buf (tStore=%p)\n", (void*)tStore);
    return false;
  }
  // Full coverage with the canonical row-major index.
  for (size_t k = 0; k < N.levels.size(); ++k) {
    if (N.loVN[k] != envA.constIVN(0)) {
      OPTDBG("inplace: lo[%zu] not 0 (%d)\n", k, N.loVN[k]);
      return false;
    }
    if (N.hiVN[k] != dimVNs[k]) {
      OPTDBG("inplace: hi[%zu]=%d != dim %d\n", k, N.hiVN[k], dimVNs[k]);
      return false;
    }
  }
  int canonical = N.ivarVN[0];
  for (size_t k = 1; k < N.levels.size(); ++k)
    canonical = envA.addVN(envA.mulVN(canonical, dimVNs[k]), N.ivarVN[k]);
  if (tStore->idxVN != canonical) {
    OPTDBG("inplace: idx %d != canonical %d\n", tStore->idxVN, canonical);
    return false;
  }
  // Nothing may read t's fresh zero fill, and the temporary must die at
  // the closing copy.
  for (const auto& [bv, iv] : N.elemLoads) {
    (void)iv;
    if (bv == tBufVN) return false;
  }
  for (int bv : N.otherElemReadBufs)
    if (bv == tBufVN) return false;
  if (c.live->isLiveAfter(closing, t)) {
    OPTDBG("inplace: temp live after closing copy\n");
    return false;
  }

  // Target shape must match the allocation exactly.
  if (!aKnown || aBuf.elem != tElem || aBuf.dims != dimVNs) {
    OPTDBG("inplace: target shape unknown/mismatch (known=%d)\n", aKnown);
    return false;
  }
  // Reading A's old contents while overwriting them would be wrong; with
  // A unique (below) only A-bound slots can reach that buffer.
  for (const auto& [bv, iv] : N.elemLoads) {
    (void)iv;
    if (bv == aBufVN) return false;
  }
  for (int bv : N.otherElemReadBufs)
    if (bv == aBufVN) return false;

  // Everything structural holds: only aliasing can stop us now.
  if (!c.uniq->isUniqueBefore(alloc, A)) {
    ++c.stats.aliasBlocked;
    return false;
  }

  // --- rewrite: nest writes A; allocation and closing copy disappear.
  blk.kids.erase(blk.kids.begin() + jLoop + 1);
  std::function<void(ExprPtr&)> renameVar = [&](ExprPtr& e) {
    if (!e) return;
    if (e->k == Expr::K::Var && e->slot == t && e->ty == Ty::Mat) e->slot = A;
    for (ExprPtr& a : e->args) renameVar(a);
    for (IndexDim& d : e->dims) {
      renameVar(d.a);
      renameVar(d.b);
    }
  };
  an::forEachStmt(*blk.kids[jLoop], [&](Stmt& s) {
    if (s.k == Stmt::K::StoreFlat && s.slot == t) s.slot = A;
    for (ExprPtr& e : s.exprs) renameVar(e);
  });
  blk.kids.erase(blk.kids.begin() + i);
  ++c.stats.inplaceConverted;
  return true;
}

// ---------------------------------------------------------------------------
// Write-only temporary elimination: a matrix whose only uses in the whole
// function are one pure allocation and one full-coverage canonical store
// is never observed; the store goes, the allocation goes, the bounds
// guards stay. (The nest survives — post-fusion it still computes the
// consumer's work; a nest left empty is pruned separately.)

bool tryElimWriteOnly(Ctx& c, Stmt& blk, size_t i, VN& env) {
  Stmt* alloc = blk.kids[i].get();
  if (alloc->k != Stmt::K::Assign || alloc->exprs.empty() || !alloc->exprs[0])
    return false;
  const Expr& rhs = *alloc->exprs[0];
  if (c.f.locals[alloc->slot].ty != Ty::Mat || !VN::isInitMatrix(rhs) ||
      !argsCallFree(rhs))
    return false;
  int32_t t = alloc->slot;
  if (static_cast<size_t>(t) < c.f.numParams) return false;
  if (c.uniq->observed.get(t)) return false;

  // Whole-function census: exactly this definition, exactly one store,
  // zero other appearances.
  int defs = 0, storeCount = 0;
  bool otherUse = false;
  Stmt* theStore = nullptr;
  an::forEachStmt(*c.f.body, [&](const Stmt& s) {
    an::forEachStmtExpr(s, [&](const Expr& root) {
      if (an::exprReadsSlot(root, t)) otherUse = true;
    });
    switch (s.k) {
      case Stmt::K::Assign:
        if (s.slot == t) ++defs;
        break;
      case Stmt::K::StoreFlat:
        if (s.slot == t) {
          ++storeCount;
          theStore = const_cast<Stmt*>(&s);
        }
        break;
      case Stmt::K::IndexStore:
        if (s.slot == t) otherUse = true;
        break;
      case Stmt::K::CallAssign:
        for (int32_t d : s.dsts)
          if (d == t) otherUse = true;
        break;
      default:
        break;
    }
  });
  // readSlots counts the store's own handle read; exprReadsSlot above does
  // not see StoreFlat's implicit target, so `otherUse` is exactly "reads
  // besides the store".
  if (otherUse || defs != 1 || storeCount != 1 || !theStore) return false;

  // Find the nest containing the store, advancing the environment over
  // whatever sits between (the census already proved nothing touches t).
  VN envA = env;
  envA.applyShallow(c.f, *alloc);
  int tBufVN = envA.ofSlot(t);
  const VN::Buf* tBuf = envA.buf(tBufVN);
  if (!tBuf) return false;
  std::vector<int> dimVNs = tBuf->dims;

  size_t jLoop = blk.kids.size();
  for (size_t j = i + 1; j < blk.kids.size(); ++j) {
    Stmt* g = blk.kids[j].get();
    if (!g) continue;
    bool containsStore = false;
    an::forEachStmt(*g, [&](const Stmt& s) {
      if (&s == theStore) containsStore = true;
    });
    if (containsStore) {
      if (g->k != Stmt::K::For) return false;
      jLoop = j;
      break;
    }
    switch (g->k) {
      case Stmt::K::Assign:
      case Stmt::K::CallAssign:
        envA.applyShallow(c.f, *g);
        break;
      case Stmt::K::CallStmt:
      case Stmt::K::StoreFlat:
      case Stmt::K::IndexStore:
        break; // no slot rebinding
      case Stmt::K::For:
      case Stmt::K::While:
      case Stmt::K::If:
      case Stmt::K::Block:
        invalidateWritesIn(envA, *g);
        break;
      default:
        return false; // Ret/Break/Continue end the window
    }
  }
  if (jLoop >= blk.kids.size()) return false;

  NestInfo N = analyzeNest(*blk.kids[jLoop], envA, c.f, nullptr);
  if (!N.ok || N.levels.size() != dimVNs.size()) return false;
  const StoreRec* rec = nullptr;
  for (const StoreRec& r : N.stores)
    if (r.stmt == theStore) rec = &r;
  if (!rec || rec->bufVN != tBufVN) return false;
  // Deleting the store may not delete a trap: full coverage with the
  // canonical index plus the surviving checkGenBounds guards mean the
  // store was always in bounds.
  for (size_t k = 0; k < N.levels.size(); ++k) {
    if (N.loVN[k] != envA.constIVN(0)) return false;
    if (N.hiVN[k] != dimVNs[k]) return false;
  }
  int canonical = N.ivarVN[0];
  for (size_t k = 1; k < N.levels.size(); ++k)
    canonical = envA.addVN(envA.mulVN(canonical, dimVNs[k]), N.ivarVN[k]);
  if (rec->idxVN != canonical) return false;
  // The stored value's effects vanish with it.
  if (!theStore->exprs[0] || !callFree(*theStore->exprs[0])) return false;
  if (!theStore->exprs[1] || !callFree(*theStore->exprs[1])) return false;

  for (size_t k = 0; k < N.innerBlock->kids.size(); ++k) {
    if (N.innerBlock->kids[k].get() == theStore) {
      N.innerBlock->kids.erase(N.innerBlock->kids.begin() + k);
      break;
    }
  }
  blk.kids.erase(blk.kids.begin() + i);
  ++c.stats.tempsEliminated;
  return true;
}

// ---------------------------------------------------------------------------
// Dead handle assignments: a Mat slot assigned and never read afterwards.
// Deleting `A = y` keeps y's buffer alive longer through A's stale handle,
// which only refCount()/rcLive() could notice — hence the observed-set
// guard (closed over aliasing, so a shared buffer anywhere near an
// observation blocks the deletion).

bool deletableRhs(const Expr& e) {
  if (e.k == Expr::K::Var) return true;
  if (e.k == Expr::K::Call && (e.builtin == Builtin::InitMatrix ||
                               e.builtin == Builtin::CloneMatrix))
    return argsCallFree(e);
  return false;
}

bool eraseDeadHandleAssigns(Ctx& c, Stmt& blk) {
  bool changed = false;
  for (size_t i = 0; i < blk.kids.size();) {
    Stmt* s = blk.kids[i].get();
    if (!s) {
      ++i;
      continue;
    }
    for (StmtPtr& k : s->kids)
      if (k && k->k == Stmt::K::Block) changed |= eraseDeadHandleAssigns(c, *k);
    if (s->k == Stmt::K::Assign && !s->exprs.empty() && s->exprs[0] &&
        c.f.locals[s->slot].ty == Ty::Mat && deletableRhs(*s->exprs[0]) &&
        !c.live->isLiveAfter(s, s->slot) && !c.uniq->observed.get(s->slot) &&
        !(s->exprs[0]->k == Expr::K::Var &&
          c.uniq->observed.get(s->exprs[0]->slot))) {
      blk.kids.erase(blk.kids.begin() + i);
      changed = true;
      continue;
    }
    ++i;
  }
  return changed;
}

/// Post-order removal of loops whose bodies ended up empty (the loop
/// variable must be local to the loop; `while` is never pruned — an
/// infinite loop is behavior).
bool pruneEmptyLoops(Ctx& c, Stmt& blk) {
  bool changed = false;
  for (size_t i = 0; i < blk.kids.size();) {
    Stmt* s = blk.kids[i].get();
    if (!s) {
      ++i;
      continue;
    }
    for (StmtPtr& k : s->kids)
      if (k && k->k == Stmt::K::Block) changed |= pruneEmptyLoops(c, *k);
    bool erase = false;
    if (s->k == Stmt::K::Block && s->kids.empty()) erase = true;
    if (s->k == Stmt::K::For && s->kids.size() == 1 && s->kids[0] &&
        s->kids[0]->k == Stmt::K::Block && s->kids[0]->kids.empty()) {
      bool pureBounds = true;
      for (const ExprPtr& e : s->exprs) {
        if (!e) continue;
        an::forEachExpr(*e, [&](const Expr& x) {
          if (x.k == Expr::K::Call) pureBounds = false;
        });
      }
      if (pureBounds && !slotReadOutside(c.f, s, s->slot)) erase = true;
    }
    if (erase) {
      blk.kids.erase(blk.kids.begin() + i);
      changed = true;
      continue;
    }
    ++i;
  }
  return changed;
}

// ---------------------------------------------------------------------------
// Driver: one scan finds at most one rewrite, then everything (liveness,
// uniqueness, value numbers) is recomputed — rewrites invalidate statement
// pointers, and stale facts must never drive a second rewrite.

bool scanBlock(Ctx& c, Stmt& blk, VN& env) {
  for (size_t i = 0; i < blk.kids.size(); ++i) {
    Stmt* s = blk.kids[i].get();
    if (!s) continue;
    if (c.opts.fuse && s->k == Stmt::K::For && tryFuse(c, blk, i, env))
      return true;
    if (s->k == Stmt::K::Assign) {
      if (c.opts.inplace && tryInplace(c, blk, i, env)) return true;
      if (c.opts.elimTemp && tryElimWriteOnly(c, blk, i, env)) return true;
    }
    switch (s->k) {
      case Stmt::K::For:
      case Stmt::K::While: {
        VN inner = loopBodyEnv(c.f, *s, env);
        if (s->kids[0] && scanBlock(c, *s->kids[0], inner)) return true;
        invalidateWritesIn(env, *s);
        break;
      }
      case Stmt::K::If: {
        for (const StmtPtr& k : s->kids) {
          if (!k) continue;
          VN branch = env;
          if (scanBlock(c, *k, branch)) return true;
        }
        invalidateWritesIn(env, *s);
        break;
      }
      case Stmt::K::Block:
        if (scanBlock(c, *s, env)) return true;
        break;
      default:
        env.applyShallow(c.f, *s);
        break;
    }
  }
  return false;
}

void optimizeFunction(Function& f, const an::SummaryMap& sums,
                      const OptOptions& opts, OptStats& stats) {
  Ctx c{f, sums, opts, stats};
  normalizeBodies(*f.body);
  // Each round performs at most one structural rewrite (or a batch of
  // independent deletions) against freshly computed facts. Rewrites
  // strictly shrink the program or the number of fusable seams, so the
  // guard is never the stopping reason in practice.
  for (int guard = 0; guard < 256; ++guard) {
    an::Liveness live = an::computeLiveness(f);
    an::Uniqueness uniq = an::analyzeUniqueness(f, sums, live);
    c.live = &live;
    c.uniq = &uniq;
    bool rewrote = false;
    if (opts.fuse || opts.inplace || opts.elimTemp) {
      VN env(f.locals.size());
      rewrote = scanBlock(c, *f.body, env);
    }
    if (!rewrote && opts.elimTemp) {
      rewrote |= eraseDeadHandleAssigns(c, *f.body);
      rewrote |= pruneEmptyLoops(c, *f.body);
    }
    if (!rewrote) break;
  }
}

// ---------------------------------------------------------------------------
// -O1 autopar: promote serial For loops whose carried-dependence set is
// provably empty (the inverse of parsafe's demotion). Matrix element
// accesses are judged by the affine dependence analysis; locals by a
// definite-assignment walk — every local the body writes, matrix handles
// included, must be written before it is read in each iteration (both
// backends privatize such slots: cemit shadows them, the interp copies the
// frame per worker) and must not be read outside the loop (the privatized
// final value is dropped).

/// True when every read of a slot in `slots` inside `body` is dominated
/// by a write earlier in the same iteration.
bool slotsPrivatizable(const Stmt& body, const std::set<int32_t>& slots) {
  bool ok = true;
  auto checkExpr = [&](const Expr& e, const std::set<int32_t>& defs) {
    an::forEachExpr(e, [&](const Expr& x) {
      if (x.k == Expr::K::Var && slots.count(x.slot) && !defs.count(x.slot))
        ok = false;
    });
  };
  auto checkDims = [&](const std::vector<IndexDim>& dims,
                       const std::set<int32_t>& defs) {
    for (const auto& d : dims) {
      if (d.a) checkExpr(*d.a, defs);
      if (d.b) checkExpr(*d.b, defs);
    }
  };
  // Returns the definitely-written set after the statement.
  std::function<std::set<int32_t>(const Stmt&, std::set<int32_t>)> walk =
      [&](const Stmt& s, std::set<int32_t> defs) -> std::set<int32_t> {
    switch (s.k) {
      case Stmt::K::Block:
        for (const auto& k : s.kids)
          if (k) defs = walk(*k, std::move(defs));
        return defs;
      case Stmt::K::Assign:
        checkExpr(*s.exprs[0], defs);
        defs.insert(s.slot);
        return defs;
      case Stmt::K::StoreFlat:
        checkExpr(*s.exprs[0], defs);
        checkExpr(*s.exprs[1], defs);
        return defs;
      case Stmt::K::IndexStore:
        checkDims(s.dims, defs);
        for (const auto& e : s.exprs)
          if (e) checkExpr(*e, defs);
        return defs;
      case Stmt::K::For: {
        checkExpr(*s.exprs[0], defs);
        checkExpr(*s.exprs[1], defs);
        std::set<int32_t> inner = defs;
        inner.insert(s.slot);
        walk(*s.kids[0], std::move(inner));  // may run zero times
        return defs;
      }
      case Stmt::K::While:
        checkExpr(*s.exprs[0], defs);
        walk(*s.kids[0], defs);
        return defs;
      case Stmt::K::If: {
        checkExpr(*s.exprs[0], defs);
        std::set<int32_t> thenD =
            s.kids[0] ? walk(*s.kids[0], defs) : defs;
        std::set<int32_t> elseD =
            s.kids.size() > 1 && s.kids[1] ? walk(*s.kids[1], defs) : defs;
        std::set<int32_t> meet;
        for (int32_t v : thenD)
          if (elseD.count(v)) meet.insert(v);
        return meet;
      }
      case Stmt::K::CallAssign:
        for (const auto& e : s.exprs)
          if (e) checkExpr(*e, defs);
        for (int32_t d : s.dsts) defs.insert(d);
        return defs;
      case Stmt::K::CallStmt:
      case Stmt::K::Ret:
        for (const auto& e : s.exprs)
          if (e) checkExpr(*e, defs);
        return defs;
      case Stmt::K::Break:
      case Stmt::K::Continue:
        ok = false;  // escape/skip paths are not modeled; stay serial
        return defs;
    }
    return defs;
  };
  walk(body, {});
  return ok;
}

/// True when any statement outside the `loop` subtree reads one of
/// `slots` (the body-written locals plus the loop variable); their
/// post-loop values are dropped by the parallel backends.
bool readOutsideLoop(const Function& f, const Stmt& loop,
                     const std::set<int32_t>& slots) {
  bool found = false;
  auto checkExpr = [&](const Expr& e) {
    an::forEachExpr(e, [&](const Expr& x) {
      if (x.k == Expr::K::Var && slots.count(x.slot)) found = true;
    });
  };
  std::function<void(const Stmt&)> rec = [&](const Stmt& s) {
    if (&s == &loop) return;
    for (const auto& e : s.exprs)
      if (e) checkExpr(*e);
    for (const auto& d : s.dims) {
      if (d.a) checkExpr(*d.a);
      if (d.b) checkExpr(*d.b);
    }
    for (const auto& k : s.kids)
      if (k) rec(*k);
  };
  if (f.body) rec(*f.body);
  return found;
}

bool tryPromote(const an::Depend& dep, Function& f, Stmt& loop,
                OptStats& stats) {
  if (loop.vecWidth > 1) {
    ++stats.autoparBlocked;
    OPTDBG("autopar: '%s' blocked (vectorized)\n", loop.loopName.c_str());
    return false;
  }
  an::NestDeps nd = dep.analyzeNest(f, loop);
  if (nd.hasIO || nd.hasEscape) {
    ++stats.autoparBlocked;
    OPTDBG("autopar: '%s' blocked (io/escape)\n", loop.loopName.c_str());
    return false;
  }
  for (const auto& v : nd.vectors)
    if (v.possiblyCarriedBy(&loop)) {
      ++stats.autoparBlocked;
      OPTDBG("autopar: '%s' blocked (dep %s on %s)\n", loop.loopName.c_str(),
             v.render().c_str(), v.src.mat.c_str());
      return false;
    }

  std::set<int32_t> written;
  an::forEachStmt(*loop.kids[0], [&](const Stmt& s) {
    for (int32_t w : an::writtenSlots(s))
      if (w >= 0 && static_cast<size_t>(w) < f.locals.size())
        written.insert(w);
  });
  if (!slotsPrivatizable(*loop.kids[0], written)) {
    ++stats.autoparBlocked;
    OPTDBG("autopar: '%s' blocked (local flow)\n", loop.loopName.c_str());
    return false;
  }
  std::set<int32_t> escaping = written;
  escaping.insert(loop.slot);
  if (readOutsideLoop(f, loop, escaping)) {
    ++stats.autoparBlocked;
    OPTDBG("autopar: '%s' blocked (value escapes)\n", loop.loopName.c_str());
    return false;
  }

  loop.parallel = true;
  loop.parSrc = Stmt::Par::Proven;
  ++stats.autoparPromoted;
  OPTDBG("autopar: promoted '%s'\n", loop.loopName.c_str());
  return true;
}

void runAutopar(Module& m, OptStats& stats) {
  an::Depend dep(m);
  for (auto& f : m.functions) {
    if (!f || !f->body) continue;
    // Outermost-first: a promoted loop's subtree is left alone (nested
    // parallelism would oversubscribe the pool; the interp runs nested
    // parallel loops serially anyway).
    std::function<void(Stmt&)> rec = [&](Stmt& s) {
      if (s.k == Stmt::K::For) {
        if (s.parallel || tryPromote(dep, *f, s, stats)) return;
        for (auto& k : s.kids)
          if (k) rec(*k);
        return;
      }
      for (auto& k : s.kids)
        if (k) rec(*k);
    };
    rec(*f->body);
  }
}

} // namespace

OptStats optimizeModule(Module& m, const OptOptions& opts) {
  // Counters register on first call even when every pass is disabled, so
  // analyze-only runs report the full opt.* section.
  static const metrics::Counter cFused = metrics::counter("opt.fusion.fused");
  static const metrics::Counter cTemps =
      metrics::counter("opt.temps.eliminated");
  static const metrics::Counter cInplace =
      metrics::counter("opt.inplace.converted");
  static const metrics::Counter cBlocked =
      metrics::counter("opt.alias.blocked");
  static const metrics::Counter cPromoted =
      metrics::counter("opt.autopar.promoted");
  static const metrics::Counter cParBlocked =
      metrics::counter("opt.autopar.blocked");

  OptStats stats;
  if (!opts.any()) return stats;

  if (opts.fuse || opts.elimTemp || opts.inplace) {
    an::SummaryMap sums = an::summarizeModule(m);
    for (auto& f : m.functions)
      if (f && f->body) optimizeFunction(*f, sums, opts, stats);
  }
  // Autopar runs after the structural rewrites so fused/in-place nests are
  // judged in their final form.
  if (opts.autopar) runAutopar(m, stats);

  cFused.add(stats.fused);
  cTemps.add(stats.tempsEliminated);
  cInplace.add(stats.inplaceConverted);
  cBlocked.add(stats.aliasBlocked);
  cPromoted.add(stats.autoparPromoted);
  cParBlocked.add(stats.autoparBlocked);
  return stats;
}

} // namespace mmx::ir
