#include "analysis/shapecheck.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/dataflow.hpp"

namespace mmx::analysis {
namespace {

using ir::Expr;
using ir::Function;
using ir::IndexDim;
using ir::Stmt;

// ---------------------------------------------------------------------------
// Affine forms over interned atoms.
//
// A Form is either TOP (nullopt: nothing known) or a linear combination
// c + sum(coef_i * atom_i). Atoms are runtime quantities the program can
// not change once created: a dimension of a specific matrix value, an int
// parameter of the current activation, or a loop induction variable
// (valid only inside that loop's body, see the widening in execFor).

constexpr long long kBig = 1'000'000'000'000'000LL; // overflow guard

struct Lin {
  long long c = 0;
  std::map<int, long long> t; // atom id -> coefficient

  friend bool operator==(const Lin& a, const Lin& b) {
    return a.c == b.c && a.t == b.t;
  }
};
using Form = std::optional<Lin>;

bool tooBig(long long v) { return v > kBig || v < -kBig; }

Form linConst(long long v) {
  if (tooBig(v)) return std::nullopt;
  Lin l;
  l.c = v;
  return l;
}

Form linAtom(int atom) {
  Lin l;
  l.t[atom] = 1;
  return l;
}

/// a + sign*b (sign is +1 or -1); TOP-in TOP-out, TOP on overflow.
Form addForms(const Form& a, const Form& b, int sign) {
  if (!a || !b) return std::nullopt;
  Lin r = *a;
  if (tooBig(r.c + sign * b->c)) return std::nullopt;
  r.c += sign * b->c;
  for (const auto& [atom, coef] : b->t) {
    long long nc = r.t[atom] + sign * coef;
    if (tooBig(nc)) return std::nullopt;
    if (nc == 0)
      r.t.erase(atom);
    else
      r.t[atom] = nc;
  }
  return r;
}

Form mulForm(const Form& a, long long k) {
  if (!a) return std::nullopt;
  if (k == 0) return linConst(0);
  Lin r;
  if (tooBig(a->c * k)) return std::nullopt;
  r.c = a->c * k;
  for (const auto& [atom, coef] : a->t) {
    if (tooBig(coef * k)) return std::nullopt;
    r.t[atom] = coef * k;
  }
  return r;
}

bool formEq(const Form& a, const Form& b) { return a && b && *a == *b; }

bool isConst(const Form& f) { return f && f->t.empty(); }

// ---------------------------------------------------------------------------
// Abstract values.

struct Atom {
  enum class K : uint8_t { Dim, Param, Loop };
  K k = K::Dim;
  uint64_t vid = 0;                // Dim: dims[dim] of matrix value `vid`
  int32_t dim = 0;                 // Dim
  const Function* fn = nullptr;    // Param
  int32_t slot = -1;               // Param
  const Stmt* loop = nullptr;      // Loop: the For statement
};

/// What is known about one Mat-typed slot / expression value.
struct MatInfo {
  uint64_t vid = 0;       // value identity (0 = unknown); equal vids at the
                          // same program point denote the same runtime value
  bool init = false;      // definitely holds a value (non-null) — survives
                          // joins that destroy the identity (e.g. a rebind
                          // inside a loop), so null-only guards like
                          // dimSize's can still elide on merged paths
  int32_t rank = -1;      // -1 = unknown
  int32_t elem = -1;      // rt::Elem encoding, -1 = unknown
  std::vector<Form> dims; // size == rank when rank >= 0

  friend bool operator==(const MatInfo& a, const MatInfo& b) {
    return a.vid == b.vid && a.init == b.init && a.rank == b.rank &&
           a.elem == b.elem && a.dims == b.dims;
  }
};

struct State {
  std::vector<Form> ints;    // per slot; meaningful for I32/Bool slots
  std::vector<MatInfo> mats; // per slot; meaningful for Mat slots
};

enum class Class : uint8_t { Safe, Unknown, Violating };

struct LoopRange {
  Form lo, hiEx; // body executes with lo <= ind <= hiEx - 1
};

// ---------------------------------------------------------------------------

class Checker {
public:
  Checker(const ir::Module& m, const ShapeCheckOptions& opts,
          ir::GuardPlan& plan, DiagnosticEngine& diags)
      : mod_(m), opts_(opts), plan_(plan), diags_(diags) {}

  ShapeCheckStats run();

private:
  // --- atom / value-id interning ---------------------------------------
  int dimAtom(uint64_t vid, int32_t d) {
    auto [it, fresh] = dimAtomIds_.try_emplace({vid, d}, -1);
    if (fresh) {
      it->second = static_cast<int>(atoms_.size());
      Atom a;
      a.k = Atom::K::Dim;
      a.vid = vid;
      a.dim = d;
      atoms_.push_back(a);
    }
    return it->second;
  }
  int paramAtom(const Function* fn, int32_t slot) {
    auto [it, fresh] = paramAtomIds_.try_emplace({fn, slot}, -1);
    if (fresh) {
      it->second = static_cast<int>(atoms_.size());
      Atom a;
      a.k = Atom::K::Param;
      a.fn = fn;
      a.slot = slot;
      atoms_.push_back(a);
    }
    return it->second;
  }
  int loopAtom(const Stmt* loop) {
    auto [it, fresh] = loopAtomIds_.try_emplace(loop, -1);
    if (fresh) {
      it->second = static_cast<int>(atoms_.size());
      Atom a;
      a.k = Atom::K::Loop;
      a.loop = loop;
      atoms_.push_back(a);
    }
    return it->second;
  }

  /// Stable value id for the value produced by a defining site. Keys are
  /// (node, index): exprs use index 0, CallAssign destinations their dst
  /// index, function parameters (keyed by the Function) their slot.
  uint64_t siteVid(const void* site, int idx) {
    auto [it, fresh] = siteVids_.try_emplace({site, idx}, 0);
    if (fresh) it->second = nextVid_++;
    if (freshVids_) freshVids_->insert(it->second);
    return it->second;
  }

  // --- form/state plumbing ---------------------------------------------
  static bool joinForm(Form& a, const Form& b) {
    if (!a) return false;
    if (!b || !(*a == *b)) {
      a.reset();
      return true;
    }
    return false;
  }

  static bool joinMat(MatInfo& a, const MatInfo& b) {
    bool ch = false;
    if (a.vid != b.vid && a.vid != 0) {
      a.vid = 0;
      ch = true;
    }
    if (a.init && !b.init) {
      a.init = false;
      ch = true;
    }
    if (a.elem != b.elem && a.elem != -1) {
      a.elem = -1;
      ch = true;
    }
    if (a.rank != b.rank) {
      if (a.rank != -1) {
        a.rank = -1;
        a.dims.clear();
        ch = true;
      }
    } else if (a.rank >= 0) {
      for (int d = 0; d < a.rank; ++d) ch |= joinForm(a.dims[d], b.dims[d]);
    }
    return ch;
  }

  static bool joinState(State& a, const State& b) {
    bool ch = false;
    for (size_t i = 0; i < a.ints.size(); ++i) ch |= joinForm(a.ints[i], b.ints[i]);
    for (size_t i = 0; i < a.mats.size(); ++i) ch |= joinMat(a.mats[i], b.mats[i]);
    return ch;
  }

  static void joinInto(std::optional<State>& into, const State& from) {
    if (!into)
      into = from;
    else
      joinState(*into, from);
  }

  bool formRefsAny(const Form& f, const std::set<int>& atoms) const {
    if (!f) return false;
    for (const auto& [a, c] : f->t)
      if (atoms.count(a)) return true;
    return false;
  }

  /// Invalidate everything that referred to values a re-executed defining
  /// site produced earlier: copies of the old value lose their identity
  /// and forms naming the old value's dimensions go TOP. Ranges of loops
  /// whose bounds named them are weakened too (a loop can observe its own
  /// matrix being redefined mid-flight).
  void scrub(State& st, const std::set<uint64_t>& vids) {
    if (vids.empty()) return;
    auto stale = [&](const Form& f) {
      if (!f) return false;
      for (const auto& [a, c] : f->t) {
        const Atom& at = atoms_[static_cast<size_t>(a)];
        if (at.k == Atom::K::Dim && vids.count(at.vid)) return true;
      }
      return false;
    };
    for (auto& f : st.ints)
      if (stale(f)) f.reset();
    for (auto& m : st.mats) {
      if (m.vid != 0 && vids.count(m.vid)) m.vid = 0;
      for (auto& f : m.dims)
        if (stale(f)) f.reset();
    }
    for (auto& [loop, r] : loopRanges_) {
      if (stale(r.lo)) r.lo.reset();
      if (stale(r.hiEx)) r.hiEx.reset();
    }
  }

  /// A loop's induction atom only means "this iteration's value"; forms
  /// carried over the back edge would silently refer to the previous
  /// iteration, so they are widened to TOP before the entry join. The
  /// closure covers loops whose recorded range depends on the widened
  /// atom (their per-iteration meaning shifts with it).
  void widenLoop(State& st, int la) {
    if (la < 0) return;
    std::set<int> w{la};
    bool grew = true;
    while (grew) {
      grew = false;
      for (const auto& [loop, aid] : loopAtomIds_) {
        if (w.count(aid)) continue;
        auto it = loopRanges_.find(loop);
        if (it == loopRanges_.end()) continue;
        if (formRefsAny(it->second.lo, w) || formRefsAny(it->second.hiEx, w)) {
          w.insert(aid);
          grew = true;
        }
      }
    }
    for (auto& f : st.ints)
      if (formRefsAny(f, w)) f.reset();
    for (auto& m : st.mats)
      for (auto& f : m.dims)
        if (formRefsAny(f, w)) f.reset();
  }

  // --- bound proofs ----------------------------------------------------
  /// proveMax: every runtime value of f is <= bound.
  /// proveMin: every runtime value of f is >= bound.
  bool proveMax(const Form& f, long long bound) { return proveDir(f, bound, +1); }
  bool proveMin(const Form& f, long long bound) { return proveDir(f, bound, -1); }

  bool proveDir(const Form& f, long long bound, int dir) {
    if (!f) return false;
    Lin l = *f;
    // Substitute loop atoms at the extreme of their recorded range.
    for (int budget = 48; budget-- > 0;) {
      int la = -1;
      long long coef = 0;
      for (const auto& [a, c] : l.t)
        if (atoms_[static_cast<size_t>(a)].k == Atom::K::Loop) {
          la = a;
          coef = c;
          break;
        }
      if (la < 0) break;
      auto it = loopRanges_.find(atoms_[static_cast<size_t>(la)].loop);
      if (it == loopRanges_.end()) return false;
      bool useHi = (coef > 0) == (dir > 0);
      Form sub = useHi ? addForms(it->second.hiEx, linConst(1), -1)
                       : it->second.lo;
      if (!sub) return false;
      l.t.erase(la);
      Form total = addForms(Form(l), mulForm(sub, coef), +1);
      if (!total) return false;
      l = *total;
    }
    for (const auto& [a, c] : l.t)
      if (atoms_[static_cast<size_t>(a)].k == Atom::K::Loop) return false;
    // Dimensions are >= 0, so a term pulling toward the bound can be
    // dropped; parameters are unbounded either way.
    for (auto it = l.t.begin(); it != l.t.end();) {
      const Atom& at = atoms_[static_cast<size_t>(it->first)];
      bool droppable = at.k == Atom::K::Dim &&
                       (dir > 0 ? it->second < 0 : it->second > 0);
      it = droppable ? l.t.erase(it) : std::next(it);
    }
    if (!l.t.empty()) return false;
    return dir > 0 ? l.c <= bound : l.c >= bound;
  }

  // --- abstract evaluation ---------------------------------------------
  Form dimFormOf(const MatInfo& m, int d) const {
    if (m.rank >= 0 && d >= 0 && d < m.rank) return m.dims[static_cast<size_t>(d)];
    return std::nullopt;
  }

  MatInfo matAt(const State& st, int32_t slot) {
    MatInfo m = st.mats[static_cast<size_t>(slot)];
    const ir::Local& l = curFn_->locals[static_cast<size_t>(slot)];
    // The slot's declared static type bounds the runtime value: a
    // float<2> slot always holds a rank-2 F32 matrix (MatrixAny bindings
    // go through checkMatrixMeta first).
    if (m.rank < 0 && l.matRank >= 0) {
      m.rank = l.matRank;
      m.dims.assign(static_cast<size_t>(m.rank), std::nullopt);
      if (m.vid != 0)
        for (int d = 0; d < m.rank; ++d)
          m.dims[static_cast<size_t>(d)] = linAtom(dimAtom(m.vid, d));
    }
    if (m.elem < 0 && l.matElem >= 0) m.elem = l.matElem;
    return m;
  }

  Form evalInt(const Expr& e, const State& st) {
    switch (e.k) {
      case Expr::K::ConstI:
      case Expr::K::ConstB:
        return linConst(e.i);
      case Expr::K::Var:
        if (e.ty == ir::Ty::I32 || e.ty == ir::Ty::Bool)
          return st.ints[static_cast<size_t>(e.slot)];
        return std::nullopt;
      case Expr::K::Arith: {
        if (e.ty != ir::Ty::I32) return std::nullopt;
        Form a = evalInt(*e.args[0], st);
        Form b = evalInt(*e.args[1], st);
        switch (e.aop) {
          case ir::ArithOp::Add: return addForms(a, b, +1);
          case ir::ArithOp::Sub: return addForms(a, b, -1);
          case ir::ArithOp::Mul:
          case ir::ArithOp::EwMul:
            if (isConst(a)) return mulForm(b, a->c);
            if (isConst(b)) return mulForm(a, b->c);
            return std::nullopt;
          default: return std::nullopt;
        }
      }
      case Expr::K::Neg:
        return mulForm(evalInt(*e.args[0], st), -1);
      case Expr::K::DimSize: {
        Form dF = evalInt(*e.args[1], st);
        if (!isConst(dF)) return std::nullopt;
        long long d = dF->c;
        MatInfo m = evalMat(*e.args[0], st);
        if (Form f = dimFormOf(m, static_cast<int>(d))) return f;
        if (m.vid != 0 && d >= 0 && d < 8)
          return linAtom(dimAtom(m.vid, static_cast<int>(d)));
        return std::nullopt;
      }
      default:
        return std::nullopt;
    }
  }

  MatInfo evalMat(const Expr& e, const State& st) {
    MatInfo m;
    switch (e.k) {
      case Expr::K::Var:
        if (e.ty == ir::Ty::Mat) return matAt(st, e.slot);
        return m;
      case Expr::K::Call:
        return evalMatCall(e, st);
      case Expr::K::Index: {
        MatInfo src = evalMat(*e.args[0], st);
        m.vid = siteVid(&e, 0);
        m.init = true;
        m.elem = src.elem;
        std::vector<Form> dims;
        for (size_t d = 0; d < e.dims.size(); ++d) {
          const IndexDim& sel = e.dims[d];
          switch (sel.kind) {
            case IndexDim::Kind::Scalar:
              break; // dropped from the result rank
            case IndexDim::Kind::Range: {
              // Count = b - a + 1; the selector guard established
              // a <= b + 1, so the count is a valid (>= 0) extent here.
              Form a = evalInt(*sel.a, st);
              Form b = evalInt(*sel.b, st);
              dims.push_back(addForms(addForms(b, a, -1), linConst(1), +1));
              break;
            }
            case IndexDim::Kind::All:
              dims.push_back(dimFormOf(src, static_cast<int>(d)));
              break;
            case IndexDim::Kind::Mask:
              dims.push_back(std::nullopt);
              break;
          }
        }
        if (dims.empty()) dims.push_back(linConst(1)); // all-scalar: 1-elem
        m.rank = static_cast<int32_t>(dims.size());
        m.dims = std::move(dims);
        return m;
      }
      case Expr::K::RangeLit: {
        m.vid = siteVid(&e, 0);
        m.init = true;
        m.rank = 1;
        m.elem = 0; // I32
        Form a = evalInt(*e.args[0], st);
        Form b = evalInt(*e.args[1], st);
        Form n = addForms(addForms(b, a, -1), linConst(1), +1);
        // The runtime clamps an empty range to extent 0, so the affine
        // count is only the true extent when it is provably non-negative.
        m.dims.push_back(proveMin(n, 0) ? n : Form());
        return m;
      }
      case Expr::K::Arith: {
        bool aMat = e.args[0]->ty == ir::Ty::Mat;
        bool bMat = e.args[1]->ty == ir::Ty::Mat;
        if (aMat && bMat) {
          MatInfo a = evalMat(*e.args[0], st);
          MatInfo b = evalMat(*e.args[1], st);
          m.vid = siteVid(&e, 0);
          m.init = true;
          if (e.aop == ir::ArithOp::Mul) { // linear-algebra matmul
            m.rank = 2;
            m.elem = a.elem >= 0 ? a.elem : b.elem;
            m.dims = {dimFormOf(a, 0), dimFormOf(b, 1)};
          } else { // elementwise: the guard established equal shapes
            m.elem = a.elem >= 0 ? a.elem : b.elem;
            const MatInfo& src = a.rank >= 0 ? a : b;
            m.rank = src.rank;
            m.dims = src.dims;
            if (m.rank >= 0 && b.rank == m.rank)
              for (int d = 0; d < m.rank; ++d)
                if (!m.dims[static_cast<size_t>(d)])
                  m.dims[static_cast<size_t>(d)] = b.dims[static_cast<size_t>(d)];
          }
          return m;
        }
        if (aMat || bMat) { // scalar-matrix elementwise
          const Expr& matSide = aMat ? *e.args[0] : *e.args[1];
          const Expr& sclSide = aMat ? *e.args[1] : *e.args[0];
          MatInfo src = evalMat(matSide, st);
          m.vid = siteVid(&e, 0);
          m.init = true;
          m.rank = src.rank;
          m.dims = src.dims;
          m.elem = sclSide.ty == ir::Ty::F32 ? 1
                   : (sclSide.ty == ir::Ty::I32 && src.elem == 0) ? 0
                                                                  : -1;
          return m;
        }
        return m;
      }
      case Expr::K::Cmp: {
        bool aMat = e.args[0]->ty == ir::Ty::Mat;
        bool bMat = e.args[1]->ty == ir::Ty::Mat;
        if (!aMat && !bMat) return m;
        MatInfo src = evalMat(aMat ? *e.args[0] : *e.args[1], st);
        m.vid = siteVid(&e, 0);
        m.init = true;
        m.rank = src.rank;
        m.dims = src.dims;
        m.elem = 2; // Bool
        return m;
      }
      case Expr::K::Neg: {
        if (e.ty != ir::Ty::Mat) return m;
        MatInfo src = evalMat(*e.args[0], st);
        m.vid = siteVid(&e, 0);
        m.init = true;
        m.rank = src.rank;
        m.elem = src.elem;
        m.dims = src.dims;
        return m;
      }
      default:
        return m;
    }
  }

  MatInfo evalMatCall(const Expr& e, const State& st) {
    MatInfo m;
    const ir::Builtin c = e.builtin;
    if (c == ir::Builtin::InitMatrix) {
      m.vid = siteVid(&e, 0);
      m.init = true;
      m.rank = static_cast<int32_t>(e.args.size()) - 1;
      Form elemF = evalInt(*e.args[0], st);
      if (isConst(elemF)) m.elem = static_cast<int32_t>(elemF->c);
      for (size_t i = 1; i < e.args.size(); ++i) {
        Form d = evalInt(*e.args[i], st);
        // A TOP extent still has a stable identity: this value's dim.
        m.dims.push_back(d ? d : linAtom(dimAtom(m.vid, static_cast<int>(i) - 1)));
      }
      return m;
    }
    if (c == ir::Builtin::CheckMatrixMeta) {
      MatInfo src = evalMat(*e.args[0], st);
      Form elemF = evalInt(*e.args[1], st);
      Form rankF = evalInt(*e.args[2], st);
      m.vid = src.vid != 0 ? src.vid : siteVid(&e, 0);
      m.init = true; // the meta check rejects null before this value flows on
      if (isConst(elemF)) m.elem = static_cast<int32_t>(elemF->c);
      if (isConst(rankF)) {
        m.rank = static_cast<int32_t>(rankF->c);
        if (src.rank == m.rank)
          m.dims = src.dims;
        else {
          m.dims.assign(static_cast<size_t>(m.rank), std::nullopt);
          for (int d = 0; d < m.rank; ++d)
            m.dims[static_cast<size_t>(d)] = linAtom(dimAtom(m.vid, d));
        }
      }
      return m;
    }
    if (c == ir::Builtin::CloneMatrix || c == ir::Builtin::MatToFloat) {
      MatInfo src = evalMat(*e.args[0], st);
      m.vid = siteVid(&e, 0);
      m.init = true;
      m.rank = src.rank;
      m.dims = src.dims;
      m.elem = c == ir::Builtin::MatToFloat ? 1 : src.elem;
      return m;
    }
    if (c == ir::Builtin::SynthSsh) {
      m.vid = siteVid(&e, 0);
      m.init = true;
      m.rank = 3;
      m.elem = 1; // F32
      for (int d = 0; d < 3; ++d) {
        Form f = evalInt(*e.args[static_cast<size_t>(d)], st);
        m.dims.push_back(f ? f : linAtom(dimAtom(m.vid, d)));
      }
      return m;
    }
    if (e.ty == ir::Ty::Mat) { // readMatrix & friends
      m.vid = siteVid(&e, 0);
      m.init = true;
    }
    return m;
  }

  // --- guard classification --------------------------------------------
  void record(const void* site, Class c, const char* msg = nullptr) {
    if (!recording_) return;
    auto [it, fresh] = fnClass_.try_emplace(site, c);
    if (!fresh && it->second != c) it->second = Class::Unknown;
    if (c == Class::Violating && msg) fnViol_[site] = {msg, curRange_};
  }

  /// Per-dimension scalar/range/mask selector checks shared by Index
  /// expressions and IndexStore statements. Returns the per-site class
  /// covering the whole selector list.
  Class classifySelectors(const MatInfo& m, const std::vector<IndexDim>& sels,
                          const State& st, const char** why) {
    if (m.rank < 0 || m.rank != static_cast<int32_t>(sels.size()))
      return Class::Unknown;
    bool allSafe = true;
    for (size_t d = 0; d < sels.size(); ++d) {
      const IndexDim& sel = sels[d];
      Form dim = dimFormOf(m, static_cast<int>(d));
      switch (sel.kind) {
        case IndexDim::Kind::Scalar: {
          Form a = evalInt(*sel.a, st);
          Form over = addForms(a, dim, -1);
          if (proveMax(a, -1) || proveMin(over, 0)) {
            *why = "scalar index is provably out of bounds";
            return Class::Violating;
          }
          allSafe &= proveMin(a, 0) && proveMax(over, -1);
          break;
        }
        case IndexDim::Kind::Range: {
          Form a = evalInt(*sel.a, st);
          Form b = evalInt(*sel.b, st);
          Form over = addForms(b, dim, -1);
          Form span = addForms(a, b, -1);
          if (proveMax(a, -1) || proveMin(over, 0) || proveMin(span, 2)) {
            *why = "range index is provably out of bounds";
            return Class::Violating;
          }
          allSafe &= proveMin(a, 0) && proveMax(over, -1) && proveMax(span, 1);
          break;
        }
        case IndexDim::Kind::All:
          break;
        case IndexDim::Kind::Mask: {
          MatInfo mk = evalMat(*sel.a, st);
          Form diff = addForms(dimFormOf(mk, 0), dim, -1);
          if ((mk.elem >= 0 && mk.elem != 2) || (mk.rank >= 0 && mk.rank != 1) ||
              (isConst(diff) && diff->c != 0)) {
            *why = "logical index mask provably does not fit the dimension";
            return Class::Violating;
          }
          allSafe &= mk.vid != 0 && mk.elem == 2 && mk.rank == 1 &&
                     formEq(dimFormOf(mk, 0), dim);
          break;
        }
      }
    }
    return allSafe ? Class::Safe : Class::Unknown;
  }

  /// Splits a lowered row-major flat offset back into per-dimension digit
  /// forms by matching the `(...((d0)*dim1 + d1)*dim2 + d2...)` shape the
  /// indexing and genarray lowerings emit.
  std::optional<std::vector<Form>> peelFlat(const MatInfo& m, const Expr& flat,
                                            const State& st) {
    int r = m.rank;
    if (r <= 0) return std::nullopt;
    std::vector<Form> digits(static_cast<size_t>(r));
    const Expr* cur = &flat;
    for (int k = r - 1; k >= 1; --k) {
      if (cur->k != Expr::K::Arith || cur->aop != ir::ArithOp::Add)
        return std::nullopt;
      const Expr* mul = cur->args[0].get();
      if (mul->k != Expr::K::Arith || mul->aop != ir::ArithOp::Mul)
        return std::nullopt;
      if (!formEq(evalInt(*mul->args[1], st), dimFormOf(m, k)))
        return std::nullopt;
      digits[static_cast<size_t>(k)] = evalInt(*cur->args[1], st);
      cur = mul->args[0].get();
    }
    digits[0] = evalInt(*cur, st);
    return digits;
  }

  void classifyFlat(const void* site, const Expr& matE, const Expr& flatE,
                    const State& st) {
    MatInfo m = evalMat(matE, st);
    auto digits = peelFlat(m, flatE, st);
    if (!digits) {
      record(site, Class::Unknown);
      return;
    }
    bool allSafe = true;
    for (int k = 0; k < m.rank; ++k) {
      const Form& dig = (*digits)[static_cast<size_t>(k)];
      Form over = addForms(dig, dimFormOf(m, k), -1);
      if (proveMax(dig, -1) || proveMin(over, 0)) {
        record(site, Class::Violating,
               "element access is provably out of bounds");
        return;
      }
      allSafe &= proveMin(dig, 0) && proveMax(over, -1);
    }
    record(site, allSafe ? Class::Safe : Class::Unknown);
  }

  void classifyCallSite(const Expr& e, const State& st) {
    const ir::Builtin c = e.builtin;
    if (c == ir::Builtin::InitMatrix) {
      bool allSafe = true;
      for (size_t i = 1; i < e.args.size(); ++i) {
        Form d = evalInt(*e.args[i], st);
        if (proveMax(d, -1)) {
          record(&e, Class::Violating,
                 "matrix allocation extent is provably negative");
          return;
        }
        allSafe &= proveMin(d, 0);
      }
      record(&e, allSafe ? Class::Safe : Class::Unknown);
      return;
    }
    if (c == ir::Builtin::CheckMatrixMeta) {
      MatInfo src = evalMat(*e.args[0], st);
      Form elemF = evalInt(*e.args[1], st);
      Form rankF = evalInt(*e.args[2], st);
      if (!isConst(elemF) || !isConst(rankF)) {
        record(&e, Class::Unknown);
        return;
      }
      auto wantE = static_cast<int32_t>(elemF->c);
      auto wantR = static_cast<int32_t>(rankF->c);
      if ((src.elem >= 0 && src.elem != wantE) ||
          (src.rank >= 0 && src.rank != wantR)) {
        record(&e, Class::Violating,
               "matrix value provably violates the declared element/rank");
        return;
      }
      record(&e, src.vid != 0 && src.elem == wantE && src.rank == wantR
                     ? Class::Safe
                     : Class::Unknown);
      return;
    }
    if (c == ir::Builtin::CheckGenBounds) {
      Form hi = evalInt(*e.args[0], st);
      Form dim = evalInt(*e.args[1], st);
      Form over = addForms(hi, dim, -1);
      if (proveMin(over, 1)) {
        record(&e, Class::Violating,
               "genarray generator bound provably exceeds the result shape");
        return;
      }
      record(&e, proveMax(over, 0) ? Class::Safe : Class::Unknown);
      return;
    }
  }

  void classifyMatArith(const Expr& e, const State& st) {
    MatInfo a = evalMat(*e.args[0], st);
    MatInfo b = evalMat(*e.args[1], st);
    if (e.k == Expr::K::Arith && e.aop == ir::ArithOp::Mul) {
      // matmul: rank-2 operands, equal elems, inner dims agree.
      Form inner = addForms(dimFormOf(a, 1), dimFormOf(b, 0), -1);
      if ((a.rank >= 0 && a.rank != 2) || (b.rank >= 0 && b.rank != 2) ||
          (a.elem >= 0 && b.elem >= 0 && a.elem != b.elem) ||
          (isConst(inner) && inner->c != 0)) {
        record(&e, Class::Violating,
               "matmul operands provably have incompatible shapes");
        return;
      }
      bool safe = a.rank == 2 && b.rank == 2 && a.elem >= 0 &&
                  a.elem == b.elem && isConst(inner) && inner->c == 0;
      if (!safe && a.rank == 2 && b.rank == 2 && a.elem >= 0 &&
          a.elem == b.elem)
        safe = formEq(dimFormOf(a, 1), dimFormOf(b, 0));
      record(&e, safe ? Class::Safe : Class::Unknown);
      return;
    }
    // Elementwise (and matrix comparisons): identical shape + elem.
    if (a.vid != 0 && a.vid == b.vid) {
      record(&e, Class::Safe);
      return;
    }
    if ((a.rank >= 0 && b.rank >= 0 && a.rank != b.rank) ||
        (a.elem >= 0 && b.elem >= 0 && a.elem != b.elem)) {
      record(&e, Class::Violating,
             "elementwise operands provably differ in shape");
      return;
    }
    if (a.rank >= 0 && a.rank == b.rank) {
      for (int d = 0; d < a.rank; ++d) {
        Form diff = addForms(dimFormOf(a, d), dimFormOf(b, d), -1);
        if (isConst(diff) && diff->c != 0) {
          record(&e, Class::Violating,
                 "elementwise operands provably differ in shape");
          return;
        }
      }
    }
    bool safe = a.rank >= 0 && a.rank == b.rank && a.elem >= 0 &&
                a.elem == b.elem;
    if (safe)
      for (int d = 0; d < a.rank; ++d)
        safe &= formEq(dimFormOf(a, d), dimFormOf(b, d));
    record(&e, safe ? Class::Safe : Class::Unknown);
  }

  /// Classifies every guard site inside `e` (including selector and call
  /// argument subexpressions) against the current state.
  void classifyExpr(const Expr& e, const State& st) {
    for (const auto& a : e.args)
      if (a) classifyExpr(*a, st);
    for (const auto& d : e.dims) {
      if (d.a) classifyExpr(*d.a, st);
      if (d.b) classifyExpr(*d.b, st);
    }
    switch (e.k) {
      case Expr::K::DimSize: {
        MatInfo m = evalMat(*e.args[0], st);
        Form dF = evalInt(*e.args[1], st);
        if (!isConst(dF)) {
          record(&e, Class::Unknown);
          break;
        }
        long long d = dF->c;
        if (m.rank >= 0 && (d < 0 || d >= m.rank)) {
          record(&e, Class::Violating,
                 "dimSize dimension is provably out of range for the rank");
          break;
        }
        // The guard checks null + rank only, so identity is not needed:
        // a definitely-initialized value with statically known rank (e.g.
        // a slot rebound each loop iteration) elides too.
        record(&e, (m.vid != 0 || m.init) && m.rank >= 0 && d >= 0 &&
                           d < m.rank
                       ? Class::Safe
                       : Class::Unknown);
        break;
      }
      case Expr::K::LoadFlat:
        classifyFlat(&e, *e.args[0], *e.args[1], st);
        break;
      case Expr::K::Index: {
        MatInfo m = evalMat(*e.args[0], st);
        const char* why = nullptr;
        Class c = classifySelectors(m, e.dims, st, &why);
        record(&e, c, why);
        break;
      }
      case Expr::K::Arith:
      case Expr::K::Cmp:
        if (e.args.size() == 2 && e.args[0]->ty == ir::Ty::Mat &&
            e.args[1]->ty == ir::Ty::Mat)
          classifyMatArith(e, st);
        break;
      case Expr::K::Call:
        classifyCallSite(e, st);
        break;
      default:
        break;
    }
  }

  void classifyIndexStore(const Stmt& s, const State& st) {
    MatInfo m = matAt(st, s.slot);
    const char* why = nullptr;
    Class c = classifySelectors(m, s.dims, st, &why);
    const Expr& value = *s.exprs[0];
    if (value.ty == ir::Ty::Mat && c != Class::Violating) {
      // Matrix-valued assignment additionally checks elem equality and
      // that the selection count matches the value's element count;
      // per-dimension extent equality is a sufficient proof of the latter.
      MatInfo v = evalMat(value, st);
      if (v.elem >= 0 && m.elem >= 0 && v.elem != m.elem) {
        record(&s, Class::Violating,
               "indexed assignment value provably mismatches the target "
               "element kind");
        return;
      }
      if (c == Class::Safe) {
        std::vector<Form> kept;
        bool countable = true;
        for (size_t d = 0; d < s.dims.size(); ++d) {
          const IndexDim& sel = s.dims[d];
          switch (sel.kind) {
            case IndexDim::Kind::Scalar:
              break;
            case IndexDim::Kind::Range: {
              Form a = evalInt(*sel.a, st);
              Form b = evalInt(*sel.b, st);
              kept.push_back(addForms(addForms(b, a, -1), linConst(1), +1));
              break;
            }
            case IndexDim::Kind::All:
              kept.push_back(dimFormOf(m, static_cast<int>(d)));
              break;
            case IndexDim::Kind::Mask:
              countable = false;
              break;
          }
        }
        bool safe = countable && v.elem >= 0 && v.elem == m.elem &&
                    v.rank == static_cast<int32_t>(kept.size());
        if (safe)
          for (size_t d = 0; d < kept.size(); ++d)
            safe &= formEq(kept[d], v.dims[d]);
        c = safe ? Class::Safe : Class::Unknown;
      }
    }
    record(&s, c, why);
  }

  // --- interprocedural summaries ----------------------------------------
  Form translateForm(const Form& f, const Function* callee, const Stmt& call,
                     const State& st,
                     const std::map<uint64_t, int>& paramVidSlot) {
    if (!f) return std::nullopt;
    Form out = linConst(f->c);
    for (const auto& [aid, coef] : f->t) {
      const Atom& at = atoms_[static_cast<size_t>(aid)];
      Form sub;
      if (at.k == Atom::K::Param && at.fn == callee &&
          at.slot >= 0 && at.slot < static_cast<int32_t>(call.exprs.size())) {
        sub = evalInt(*call.exprs[static_cast<size_t>(at.slot)], st);
      } else if (at.k == Atom::K::Dim) {
        auto it = paramVidSlot.find(at.vid);
        if (it != paramVidSlot.end() &&
            it->second < static_cast<int>(call.exprs.size())) {
          MatInfo ai = evalMat(*call.exprs[static_cast<size_t>(it->second)], st);
          sub = dimFormOf(ai, at.dim);
          if (!sub && ai.vid != 0) sub = linAtom(dimAtom(ai.vid, at.dim));
        }
      }
      out = addForms(out, mulForm(sub, coef), +1);
      if (!out) return std::nullopt;
    }
    return out;
  }

  MatInfo translateSummary(const MatInfo& sum, const Function* callee,
                           const Stmt& call, int dstIdx, const State& st) {
    std::map<uint64_t, int> paramVidSlot;
    for (int i = 0; i < static_cast<int>(callee->numParams); ++i) {
      auto it = siteVids_.find({callee, i});
      if (it != siteVids_.end()) paramVidSlot[it->second] = i;
    }
    MatInfo out;
    auto pv = sum.vid != 0 ? paramVidSlot.find(sum.vid) : paramVidSlot.end();
    if (pv != paramVidSlot.end() &&
        pv->second < static_cast<int>(call.exprs.size()))
      out.vid = evalMat(*call.exprs[static_cast<size_t>(pv->second)], st).vid;
    if (out.vid == 0) out.vid = siteVid(&call, dstIdx);
    out.init = true; // a returning call always yields a value
    out.rank = sum.rank;
    out.elem = sum.elem;
    if (out.rank >= 0) {
      out.dims.assign(static_cast<size_t>(out.rank), std::nullopt);
      for (int d = 0; d < out.rank; ++d) {
        Form f = translateForm(sum.dims[static_cast<size_t>(d)], callee, call,
                               st, paramVidSlot);
        out.dims[static_cast<size_t>(d)] =
            f ? f : linAtom(dimAtom(out.vid, d));
      }
    }
    return out;
  }

  // --- the fixpoint engine ----------------------------------------------
  struct Frame {
    std::optional<State> brk, cont;
  };

  static void setInt(State& st, int32_t slot, Form f) {
    st.ints[static_cast<size_t>(slot)] = std::move(f);
  }

  std::optional<State> exec(const Stmt& s, State st) {
    if (s.range.valid()) curRange_ = s.range;
    switch (s.k) {
      case Stmt::K::Block: {
        std::optional<State> cur = std::move(st);
        for (const auto& k : s.kids) {
          if (!k) continue;
          if (!cur) break; // unreachable tail
          cur = exec(*k, std::move(*cur));
        }
        return cur;
      }
      case Stmt::K::If: {
        std::set<uint64_t> fresh;
        freshVids_ = &fresh;
        classifyExpr(*s.exprs[0], st);
        freshVids_ = nullptr;
        scrub(st, fresh);
        State thenIn = st;
        std::optional<State> thenOut = exec(*s.kids[0], std::move(thenIn));
        std::optional<State> elseOut;
        if (s.kids.size() > 1 && s.kids[1])
          elseOut = exec(*s.kids[1], std::move(st));
        else
          elseOut = std::move(st);
        if (!thenOut) return elseOut;
        if (!elseOut) return thenOut;
        joinState(*thenOut, *elseOut);
        return thenOut;
      }
      case Stmt::K::For:
        return execFor(s, std::move(st));
      case Stmt::K::While:
        return execWhile(s, std::move(st));
      case Stmt::K::Ret: {
        std::set<uint64_t> fresh;
        freshVids_ = &fresh;
        for (const auto& e : s.exprs) classifyExpr(*e, st);
        if (summarizing_ && s.exprs.size() == 1 &&
            curFn_->rets.size() == 1 && curFn_->rets[0] == ir::Ty::Mat) {
          MatInfo r = evalMat(*s.exprs[0], st);
          if (!retAcc_)
            retAcc_ = std::move(r);
          else
            joinMat(*retAcc_, r);
        }
        freshVids_ = nullptr;
        return std::nullopt;
      }
      case Stmt::K::Break:
        if (!frames_.empty()) joinInto(frames_.back().brk, st);
        return std::nullopt;
      case Stmt::K::Continue:
        if (!frames_.empty()) joinInto(frames_.back().cont, st);
        return std::nullopt;
      case Stmt::K::Assign: {
        std::set<uint64_t> fresh;
        freshVids_ = &fresh;
        classifyExpr(*s.exprs[0], st);
        ir::Ty ty = curFn_->locals[static_cast<size_t>(s.slot)].ty;
        Form iv;
        MatInfo mv;
        if (ty == ir::Ty::I32 || ty == ir::Ty::Bool)
          iv = evalInt(*s.exprs[0], st);
        else if (ty == ir::Ty::Mat)
          mv = evalMat(*s.exprs[0], st);
        freshVids_ = nullptr;
        scrub(st, fresh);
        if (ty == ir::Ty::I32 || ty == ir::Ty::Bool)
          setInt(st, s.slot, std::move(iv));
        else if (ty == ir::Ty::Mat)
          st.mats[static_cast<size_t>(s.slot)] = std::move(mv);
        return st;
      }
      case Stmt::K::IndexStore: {
        std::set<uint64_t> fresh;
        freshVids_ = &fresh;
        for (const auto& d : s.dims) {
          if (d.a) classifyExpr(*d.a, st);
          if (d.b) classifyExpr(*d.b, st);
        }
        classifyExpr(*s.exprs[0], st);
        classifyIndexStore(s, st);
        freshVids_ = nullptr;
        scrub(st, fresh);
        return st;
      }
      case Stmt::K::StoreFlat: {
        std::set<uint64_t> fresh;
        freshVids_ = &fresh;
        classifyExpr(*s.exprs[0], st);
        classifyExpr(*s.exprs[1], st);
        // The store's bounds guard is the same flat-offset check as a
        // load; classify against the target slot's matrix.
        {
          ir::Expr tmp; // virtual Var for the target handle
          tmp.k = Expr::K::Var;
          tmp.ty = ir::Ty::Mat;
          tmp.slot = s.slot;
          classifyFlat(&s, tmp, *s.exprs[0], st);
        }
        freshVids_ = nullptr;
        scrub(st, fresh);
        return st;
      }
      case Stmt::K::CallStmt: {
        std::set<uint64_t> fresh;
        freshVids_ = &fresh;
        classifyExpr(*s.exprs[0], st);
        freshVids_ = nullptr;
        scrub(st, fresh);
        return st;
      }
      case Stmt::K::CallAssign:
        return execCallAssign(s, std::move(st));
    }
    return st;
  }

  State execCallAssign(const Stmt& s, State st) {
    std::set<uint64_t> fresh;
    freshVids_ = &fresh;
    for (const auto& e : s.exprs) classifyExpr(*e, st);
    const Function* callee = mod_.find(s.callee);
    std::vector<std::pair<int32_t, MatInfo>> matDsts;
    for (size_t i = 0; i < s.dsts.size(); ++i) {
      int32_t dst = s.dsts[i];
      if (curFn_->locals[static_cast<size_t>(dst)].ty != ir::Ty::Mat) continue;
      MatInfo v;
      auto sum = callee ? retSummary_.find(callee) : retSummary_.end();
      if (callee && s.dsts.size() == 1 && sum != retSummary_.end() &&
          s.exprs.size() == callee->numParams) {
        v = translateSummary(sum->second, callee, s, static_cast<int>(i), st);
      } else {
        v.vid = siteVid(&s, static_cast<int>(i));
        v.init = true;
        // The destination's declared type bounds the returned value.
        const ir::Local& l = curFn_->locals[static_cast<size_t>(dst)];
        v.rank = l.matRank;
        v.elem = l.matElem;
        if (v.rank >= 0)
          for (int d = 0; d < v.rank; ++d)
            v.dims.push_back(linAtom(dimAtom(v.vid, d)));
      }
      matDsts.emplace_back(dst, std::move(v));
    }
    freshVids_ = nullptr;
    scrub(st, fresh);
    for (int32_t dst : s.dsts)
      if (curFn_->locals[static_cast<size_t>(dst)].ty == ir::Ty::I32 ||
          curFn_->locals[static_cast<size_t>(dst)].ty == ir::Ty::Bool)
        setInt(st, dst, std::nullopt);
    for (auto& [dst, v] : matDsts) st.mats[static_cast<size_t>(dst)] = std::move(v);
    return st;
  }

  std::optional<State> execFor(const Stmt& s, State st) {
    std::set<uint64_t> fresh;
    freshVids_ = &fresh;
    classifyExpr(*s.exprs[0], st);
    classifyExpr(*s.exprs[1], st);
    Form lo = evalInt(*s.exprs[0], st);
    Form hiEx = evalInt(*s.exprs[1], st);
    freshVids_ = nullptr;
    scrub(st, fresh);

    int la = -1;
    Form indForm;
    if (!indVarWritten_.count(&s)) {
      la = loopAtom(&s);
      auto [it, first] = loopRanges_.try_emplace(&s, LoopRange{lo, hiEx});
      if (!first) {
        joinForm(it->second.lo, lo);
        joinForm(it->second.hiEx, hiEx);
      }
      indForm = linAtom(la);
    }

    State acc = st;
    setInt(acc, s.slot, indForm);
    std::optional<State> brkTotal;
    bool stable = false;
    for (int round = 0; round < 64; ++round) {
      frames_.push_back({});
      std::optional<State> out = exec(*s.kids[0], acc);
      Frame fr = std::move(frames_.back());
      frames_.pop_back();
      bool changed = false;
      if (out) {
        widenLoop(*out, la);
        setInt(*out, s.slot, indForm);
        changed |= joinState(acc, *out);
      }
      if (fr.cont) {
        widenLoop(*fr.cont, la);
        setInt(*fr.cont, s.slot, indForm);
        changed |= joinState(acc, *fr.cont);
      }
      if (fr.brk) {
        widenLoop(*fr.brk, la);
        joinInto(brkTotal, *fr.brk);
      }
      if (!changed) {
        stable = true;
        break;
      }
    }
    if (!stable) poisoned_ = true;

    // acc subsumes the zero-iterations path (it was seeded from the
    // pre-loop state and only ever joined).
    State exit = std::move(acc);
    if (brkTotal) joinState(exit, *brkTotal);
    setInt(exit, s.slot, std::nullopt);
    return exit;
  }

  std::optional<State> execWhile(const Stmt& s, State st) {
    State acc = std::move(st);
    std::optional<State> brkTotal;
    bool stable = false;
    for (int round = 0; round < 64; ++round) {
      std::set<uint64_t> fresh;
      freshVids_ = &fresh;
      classifyExpr(*s.exprs[0], acc);
      freshVids_ = nullptr;
      scrub(acc, fresh);
      frames_.push_back({});
      std::optional<State> out = exec(*s.kids[0], acc);
      Frame fr = std::move(frames_.back());
      frames_.pop_back();
      bool changed = false;
      if (out) changed |= joinState(acc, *out);
      if (fr.cont) changed |= joinState(acc, *fr.cont);
      if (fr.brk) joinInto(brkTotal, *fr.brk);
      if (!changed) {
        stable = true;
        break;
      }
    }
    if (!stable) poisoned_ = true;
    State exit = std::move(acc);
    if (brkTotal) joinState(exit, *brkTotal);
    return exit;
  }

  // --- per-function driver ----------------------------------------------
  void analyzeFunction(const Function& f) {
    curFn_ = &f;
    curRange_ = SourceRange{};
    poisoned_ = false;
    fnClass_.clear();
    fnViol_.clear();
    retAcc_.reset();
    frames_.clear();

    State st;
    st.ints.assign(f.locals.size(), std::nullopt);
    st.mats.assign(f.locals.size(), MatInfo{});
    for (size_t i = 0; i < f.numParams; ++i) {
      const ir::Local& l = f.locals[i];
      if (l.ty == ir::Ty::I32) {
        st.ints[i] = linAtom(paramAtom(&f, static_cast<int32_t>(i)));
      } else if (l.ty == ir::Ty::Mat) {
        MatInfo m;
        m.vid = siteVid(&f, static_cast<int>(i));
        // Same definite-initialization assumption the vid encodes: callers
        // pass evaluated (non-null) matrix values.
        m.init = true;
        m.rank = l.matRank;
        m.elem = l.matElem;
        if (m.rank >= 0)
          for (int d = 0; d < m.rank; ++d)
            m.dims.push_back(linAtom(dimAtom(m.vid, d)));
        st.mats[i] = std::move(m);
      }
    }
    if (f.body) exec(*f.body, std::move(st));

    if (poisoned_) {
      retAcc_.reset();
      fnClass_.clear();
      fnViol_.clear();
      return;
    }
    if (summarizing_) {
      if (retAcc_)
        retSummary_[&f] = *retAcc_;
      else
        retSummary_.erase(&f);
    }
    if (recording_) {
      for (auto& [site, c] : fnClass_) classMap_[site] = c;
      for (auto& [site, v] : fnViol_) violations_[site] = v;
    }
  }

  // --- static site enumeration ------------------------------------------
  void enumerateSites(const Function& f, std::vector<const void*>& out,
                      std::map<const void*, SourceRange>& ranges) {
    if (!f.body) return;
    SourceRange cur{};
    forEachStmt(*f.body, [&](const Stmt& s) {
      // Preorder visit gives a best-effort source range for sites inside
      // synthesized glue (the nearest stamped ancestor/predecessor).
      if (s.range.valid()) cur = s.range;
      if (s.k == Stmt::K::StoreFlat || s.k == Stmt::K::IndexStore) {
        out.push_back(&s);
        ranges[&s] = cur;
      }
      forEachStmtExpr(s, [&](const Expr& e) {
        bool site = false;
        switch (e.k) {
          case Expr::K::DimSize:
          case Expr::K::LoadFlat:
          case Expr::K::Index:
            site = true;
            break;
          case Expr::K::Arith:
          case Expr::K::Cmp:
            site = e.args.size() == 2 && e.args[0]->ty == ir::Ty::Mat &&
                   e.args[1]->ty == ir::Ty::Mat;
            break;
          case Expr::K::Call:
            site = e.builtin == ir::Builtin::InitMatrix ||
                   e.builtin == ir::Builtin::CheckMatrixMeta ||
                   e.builtin == ir::Builtin::CheckGenBounds;
            break;
          default:
            break;
        }
        if (site) {
          out.push_back(&e);
          ranges[&e] = cur;
        }
      });
    });
  }

  // --- members -----------------------------------------------------------
  const ir::Module& mod_;
  ShapeCheckOptions opts_;
  ir::GuardPlan& plan_;
  DiagnosticEngine& diags_;

  std::vector<Atom> atoms_;
  std::map<std::pair<uint64_t, int32_t>, int> dimAtomIds_;
  std::map<std::pair<const Function*, int32_t>, int> paramAtomIds_;
  std::map<const Stmt*, int> loopAtomIds_;
  std::map<std::pair<const void*, int>, uint64_t> siteVids_;
  uint64_t nextVid_ = 1;
  std::set<uint64_t>* freshVids_ = nullptr;

  std::map<const Stmt*, LoopRange> loopRanges_;
  std::set<const Stmt*> indVarWritten_;

  const Function* curFn_ = nullptr;
  SourceRange curRange_{};
  std::vector<Frame> frames_;
  bool poisoned_ = false;

  bool summarizing_ = false;
  bool recording_ = false;
  std::optional<MatInfo> retAcc_;
  std::map<const Function*, MatInfo> retSummary_;

  std::map<const void*, Class> fnClass_;
  std::map<const void*, Class> classMap_;
  struct Violation {
    std::string msg;
    SourceRange range;
  };
  std::map<const void*, Violation> fnViol_;
  std::map<const void*, Violation> violations_;
};

ShapeCheckStats Checker::run() {
  // Precompute For loops whose body rewrites the induction variable (no
  // induction atom for those) and the syntactically borrowed parameters.
  for (const auto& f : mod_.functions) {
    if (!f->body) continue;
    forEachStmt(*f->body, [&](const Stmt& s) {
      if (s.k != Stmt::K::For) return;
      forEachStmt(*s.kids[0], [&](const Stmt& inner) {
        for (int32_t w : writtenSlots(inner))
          if (w == s.slot) indVarWritten_.insert(&s);
      });
    });
    std::set<int32_t> written;
    forEachStmt(*f->body, [&](const Stmt& s) {
      for (int32_t w : writtenSlots(s)) written.insert(w);
    });
    for (size_t i = 0; i < f->numParams; ++i)
      if (f->locals[i].ty == ir::Ty::Mat &&
          !written.count(static_cast<int32_t>(i)))
        plan_.borrowedParams[f.get()].insert(static_cast<int32_t>(i));
  }

  // Pass 1: return-shape summaries to a (bounded) fixpoint. Every round
  // starts from over-approximate callee facts, so the final round's
  // summaries are sound even if the bound is hit.
  summarizing_ = true;
  for (int round = 0; round < 4; ++round) {
    auto before = retSummary_;
    loopRanges_.clear();
    for (const auto& f : mod_.functions) analyzeFunction(*f);
    if (retSummary_ == before) break;
  }
  summarizing_ = false;

  // Pass 2: classification under the final summaries.
  recording_ = true;
  loopRanges_.clear();
  for (const auto& f : mod_.functions) analyzeFunction(*f);
  recording_ = false;

  // Census + plan. Sites the fixpoint never reached (dead code, poisoned
  // functions) default to Unknown: guard kept, nothing reported.
  ShapeCheckStats stats;
  std::vector<const void*> sites;
  std::map<const void*, SourceRange> siteRanges;
  for (const auto& f : mod_.functions) enumerateSites(*f, sites, siteRanges);
  stats.guardsTotal = sites.size();
  std::vector<std::pair<SourceRange, std::string>> viols;
  for (const void* site : sites) {
    auto it = classMap_.find(site);
    Class c = it == classMap_.end() ? Class::Unknown : it->second;
    if (c == Class::Safe) {
      plan_.safe.insert(site);
      ++stats.guardsSafe;
    } else if (c == Class::Violating) {
      ++stats.guardsViolating;
      auto v = violations_.find(site);
      SourceRange r = v != violations_.end() && v->second.range.valid()
                          ? v->second.range
                          : siteRanges[site];
      viols.emplace_back(r, v != violations_.end()
                                ? v->second.msg
                                : "guard provably fails");
    }
  }
  for (const auto& [fn, slots] : plan_.borrowedParams)
    stats.borrowedParams += slots.size();

  if (opts_.warnShape || opts_.strictShape) {
    std::stable_sort(viols.begin(), viols.end(),
                     [](const auto& a, const auto& b) {
                       if (a.first.begin.file != b.first.begin.file)
                         return a.first.begin.file < b.first.begin.file;
                       return a.first.begin.offset < b.first.begin.offset;
                     });
    DiagnosticEngine::OriginScope origin(diags_, "matrix");
    for (const auto& [r, msg] : viols) {
      if (opts_.strictShape)
        diags_.error(r, msg + " (use --bounds-checks=on to keep the runtime "
                            "guard semantics; this access can never succeed)");
      else
        diags_.warning(r, msg);
    }
  }
  return stats;
}

// --- genarray full-write detection (ISSUE 9) -------------------------------
//
// Matches the exact statement sequence lowerWith emits for a genarray:
//
//   res = initMatrix(elem, sh_0, ..., sh_{r-1});
//   checkGenBounds(hi_0, sh_0); ... checkGenBounds(hi_{r-1}, sh_{r-1});
//   for (i_0 = lo_0; i_0 < hi_0; i_0++)
//     ...
//       for (i_{r-1} = lo_{r-1}; i_{r-1} < hi_{r-1}; i_{r-1}++) {
//         <element temps>; res.data[flat] = v;
//       }
//
// and proves lo_d == 0 and hi_d == sh_d for every dimension, in which case
// the nest stores to every element of `res` and the backends may allocate
// the result uninitialized instead of zero-filling it (the interpreter via
// Matrix::uninit, the C emitter via mmx_allocv_u). Anything the optimizer
// or a transformation tail reshaped simply fails the match — a
// conservative "keep the zero-fill".

/// Expressions whose value depends only on the referenced local slots
/// (no matrix reads, no calls) — safe to compare structurally.
bool pureScalarExpr(const ir::Expr& e) {
  switch (e.k) {
    case ir::Expr::K::ConstI:
    case ir::Expr::K::Var:
      break;
    case ir::Expr::K::Arith:
    case ir::Expr::K::Neg:
    case ir::Expr::K::Cast:
      break;
    default:
      return false;
  }
  for (const auto& a : e.args)
    if (!a || !pureScalarExpr(*a)) return false;
  return true;
}

bool sameExpr(const ir::Expr& a, const ir::Expr& b) {
  if (a.k != b.k || a.ty != b.ty) return false;
  switch (a.k) {
    case ir::Expr::K::ConstI:
      if (a.i != b.i) return false;
      break;
    case ir::Expr::K::Var:
      if (a.slot != b.slot) return false;
      break;
    case ir::Expr::K::Arith:
      if (a.aop != b.aop) return false;
      break;
    case ir::Expr::K::Neg:
    case ir::Expr::K::Cast:
      break;
    default:
      return false;
  }
  if (a.args.size() != b.args.size()) return false;
  for (size_t i = 0; i < a.args.size(); ++i)
    if (!sameExpr(*a.args[i], *b.args[i])) return false;
  return true;
}

void collectSlotRefs(const ir::Expr& e, std::set<int32_t>& out) {
  if (e.k == ir::Expr::K::Var) out.insert(e.slot);
  for (const auto& a : e.args)
    if (a) collectSlotRefs(*a, out);
  for (const auto& d : e.dims) {
    if (d.a) collectSlotRefs(*d.a, out);
    if (d.b) collectSlotRefs(*d.b, out);
  }
}

/// Does `s` (recursively) store to local `slot` — including as a loop
/// variable, a CallAssign destination, or the target of an IndexStore /
/// StoreFlat (content mutation counts: the slot no longer holds the value
/// it had)?
bool writesSlot(const ir::Stmt& s, int32_t slot) {
  switch (s.k) {
    case ir::Stmt::K::Assign:
    case ir::Stmt::K::IndexStore:
    case ir::Stmt::K::StoreFlat:
    case ir::Stmt::K::For:
      if (s.slot == slot) return true;
      break;
    case ir::Stmt::K::CallAssign:
      for (int32_t d : s.dsts)
        if (d == slot) return true;
      break;
    default:
      break;
  }
  for (const auto& k : s.kids)
    if (k && writesSlot(*k, slot)) return true;
  return false;
}

bool exprTouchesSlot(const ir::Expr& e, int32_t slot) {
  if (e.k == ir::Expr::K::Var && e.slot == slot) return true;
  for (const auto& a : e.args)
    if (a && exprTouchesSlot(*a, slot)) return true;
  for (const auto& d : e.dims) {
    if (d.a && exprTouchesSlot(*d.a, slot)) return true;
    if (d.b && exprTouchesSlot(*d.b, slot)) return true;
  }
  return false;
}

/// Any mention of `slot` inside `s` — read or write — other than as the
/// store target of the single exempted StoreFlat (whose index/value
/// operands are still checked).
bool touchesSlot(const ir::Stmt& s, int32_t slot, const ir::Stmt* exempt) {
  switch (s.k) {
    case ir::Stmt::K::Assign:
    case ir::Stmt::K::IndexStore:
    case ir::Stmt::K::StoreFlat:
    case ir::Stmt::K::For:
      if (&s != exempt && s.slot == slot) return true;
      break;
    case ir::Stmt::K::CallAssign:
      for (int32_t d : s.dsts)
        if (d == slot) return true;
      break;
    default:
      break;
  }
  for (const auto& e : s.exprs)
    if (e && exprTouchesSlot(*e, slot)) return true;
  for (const auto& d : s.dims) {
    if (d.a && exprTouchesSlot(*d.a, slot)) return true;
    if (d.b && exprTouchesSlot(*d.b, slot)) return true;
  }
  for (const auto& k : s.kids)
    if (k && touchesSlot(*k, slot, exempt)) return true;
  return false;
}

/// Break / Continue / Ret anywhere would let an iteration skip the store.
bool hasEarlyExit(const ir::Stmt& s) {
  if (s.k == ir::Stmt::K::Break || s.k == ir::Stmt::K::Continue ||
      s.k == ir::Stmt::K::Ret)
    return true;
  for (const auto& k : s.kids)
    if (k && hasEarlyExit(*k)) return true;
  return false;
}

/// The last write to `slot` before `end` in this kid list is `slot = 0`.
bool provedZero(const std::vector<ir::StmtPtr>& kids, size_t end,
                int32_t slot) {
  for (size_t i = end; i-- > 0;) {
    const ir::Stmt& st = *kids[i];
    if (st.k == ir::Stmt::K::Assign && st.slot == slot)
      return st.exprs.size() == 1 &&
             st.exprs[0]->k == ir::Expr::K::ConstI && st.exprs[0]->i == 0;
    if (writesSlot(st, slot)) return false;
  }
  return false;
}

/// `a` and `b` provably hold the same value at statement `end`: their
/// latest defining statements are simple assignments of structurally
/// equal pure expressions (or one is a plain copy of the other), and
/// nothing in between (or after, up to `end`) rewrites either slot or
/// any slot the expressions read.
bool provedEqual(const std::vector<ir::StmtPtr>& kids, size_t end, int32_t a,
                 int32_t b) {
  if (a == b) return true;
  size_t defA = end, defB = end;
  const ir::Expr *ea = nullptr, *eb = nullptr;
  for (size_t i = end; i-- > 0;) {
    const ir::Stmt& st = *kids[i];
    if (!ea && writesSlot(st, a)) {
      if (st.k != ir::Stmt::K::Assign || st.slot != a ||
          st.exprs.size() != 1 || !pureScalarExpr(*st.exprs[0]))
        return false;
      ea = st.exprs[0].get();
      defA = i;
    }
    if (!eb && writesSlot(st, b)) {
      if (st.k != ir::Stmt::K::Assign || st.slot != b ||
          st.exprs.size() != 1 || !pureScalarExpr(*st.exprs[0]))
        return false;
      eb = st.exprs[0].get();
      defB = i;
    }
    if (ea && eb) break;
  }
  // Copy chains: `b = a` (or `a = b`) makes the pair equal as long as the
  // copied-from slot is not rewritten before `end` — which the watched-set
  // scan below enforces.
  bool copyOfEachOther =
      (eb && eb->k == ir::Expr::K::Var && eb->slot == a && defB > defA) ||
      (ea && ea->k == ir::Expr::K::Var && ea->slot == b && defA > defB);
  if (!copyOfEachOther) {
    if (!ea || !eb || !sameExpr(*ea, *eb)) return false;
  }
  std::set<int32_t> watched;
  if (ea) collectSlotRefs(*ea, watched);
  if (eb) collectSlotRefs(*eb, watched);
  watched.insert(a);
  watched.insert(b);
  size_t first = defA < defB ? defA : defB;
  for (size_t i = first + 1; i < end; ++i) {
    if (i == defA || i == defB) continue;
    for (int32_t v : watched)
      if (writesSlot(*kids[i], v)) return false;
  }
  return true;
}

void matchGenarrayFullWrites(const std::vector<ir::StmtPtr>& kids,
                             ir::GuardPlan& plan) {
  for (size_t i = 0; i < kids.size(); ++i) {
    // Anchor: a For nest whose innermost body ends in a StoreFlat. Walk
    // down collecting (loopVar, lo, hi) per level; every bound must be a
    // plain local so the proofs below can reason about it.
    const ir::Stmt& nest = *kids[i];
    if (nest.k != ir::Stmt::K::For) continue;
    std::vector<int32_t> lo, hi, iv;
    const ir::Stmt* loop = &nest;
    const ir::Stmt* store = nullptr;
    bool nestOk = true;
    while (true) {
      if (loop->k != ir::Stmt::K::For || loop->exprs.size() != 2 ||
          loop->exprs[0]->k != ir::Expr::K::Var ||
          loop->exprs[1]->k != ir::Expr::K::Var || loop->kids.empty() ||
          !loop->kids[0]) {
        nestOk = false;
        break;
      }
      lo.push_back(loop->exprs[0]->slot);
      hi.push_back(loop->exprs[1]->slot);
      iv.push_back(loop->slot);
      const ir::Stmt* body = loop->kids[0].get();
      if (body->k == ir::Stmt::K::Block && body->kids.size() == 1 &&
          body->kids[0] && body->kids[0]->k == ir::Stmt::K::For) {
        body = body->kids[0].get();
      }
      if (body->k == ir::Stmt::K::For) {
        loop = body;
        continue;
      }
      // Innermost: the unconditional store must be the last statement.
      if (body->k == ir::Stmt::K::StoreFlat) {
        store = body;
      } else if (body->k == ir::Stmt::K::Block && !body->kids.empty() &&
                 body->kids.back() &&
                 body->kids.back()->k == ir::Stmt::K::StoreFlat) {
        store = body->kids.back().get();
      }
      break;
    }
    size_t rank = lo.size();
    if (!nestOk || !store || rank == 0) continue;
    int32_t res = store->slot;

    // The defining allocation: the last write to `res` before the nest
    // must be `res = initMatrix(elem, dim_0, ..., dim_{rank-1})` with
    // plain-local dims, and `res` untouched (and the path unbroken — no
    // way to jump past the nest) in between.
    size_t defIdx = kids.size();
    for (size_t j = i; j-- > 0;) {
      if (writesSlot(*kids[j], res)) {
        defIdx = j;
        break;
      }
    }
    if (defIdx >= kids.size()) continue;
    const ir::Stmt& def = *kids[defIdx];
    if (def.k != ir::Stmt::K::Assign || def.exprs.size() != 1) continue;
    const ir::Expr& init = *def.exprs[0];
    if (init.k != ir::Expr::K::Call || init.builtin != ir::Builtin::InitMatrix)
      continue;
    if (init.args.size() != rank + 1) continue;
    if (init.args[0]->k != ir::Expr::K::ConstI) continue;
    std::vector<int32_t> dim;
    bool dimsOk = true;
    for (size_t d = 0; d < rank; ++d) {
      if (init.args[1 + d]->k != ir::Expr::K::Var) {
        dimsOk = false;
        break;
      }
      dim.push_back(init.args[1 + d]->slot);
    }
    if (!dimsOk) continue;
    bool betweenOk = true;
    for (size_t j = defIdx + 1; j < i && betweenOk; ++j)
      betweenOk = !touchesSlot(*kids[j], res, nullptr) &&
                  !hasEarlyExit(*kids[j]);
    if (!betweenOk) continue;

    // The store's flat index must be the canonical row-major form
    //   ((iv_0 * s_1 + iv_1) * s_2 + ...) + iv_{rank-1}
    // with each stride s_d provably equal to the allocated dim_d.
    std::vector<int32_t> stride(rank, -1); // stride[0] unused
    const ir::Expr* flat = store->exprs[0].get();
    bool flatOk = true;
    for (size_t d = rank; d-- > 1;) {
      flatOk = flat->k == ir::Expr::K::Arith &&
               flat->aop == ir::ArithOp::Add && flat->args.size() == 2 &&
               flat->args[1]->k == ir::Expr::K::Var &&
               flat->args[1]->slot == iv[d] &&
               flat->args[0]->k == ir::Expr::K::Arith &&
               flat->args[0]->aop == ir::ArithOp::Mul &&
               flat->args[0]->args.size() == 2 &&
               flat->args[0]->args[1]->k == ir::Expr::K::Var;
      if (!flatOk) break;
      stride[d] = flat->args[0]->args[1]->slot;
      flat = flat->args[0]->args[0].get();
    }
    flatOk = flatOk && flat->k == ir::Expr::K::Var && flat->slot == iv[0];
    if (!flatOk) continue;
    // Distinct loop variables (a reused var would alias two dims).
    std::set<int32_t> ivSet(iv.begin(), iv.end());
    if (ivSet.size() != rank) continue;

    if (hasEarlyExit(nest)) continue;
    if (touchesSlot(nest, res, store)) continue;

    // Bound proofs: lo_d == 0 and hi_d == dim_d (the allocated extent),
    // strides match the allocated dims, and none of those slots move —
    // not between the allocation and the nest, and not inside the nest
    // (inner bounds are re-read every outer iteration).
    bool proven = true;
    for (size_t d = 0; d < rank && proven; ++d) {
      proven = provedZero(kids, i, lo[d]) &&
               provedEqual(kids, i, hi[d], dim[d]) &&
               (d == 0 || provedEqual(kids, i, stride[d], dim[d])) &&
               !writesSlot(nest, lo[d]) && !writesSlot(nest, hi[d]) &&
               (d == 0 || !writesSlot(nest, stride[d]));
      for (size_t j = defIdx + 1; j < i && proven; ++j)
        proven = !writesSlot(*kids[j], dim[d]);
    }
    if (!proven) continue;

    plan.fullyWritten.insert(def.exprs[0].get());
  }
}

void walkFullWrites(const ir::Stmt& s, ir::GuardPlan& plan) {
  if (s.k == ir::Stmt::K::Block) matchGenarrayFullWrites(s.kids, plan);
  for (const auto& k : s.kids)
    if (k) walkFullWrites(*k, plan);
}

} // namespace

ShapeCheckStats checkShapes(const ir::Module& m, ir::GuardPlan& plan,
                            DiagnosticEngine& diags,
                            const ShapeCheckOptions& opts) {
  Checker ck(m, opts, plan, diags);
  ShapeCheckStats st = ck.run();
  for (const auto& f : m.functions)
    if (f->body) walkFullWrites(*f->body, plan);
  return st;
}

} // namespace mmx::analysis
