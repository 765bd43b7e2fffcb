#include "interp/interp.hpp"

#include <atomic>
#include <cmath>
#include <cstring>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include "runtime/conncomp.hpp"
#include "runtime/eddy.hpp"
#include "runtime/backend.hpp"
#include "runtime/kernels.hpp"
#include "runtime/matio.hpp"
#include "runtime/simd.hpp"
#include "runtime/ssh_synth.hpp"
#include "support/metrics.hpp"

namespace mmx::interp {

using ir::ArithOp;
using ir::CmpKind;
using ir::Expr;
using ir::Stmt;
using ir::Ty;
using rt::Matrix;

ir::Ty tyOf(const Value& v) {
  switch (v.index()) {
    case 1: return Ty::I32;
    case 2: return Ty::F32;
    case 3: return Ty::Bool;
    case 4: return Ty::Mat;
    case 5: return Ty::Str;
    default: return Ty::Void;
  }
}

namespace {

[[noreturn]] void fail(const std::string& msg) { throw RuntimeError(msg); }

/// True on pool worker threads while a parallel region runs: nested
/// parallel loops (including those inside functions called from the
/// region) must run serially, never re-enter the pool.
thread_local bool t_onWorkerThread = false;

/// Grain for the interpreter's own tight element loops (scalar-op-matrix
/// fallbacks): matches the runtime kernels' threshold below which a pool
/// round-trip costs more than the loop body.
constexpr int64_t kScalarLoopGrain = 4096;

int32_t asI(const Value& v) {
  if (auto* p = std::get_if<int32_t>(&v)) return *p;
  if (auto* p = std::get_if<bool>(&v)) return *p ? 1 : 0;
  fail("expected int value");
}
float asF(const Value& v) {
  if (auto* p = std::get_if<float>(&v)) return *p;
  if (auto* p = std::get_if<int32_t>(&v)) return static_cast<float>(*p);
  fail("expected float value");
}
bool asB(const Value& v) {
  if (auto* p = std::get_if<bool>(&v)) return *p;
  if (auto* p = std::get_if<int32_t>(&v)) return *p != 0;
  fail("expected bool value");
}
const Matrix& asM(const Value& v) {
  if (auto* p = std::get_if<Matrix>(&v)) return *p;
  fail("expected matrix value");
}
const std::string& asS(const Value& v) {
  if (auto* p = std::get_if<std::string>(&v)) return *p;
  fail("expected string value");
}

rt::BinOp toRtBin(ArithOp op) {
  switch (op) {
    case ArithOp::Add: return rt::BinOp::Add;
    case ArithOp::Sub: return rt::BinOp::Sub;
    case ArithOp::Mul:
    case ArithOp::EwMul: return rt::BinOp::Mul;
    case ArithOp::Div: return rt::BinOp::Div;
    case ArithOp::Mod: return rt::BinOp::Mod;
    case ArithOp::Min: return rt::BinOp::Min;
    case ArithOp::Max: return rt::BinOp::Max;
  }
  fail("bad arith op");
}

rt::CmpOp toRtCmp(CmpKind op) {
  switch (op) {
    case CmpKind::Lt: return rt::CmpOp::Lt;
    case CmpKind::Le: return rt::CmpOp::Le;
    case CmpKind::Gt: return rt::CmpOp::Gt;
    case CmpKind::Ge: return rt::CmpOp::Ge;
    case CmpKind::Eq: return rt::CmpOp::Eq;
    case CmpKind::Ne: return rt::CmpOp::Ne;
  }
  fail("bad cmp op");
}

CmpKind mirrorCmp(CmpKind op) {
  switch (op) {
    case CmpKind::Lt: return CmpKind::Gt;
    case CmpKind::Le: return CmpKind::Ge;
    case CmpKind::Gt: return CmpKind::Lt;
    case CmpKind::Ge: return CmpKind::Le;
    default: return op;
  }
}

template <class T> T scalarArith(ArithOp op, T a, T b) {
  switch (op) {
    case ArithOp::Add: return a + b;
    case ArithOp::Sub: return a - b;
    case ArithOp::Mul:
    case ArithOp::EwMul: return a * b;
    case ArithOp::Div:
      if constexpr (std::is_integral_v<T>) {
        if (b == 0) fail("integer division by zero");
        return a / b;
      } else {
        return a / b;
      }
    case ArithOp::Mod:
      if constexpr (std::is_integral_v<T>) {
        if (b == 0) fail("integer modulo by zero");
        return a % b;
      } else {
        return std::fmod(a, b);
      }
    case ArithOp::Min: return a < b ? a : b;
    case ArithOp::Max: return a > b ? a : b;
  }
  fail("bad arith op");
}

template <class T> bool scalarCmp(CmpKind op, T a, T b) {
  switch (op) {
    case CmpKind::Lt: return a < b;
    case CmpKind::Le: return a <= b;
    case CmpKind::Gt: return a > b;
    case CmpKind::Ge: return a >= b;
    case CmpKind::Eq: return a == b;
    case CmpKind::Ne: return a != b;
  }
  fail("bad cmp op");
}

/// Resolved per-dimension selector.
struct Selector {
  std::vector<int64_t> idxs;
  bool keep = true; // scalar dims are dropped from the result rank
};

/// 4-lane vector value.
struct VVal {
  bool isF = false;
  rt::Vec4f f{};
  rt::Vec4i i{};

  static VVal ofF(rt::Vec4f v) {
    VVal r;
    r.isF = true;
    r.f = v;
    return r;
  }
  static VVal ofI(rt::Vec4i v) {
    VVal r;
    r.i = v;
    return r;
  }
  rt::Vec4f toF() const {
    if (isF) return f;
    return {_mm_cvtepi32_ps(i.v)};
  }
};

} // namespace

/// Stateless serial executor used for matrix kernels evaluated inside an
/// already-parallel region: re-entering the fork-join pool from a worker
/// would corrupt the active region's work descriptor.
rt::SerialExecutor g_serialExec;

/// Per-call execution context.
class Exec {
public:
  Exec(Machine& m, const ir::Function& f, bool inParallel)
      : m_(m), f_(f), inParallel_(inParallel || t_onWorkerThread) {}

  // Statement/lane counts are plain members bumped unconditionally (an
  // increment is cheaper than re-checking metrics::enabled() per
  // statement) and batched into the registry once per call frame.
  ~Exec() {
    if (!metrics::enabled() || (stmts_ == 0 && laneOps_ == 0)) return;
    static const metrics::Counter stmts = metrics::counter("interp.stmts");
    static const metrics::Counter lanes =
        metrics::counter("interp.vectorLaneOps");
    if (stmts_) stmts.add(stmts_);
    if (laneOps_) lanes.add(laneOps_);
  }

  std::vector<Value> run(std::vector<Value> args) {
    if (args.size() != f_.numParams)
      fail("call to " + f_.name + ": expected " +
           std::to_string(f_.numParams) + " arguments, got " +
           std::to_string(args.size()));
    locals_.resize(f_.locals.size());
    for (size_t i = 0; i < args.size(); ++i) locals_[i] = std::move(args[i]);
    // Scalar locals start at zero, as the emitted C declares them.
    for (size_t i = args.size(); i < locals_.size(); ++i) {
      switch (f_.locals[i].ty) {
        case Ty::I32: locals_[i] = int32_t{0}; break;
        case Ty::F32: locals_[i] = 0.0f; break;
        case Ty::Bool: locals_[i] = false; break;
        default: break;
      }
    }
    Flow fl = exec(*f_.body);
    if (fl != Flow::Return && !f_.rets.empty())
      fail(f_.name + ": control reached end of non-void function");
    return std::move(rets_);
  }

private:
  enum class Flow { Normal, Break, Continue, Return };

  /// True when the runtime guard at `site` (the IR node's address, the
  /// key the shapecheck pass recorded) should be skipped this run.
  bool skipGuard(const void* site) const {
    if (m_.boundsChecks_ == ir::BoundsCheckMode::On) return false;
    if (m_.boundsChecks_ == ir::BoundsCheckMode::Off) return true;
    return m_.guardPlan_ && m_.guardPlan_->blessed(site);
  }

  // ---- statements -----------------------------------------------------
  Flow exec(const Stmt& s) {
    ++stmts_;
    switch (s.k) {
      case Stmt::K::Block:
        for (const auto& k : s.kids) {
          if (!k) continue;
          Flow fl = exec(*k);
          if (fl != Flow::Normal) return fl;
        }
        return Flow::Normal;
      case Stmt::K::Assign:
        locals_[s.slot] = eval(*s.exprs[0]);
        return Flow::Normal;
      case Stmt::K::StoreFlat: {
        const Matrix& mtx = asM(locals_[s.slot]);
        int64_t idx = asI(eval(*s.exprs[0]));
        if (!skipGuard(&s) && (idx < 0 || idx >= mtx.size()))
          fail("flat index " + std::to_string(idx) + " out of bounds for " +
               mtx.shapeString());
        Value v = eval(*s.exprs[1]);
        storeElem(mtx, idx, v);
        return Flow::Normal;
      }
      case Stmt::K::IndexStore:
        execIndexStore(s);
        return Flow::Normal;
      case Stmt::K::For:
        return execFor(s);
      case Stmt::K::While:
        while (asB(eval(*s.exprs[0]))) {
          Flow fl = exec(*s.kids[0]);
          if (fl == Flow::Break) break;
          if (fl == Flow::Return) return fl;
        }
        return Flow::Normal;
      case Stmt::K::If:
        if (asB(eval(*s.exprs[0]))) return exec(*s.kids[0]);
        if (s.kids.size() > 1 && s.kids[1]) return exec(*s.kids[1]);
        return Flow::Normal;
      case Stmt::K::Ret:
        rets_.clear();
        for (const auto& e : s.exprs) rets_.push_back(eval(*e));
        return Flow::Return;
      case Stmt::K::CallStmt:
        eval(*s.exprs[0]);
        return Flow::Normal;
      case Stmt::K::CallAssign: {
        std::vector<Value> args;
        args.reserve(s.exprs.size());
        for (const auto& e : s.exprs) args.push_back(eval(*e));
        std::vector<Value> res = m_.call(s.callee, std::move(args));
        if (res.size() != s.dsts.size())
          fail(s.callee + " returned " + std::to_string(res.size()) +
               " values, expected " + std::to_string(s.dsts.size()));
        for (size_t i = 0; i < res.size(); ++i)
          locals_[s.dsts[i]] = std::move(res[i]);
        return Flow::Normal;
      }
      case Stmt::K::Break:
        return Flow::Break;
      case Stmt::K::Continue:
        return Flow::Continue;
    }
    fail("bad statement kind");
  }

  Flow execFor(const Stmt& s) {
    int64_t lo = asI(eval(*s.exprs[0]));
    int64_t hi = asI(eval(*s.exprs[1]));

    // Parallel regions always go through the executor — also at one
    // thread, where SerialExecutor runs the chunk inline. That keeps
    // 1-thread semantics identical to N-thread (workers get a frame
    // copy) and gives every region a pool trace span.
    if (s.parallel && !inParallel_ && hi > lo) {
      execParallelFor(s, lo, hi);
      return Flow::Normal;
    }
    if (s.vecWidth == 4 && hi - lo >= 4) return execVectorFor(s, lo, hi);

    for (int64_t i = lo; i < hi; ++i) {
      locals_[s.slot] = static_cast<int32_t>(i);
      Flow fl = exec(*s.kids[0]);
      if (fl == Flow::Break) break;
      if (fl == Flow::Return) return fl;
    }
    return Flow::Normal;
  }

  void execParallelFor(const Stmt& s, int64_t lo, int64_t hi) {
    // Each worker gets a private copy of the frame (matrix handles share
    // their buffers — with-loop semantics guarantee disjoint writes). The
    // generated pthread C behaves the same way: scalars are captured by
    // value in the thread closure, matrix data is shared.
    std::atomic<bool> failed{false};
    std::string errMsg;
    std::mutex errMu;

    struct Ctx {
      const Stmt* s;
      Exec* self;
      std::atomic<bool>* failed;
      std::string* errMsg;
      std::mutex* errMu;
    } ctx{&s, this, &failed, &errMsg, &errMu};

    // Grain 2: a one-iteration "parallel" loop runs inline on the calling
    // thread instead of paying a pool release/park round-trip; anything
    // larger still forks (interpreted iterations are expensive).
    m_.exec_.parallelForGrain(
        lo, hi, /*minGrain=*/2,
        [](void* c, int64_t clo, int64_t chi, unsigned) {
          auto* x = static_cast<Ctx*>(c);
          bool wasWorker = t_onWorkerThread;
          t_onWorkerThread = true;
          try {
            Exec worker(x->self->m_, x->self->f_, /*inParallel=*/true);
            worker.locals_ = x->self->locals_;
            for (int64_t i = clo; i < chi; ++i) {
              worker.locals_[x->s->slot] = static_cast<int32_t>(i);
              worker.exec(*x->s->kids[0]);
            }
          } catch (const std::exception& e) {
            std::lock_guard<std::mutex> lock(*x->errMu);
            if (!x->failed->exchange(true)) *x->errMsg = e.what();
          }
          t_onWorkerThread = wasWorker;
        },
        &ctx);

    if (failed.load()) fail("parallel loop: " + errMsg);
  }

  Flow execVectorFor(const Stmt& s, int64_t lo, int64_t hi) {
    int64_t i = lo;
    for (; i + 4 <= hi; i += 4) {
      vecEnv_.clear();
      vecVar_ = s.slot;
      vecBase_ = i;
      execVec(*s.kids[0]);
      vecVar_ = -1;
    }
    for (; i < hi; ++i) { // scalar remainder
      locals_[s.slot] = static_cast<int32_t>(i);
      Flow fl = exec(*s.kids[0]);
      if (fl == Flow::Break) break;
      if (fl == Flow::Return) return fl;
    }
    return Flow::Normal;
  }

  // ---- vector mode (paper §V vectorize) --------------------------------
  void execVec(const Stmt& s) {
    switch (s.k) {
      case Stmt::K::Block:
        for (const auto& k : s.kids)
          if (k) execVec(*k);
        return;
      case Stmt::K::Assign:
        vecEnv_[s.slot] = evalVec(*s.exprs[0]);
        return;
      case Stmt::K::For: {
        // Serial inner loop; its body stays in vector mode. Bounds may
        // reference values assigned in the vector environment but must be
        // invariant across the four lanes.
        int64_t lo = laneInvariantInt(*s.exprs[0]);
        int64_t hi = laneInvariantInt(*s.exprs[1]);
        for (int64_t i = lo; i < hi; ++i) {
          locals_[s.slot] = static_cast<int32_t>(i);
          execVec(*s.kids[0]);
        }
        return;
      }
      case Stmt::K::StoreFlat: {
        const Matrix& mtx = asM(locals_[s.slot]);
        VVal idx = evalVec(*s.exprs[0]);
        VVal val = evalVec(*s.exprs[1]);
        storeVec(mtx, idx, val, &s);
        return;
      }
      default:
        fail("statement is not vectorizable (vectorize applies to loops "
             "whose bodies are arithmetic assignments)");
    }
  }

  /// Evaluates an int expression inside a vectorized region, requiring
  /// the same value in every lane (loop bounds, matrix operands' shapes).
  int64_t laneInvariantInt(const Expr& e) {
    VVal v = evalVec(e);
    if (v.isF) fail("loop bound must be an integer expression");
    alignas(16) int32_t lanes[4];
    v.i.store(lanes);
    if (lanes[0] != lanes[1] || lanes[0] != lanes[2] || lanes[0] != lanes[3])
      fail("inner loop bound varies across vector lanes; this loop nest "
           "cannot be vectorized this way");
    return lanes[0];
  }

  VVal evalVec(const Expr& e) {
    switch (e.k) {
      case Expr::K::ConstI: return VVal::ofI(rt::Vec4i::splat(e.i));
      case Expr::K::ConstF: return VVal::ofF(rt::Vec4f::splat(e.f));
      case Expr::K::Var: {
        if (e.slot == vecVar_) {
          alignas(16) int32_t lanes[4] = {
              static_cast<int32_t>(vecBase_), static_cast<int32_t>(vecBase_ + 1),
              static_cast<int32_t>(vecBase_ + 2),
              static_cast<int32_t>(vecBase_ + 3)};
          return VVal::ofI(rt::Vec4i::load(lanes));
        }
        auto it = vecEnv_.find(e.slot);
        if (it != vecEnv_.end()) return it->second;
        const Value& v = locals_[e.slot];
        if (tyOf(v) == Ty::F32) return VVal::ofF(rt::Vec4f::splat(asF(v)));
        return VVal::ofI(rt::Vec4i::splat(asI(v)));
      }
      case Expr::K::Arith: {
        VVal a = evalVec(*e.args[0]);
        VVal b = evalVec(*e.args[1]);
        laneOps_ += 4;
        if (e.ty == Ty::F32) return VVal::ofF(vecArithF(e.aop, a.toF(), b.toF()));
        return vecArithI(e.aop, a, b);
      }
      case Expr::K::Cast:
        if (e.ty == Ty::F32) return VVal::ofF(evalVec(*e.args[0]).toF());
        return VVal::ofI(
            rt::Vec4i{_mm_cvttps_epi32(evalVec(*e.args[0]).toF().v)});
      case Expr::K::Neg: {
        VVal a = evalVec(*e.args[0]);
        if (e.ty == Ty::F32)
          return VVal::ofF(rt::Vec4f::zero() - a.toF());
        return VVal::ofI(rt::Vec4i::zero() - a.i);
      }
      case Expr::K::DimSize:
        return VVal::ofI(rt::Vec4i::splat(asI(eval(e))));
      case Expr::K::LoadFlat: {
        Matrix mtx = asM(eval(*e.args[0]));
        VVal idx = evalVec(*e.args[1]);
        return loadVec(mtx, idx, e.ty, &e);
      }
      default:
        fail("expression is not vectorizable");
    }
  }

  static rt::Vec4f vecArithF(ArithOp op, rt::Vec4f a, rt::Vec4f b) {
    switch (op) {
      case ArithOp::Add: return a + b;
      case ArithOp::Sub: return a - b;
      case ArithOp::Mul:
      case ArithOp::EwMul: return a * b;
      case ArithOp::Div: return a / b;
      case ArithOp::Min: return a.min(b);
      case ArithOp::Max: return a.max(b);
      case ArithOp::Mod: break;
    }
    fail("operator has no vector form");
  }

  static VVal vecArithI(ArithOp op, const VVal& a, const VVal& b) {
    switch (op) {
      case ArithOp::Add: return VVal::ofI(a.i + b.i);
      case ArithOp::Sub: return VVal::ofI(a.i - b.i);
      case ArithOp::Mul:
      case ArithOp::EwMul: return VVal::ofI(a.i * b.i);
      default: {
        // Lane-wise scalar fallback (Div/Mod/Min/Max on ints).
        alignas(16) int32_t la[4], lb[4], lo[4];
        a.i.store(la);
        b.i.store(lb);
        for (int k = 0; k < 4; ++k) lo[k] = scalarArith(op, la[k], lb[k]);
        return VVal::ofI(rt::Vec4i::load(lo));
      }
    }
  }

  /// `site` is the LoadFlat/StoreFlat node whose bounds guard shapecheck
  /// may have proven redundant, as for scalar loads and stores.
  VVal loadVec(const Matrix& m, const VVal& idx, Ty elemTy, const void* site) {
    if (m.elem() == rt::Elem::Bool) fail("bool matrices are not vectorizable");
    alignas(16) int32_t lanes[4];
    idx.i.store(lanes);
    bool contig = lanes[1] == lanes[0] + 1 && lanes[2] == lanes[0] + 2 &&
                  lanes[3] == lanes[0] + 3;
    if (!skipGuard(site))
      for (int k = 0; k < 4; ++k)
        if (lanes[k] < 0 || lanes[k] >= m.size())
          fail("vector load out of bounds");
    if (elemTy == Ty::F32) {
      if (contig) return VVal::ofF(rt::Vec4f::load(m.f32() + lanes[0]));
      alignas(16) float g[4];
      for (int k = 0; k < 4; ++k) g[k] = m.f32()[lanes[k]];
      return VVal::ofF(rt::Vec4f::load(g));
    }
    if (contig) return VVal::ofI(rt::Vec4i::load(m.i32() + lanes[0]));
    alignas(16) int32_t g[4];
    for (int k = 0; k < 4; ++k) g[k] = m.i32()[lanes[k]];
    return VVal::ofI(rt::Vec4i::load(g));
  }

  void storeVec(const Matrix& m, const VVal& idx, const VVal& val,
                const void* site) {
    if (m.elem() == rt::Elem::Bool) fail("bool matrices are not vectorizable");
    alignas(16) int32_t lanes[4];
    idx.i.store(lanes);
    if (!skipGuard(site))
      for (int k = 0; k < 4; ++k)
        if (lanes[k] < 0 || lanes[k] >= m.size())
          fail("vector store out of bounds");
    bool contig = lanes[1] == lanes[0] + 1 && lanes[2] == lanes[0] + 2 &&
                  lanes[3] == lanes[0] + 3;
    if (m.elem() == rt::Elem::F32) {
      rt::Vec4f v = val.toF();
      if (contig) {
        v.store(m.f32() + lanes[0]);
      } else {
        for (int k = 0; k < 4; ++k) m.f32()[lanes[k]] = v.lane(k);
      }
    } else {
      if (val.isF) fail("storing float vector into int matrix");
      if (contig) {
        val.i.store(m.i32() + lanes[0]);
      } else {
        for (int k = 0; k < 4; ++k) m.i32()[lanes[k]] = val.i.lane(k);
      }
    }
  }

  // ---- expressions ---------------------------------------------------
  Value eval(const Expr& e) {
    switch (e.k) {
      case Expr::K::ConstI: return e.i;
      case Expr::K::ConstF: return e.f;
      case Expr::K::ConstB: return e.i != 0;
      case Expr::K::ConstS: return e.s;
      case Expr::K::Var: return locals_[e.slot];
      case Expr::K::Arith: return evalArith(e);
      case Expr::K::Cmp: return evalCmp(e);
      case Expr::K::Logic: {
        bool a = asB(eval(*e.args[0]));
        if (e.lop == ir::LogicOp::And)
          return a && asB(eval(*e.args[1]));
        return a || asB(eval(*e.args[1]));
      }
      case Expr::K::Not: return !asB(eval(*e.args[0]));
      case Expr::K::Neg: {
        Value v = eval(*e.args[0]);
        if (tyOf(v) == Ty::F32) return -asF(v);
        if (tyOf(v) == Ty::Mat) {
          Matrix m = asM(v);
          Matrix out;
          if (m.elem() == rt::Elem::F32)
            rt::ew(kexec(), rt::BinOp::Mul, m, -1.f, out, m_.simdKernels_);
          else
            rt::ew(kexec(), rt::BinOp::Mul, m, int32_t{-1}, out,
                   m_.simdKernels_);
          return out;
        }
        return -asI(v);
      }
      case Expr::K::Cast: {
        Value v = eval(*e.args[0]);
        if (e.ty == Ty::F32) return asF(v);
        if (e.ty == Ty::I32) {
          if (tyOf(v) == Ty::F32) return static_cast<int32_t>(asF(v));
          return asI(v);
        }
        if (e.ty == Ty::Bool) return asB(v);
        fail("unsupported cast");
      }
      case Expr::K::Call: return evalCall(e);
      case Expr::K::Index: return evalIndex(e);
      case Expr::K::RangeLit: {
        int32_t a = asI(eval(*e.args[0]));
        int32_t b = asI(eval(*e.args[1]));
        int64_t n = b >= a ? b - a + 1 : 0;
        Matrix m = Matrix::zeros(rt::Elem::I32, {n});
        for (int64_t k = 0; k < n; ++k) m.i32()[k] = a + static_cast<int32_t>(k);
        return m;
      }
      case Expr::K::DimSize: {
        Value hold;
        const Matrix& m = matOperand(*e.args[0], hold);
        int32_t d = asI(eval(*e.args[1]));
        if (!skipGuard(&e) && (d < 0 || static_cast<uint32_t>(d) >= m.rank()))
          fail("dimSize: dimension " + std::to_string(d) + " out of range for " +
               m.shapeString());
        return static_cast<int32_t>(m.dim(static_cast<uint32_t>(d)));
      }
      case Expr::K::LoadFlat: {
        Value hold;
        const Matrix& m = matOperand(*e.args[0], hold);
        int64_t idx = asI(eval(*e.args[1]));
        if (!skipGuard(&e) && (idx < 0 || idx >= m.size()))
          fail("flat index " + std::to_string(idx) + " out of bounds for " +
               m.shapeString());
        return loadElem(m, idx);
      }
    }
    fail("bad expression kind");
  }

  /// Matrix operand access without copying the handle when it is a plain
  /// variable reference (the hot case in lowered with-loop bodies —
  /// copying would cost two atomic refcount operations per element).
  const Matrix& matOperand(const Expr& e, Value& hold) {
    if (e.k == Expr::K::Var) return asM(locals_[e.slot]);
    hold = eval(e);
    return asM(hold);
  }

  static Value loadElem(const Matrix& m, int64_t idx) {
    switch (m.elem()) {
      case rt::Elem::I32: return m.i32()[idx];
      case rt::Elem::F32: return m.f32()[idx];
      case rt::Elem::Bool: return m.boolean()[idx] != 0;
    }
    fail("bad elem kind");
  }

  static void storeElem(const Matrix& m, int64_t idx, const Value& v) {
    switch (m.elem()) {
      case rt::Elem::I32: m.i32()[idx] = asI(v); return;
      case rt::Elem::F32: m.f32()[idx] = asF(v); return;
      case rt::Elem::Bool: m.boolean()[idx] = asB(v) ? 1 : 0; return;
    }
    fail("bad elem kind");
  }

  Value evalArith(const Expr& e) {
    Value a = eval(*e.args[0]);
    Value b = eval(*e.args[1]);
    bool aMat = tyOf(a) == Ty::Mat, bMat = tyOf(b) == Ty::Mat;

    if (aMat && bMat) {
      const Matrix& ma = asM(a);
      const Matrix& mb = asM(b);
      if (e.aop == ArithOp::Mul && ma.rank() == 2 && mb.rank() == 2)
        return rt::matmul(kexec(), ma, mb); // linear-algebra '*'
      Matrix out;
      rt::ew(kexec(), toRtBin(e.aop), ma, mb, out, m_.simdKernels_);
      return out;
    }
    if (aMat || bMat) return matScalarArith(e.aop, a, b, aMat);

    if (e.ty == Ty::F32 || tyOf(a) == Ty::F32 || tyOf(b) == Ty::F32)
      return scalarArith(e.aop, asF(a), asF(b));
    return scalarArith(e.aop, asI(a), asI(b));
  }

  Value matScalarArith(ArithOp op, const Value& a, const Value& b,
                       bool matFirst) {
    const Matrix& m = asM(matFirst ? a : b);
    const Value& s = matFirst ? b : a;
    Matrix out;
    if (matFirst) {
      if (m.elem() == rt::Elem::F32)
        rt::ew(kexec(), toRtBin(op), m, asF(s), out, m_.simdKernels_);
      else
        rt::ew(kexec(), toRtBin(op), m, asI(s), out, m_.simdKernels_);
      return out;
    }
    // scalar (op) matrix: commutative ops reuse the kernel; Sub/Div/Mod
    // fall back to an element loop.
    if (op == ArithOp::Add || op == ArithOp::Mul || op == ArithOp::EwMul ||
        op == ArithOp::Min || op == ArithOp::Max)
      return matScalarArith(op, b, a, true);
    out = Matrix::zeros(m.elem(), m.dims());
    int64_t n = m.size();
    if (m.elem() == rt::Elem::F32) {
      float sv = asF(s);
      const float* src = m.f32();
      float* dst = out.f32();
      kexec().run(0, n, kScalarLoopGrain,
                  [&](int64_t lo, int64_t hi, unsigned) {
        for (int64_t i = lo; i < hi; ++i) dst[i] = scalarArith(op, sv, src[i]);
      });
    } else {
      int32_t sv = asI(s);
      const int32_t* src = m.i32();
      int32_t* dst = out.i32();
      kexec().run(0, n, kScalarLoopGrain,
                  [&](int64_t lo, int64_t hi, unsigned) {
        for (int64_t i = lo; i < hi; ++i) dst[i] = scalarArith(op, sv, src[i]);
      });
    }
    return out;
  }

  Value evalCmp(const Expr& e) {
    Value a = eval(*e.args[0]);
    Value b = eval(*e.args[1]);
    bool aMat = tyOf(a) == Ty::Mat, bMat = tyOf(b) == Ty::Mat;
    if (aMat && bMat) {
      Matrix out;
      rt::ewCompare(kexec(), toRtCmp(e.cop), asM(a), asM(b), out);
      return out;
    }
    if (aMat || bMat) {
      const Matrix& m = asM(aMat ? a : b);
      const Value& s = aMat ? b : a;
      CmpKind op = aMat ? e.cop : mirrorCmp(e.cop);
      Matrix out;
      if (m.elem() == rt::Elem::F32)
        rt::ewCompareScalarF(kexec(), toRtCmp(op), m, asF(s), out);
      else
        rt::ewCompareScalarI(kexec(), toRtCmp(op), m, asI(s), out);
      return out;
    }
    if (tyOf(a) == Ty::F32 || tyOf(b) == Ty::F32)
      return scalarCmp(e.cop, asF(a), asF(b));
    return scalarCmp(e.cop, asI(a), asI(b));
  }

  // ---- MATLAB indexing (§III-A3) ---------------------------------------
  std::vector<Selector> resolveSelectors(const Matrix& m,
                                         const std::vector<ir::IndexDim>& dims,
                                         bool skipChecks = false) {
    if (!skipChecks && dims.size() != m.rank())
      fail("indexing a " + m.shapeString() + " matrix with " +
           std::to_string(dims.size()) + " selectors");
    std::vector<Selector> sel(dims.size());
    for (size_t d = 0; d < dims.size(); ++d) {
      int64_t n = m.dim(static_cast<uint32_t>(d));
      switch (dims[d].kind) {
        case ir::IndexDim::Kind::Scalar: {
          int64_t i = asI(eval(*dims[d].a));
          if (!skipChecks && (i < 0 || i >= n))
            fail("index " + std::to_string(i) + " out of bounds for dim " +
                 std::to_string(d) + " of " + m.shapeString());
          sel[d].idxs = {i};
          sel[d].keep = false;
          break;
        }
        case ir::IndexDim::Kind::Range: {
          int64_t a = asI(eval(*dims[d].a));
          int64_t b = asI(eval(*dims[d].b)); // inclusive, per the paper
          if (!skipChecks && (a < 0 || b >= n || a > b + 1))
            fail("range " + std::to_string(a) + ":" + std::to_string(b) +
                 " out of bounds for dim " + std::to_string(d) + " of " +
                 m.shapeString());
          for (int64_t i = a; i <= b; ++i) sel[d].idxs.push_back(i);
          break;
        }
        case ir::IndexDim::Kind::All:
          for (int64_t i = 0; i < n; ++i) sel[d].idxs.push_back(i);
          break;
        case ir::IndexDim::Kind::Mask: {
          Matrix mask = asM(eval(*dims[d].a));
          if (!skipChecks && (mask.elem() != rt::Elem::Bool ||
                              mask.rank() != 1 || mask.dim(0) != n))
            fail("logical index for dim " + std::to_string(d) +
                 " must be a bool vector of length " + std::to_string(n));
          for (int64_t i = 0; i < n; ++i)
            if (mask.boolean()[i]) sel[d].idxs.push_back(i);
          break;
        }
      }
    }
    return sel;
  }

  /// Iterates the Cartesian product of the selectors, invoking
  /// fn(flatSrcOffset) in row-major order of the selected space.
  template <class Fn>
  void forEachSelected(const Matrix& m, const std::vector<Selector>& sel,
                       Fn&& fn) {
    size_t rank = sel.size();
    for (const auto& s : sel)
      if (s.idxs.empty()) return; // empty selection selects nothing
    std::vector<size_t> cursor(rank, 0);
    std::vector<int64_t> idx(rank);
    for (;;) {
      for (size_t d = 0; d < rank; ++d) idx[d] = sel[d].idxs[cursor[d]];
      fn(m.offsetOf(idx.data()));
      // Odometer increment.
      size_t d = rank;
      while (d > 0) {
        --d;
        if (++cursor[d] < sel[d].idxs.size()) break;
        cursor[d] = 0;
        if (d == 0) return;
      }
    }
  }

  Value evalIndex(const Expr& e) {
    Matrix m = asM(eval(*e.args[0]));
    auto sel = resolveSelectors(m, e.dims, skipGuard(&e));

    std::vector<int64_t> outDims;
    for (const auto& s : sel)
      if (s.keep) outDims.push_back(static_cast<int64_t>(s.idxs.size()));

    if (outDims.empty()) {
      // All-scalar selectors: a single element.
      std::vector<int64_t> idx;
      for (const auto& s : sel) idx.push_back(s.idxs[0]);
      return loadElem(m, m.offsetOf(idx.data()));
    }

    Matrix out = Matrix::zeros(m.elem(), outDims);
    size_t esz = rt::elemSize(m.elem());
    char* dst = out.data<char>();
    const char* src = m.data<char>();
    int64_t k = 0;
    forEachSelected(m, sel, [&](int64_t off) {
      std::memcpy(dst + k * esz, src + off * esz, esz);
      ++k;
    });
    return out;
  }

  void execIndexStore(const Stmt& s) {
    Matrix m = asM(locals_[s.slot]);
    bool blessed = skipGuard(&s);
    auto sel = resolveSelectors(m, s.dims, blessed);
    Value v = eval(*s.exprs[0]);

    int64_t count = 1;
    for (const auto& x : sel) count *= static_cast<int64_t>(x.idxs.size());

    if (tyOf(v) != Ty::Mat) {
      // Scalar broadcast into the selected cells.
      forEachSelected(m, sel, [&](int64_t off) { storeElem(m, off, v); });
      return;
    }
    const Matrix& src = asM(v);
    if (!blessed && src.size() != count)
      fail("indexed assignment: selected " + std::to_string(count) +
           " cells but the value has " + std::to_string(src.size()) +
           " elements");
    if (!blessed && src.elem() != m.elem())
      fail("indexed assignment: element kind mismatch");
    size_t esz = rt::elemSize(m.elem());
    const char* sp = src.data<char>();
    char* dp = m.data<char>();
    int64_t k = 0;
    forEachSelected(m, sel, [&](int64_t off) {
      std::memcpy(dp + off * esz, sp + k * esz, esz);
      ++k;
    });
  }

  // ---- builtins ---------------------------------------------------------
  Value evalCall(const Expr& e) {
    auto arg = [&](size_t i) { return eval(*e.args[i]); };
    switch (e.builtin) {
      case ir::Builtin::ReadMatrix: return rt::readMatrixFile(asS(arg(0)));
      case ir::Builtin::WriteMatrix: {
        Value path = arg(0);
        rt::writeMatrixFile(asS(path), asM(arg(1)));
        return {};
      }
      case ir::Builtin::InitMatrix: {
        // initMatrix(elemKind, dims...)
        auto kind = static_cast<rt::Elem>(asI(arg(0)));
        std::vector<int64_t> dims;
        for (size_t i = 1; i < e.args.size(); ++i) dims.push_back(asI(arg(i)));
        // Results the shape analysis proved fully written (every cell
        // stored before any read) skip the zeroing pass: first touch then
        // happens on the threads that compute the cells. Everything else
        // zeroes with parallel first-touch when large enough.
        if (m_.guardPlan_ && m_.guardPlan_->fullyWritten.count(&e))
          return Matrix::uninit(kind, dims);
        return Matrix::zeros(kind, dims, m_.exec_);
      }
      case ir::Builtin::CloneMatrix: return asM(arg(0)).clone();
      case ir::Builtin::ConnComp: return rt::connectedComponents(asM(arg(0)));
      case ir::Builtin::DetectEddies:
        return rt::detectEddies2D(asM(arg(0)), asF(arg(1)), asF(arg(2)),
                                  asF(arg(3)), asI(arg(4)), asI(arg(5)));
      case ir::Builtin::SynthSsh: {
        rt::SshParams p;
        p.nlat = asI(arg(0));
        p.nlon = asI(arg(1));
        p.ntime = asI(arg(2));
        p.seed = static_cast<uint64_t>(asI(arg(3)));
        p.numEddies = asI(arg(4));
        return rt::synthesizeSsh(p);
      }
      case ir::Builtin::CheckGenBounds: {
        int32_t hi = asI(arg(0));
        int32_t dim = asI(arg(1));
        if (!skipGuard(&e) && hi > dim)
          fail("genarray: generator upper bound " + std::to_string(hi) +
               " exceeds result dimension " + std::to_string(dim) +
               " (the shape must be a superset of the generator)");
        return {};
      }
      case ir::Builtin::CheckMatrixMeta: {
        Matrix m = asM(arg(0));
        auto wantElem = static_cast<rt::Elem>(asI(arg(1)));
        auto wantRank = static_cast<uint32_t>(asI(arg(2)));
        if (!skipGuard(&e) && (m.elem() != wantElem || m.rank() != wantRank))
          fail("matrix metadata mismatch: value is " + m.shapeString() +
               " but the declared type expects " +
               std::string(rt::elemName(wantElem)) + " rank " +
               std::to_string(wantRank));
        return m;
      }
      case ir::Builtin::MatToFloat: {
        Matrix m = asM(arg(0));
        if (m.elem() == rt::Elem::F32) return m;
        if (m.elem() != rt::Elem::I32) fail("matToFloat: int matrix required");
        Matrix out = Matrix::zeros(rt::Elem::F32, m.dims());
        const int32_t* src = m.i32();
        float* dst = out.f32();
        for (int64_t i = 0; i < m.size(); ++i)
          dst[i] = static_cast<float>(src[i]);
        return out;
      }
      case ir::Builtin::NumThreads:
        return static_cast<int32_t>(m_.exec_.threads());
      case ir::Builtin::RefCount: {
        // The evaluated argument itself holds one reference; report the
        // count as the program sees it (declared handles only).
        Value v = arg(0);
        return asM(v).useCount() - 1;
      }
      case ir::Builtin::RcLive:
        return static_cast<int32_t>(rt::rcLiveBlocks());
      case ir::Builtin::PrintInt:
        appendOut(std::to_string(asI(arg(0))) + "\n");
        return {};
      case ir::Builtin::PrintFloat: {
        std::ostringstream o;
        o << asF(arg(0)) << '\n';
        appendOut(o.str());
        return {};
      }
      case ir::Builtin::PrintBool:
        appendOut(asB(arg(0)) ? "true\n" : "false\n");
        return {};
      case ir::Builtin::PrintStr:
        appendOut(asS(arg(0)) + "\n");
        return {};
      case ir::Builtin::PrintShape:
        appendOut(asM(arg(0)).shapeString() + "\n");
        return {};
    }
    return {};
  }

  void appendOut(const std::string& s) {
    std::lock_guard<std::mutex> lock(outMu_);
    m_.out_ += s;
  }

  /// Executor for whole-matrix kernel operations: the pool at top level,
  /// serial inside parallel regions (no nested pool entry).
  rt::Executor& kexec() {
    if (inParallel_ || t_onWorkerThread) return g_serialExec;
    return m_.exec_;
  }

  Machine& m_;
  const ir::Function& f_;
  std::vector<Value> locals_;
  std::vector<Value> rets_;
  bool inParallel_;

  std::unordered_map<int32_t, VVal> vecEnv_;
  int32_t vecVar_ = -1;
  int64_t vecBase_ = 0;

  uint64_t stmts_ = 0;
  uint64_t laneOps_ = 0;

  static std::mutex outMu_;
};

std::mutex Exec::outMu_;

Machine::Machine(const ir::Module& module, rt::Executor& exec)
    : mod_(module), exec_(exec) {}

std::vector<Value> Machine::call(const std::string& name,
                                 std::vector<Value> args) {
  const ir::Function* f = mod_.find(name);
  if (!f) throw RuntimeError("call to unknown function '" + name + "'");
  Exec e(*this, *f, /*inParallel=*/false);
  return e.run(std::move(args));
}

int Machine::runMain() {
  std::vector<Value> r = call("main", {});
  if (r.empty()) return 0;
  if (auto* p = std::get_if<int32_t>(&r[0])) return *p;
  return 0;
}

} // namespace mmx::interp
