#include "runtime/kernels.hpp"

#include <stdexcept>
#include <type_traits>
#include <vector>

#include "runtime/backend.hpp"
#include "runtime/ew_ops.hpp"
#include "runtime/simd.hpp"

namespace mmx::rt {

namespace {

void requireSameShape(const Matrix& a, const Matrix& b, const char* what) {
  if (a.elem() != b.elem() || a.rank() != b.rank())
    throw std::invalid_argument(std::string(what) + ": kind/rank mismatch");
  for (uint32_t d = 0; d < a.rank(); ++d)
    if (a.dim(d) != b.dim(d))
      throw std::invalid_argument(std::string(what) + ": shape mismatch");
}

template <class T> bool applyCmp(CmpOp op, T a, T b) {
  switch (op) {
    case CmpOp::Lt: return a < b;
    case CmpOp::Le: return a <= b;
    case CmpOp::Gt: return a > b;
    case CmpOp::Ge: return a >= b;
    case CmpOp::Eq: return a == b;
    case CmpOp::Ne: return a != b;
  }
  return false;
}

// Generic element-wise driver: b may be null (scalar broadcast via sf/si).
// The SIMD strips come from the active kernel backend; `simd = false`
// forces the plain scalar loops below (the benches' ablation knob).
struct EwCtx {
  BinOp op;
  const Matrix* a;
  const Matrix* b;
  Matrix* out;
  float sf;
  int32_t si;
  bool simd;
  const KernelBackend* be;
};

void ewRangeF(EwCtx& c, int64_t lo, int64_t hi) {
  const float* a = c.a->f32();
  const float* b = c.b ? c.b->f32() : nullptr;
  float* o = c.out->f32();
  if (c.simd) {
    c.be->ewStripF32(c.op, a, b, c.sf, o, lo, hi);
    return;
  }
  if (b) {
    for (int64_t i = lo; i < hi; ++i) o[i] = detail::applyBin(c.op, a[i], b[i]);
  } else {
    for (int64_t i = lo; i < hi; ++i) o[i] = detail::applyBin(c.op, a[i], c.sf);
  }
}

void ewRangeI(EwCtx& c, int64_t lo, int64_t hi) {
  const int32_t* a = c.a->i32();
  const int32_t* b = c.b ? c.b->i32() : nullptr;
  int32_t* o = c.out->i32();
  if (c.simd) {
    c.be->ewStripI32(c.op, a, b, c.si, o, lo, hi);
    return;
  }
  if (b) {
    for (int64_t i = lo; i < hi; ++i) o[i] = detail::applyBin(c.op, a[i], b[i]);
  } else {
    for (int64_t i = lo; i < hi; ++i) o[i] = detail::applyBin(c.op, a[i], c.si);
  }
}

/// Minimum elements per parallel dispatch: below this the pool's
/// release/park round-trip costs more than the loop (bench_forkjoin), so
/// grain-aware dispatch runs the body inline on the calling thread.
constexpr int64_t kEwGrain = 4096;

void ewDispatch(Executor& exec, EwCtx& c) {
  int64_t n = c.a->size();
  exec.run(0, n, kEwGrain, [&c](int64_t lo, int64_t hi, unsigned) {
    if (c.a->elem() == Elem::F32)
      ewRangeF(c, lo, hi);
    else
      ewRangeI(c, lo, hi);
  });
}

void ensureOut(Matrix& out, Elem e, const Matrix& like) {
  if (out.null() || out.elem() != e || out.size() != like.size() ||
      out.rank() != like.rank())
    out = Matrix::zeros(e, like.dims());
}

} // namespace

template <class Rhs>
void ew(Executor& exec, BinOp op, const Matrix& a, const Rhs& b, Matrix& out,
        bool simd) {
  const KernelBackend* be = &activeBackend();
  if constexpr (std::is_same_v<Rhs, Matrix>) {
    requireSameShape(a, b, "ewBinary");
    if (a.elem() == Elem::Bool)
      throw std::invalid_argument("ewBinary: arithmetic on bool matrix");
    ensureOut(out, a.elem(), a);
    EwCtx c{op, &a, &b, &out, 0.f, 0, simd, be};
    ewDispatch(exec, c);
  } else if constexpr (std::is_same_v<Rhs, float>) {
    if (a.elem() != Elem::F32)
      throw std::invalid_argument("ewBinaryScalarF: f32 matrix required");
    ensureOut(out, Elem::F32, a);
    EwCtx c{op, &a, nullptr, &out, b, 0, simd, be};
    ewDispatch(exec, c);
  } else {
    static_assert(std::is_same_v<Rhs, int32_t>,
                  "ew: Rhs must be Matrix, float, or int32_t");
    if (a.elem() != Elem::I32)
      throw std::invalid_argument("ewBinaryScalarI: i32 matrix required");
    ensureOut(out, Elem::I32, a);
    EwCtx c{op, &a, nullptr, &out, 0.f, b, simd, be};
    ewDispatch(exec, c);
  }
}

template void ew<Matrix>(Executor&, BinOp, const Matrix&, const Matrix&,
                         Matrix&, bool);
template void ew<float>(Executor&, BinOp, const Matrix&, const float&,
                        Matrix&, bool);
template void ew<int32_t>(Executor&, BinOp, const Matrix&, const int32_t&,
                          Matrix&, bool);

namespace {
struct CmpCtx {
  CmpOp op;
  const Matrix* a;
  const Matrix* b;
  Matrix* out;
  float sf;
  int32_t si;
};

void cmpRange(CmpCtx& c, int64_t lo, int64_t hi) {
  uint8_t* o = c.out->boolean();
  if (c.a->elem() == Elem::F32) {
    const float* a = c.a->f32();
    if (c.b) {
      const float* b = c.b->f32();
      for (int64_t i = lo; i < hi; ++i) o[i] = applyCmp(c.op, a[i], b[i]);
    } else {
      for (int64_t i = lo; i < hi; ++i) o[i] = applyCmp(c.op, a[i], c.sf);
    }
  } else {
    const int32_t* a = c.a->i32();
    if (c.b) {
      const int32_t* b = c.b->i32();
      for (int64_t i = lo; i < hi; ++i) o[i] = applyCmp(c.op, a[i], b[i]);
    } else {
      for (int64_t i = lo; i < hi; ++i) o[i] = applyCmp(c.op, a[i], c.si);
    }
  }
}
} // namespace

void ewCompare(Executor& exec, CmpOp op, const Matrix& a, const Matrix& b,
               Matrix& out) {
  requireSameShape(a, b, "ewCompare");
  ensureOut(out, Elem::Bool, a);
  CmpCtx c{op, &a, &b, &out, 0.f, 0};
  exec.run(0, a.size(), kEwGrain,
           [&c](int64_t lo, int64_t hi, unsigned) { cmpRange(c, lo, hi); });
}

void ewCompareScalarF(Executor& exec, CmpOp op, const Matrix& a, float s,
                      Matrix& out) {
  ensureOut(out, Elem::Bool, a);
  CmpCtx c{op, &a, nullptr, &out, s, 0};
  exec.run(0, a.size(), kEwGrain,
           [&c](int64_t lo, int64_t hi, unsigned) { cmpRange(c, lo, hi); });
}

void ewCompareScalarI(Executor& exec, CmpOp op, const Matrix& a, int32_t s,
                      Matrix& out) {
  ensureOut(out, Elem::Bool, a);
  CmpCtx c{op, &a, nullptr, &out, 0.f, s};
  exec.run(0, a.size(), kEwGrain,
           [&c](int64_t lo, int64_t hi, unsigned) { cmpRange(c, lo, hi); });
}

// matmul lives in backend.cpp: it dispatches through the kernel backend
// registry to the tiled/packed engine (gemm.cpp) or the naive reference.

float reduceF32(Executor& exec, BinOp op, float init, const Matrix& a,
                bool simd) {
  if (a.elem() != Elem::F32)
    throw std::invalid_argument("reduceF32: f32 matrix required");
  const float ident = detail::identityOf<float>(op);
  const KernelBackend& be = activeBackend();
  unsigned nt = exec.threads();
  std::vector<float> partial(nt, ident);
  const float* d = a.f32();
  exec.run(0, a.size(), kEwGrain,
           [&](int64_t lo, int64_t hi, unsigned tid) {
    if (simd) {
      partial[tid] = be.reduceStripF32(op, d, lo, hi);
      return;
    }
    float acc = ident;
    for (int64_t i = lo; i < hi; ++i) acc = detail::applyBin(op, acc, d[i]);
    partial[tid] = acc;
  });
  float r = init;
  for (float p : partial) r = detail::applyBin(op, r, p);
  return r;
}

int32_t reduceI32(Executor& exec, BinOp op, int32_t init, const Matrix& a) {
  if (a.elem() != Elem::I32)
    throw std::invalid_argument("reduceI32: i32 matrix required");
  const KernelBackend& be = activeBackend();
  unsigned nt = exec.threads();
  std::vector<int32_t> partial(nt, detail::identityOf<int32_t>(op));
  const int32_t* d = a.i32();
  exec.run(0, a.size(), kEwGrain,
           [&](int64_t lo, int64_t hi, unsigned tid) {
    partial[tid] = be.reduceStripI32(op, d, lo, hi);
  });
  int32_t r = init;
  for (int32_t p : partial) r = detail::applyBin(op, r, p);
  return r;
}

void sumInnermost3D(Executor& exec, const Matrix& a, Matrix& out, bool simd) {
  if (a.rank() != 3 || a.elem() != Elem::F32)
    throw std::invalid_argument("sumInnermost3D: rank-3 f32 required");
  int64_t m = a.dim(0), n = a.dim(1), p = a.dim(2);
  if (out.null() || out.rank() != 2 || out.dim(0) != m || out.dim(1) != n)
    out = Matrix::zeros(Elem::F32, {m, n});
  const float* D = a.f32();
  float* O = out.f32();
  int64_t grain = kEwGrain / (p > 0 ? p : 1) + 1;
  // Stays on the shared SSE row-sum (not backend-routed): its hadd order
  // is the bit-contract every backend's reduceStripF32 emulates anyway,
  // and the fused kernel predates the registry.
  exec.run(0, m * n, grain, [&](int64_t lo, int64_t hi, unsigned) {
    for (int64_t ij = lo; ij < hi; ++ij) {
      const float* row = D + ij * p;
      float acc = 0.f;
      int64_t k = 0;
      if (simd) {
        Vec4f vacc = Vec4f::zero();
        for (; k + 4 <= p; k += 4) vacc = vacc + Vec4f::load(row + k);
        acc = vacc.hsum();
      }
      for (; k < p; ++k) acc += row[k];
      O[ij] = acc;
    }
  });
}

} // namespace mmx::rt
