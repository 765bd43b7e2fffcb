// Kernel backend registry (ISSUE 7): selection policy (priority order,
// $MMX_BACKEND, explicit pin), the per-backend oracle contract — every
// backend bit-matches the naive reference on exactly-representable data,
// including the FMA backend — and the element-wise/reduction strip ABI
// that must hold on *arbitrary* data. Also pins the deprecated wrapper
// shims and the backend observability counters.
#include "runtime/backend.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "runtime/gemm.hpp"
#include "runtime/kernels.hpp"
#include "support/metrics.hpp"

namespace mmx::rt {
namespace {

// Entries are small multiples of 1/8, so every product is an exact
// multiple of 1/64 below 2^14 and every k<=300 partial sum stays under
// 2^24 granules: all intermediate values are exactly representable, which
// makes mul-then-add and fused-multiply-add round identically. That is
// the data family the cross-backend bit-identity contract is pinned on.
Matrix exactF32(int64_t rows, int64_t cols, uint32_t seed) {
  Matrix m = Matrix::zeros(Elem::F32, {rows, cols});
  uint32_t s = seed * 2654435761u + 1;
  for (int64_t i = 0; i < m.size(); ++i) {
    s = s * 1664525u + 1013904223u;
    m.f32()[i] = static_cast<float>(static_cast<int32_t>(s >> 16) % 97) / 8.0f;
  }
  return m;
}

// Arbitrary (inexact) values: sums of these DO round, so tests using this
// generator check accumulation-order agreement, not just arithmetic.
Matrix noisyF32(int64_t rows, int64_t cols, uint32_t seed) {
  Matrix m = Matrix::zeros(Elem::F32, {rows, cols});
  uint32_t s = seed * 2246822519u + 3;
  for (int64_t i = 0; i < m.size(); ++i) {
    s = s * 1664525u + 1013904223u;
    m.f32()[i] = static_cast<float>(s) / 65536.0f - 32768.0f;
  }
  return m;
}

Matrix denseI32(int64_t rows, int64_t cols, uint32_t seed) {
  Matrix m = Matrix::zeros(Elem::I32, {rows, cols});
  uint32_t s = seed * 2246822519u + 7;
  for (int64_t i = 0; i < m.size(); ++i) {
    s = s * 1664525u + 1013904223u;
    m.i32()[i] = static_cast<int32_t>(s >> 20) - 2048;
  }
  return m;
}

bool sameBits(const Matrix& a, const Matrix& b) {
  if (a.size() != b.size() || a.elem() != b.elem()) return false;
  size_t bytes = static_cast<size_t>(a.size()) *
                 (a.elem() == Elem::Bool ? 1 : 4);
  return std::memcmp(a.data<char>(), b.data<char>(), bytes) == 0;
}

/// RAII guard restoring the lazy "auto" resolution (and a clean
/// environment) no matter how a test exits.
struct AutoRestore {
  ~AutoRestore() {
    ::unsetenv("MMX_BACKEND");
    selectBackend("auto");
  }
};

TEST(BackendRegistry, BuiltinsRegisteredInPriorityOrder) {
  auto all = backends();
  ASSERT_GE(all.size(), 4u);
  for (size_t i = 1; i < all.size(); ++i)
    EXPECT_GE(all[i - 1]->priority(), all[i]->priority());

  auto names = backendNames();
  ASSERT_GE(names.size(), 4u);
  EXPECT_EQ(names[0], "scalar");
  EXPECT_EQ(names[1], "sse");
  EXPECT_EQ(names[2], "avx");
  EXPECT_EQ(names[3], "avx2fma");

  ASSERT_NE(findBackend("scalar"), nullptr);
  EXPECT_TRUE(findBackend("scalar")->available());
  ASSERT_NE(findBackend("sse"), nullptr);
  EXPECT_TRUE(findBackend("sse")->available());
  EXPECT_EQ(findBackend("bogus"), nullptr);
}

TEST(BackendRegistry, ExplicitSelectionPinsAndRestores) {
  AutoRestore guard;
  {
    BackendOverride pin("scalar");
    EXPECT_EQ(activeBackend().name(), "scalar");
    {
      BackendOverride nested("sse");
      EXPECT_EQ(activeBackend().name(), "sse");
    }
    EXPECT_EQ(activeBackend().name(), "scalar");
  }
  // Back to auto: MMX_BACKEND wins if set (the CI matrix legs run this
  // whole binary under it); otherwise the highest-priority available
  // backend is active.
  const KernelBackend& be = activeBackend();
  if (const char* env = ::getenv("MMX_BACKEND")) {
    EXPECT_EQ(be.name(), std::string(env));
    return;
  }
  for (const KernelBackend* other : backends())
    if (other->available()) {
      EXPECT_EQ(be.name(), other->name());
      break;
    }
}

TEST(BackendRegistry, UnknownOrUnavailableSelectionThrows) {
  AutoRestore guard;
  try {
    selectBackend("bogus");
    FAIL() << "selectBackend(\"bogus\") did not throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown backend 'bogus'"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("registered:"), std::string::npos);
  }
}

TEST(BackendRegistry, EnvOverrideUnderAuto) {
  AutoRestore guard;
  ::setenv("MMX_BACKEND", "scalar", 1);
  selectBackend("auto"); // re-arm lazy resolution so the env is re-read
  EXPECT_EQ(activeBackend().name(), "scalar");

  // An explicit selection beats the environment.
  {
    BackendOverride pin("sse");
    EXPECT_EQ(activeBackend().name(), "sse");
  }
  EXPECT_EQ(activeBackend().name(), "scalar");

  // A bad environment value surfaces when (and only when) it is consulted.
  ::setenv("MMX_BACKEND", "bogus", 1);
  selectBackend("auto");
  EXPECT_THROW(activeBackend(), std::runtime_error);
}

TEST(BackendRegistry, SelectionErrorIsADryRun) {
  AutoRestore guard;
  BackendOverride pin("sse");
  EXPECT_FALSE(backendSelectionError("bogus").empty());
  EXPECT_NE(backendSelectionError("bogus").find("unknown backend"),
            std::string::npos);
  EXPECT_TRUE(backendSelectionError("scalar").empty());
  EXPECT_TRUE(backendSelectionError("auto").empty());
  // Probing never moved the actual selection.
  EXPECT_EQ(activeBackend().name(), "sse");
}

TEST(BackendRegistry, RuntimeConfigAppliesBackend) {
  AutoRestore guard;
  RuntimeConfig cfg;
  cfg.executor = ExecutorKind::Serial;
  cfg.threads = 1;
  cfg.backend = "scalar";
  auto exec = cfg.make();
  ASSERT_NE(exec, nullptr);
  EXPECT_EQ(activeBackend().name(), "scalar");

  cfg.backend = "bogus";
  EXPECT_THROW(cfg.make(), std::invalid_argument);
}

struct Shape {
  int64_t m, k, n;
};

// Degenerate, prime, off-tile, and >cutoff shapes; the two k=300 rows
// span multiple KC=256 panels, so they also pin the panel-boundary
// accumulation order.
const Shape kOracleShapes[] = {{1, 1, 1},   {2, 3, 4},    {5, 5, 5},
                               {17, 31, 13}, {97, 101, 89}, {1, 300, 1},
                               {33, 300, 17}};

TEST(BackendOracle, F32BitIdenticalToNaiveOnExactData) {
  AutoRestore guard;
  SerialExecutor ser;
  for (const Shape& s : kOracleShapes) {
    Matrix a = exactF32(s.m, s.k, static_cast<uint32_t>(s.m * 7 + s.k));
    Matrix b = exactF32(s.k, s.n, static_cast<uint32_t>(s.k * 3 + s.n));
    Matrix ref = matmulNaive(ser, a, b);
    for (const KernelBackend* be : backends()) {
      if (!be->available()) continue;
      BackendOverride pin(be->name());
      Matrix got = matmul(ser, a, b);
      EXPECT_TRUE(sameBits(got, ref))
          << be->name() << " f32 mismatch at " << s.m << "x" << s.k << "x"
          << s.n;
    }
  }
}

TEST(BackendOracle, I32BitIdenticalToNaive) {
  AutoRestore guard;
  SerialExecutor ser;
  for (const Shape& s : kOracleShapes) {
    Matrix a = denseI32(s.m, s.k, static_cast<uint32_t>(s.m + s.k));
    Matrix b = denseI32(s.k, s.n, static_cast<uint32_t>(s.k + s.n));
    Matrix ref = matmulNaive(ser, a, b);
    for (const KernelBackend* be : backends()) {
      if (!be->available()) continue;
      BackendOverride pin(be->name());
      Matrix got = matmul(ser, a, b);
      EXPECT_TRUE(sameBits(got, ref))
          << be->name() << " i32 mismatch at " << s.m << "x" << s.k << "x"
          << s.n;
    }
  }
}

TEST(BackendOracle, ParallelExecutorMatchesSerial) {
  AutoRestore guard;
  ForkJoinPool pool(4);
  SerialExecutor ser;
  Matrix a = exactF32(97, 101, 21);
  Matrix b = exactF32(101, 89, 22);
  for (const KernelBackend* be : backends()) {
    if (!be->available()) continue;
    BackendOverride pin(be->name());
    EXPECT_TRUE(sameBits(matmul(pool, a, b), matmul(ser, a, b)))
        << be->name() << " parallel/serial divergence";
  }
}

TEST(BackendOracle, F64InterfaceMatchesNaiveOnExactData) {
  SerialExecutor ser;
  const int64_t m = 13, k = 37, n = 11;
  std::vector<double> A(m * k), B(k * n);
  uint32_t s = 99;
  for (auto& v : A) {
    s = s * 1664525u + 1013904223u;
    v = static_cast<double>(static_cast<int32_t>(s >> 16) % 97) / 8.0;
  }
  for (auto& v : B) {
    s = s * 1664525u + 1013904223u;
    v = static_cast<double>(static_cast<int32_t>(s >> 16) % 97) / 8.0;
  }
  std::vector<double> ref(m * n, 0.0);
  for (int64_t i = 0; i < m; ++i)
    for (int64_t kk = 0; kk < k; ++kk)
      for (int64_t j = 0; j < n; ++j)
        ref[i * n + j] += A[i * k + kk] * B[kk * n + j];
  for (const KernelBackend* be : backends()) {
    if (!be->available()) continue;
    std::vector<double> C(m * n, 0.0);
    be->gemmF64(ser, A.data(), B.data(), C.data(), m, k, n);
    EXPECT_EQ(std::memcmp(C.data(), ref.data(), C.size() * sizeof(double)), 0)
        << be->name() << " f64 mismatch";
  }
}

TEST(BackendStrips, EwBitIdenticalAcrossBackendsOnArbitraryData) {
  // Element-wise ops are pure per-element work: the contract is exact
  // agreement on ANY data, not just exactly-representable values.
  AutoRestore guard;
  SerialExecutor ser;
  Matrix a = noisyF32(9, 13, 31);
  Matrix b = noisyF32(9, 13, 47);
  const BinOp ops[] = {BinOp::Add, BinOp::Sub, BinOp::Mul,
                       BinOp::Div, BinOp::Min, BinOp::Max};
  for (BinOp op : ops) {
    Matrix ref;
    {
      BackendOverride pin("scalar");
      ew(ser, op, a, b, ref);
    }
    for (const KernelBackend* be : backends()) {
      if (!be->available()) continue;
      BackendOverride pin(be->name());
      Matrix mm, ms;
      ew(ser, op, a, b, mm);
      ew(ser, op, a, 1.7f, ms);
      Matrix refS;
      {
        BackendOverride sc("scalar");
        ew(ser, op, a, 1.7f, refS);
      }
      EXPECT_TRUE(sameBits(mm, ref)) << be->name() << " ew op mismatch";
      EXPECT_TRUE(sameBits(ms, refS)) << be->name() << " ew scalar mismatch";
    }
  }
}

TEST(BackendStrips, ReduceBitIdenticalAcrossBackendsOnArbitraryData) {
  // The reduction ABI fixes the accumulation order (four striped lanes
  // combined pairwise, then the tail), so even rounding-sensitive sums
  // must agree bit-for-bit between the scalar emulation and the SSE path.
  AutoRestore guard;
  SerialExecutor ser;
  for (int64_t len : {1, 3, 4, 7, 64, 1001}) {
    Matrix m = noisyF32(1, len, static_cast<uint32_t>(len) * 5 + 1);
    float ref;
    {
      BackendOverride pin("scalar");
      ref = reduceF32(ser, BinOp::Add, 0.0f, m, /*simd=*/true);
    }
    for (const KernelBackend* be : backends()) {
      if (!be->available()) continue;
      BackendOverride pin(be->name());
      float got = reduceF32(ser, BinOp::Add, 0.0f, m, /*simd=*/true);
      EXPECT_EQ(got, ref) << be->name() << " reduce len " << len;
      // Min/Max are order-insensitive; still exercise the strip.
      EXPECT_EQ(reduceF32(ser, BinOp::Max, m.f32()[0], m, true),
                ([&] {
                  BackendOverride sc("scalar");
                  return reduceF32(ser, BinOp::Max, m.f32()[0], m, true);
                }()))
          << be->name();
    }
  }
}

TEST(BackendMetrics, SelectionAndPerBackendMatmulCounters) {
  AutoRestore guard;
  metrics::enable(true);
  metrics::reset();
  {
    SerialExecutor ser;
    BackendOverride pin("sse");
    Matrix a = exactF32(8, 9, 1), b = exactF32(9, 7, 2);
    (void)matmul(ser, a, b);
  }
  metrics::Snapshot s = metrics::snapshot();
  metrics::enable(false);

  bool sawSelected = false;
  for (const auto& c : s.counters)
    if (c.name == "backend.selected.sse" && c.value > 0) sawSelected = true;
  EXPECT_TRUE(sawSelected) << "backend.selected.sse counter missing";

  bool sawGeneric = false, sawPerBackend = false;
  for (const auto& t : s.timers) {
    if (t.name == "kernel.matmul" && t.count == 1) sawGeneric = true;
    if (t.name == "kernel.matmul.sse" && t.count == 1) sawPerBackend = true;
  }
  EXPECT_TRUE(sawGeneric) << "kernel.matmul timer missing";
  EXPECT_TRUE(sawPerBackend) << "kernel.matmul.sse timer missing";
}

} // namespace
} // namespace mmx::rt
