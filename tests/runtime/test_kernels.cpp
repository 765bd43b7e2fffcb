#include "runtime/kernels.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "runtime/backend.hpp"

namespace mmx::rt {
namespace {

Matrix iotaF32(const std::vector<int64_t>& dims, float scale = 1.f) {
  Matrix m = Matrix::zeros(Elem::F32, dims);
  for (int64_t i = 0; i < m.size(); ++i)
    m.f32()[i] = scale * static_cast<float>((i % 37) - 18);
  return m;
}

Matrix iotaI32(const std::vector<int64_t>& dims) {
  Matrix m = Matrix::zeros(Elem::I32, dims);
  for (int64_t i = 0; i < m.size(); ++i)
    m.i32()[i] = static_cast<int32_t>((i * 7) % 23) - 11;
  return m;
}

// ---- property sweep: scalar / SIMD / parallel must agree --------------

struct EwCase {
  BinOp op;
  const char* name;
};
// Printed by name: the default byte dump holds a pointer that ASLR moves,
// which would give the discovered ctest names new bytes on every build.
void PrintTo(const EwCase& c, std::ostream* os) { *os << c.name; }

class EwBinaryP : public ::testing::TestWithParam<EwCase> {};

TEST_P(EwBinaryP, ScalarSimdParallelAgreeF32) {
  BinOp op = GetParam().op;
  Matrix a = iotaF32({7, 13});
  Matrix b = iotaF32({7, 13}, 0.5f);
  // Avoid division by zero for Div/Mod.
  for (int64_t i = 0; i < b.size(); ++i)
    if (std::fabs(b.f32()[i]) < 0.25f) b.f32()[i] = 1.f;

  SerialExecutor ser;
  ForkJoinPool pool(4);
  Matrix r1, r2, r3, r4;
  ew(ser, op, a, b, r1, /*simd=*/false);
  ew(ser, op, a, b, r2, /*simd=*/true);
  ew(pool, op, a, b, r3, /*simd=*/false);
  ew(pool, op, a, b, r4, /*simd=*/true);
  EXPECT_TRUE(r1.equals(r2, 1e-5f)) << GetParam().name;
  EXPECT_TRUE(r1.equals(r3, 0.f)) << GetParam().name;
  EXPECT_TRUE(r1.equals(r4, 1e-5f)) << GetParam().name;
}

TEST_P(EwBinaryP, ScalarBroadcastAgreesF32) {
  BinOp op = GetParam().op;
  Matrix a = iotaF32({91});
  SerialExecutor ser;
  ForkJoinPool pool(3);
  Matrix r1, r2;
  ew(ser, op, a, 3.0f, r1, false);
  ew(pool, op, a, 3.0f, r2, true);
  EXPECT_TRUE(r1.equals(r2, 1e-5f)) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, EwBinaryP,
    ::testing::Values(EwCase{BinOp::Add, "add"}, EwCase{BinOp::Sub, "sub"},
                      EwCase{BinOp::Mul, "mul"}, EwCase{BinOp::Div, "div"},
                      EwCase{BinOp::Mod, "mod"}, EwCase{BinOp::Min, "min"},
                      EwCase{BinOp::Max, "max"}),
    [](const auto& info) { return info.param.name; });

TEST(Kernels, EwBinaryExactValues) {
  Matrix a = Matrix::fromF32({4}, {1, 2, 3, 4});
  Matrix b = Matrix::fromF32({4}, {10, 20, 30, 40});
  SerialExecutor ex;
  Matrix out;
  ew(ex, BinOp::Add, a, b, out, true);
  EXPECT_TRUE(out.equals(Matrix::fromF32({4}, {11, 22, 33, 44})));
  ew(ex, BinOp::Mul, a, b, out, true);
  EXPECT_TRUE(out.equals(Matrix::fromF32({4}, {10, 40, 90, 160})));
}

TEST(Kernels, EwBinaryI32SimdAgreesWithScalar) {
  Matrix a = iotaI32({129}); // odd size: exercises the scalar tail
  Matrix b = iotaI32({129});
  SerialExecutor ex;
  Matrix r1, r2;
  for (BinOp op : {BinOp::Add, BinOp::Sub, BinOp::Mul}) {
    ew(ex, op, a, b, r1, false);
    ew(ex, op, a, b, r2, true);
    EXPECT_TRUE(r1.equals(r2));
  }
}

TEST(Kernels, ShapeMismatchThrows) {
  Matrix a = Matrix::zeros(Elem::F32, {2, 3});
  Matrix b = Matrix::zeros(Elem::F32, {3, 2});
  SerialExecutor ex;
  Matrix out;
  EXPECT_THROW(ew(ex, BinOp::Add, a, b, out, false),
               std::invalid_argument);
  Matrix c = Matrix::zeros(Elem::I32, {2, 3});
  EXPECT_THROW(ew(ex, BinOp::Add, a, c, out, false),
               std::invalid_argument);
}

TEST(Kernels, BoolArithmeticRejected) {
  Matrix a = Matrix::zeros(Elem::Bool, {4});
  SerialExecutor ex;
  Matrix out;
  EXPECT_THROW(ew(ex, BinOp::Add, a, a, out, false),
               std::invalid_argument);
}

TEST(Kernels, CompareProducesBool) {
  Matrix a = Matrix::fromF32({4}, {1, 5, 3, 7});
  Matrix b = Matrix::fromF32({4}, {2, 4, 3, 9});
  SerialExecutor ex;
  Matrix out;
  ewCompare(ex, CmpOp::Lt, a, b, out);
  EXPECT_EQ(out.elem(), Elem::Bool);
  EXPECT_TRUE(out.equals(Matrix::fromBool({4}, {1, 0, 0, 1})));
  ewCompare(ex, CmpOp::Eq, a, b, out);
  EXPECT_TRUE(out.equals(Matrix::fromBool({4}, {0, 0, 1, 0})));
}

TEST(Kernels, CompareScalarBroadcast) {
  // The `ssh < i` idiom of Fig. 4.
  Matrix ssh = Matrix::fromF32({5}, {-3, -1, 0, 1, 3});
  SerialExecutor ex;
  Matrix out;
  ewCompareScalarF(ex, CmpOp::Lt, ssh, 0.f, out);
  EXPECT_TRUE(out.equals(Matrix::fromBool({5}, {1, 1, 0, 0, 0})));
  Matrix v = Matrix::fromI32({4}, {1, 2, 3, 4});
  ewCompareScalarI(ex, CmpOp::Ge, v, 3, out);
  EXPECT_TRUE(out.equals(Matrix::fromBool({4}, {0, 0, 1, 1})));
}

TEST(Kernels, MatmulSmallKnown) {
  Matrix a = Matrix::fromF32({2, 3}, {1, 2, 3, 4, 5, 6});
  Matrix b = Matrix::fromF32({3, 2}, {7, 8, 9, 10, 11, 12});
  SerialExecutor ex;
  Matrix c = matmul(ex, a, b);
  EXPECT_TRUE(c.equals(Matrix::fromF32({2, 2}, {58, 64, 139, 154})));
}

TEST(Kernels, MatmulI32) {
  Matrix a = Matrix::fromI32({2, 2}, {1, 2, 3, 4});
  Matrix b = Matrix::fromI32({2, 2}, {5, 6, 7, 8});
  SerialExecutor ex;
  EXPECT_TRUE(matmul(ex, a, b).equals(Matrix::fromI32({2, 2}, {19, 22, 43, 50})));
}

TEST(Kernels, MatmulParallelMatchesSerial) {
  Matrix a = iotaF32({17, 23});
  Matrix b = iotaF32({23, 11});
  SerialExecutor ser;
  ForkJoinPool pool(4);
  EXPECT_TRUE(matmul(ser, a, b).equals(matmul(pool, a, b), 1e-4f));
}

TEST(Kernels, MatmulShapeErrors) {
  SerialExecutor ex;
  Matrix a = Matrix::zeros(Elem::F32, {2, 3});
  Matrix b = Matrix::zeros(Elem::F32, {2, 3});
  EXPECT_THROW(matmul(ex, a, b), std::invalid_argument);
  Matrix v = Matrix::zeros(Elem::F32, {3});
  EXPECT_THROW(matmul(ex, a, v), std::invalid_argument);
}

TEST(Kernels, ReduceSumMatchesLoop) {
  Matrix a = iotaF32({1001});
  double expect = 0;
  for (int64_t i = 0; i < a.size(); ++i) expect += a.f32()[i];
  SerialExecutor ser;
  ForkJoinPool pool(4);
  EXPECT_NEAR(reduceF32(ser, BinOp::Add, 0.f, a, false), expect, 1e-3);
  EXPECT_NEAR(reduceF32(ser, BinOp::Add, 0.f, a, true), expect, 1e-3);
  EXPECT_NEAR(reduceF32(pool, BinOp::Add, 0.f, a, true), expect, 1e-3);
}

TEST(Kernels, ReduceBaseValueAppliedExactlyOnce) {
  Matrix a = Matrix::fromF32({4}, {1, 1, 1, 1});
  ForkJoinPool pool(4);
  // fold(+, 100.0, ...) over four ones = 104, regardless of thread count.
  EXPECT_FLOAT_EQ(reduceF32(pool, BinOp::Add, 100.f, a, false), 104.f);
}

TEST(Kernels, ReduceMinMax) {
  Matrix a = Matrix::fromF32({5}, {3, -7, 2, 9, 0});
  ForkJoinPool pool(3);
  EXPECT_FLOAT_EQ(reduceF32(pool, BinOp::Min, 100.f, a, false), -7.f);
  EXPECT_FLOAT_EQ(reduceF32(pool, BinOp::Max, -100.f, a, false), 9.f);
  Matrix b = Matrix::fromI32({4}, {5, -2, 8, 1});
  EXPECT_EQ(reduceI32(pool, BinOp::Min, 99, b), -2);
  EXPECT_EQ(reduceI32(pool, BinOp::Add, 10, b), 22);
}

TEST(Kernels, ReduceRejectsNonAssociativeOps) {
  Matrix a = Matrix::fromF32({2}, {1, 2});
  SerialExecutor ex;
  EXPECT_THROW(reduceF32(ex, BinOp::Sub, 0.f, a, false),
               std::invalid_argument);
  EXPECT_THROW(reduceF32(ex, BinOp::Div, 0.f, a, false),
               std::invalid_argument);
}

TEST(Kernels, SumInnermost3DMatchesNaive) {
  Matrix a = iotaF32({5, 6, 7});
  SerialExecutor ser;
  ForkJoinPool pool(4);
  Matrix fused, fusedSimd, fusedPar;
  sumInnermost3D(ser, a, fused, false);
  sumInnermost3D(ser, a, fusedSimd, true);
  sumInnermost3D(pool, a, fusedPar, true);

  Matrix naive = Matrix::zeros(Elem::F32, {5, 6});
  for (int64_t i = 0; i < 5; ++i)
    for (int64_t j = 0; j < 6; ++j) {
      float s = 0;
      for (int64_t k = 0; k < 7; ++k) s += a.f32()[(i * 6 + j) * 7 + k];
      naive.f32()[i * 6 + j] = s;
    }
  EXPECT_TRUE(fused.equals(naive, 1e-4f));
  EXPECT_TRUE(fusedSimd.equals(naive, 1e-4f));
  EXPECT_TRUE(fusedPar.equals(naive, 1e-4f));
}

} // namespace
} // namespace mmx::rt
