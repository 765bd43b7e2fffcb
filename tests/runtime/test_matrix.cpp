#include "runtime/matrix.hpp"

#include <gtest/gtest.h>

#include "runtime/refcount.hpp"

namespace mmx::rt {
namespace {

TEST(Matrix, ZerosShapeAndContents) {
  Matrix m = Matrix::zeros(Elem::F32, {3, 4});
  EXPECT_EQ(m.rank(), 2u);
  EXPECT_EQ(m.dim(0), 3);
  EXPECT_EQ(m.dim(1), 4);
  EXPECT_EQ(m.size(), 12);
  for (int64_t i = 0; i < 12; ++i) EXPECT_EQ(m.f32()[i], 0.f);
}

TEST(Matrix, HandleCopySharesBuffer) {
  Matrix a = Matrix::zeros(Elem::I32, {2, 2});
  Matrix b = a; // O(1) retain, as the refcount extension specifies
  EXPECT_TRUE(a.sharesBufferWith(b));
  EXPECT_EQ(a.useCount(), 2);
  b.i32()[0] = 9;
  EXPECT_EQ(a.i32()[0], 9); // shared storage
}

TEST(Matrix, CloneIsDeep) {
  Matrix a = Matrix::fromF32({2, 2}, {1, 2, 3, 4});
  Matrix b = a.clone();
  EXPECT_FALSE(a.sharesBufferWith(b));
  b.f32()[0] = 99.f;
  EXPECT_EQ(a.f32()[0], 1.f);
  EXPECT_TRUE(a.equals(a.clone()));
}

TEST(Matrix, BuffersAreFreedWhenLastHandleDies) {
  int64_t before = rcLiveBlocks();
  {
    Matrix a = Matrix::zeros(Elem::F32, {16, 16});
    Matrix b = a;
    Matrix c = b.clone();
    EXPECT_EQ(rcLiveBlocks(), before + 2);
  }
  EXPECT_EQ(rcLiveBlocks(), before);
}

TEST(Matrix, OffsetOfIsRowMajor) {
  Matrix m = Matrix::zeros(Elem::F32, {3, 4, 5});
  int64_t idx[3] = {1, 2, 3};
  EXPECT_EQ(m.offsetOf(idx), 1 * 4 * 5 + 2 * 5 + 3);
}

TEST(Matrix, DataIs16ByteAligned) {
  Matrix m = Matrix::zeros(Elem::F32, {7});
  EXPECT_EQ(reinterpret_cast<uintptr_t>(m.f32()) % 16, 0u);
}

TEST(Matrix, EqualsDiscriminatesKindRankShapeContents) {
  Matrix f = Matrix::fromF32({2}, {1, 2});
  Matrix i = Matrix::fromI32({2}, {1, 2});
  EXPECT_FALSE(f.equals(i)); // kind
  Matrix f2 = Matrix::fromF32({2, 1}, {1, 2});
  EXPECT_FALSE(f.equals(f2)); // rank
  Matrix f3 = Matrix::fromF32({2}, {1, 3});
  EXPECT_FALSE(f.equals(f3)); // contents
  EXPECT_TRUE(f.equals(Matrix::fromF32({2}, {1, 2})));
}

TEST(Matrix, EqualsWithTolerance) {
  Matrix a = Matrix::fromF32({2}, {1.0f, 2.0f});
  Matrix b = Matrix::fromF32({2}, {1.0001f, 2.0f});
  EXPECT_FALSE(a.equals(b));
  EXPECT_TRUE(a.equals(b, 1e-3f));
}

TEST(Matrix, BoolMatrixNormalizesTruthiness) {
  Matrix a = Matrix::fromBool({2}, {1, 0});
  Matrix b = Matrix::fromBool({2}, {7, 0}); // any nonzero is true
  EXPECT_TRUE(a.equals(b));
}

TEST(Matrix, ZeroSizedDimensionAllowed) {
  Matrix m = Matrix::zeros(Elem::F32, {0, 5});
  EXPECT_EQ(m.size(), 0);
}

TEST(Matrix, InvalidConstructionThrows) {
  EXPECT_THROW(Matrix::zeros(Elem::F32, {}), std::invalid_argument);
  EXPECT_THROW(Matrix::zeros(Elem::F32, {1, 2, 3, 4, 5, 6, 7, 8, 9}),
               std::invalid_argument);
  EXPECT_THROW(Matrix::zeros(Elem::F32, {-1}), std::invalid_argument);
  EXPECT_THROW(Matrix::fromF32({2}, {1, 2, 3}), std::invalid_argument);
}

TEST(Matrix, ShapeString) {
  // The paper's 721x1440 grid with two time steps: 8 MB, not 4 GB.
  Matrix m = Matrix::zeros(Elem::F32, {721, 1440, 2});
  EXPECT_EQ(m.shapeString(), "721x1440x2 float");
  EXPECT_EQ(Matrix().shapeString(), "<null>");
}

TEST(Matrix, NullHandleBehaviour) {
  Matrix m;
  EXPECT_TRUE(m.null());
  EXPECT_TRUE(m.equals(Matrix()));
  EXPECT_FALSE(m.equals(Matrix::zeros(Elem::F32, {1})));
}

} // namespace
} // namespace mmx::rt
