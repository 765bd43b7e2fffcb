#include "runtime/conncomp.hpp"

#include <gtest/gtest.h>

#include <set>

namespace mmx::rt {
namespace {

Matrix grid(int64_t h, int64_t w, const std::vector<uint8_t>& cells) {
  return Matrix::fromBool({h, w}, cells);
}

TEST(ConnComp, EmptyGridHasNoComponents) {
  int32_t n = -1;
  Matrix l = connectedComponents(grid(3, 3, {0, 0, 0, 0, 0, 0, 0, 0, 0}), &n);
  EXPECT_EQ(n, 0);
  for (int64_t i = 0; i < 9; ++i) EXPECT_EQ(l.i32()[i], 0);
}

TEST(ConnComp, SingleBlob) {
  int32_t n = 0;
  Matrix l = connectedComponents(grid(3, 3,
                                      {1, 1, 0,
                                       1, 1, 0,
                                       0, 0, 0}),
                                 &n);
  EXPECT_EQ(n, 1);
  EXPECT_EQ(l.i32()[0], 1);
  EXPECT_EQ(l.i32()[4], 1);
  EXPECT_EQ(l.i32()[8], 0);
}

TEST(ConnComp, DiagonalIsNotConnected) {
  int32_t n = 0;
  connectedComponents(grid(2, 2, {1, 0, 0, 1}), &n);
  EXPECT_EQ(n, 2); // 4-connectivity
}

TEST(ConnComp, UShapeMergesViaUnionFind) {
  // A 'U': left and right columns get different provisional labels, the
  // bottom row unites them — the classic two-pass regression case.
  int32_t n = 0;
  Matrix l = connectedComponents(grid(3, 3,
                                      {1, 0, 1,
                                       1, 0, 1,
                                       1, 1, 1}),
                                 &n);
  EXPECT_EQ(n, 1);
  std::set<int32_t> labels;
  for (int64_t i = 0; i < 9; ++i)
    if (l.i32()[i]) labels.insert(l.i32()[i]);
  EXPECT_EQ(labels, std::set<int32_t>{1});
}

TEST(ConnComp, MultipleComponentsGetDenseLabels) {
  int32_t n = 0;
  Matrix l = connectedComponents(grid(1, 7, {1, 0, 1, 0, 1, 0, 1}), &n);
  EXPECT_EQ(n, 4);
  EXPECT_EQ(l.i32()[0], 1);
  EXPECT_EQ(l.i32()[2], 2);
  EXPECT_EQ(l.i32()[4], 3);
  EXPECT_EQ(l.i32()[6], 4);
}

TEST(ConnComp, SpiralSingleComponent) {
  int32_t n = 0;
  connectedComponents(grid(5, 5,
                           {1, 1, 1, 1, 1,
                            0, 0, 0, 0, 1,
                            1, 1, 1, 0, 1,
                            1, 0, 0, 0, 1,
                            1, 1, 1, 1, 1}),
                      &n);
  EXPECT_EQ(n, 1);
}

TEST(ConnComp, LabelsPartitionForeground) {
  // Property: every true cell gets a positive label, every false cell 0.
  Matrix g = Matrix::zeros(Elem::Bool, {16, 16});
  for (int64_t i = 0; i < g.size(); ++i)
    g.boolean()[i] = static_cast<uint8_t>((i * 2654435761u >> 7) & 1);
  Matrix l = connectedComponents(g);
  for (int64_t i = 0; i < g.size(); ++i) {
    if (g.boolean()[i])
      EXPECT_GT(l.i32()[i], 0);
    else
      EXPECT_EQ(l.i32()[i], 0);
  }
  // Adjacent foreground cells share labels.
  for (int64_t i = 0; i < 16; ++i)
    for (int64_t j = 0; j + 1 < 16; ++j)
      if (g.boolean()[i * 16 + j] && g.boolean()[i * 16 + j + 1]) {
        EXPECT_EQ(l.i32()[i * 16 + j], l.i32()[i * 16 + j + 1]);
      }
}

TEST(ConnComp, RejectsWrongInput) {
  EXPECT_THROW(connectedComponents(Matrix::zeros(Elem::F32, {2, 2})),
               std::invalid_argument);
  EXPECT_THROW(connectedComponents(Matrix::zeros(Elem::Bool, {2, 2, 2})),
               std::invalid_argument);
}

TEST(DetectEddies, FindsDepressionOfRightSize) {
  // 8x8 field, flat at 0 with a 2x2 pit at depth -1.
  Matrix ssh = Matrix::zeros(Elem::F32, {8, 8});
  for (int64_t i = 3; i <= 4; ++i)
    for (int64_t j = 3; j <= 4; ++j) ssh.f32()[i * 8 + j] = -1.f;
  Matrix labels = detectEddies2D(ssh, -2.f, 0.f, 0.5f, 2, 10);
  int64_t labeled = 0;
  for (int64_t k = 0; k < 64; ++k)
    if (labels.i32()[k]) ++labeled;
  EXPECT_EQ(labeled, 4);
  EXPECT_NE(labels.i32()[3 * 8 + 3], 0);
}

TEST(DetectEddies, SizeCriteriaFilterNoise) {
  // Single-cell pits (noise) are rejected by minSize=2.
  Matrix ssh = Matrix::zeros(Elem::F32, {6, 6});
  ssh.f32()[7] = -1.f; // lone pixel
  Matrix labels = detectEddies2D(ssh, -2.f, 0.f, 0.5f, 2, 10);
  for (int64_t k = 0; k < 36; ++k) EXPECT_EQ(labels.i32()[k], 0);
}

TEST(DetectEddies, BadArgsThrow) {
  Matrix ssh = Matrix::zeros(Elem::F32, {4, 4});
  EXPECT_THROW(detectEddies2D(ssh, 0, 1, 0.f, 1, 2), std::invalid_argument);
  EXPECT_THROW(detectEddies2D(Matrix::zeros(Elem::I32, {4, 4}), 0, 1, 1, 1, 2),
               std::invalid_argument);
}

} // namespace
} // namespace mmx::rt
