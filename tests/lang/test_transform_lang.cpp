// Transformation-extension edge cases beyond the figure reproductions:
// every clause on divisible and non-divisible extents, clause pipelines,
// the derived specs (tile, unroll), and the semantic checks.
#include "xc_helper.hpp"

namespace mmx::test {
namespace {

/// Builds a program computing out[i] = a[i]*3 + 1 over `n` elements with
/// the given transform clauses, then printing the max abs deviation from
/// the untransformed formula (0 when the transform preserved semantics).
std::string scaled1D(int n, const std::string& clauses) {
  std::string N = std::to_string(n);
  return R"(
int main() {
  Matrix float <1> a = with ([0] <= [i] < [)" + N + R"(])
      genarray([)" + N + R"(], (float)(i) * 0.25);
  Matrix float <1> b = init(Matrix float <1>, )" + N + R"();
  b = with ([0] <= [i] < [)" + N + R"(])
      genarray([)" + N + R"(], a[i] * 3.0 + 1.0)
      )" + clauses + R"(;
  float diff = with ([0] <= [i] < [)" + N + R"(])
      fold(max, 0.0, max(b[i] - (a[i] * 3.0 + 1.0),
                         (a[i] * 3.0 + 1.0) - b[i]));
  printFloat(diff);
  return 0;
})";
}

struct TransformCase {
  const char* name;
  const char* clauses;
  int n;
};

// Without a printer gtest dumps the raw bytes, pointers included, and
// ASLR then gives the discovered ctest names new bytes on every build.
void PrintTo(const TransformCase& c, std::ostream* os) { *os << c.name; }

class TransformP : public ::testing::TestWithParam<TransformCase> {};

TEST_P(TransformP, PreservesSemantics) {
  EXPECT_EQ(runOk(scaled1D(GetParam().n, GetParam().clauses)), "0\n")
      << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Clauses, TransformP,
    ::testing::Values(
        TransformCase{"split_divisible",
                      "transform { split i by 4, iin, iout; }", 64},
        TransformCase{"split_nondivisible",
                      "transform { split i by 4, iin, iout; }", 61},
        TransformCase{"split_by_1",
                      "transform { split i by 1, iin, iout; }", 17},
        TransformCase{"split_larger_than_extent",
                      "transform { split i by 64, iin, iout; }", 10},
        TransformCase{"vectorize_direct", "transform { vectorize i; }", 37},
        TransformCase{"vectorize_tiny", "transform { vectorize i; }", 3},
        TransformCase{"unroll_divisible", "transform { unroll i by 4; }",
                      64},
        TransformCase{"unroll_nondivisible", "transform { unroll i by 4; }",
                      63},
        TransformCase{"unroll_by_1", "transform { unroll i by 1; }", 9},
        TransformCase{"parallelize", "transform { parallelize i; }", 50},
        TransformCase{"split_then_vectorize_out",
                      "transform { split i by 8, iin, iout; vectorize iin; }",
                      77},
        TransformCase{"split_then_unroll_inner",
                      "transform { split i by 8, iin, iout; unroll iin by "
                      "2; }",
                      80},
        TransformCase{"split_parallel_out_vector_in",
                      "transform { split i by 4, iin, iout; vectorize iin; "
                      "parallelize iout; }",
                      53}),
    [](const auto& info) { return info.param.name; });

TEST(TransformLang, UnrollReplicatesBodyInIr) {
  auto res = translateXc(scaled1D(32, "transform { unroll i by 4; }"));
  ASSERT_TRUE(res.ok) << res.renderDiagnostics();
  std::string irText = ir::dump(*res.module);
  // Coarsened loop plus a remainder loop over the original name.
  EXPECT_NE(irText.find("for (%i_u"), std::string::npos) << irText;
  // Four replicated index reconstructions inside the main loop.
  int count = 0;
  size_t pos = 0;
  while ((pos = irText.find("(%i_u * 4)", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_GE(count, 4);
}

TEST(TransformLang, TransformOnInnerFoldLoop) {
  // Clauses may target the fold's k loop generated inside the genarray.
  const char* src = R"(
int main() {
  Matrix float <3> mat = synthSsh(4, 6, 32, 5, 2);
  Matrix float <2> a = init(Matrix float <2>, 4, 6);
  a = with ([0,0] <= [i,j] < [4,6])
      genarray([4,6],
        with ([0] <= [k] < [32]) fold(+, 0.0, mat[i,j,k]))
      transform { split k by 8, kin, kout; unroll kin by 2; };
  Matrix float <2> b = with ([0,0] <= [i,j] < [4,6])
      genarray([4,6],
        with ([0] <= [k] < [32]) fold(+, 0.0, mat[i,j,k]));
  float diff = with ([0,0] <= [i,j] < [4,6])
      fold(max, 0.0, max(a[i,j] - b[i,j], b[i,j] - a[i,j]));
  printFloat(diff);
  return 0;
})";
  EXPECT_EQ(runOk(src), "0\n");
}

TEST(TransformLang, StridedVectorAccessUsesGatherCorrectly) {
  // Vectorized loop reading with stride 2: exercises the non-contiguous
  // (gather) path of the 4-wide interpreter mode.
  const char* src = R"(
int main() {
  Matrix float <1> a = with ([0] <= [i] < [64])
      genarray([64], (float)(i));
  Matrix float <1> b = init(Matrix float <1>, 32);
  b = with ([0] <= [i] < [32])
      genarray([32], a[i * 2])
      transform { vectorize i; };
  float diff = with ([0] <= [i] < [32])
      fold(max, 0.0, max(b[i] - (float)(i * 2), (float)(i * 2) - b[i]));
  printFloat(diff);
  return 0;
})";
  EXPECT_EQ(runOk(src), "0\n");
}

TEST(TransformLang, IntVectorization) {
  const char* src = R"(
int main() {
  Matrix int <1> a = (0 :: 49);
  Matrix int <1> b = init(Matrix int <1>, 50);
  b = with ([0] <= [i] < [50])
      genarray([50], a[i] * 2 - 3)
      transform { vectorize i; };
  printInt(b[0]);
  printInt(b[49]);
  return 0;
})";
  EXPECT_EQ(runOk(src), "-3\n95\n");
}

TEST(TransformLang, ReorderRequiresPerfectNest) {
  // j is not nested inside i here (i is the only loop).
  expectError(scaled1D(16, "transform { reorder i, j; }"), "no loop named");
}

TEST(TransformLang, SplitFactorValidated) {
  expectError(scaled1D(16, "transform { split i by 0, a, b; }"),
              "split factor must be positive");
}

TEST(TransformLang, UnrollFactorValidated) {
  expectError(scaled1D(16, "transform { unroll i by 0; }"),
              "unroll factor must be positive");
}

TEST(TransformLang, UnknownUnrollTarget) {
  expectError(scaled1D(16, "transform { unroll z by 2; }"),
              "no loop named 'z'");
}

TEST(TransformLang, ClausesApplyInOrder) {
  // Splitting twice: the second split targets a loop created by the first.
  EXPECT_EQ(runOk(scaled1D(64,
                           "transform { split i by 16, iin, iout; "
                           "split iin by 4, iii, iio; }")),
            "0\n");
}

TEST(TransformLang, TransformKeywordsAreContextual) {
  // `split`, `by`, `tile`, `unroll` remain usable as identifiers in host
  // code — the context-aware scanner only recognizes them inside
  // transform blocks.
  const char* src = R"(
int main() {
  int split = 2;
  int by = 3;
  int tile = 4;
  int unroll = 5;
  printInt(split * by + tile * unroll);
  return 0;
})";
  EXPECT_EQ(runOk(src), "26\n");
}

} // namespace
} // namespace mmx::test
