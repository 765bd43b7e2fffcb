// Parameterized property sweeps over the matrix language: with-loop
// identities across ranks/shapes, indexing equivalence against a C++
// reference, matmul against the runtime kernel, and thread-count
// invariance of every parallel construct.
#include <unistd.h>

#include "runtime/kernels.hpp"
#include "runtime/matio.hpp"
#include "xc_helper.hpp"

namespace mmx::test {
namespace {

struct TempPath {
  std::string path;
  // The pid keeps parameterized instances of one test apart when ctest
  // runs them as concurrent processes sharing TempDir.
  explicit TempPath(const std::string& name)
      : path(std::string(::testing::TempDir()) + std::to_string(::getpid()) +
             "_" + name) {}
  ~TempPath() { std::remove(path.c_str()); }
};

// ---- with-loop identity across ranks -------------------------------------

class GenarrayRankP : public ::testing::TestWithParam<int> {};

TEST_P(GenarrayRankP, LinearIndexIdentity) {
  int rank = GetParam();
  // dims 3,4,2,3,... ; element = its own row-major linear index.
  std::vector<int> dims;
  for (int d = 0; d < rank; ++d) dims.push_back(3 + (d % 2));

  std::string dimList, idList, flat = "0";
  for (int d = 0; d < rank; ++d) {
    dimList += (d ? "," : "") + std::to_string(dims[d]);
    idList += (d ? "," : "") + std::string(1, static_cast<char>('a' + d));
    flat = "(" + flat + " * " + std::to_string(dims[d]) + " + " +
           std::string(1, static_cast<char>('a' + d)) + ")";
  }
  std::string zeros;
  for (int d = 0; d < rank; ++d) zeros += (d ? ",0" : "0");

  int64_t total = 1;
  for (int d : dims) total *= d;

  std::string src = "int main() {\n  Matrix int <" + std::to_string(rank) +
                    "> m = with ([" + zeros + "] <= [" + idList + "] < [" +
                    dimList + "]) genarray([" + dimList + "], " + flat +
                    ");\n";
  // Check the last element equals total-1 and a middle one matches.
  std::string lastIdx;
  for (int d = 0; d < rank; ++d)
    lastIdx += (d ? "," : "") + std::to_string(dims[d] - 1);
  src += "  printInt(m[" + lastIdx + "]);\n  return 0;\n}\n";

  EXPECT_EQ(runOk(src), std::to_string(total - 1) + "\n") << src;
}

INSTANTIATE_TEST_SUITE_P(Ranks, GenarrayRankP, ::testing::Values(1, 2, 3, 4),
                         [](const auto& info) {
                           return "rank" + std::to_string(info.param);
                         });

// ---- indexing equivalence against C++ reference slices -----------------

struct SliceCase {
  const char* name;
  const char* selector;        // e.g. "1, 0 : 2, :"
  std::vector<int64_t> expectDims;
  // Expected values computed from m[i][j][k] = 100 i + 10 j + k.
  std::vector<float> expect;
};

// Printed by name: the default byte dump holds pointers that ASLR moves,
// which would give the discovered ctest names new bytes on every build.
void PrintTo(const SliceCase& c, std::ostream* os) { *os << c.name; }

class SliceP : public ::testing::TestWithParam<SliceCase> {};

TEST_P(SliceP, MatchesReference) {
  const SliceCase& c = GetParam();
  TempPath out(std::string("slice_") + c.name + ".mmx");
  std::string src = R"(
int main() {
  Matrix float <3> m = with ([0,0,0] <= [i,j,k] < [3,4,5])
      genarray([3,4,5], (float)(i * 100 + j * 10 + k));
  writeMatrix(")" + out.path + R"(", m[)" + c.selector + R"(]);
  return 0;
})";
  runOk(src);
  rt::Matrix got = rt::readMatrixFile(out.path);
  rt::Matrix expect = rt::Matrix::fromF32(c.expectDims, c.expect);
  EXPECT_TRUE(got.equals(expect)) << c.name << ": got " << got.shapeString();
}

INSTANTIATE_TEST_SUITE_P(
    Selectors, SliceP,
    ::testing::Values(
        SliceCase{"row_vector", "1, 2, :", {5}, {120, 121, 122, 123, 124}},
        SliceCase{"mid_plane", "1, :, 2",
                  {4},
                  {102, 112, 122, 132}},
        SliceCase{"block", "0 : 1, 1 : 2, 0 : 1",
                  {2, 2, 2},
                  {10, 11, 20, 21, 110, 111, 120, 121}},
        SliceCase{"full_dim_drop2", ":, 0, 0", {3}, {0, 100, 200}},
        SliceCase{"end_arith", "end, end - 1 : end, 4",
                  {2},
                  {224, 234}},
        SliceCase{"range_single", "2, 1 : 1, :",
                  {1, 5},
                  {210, 211, 212, 213, 214}}),
    [](const auto& info) { return info.param.name; });

// ---- matrix multiply vs the runtime kernel ------------------------------

class MatmulP
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatmulP, MatchesKernel) {
  auto [m, k, n] = GetParam();
  TempPath ain("mm_a.mmx"), bin("mm_b.mmx"), out("mm_c.mmx");
  rt::Matrix A = rt::Matrix::zeros(rt::Elem::F32, {m, k});
  rt::Matrix B = rt::Matrix::zeros(rt::Elem::F32, {k, n});
  for (int64_t i = 0; i < A.size(); ++i)
    A.f32()[i] = static_cast<float>((i * 7 % 11) - 5) * 0.5f;
  for (int64_t i = 0; i < B.size(); ++i)
    B.f32()[i] = static_cast<float>((i * 5 % 13) - 6) * 0.25f;
  rt::writeMatrixFile(ain.path, A);
  rt::writeMatrixFile(bin.path, B);

  std::string src = R"(
int main() {
  Matrix float <2> a = readMatrix(")" + ain.path + R"(");
  Matrix float <2> b = readMatrix(")" + bin.path + R"(");
  Matrix float <2> c = a * b;
  writeMatrix(")" + out.path + R"(", c);
  return 0;
})";
  runOk(src);
  rt::SerialExecutor ex;
  rt::Matrix expect = rt::matmul(ex, A, B);
  EXPECT_TRUE(rt::readMatrixFile(out.path).equals(expect, 1e-4f));
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatmulP,
                         ::testing::Values(std::make_tuple(1, 1, 1),
                                           std::make_tuple(2, 3, 4),
                                           std::make_tuple(5, 5, 5),
                                           std::make_tuple(7, 2, 9),
                                           std::make_tuple(16, 16, 16)));

// ---- thread-count invariance --------------------------------------------

class ThreadsP : public ::testing::TestWithParam<unsigned> {};

TEST_P(ThreadsP, ParallelConstructsAreDeterministic) {
  unsigned threads = GetParam();
  const char* src = R"(
Matrix float <1> centre(Matrix float <1> ts) {
  float mean = with ([0] <= [k] < [dimSize(ts, 0)]) fold(+, 0.0, ts[k])
               / dimSize(ts, 0);
  return ts - mean;
}
int main() {
  Matrix float <3> m = synthSsh(6, 5, 12, 33, 2);
  Matrix float <3> c = matrixMap(centre, m, [2]);
  Matrix float <2> sums = with ([0,0] <= [i,j] < [6,5])
      genarray([6,5],
        with ([0] <= [k] < [12]) fold(+, 0.0, c[i,j,k]));
  float worst = with ([0,0] <= [i,j] < [6,5])
      fold(max, 0.0, max(sums[i,j], 0.0 - sums[i,j]));
  printBool(worst < 0.001);
  return 0;
})";
  EXPECT_EQ(runOk(src, threads), "true\n");
}

INSTANTIATE_TEST_SUITE_P(Counts, ThreadsP,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u),
                         [](const auto& info) {
                           return "t" + std::to_string(info.param);
                         });

// ---- fold/genarray algebraic properties -----------------------------

TEST(LangProperty, FoldOverGenarrayIsClosedForm) {
  // sum over genarray(i) for i in [0,n) == n(n-1)/2, several n.
  for (int n : {1, 2, 7, 32, 100}) {
    std::string N = std::to_string(n);
    std::string src = "int main() { Matrix int <1> v = with ([0] <= [i] < [" +
                      N + "]) genarray([" + N +
                      "], i);\n  printFloat(with ([0] <= [i] < [" + N +
                      "]) fold(+, 0.0, (float)(v[i])));\n  return 0; }";
    EXPECT_EQ(runOk(src), std::to_string(n * (n - 1) / 2) + "\n") << n;
  }
}

TEST(LangProperty, EwOpsCommuteWithIndexing) {
  // (a + b)[sel] == a[sel] + b[sel] for a random range selector.
  const char* src = R"(
int main() {
  Matrix float <1> a = with ([0] <= [i] < [40])
      genarray([40], (float)(i) * 0.5);
  Matrix float <1> b = with ([0] <= [i] < [40])
      genarray([40], (float)(40 - i));
  Matrix float <1> lhs = (a + b)[5 : 20];
  Matrix float <1> rhs = a[5 : 20] + b[5 : 20];
  float diff = with ([0] <= [i] < [16])
      fold(max, 0.0, max(lhs[i] - rhs[i], rhs[i] - lhs[i]));
  printFloat(diff);
  return 0;
})";
  EXPECT_EQ(runOk(src), "0\n");
}

TEST(LangProperty, LogicalIndexPartition) {
  // v[mask] and v[!mask-equivalent] partition v: sizes sum to n.
  const char* src = R"(
int main() {
  Matrix int <1> v = (0 :: 30);
  Matrix int <1> small = v[v < 11];
  Matrix int <1> large = v[v >= 11];
  printInt(dimSize(small, 0) + dimSize(large, 0));
  printInt(small[end]);
  printInt(large[0]);
  return 0;
})";
  EXPECT_EQ(runOk(src), "31\n10\n11\n");
}

} // namespace
} // namespace mmx::test
