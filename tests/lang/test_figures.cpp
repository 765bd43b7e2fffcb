// Figure-by-figure reproduction of the paper's code listings (DESIGN.md
// experiment index F1-F11). Programs are written in extended C, run
// through the composed translator + interpreter, and checked against the
// independent C++ oracles in runtime/.
#include <cstdio>

#include "runtime/backend.hpp"
#include "runtime/conncomp.hpp"
#include "runtime/eddy.hpp"
#include "runtime/kernels.hpp"
#include "runtime/matio.hpp"
#include "runtime/ssh_synth.hpp"
#include "xc_helper.hpp"

namespace mmx::test {
namespace {

struct TempPath {
  std::string path;
  explicit TempPath(const char* name)
      : path(std::string(::testing::TempDir()) + name) {}
  ~TempPath() { std::remove(path.c_str()); }
};

// ---- F1 + F3: the temporal-mean program of Fig. 1 ------------------------

const char* kFig1 = R"(
// Fig. 1, with readMatrix replaced by the synthetic SSH source.
int main() {
  Matrix float <3> mat = synthSsh(6, 7, 9, 42, 2);
  int m = dimSize(mat, 0);
  int n = dimSize(mat, 1);
  int p = dimSize(mat, 2);
  Matrix float <2> means = init(Matrix float <2>, m, n);
  means = with ([0,0] <= [i,j] < [m,n])
    genarray([m,n],
      (with ([0] <= [k] < [p]) fold(+, 0.0, mat[i,j,k])) / p);
  writeMatrix("%OUT%", means);
  return 0;
}
)";

std::string fig1Program(const std::string& out) {
  std::string src = kFig1;
  src.replace(src.find("%OUT%"), 5, out);
  return src;
}

TEST(Fig1, TemporalMeanMatchesOracle) {
  TempPath out("fig1_means.mmx");
  EXPECT_EQ(runOk(fig1Program(out.path)), "");

  rt::SshParams p;
  p.nlat = 6;
  p.nlon = 7;
  p.ntime = 9;
  p.seed = 42;
  p.numEddies = 2;
  rt::Matrix ssh = rt::synthesizeSsh(p);
  rt::SerialExecutor ex;
  rt::Matrix sums;
  rt::sumInnermost3D(ex, ssh, sums, false);
  rt::Matrix expect;
  rt::ew(ex, rt::BinOp::Div, sums, 9.f, expect, false);

  rt::Matrix got = rt::readMatrixFile(out.path);
  EXPECT_TRUE(got.equals(expect, 1e-4f))
      << "got " << got.shapeString() << ", expected "
      << expect.shapeString();
}

TEST(Fig1, ParallelRunMatchesSerial) {
  TempPath a("fig1_ser.mmx"), b("fig1_par.mmx");
  runOk(fig1Program(a.path), 1);
  runOk(fig1Program(b.path), 4);
  EXPECT_TRUE(rt::readMatrixFile(a.path).equals(rt::readMatrixFile(b.path)));
}

TEST(Fig3, GeneratedLoopStructure) {
  // The internal expansion (Fig. 3): the genarray is two nested for-loops
  // over i and j, the fold one inner loop over k, the assignment fused
  // (no extra copy), the innermost access a direct flat load (the slice
  // was eliminated), and the outer loop parallel.
  auto res = translateXc(fig1Program("/dev/null"));
  ASSERT_TRUE(res.ok) << res.renderDiagnostics();
  std::string irText = ir::dump(*res.module);

  EXPECT_NE(irText.find("for (i"), std::string::npos) << irText;
  EXPECT_NE(irText.find("for (j"), std::string::npos);
  EXPECT_NE(irText.find("for (k"), std::string::npos);
  EXPECT_NE(irText.find("#pragma parallel"), std::string::npos);
  EXPECT_NE(irText.find(".data["), std::string::npos); // direct flat access
  EXPECT_EQ(irText.find("cloneMatrix"), std::string::npos); // fused
}

TEST(Fig3, AblationsChangeTheGeneratedCode) {
  driver::TranslateOptions noFusion;
  noFusion.fusion = false;
  auto res = translateXc(fig1Program("/dev/null"), noFusion);
  ASSERT_TRUE(res.ok) << res.renderDiagnostics();
  EXPECT_NE(ir::dump(*res.module).find("cloneMatrix"), std::string::npos);

  driver::TranslateOptions noPar;
  noPar.autoParallel = false;
  auto res2 = translateXc(fig1Program("/dev/null"), noPar);
  ASSERT_TRUE(res2.ok) << res2.renderDiagnostics();
  EXPECT_EQ(ir::dump(*res2.module).find("#pragma parallel"),
            std::string::npos);

  driver::TranslateOptions noSlice;
  noSlice.sliceElimination = false;
  auto res3 = translateXc(fig1Program("/dev/null"), noSlice);
  ASSERT_TRUE(res3.ok) << res3.renderDiagnostics();
  // Unoptimized scalar indexing goes through the selector machinery,
  // visible as bracketed index expressions instead of .data[] loads.
  EXPECT_EQ(ir::dump(*res3.module).find("mat.data["), std::string::npos);
}

// ---- F4 + F5: connected components over thresholds ----------------------

TEST(Fig4, ConnCompMatrixMapProgram) {
  TempPath out("fig4_labels.mmx");
  std::string src = R"(
    // Fig. 4's shape: for each time step, label connected components of
    // the thresholded SSH field.
    Matrix int <2> connCompAt(Matrix float <2> ssh) {
      Matrix int <2> labels = init(Matrix int <2>,
                                   dimSize(ssh, 0), dimSize(ssh, 1));
      Matrix bool <2> binary = ssh < -0.5;
      labels = connComp(binary);
      return labels;
    }
    int main() {
      Matrix float <3> ssh = synthSsh(12, 12, 6, 9, 3);
      Matrix int <3> all = init(Matrix int <3>, 12, 12, 6);
      // Fig. 5's semantically equivalent loop over the third dimension.
      for (int t = 0; t < dimSize(ssh, 2); t++) {
        all[:, :, t] = connCompAt(ssh[:, :, t]);
      }
      writeMatrix(")" + out.path + R"(", all);
      return 0;
    })";
  runOk(src);

  rt::SshParams p;
  p.nlat = 12;
  p.nlon = 12;
  p.ntime = 6;
  p.seed = 9;
  p.numEddies = 3;
  rt::Matrix ssh = rt::synthesizeSsh(p);
  rt::Matrix got = rt::readMatrixFile(out.path);
  ASSERT_EQ(got.rank(), 3u);

  // Oracle: per time step, threshold + label.
  for (int64_t t = 0; t < p.ntime; ++t) {
    rt::Matrix bin = rt::Matrix::zeros(rt::Elem::Bool, {p.nlat, p.nlon});
    for (int64_t i = 0; i < p.nlat; ++i)
      for (int64_t j = 0; j < p.nlon; ++j)
        bin.boolean()[i * p.nlon + j] =
            ssh.f32()[(i * p.nlon + j) * p.ntime + t] < -0.5f;
    rt::Matrix lab = rt::connectedComponents(bin);
    for (int64_t i = 0; i < p.nlat; ++i)
      for (int64_t j = 0; j < p.nlon; ++j)
        ASSERT_EQ(got.i32()[(i * p.nlon + j) * p.ntime + t],
                  lab.i32()[i * p.nlon + j])
            << "t=" << t << " i=" << i << " j=" << j;
  }
}

// ---- F8: the full ocean-eddy scoring program ----------------------------

std::string fig8Program(const std::string& out, int nlat, int nlon,
                        int ntime, int seed) {
  return R"(
(Matrix float <1>, int, int) getTrough(Matrix float <1> ts, int i) {
  int beginning = i;
  int n = dimSize(ts, 0);
  while (i + 1 < n && ts[i] >= ts[i + 1]) { i = i + 1; }
  while (i + 1 < n && ts[i] < ts[i + 1]) { i = i + 1; }
  return (ts[beginning : i], beginning, i);
}

Matrix float <1> computeArea(Matrix float <1> areaOfInterest) {
  float y1 = areaOfInterest[0];
  float y2 = areaOfInterest[end];
  int x1 = 0;
  int x2 = dimSize(areaOfInterest, 0) - 1;
  float slope = 0.0;
  if (x2 > x1) { slope = (y1 - y2) / ((float)(x1 - x2)); }
  float b = y1 - slope * x1;
  Matrix float <1> Line = (x1 :: x2) * slope + b;
  float area = with ([0] <= [q] < [dimSize(Line, 0)])
      fold(+, 0.0, Line[q] - areaOfInterest[q]);
  return with ([0] <= [q] < [dimSize(Line, 0)])
      genarray([dimSize(Line, 0)], area);
}

Matrix float <1> scoreTS(Matrix float <1> ts) {
  Matrix float <1> scores = init(Matrix float <1>, dimSize(ts, 0));
  int i = 0;
  int n = dimSize(ts, 0);
  while (i + 1 < n && ts[i] < ts[i + 1]) { i = i + 1; }  // trimming
  Matrix float <1> trough = init(Matrix float <1>, 1);
  int beginning = 0;
  while (i < n - 1) {
    (trough, beginning, i) = getTrough(ts, i);
    if (i <= beginning) { return scores; }
    scores[beginning : i] = computeArea(trough);
  }
  return scores;
}

int main() {
  Matrix float <3> data = synthSsh()" +
         std::to_string(nlat) + ", " + std::to_string(nlon) + ", " +
         std::to_string(ntime) + ", " + std::to_string(seed) + R"(, 2);
  Matrix float <3> scores = matrixMap(scoreTS, data, [2]);
  writeMatrix(")" + out + R"(", scores);
  return 0;
}
)";
}

TEST(Fig8, EddyScoringMatchesOracle) {
  TempPath out("fig8_scores.mmx");
  runOk(fig8Program(out.path, 5, 6, 24, 17));

  rt::SshParams p;
  p.nlat = 5;
  p.nlon = 6;
  p.ntime = 24;
  p.seed = 17;
  p.numEddies = 2;
  rt::Matrix ssh = rt::synthesizeSsh(p);
  rt::SerialExecutor ex;
  rt::Matrix expect = rt::scoreAllSeries(ex, ssh);

  rt::Matrix got = rt::readMatrixFile(out.path);
  EXPECT_TRUE(got.equals(expect, 1e-3f))
      << "extended-C scoring diverges from the C++ oracle";
}

TEST(Fig8, ParallelMatrixMapMatchesSerial) {
  TempPath a("fig8_ser.mmx"), b("fig8_par.mmx");
  runOk(fig8Program(a.path, 4, 5, 20, 3), 1);
  runOk(fig8Program(b.path, 4, 5, 20, 3), 4);
  EXPECT_TRUE(rt::readMatrixFile(a.path).equals(rt::readMatrixFile(b.path)));
}

// ---- F9 / F10 / F11: explicit transformations ----------------------------

std::string fig9Program(const std::string& out, const std::string& clauses) {
  return R"(
int main() {
  Matrix float <3> mat = synthSsh(6, 16, 12, 5, 2);
  int m = dimSize(mat, 0);
  int n = dimSize(mat, 1);
  int p = dimSize(mat, 2);
  Matrix float <2> means = init(Matrix float <2>, m, n);
  means = with ([0,0] <= [i,j] < [m,n])
    genarray([m,n],
      (with ([0] <= [k] < [p]) fold(+, 0.0, mat[i,j,k])) / p))" +
         clauses + R"(;
  writeMatrix(")" + out + R"(", means);
  return 0;
}
)";
}

TEST(Fig9, TransformedResultEqualsUntransformed) {
  TempPath plain("fig9_plain.mmx"), tf("fig9_tf.mmx");
  runOk(fig9Program(plain.path, ""));
  runOk(fig9Program(tf.path, R"(
    transform {
      split j by 4, jin, jout;
      vectorize jin;
      parallelize i;
    })"),
        4);
  EXPECT_TRUE(
      rt::readMatrixFile(plain.path)
          .equals(rt::readMatrixFile(tf.path), 1e-4f));
}

TEST(Fig10, SplitProducesTwoLoopsWithReconstruction) {
  auto res = translateXc(fig9Program("/dev/null", R"(
    transform { split j by 4, jin, jout; })"));
  ASSERT_TRUE(res.ok) << res.renderDiagnostics();
  std::string irText = ir::dump(*res.module);
  // Fig. 10: the j loop is replaced by jout/jin loops and j is rebuilt
  // as jout*4 + jin.
  EXPECT_NE(irText.find("for (%jout"), std::string::npos) << irText;
  EXPECT_NE(irText.find("for (%jin"), std::string::npos);
  EXPECT_NE(irText.find("(%jout * 4)"), std::string::npos);
  // The original single j loop is gone.
  EXPECT_EQ(irText.find("for (j ="), std::string::npos);
}

TEST(Fig11, VectorizeAndParallelizeAnnotate) {
  auto res = translateXc(fig9Program("/dev/null", R"(
    transform {
      split j by 4, jin, jout;
      vectorize jin;
      parallelize i;
    })"));
  ASSERT_TRUE(res.ok) << res.renderDiagnostics();
  std::string irText = ir::dump(*res.module);
  EXPECT_NE(irText.find("#pragma vectorize 4"), std::string::npos) << irText;
  EXPECT_NE(irText.find("#pragma parallel"), std::string::npos);
}

TEST(Fig9, NonDivisibleExtentsStayCorrect) {
  // n = 16 is divisible by 4; n = 7 is not — the min() remainder guard
  // must keep results exact (the paper assumes divisibility).
  std::string prog = R"(
int main() {
  Matrix float <2> mat = with ([0,0] <= [i,j] < [5,7])
      genarray([5,7], (float)(i * 7 + j));
  Matrix float <2> twice = init(Matrix float <2>, 5, 7);
  twice = with ([0,0] <= [i,j] < [5,7])
      genarray([5,7], mat[i,j] * 2.0)
      transform { split j by 4, jin, jout; vectorize jin; };
  float diff = with ([0,0] <= [i,j] < [5,7])
      fold(max, 0.0, max(twice[i,j] - mat[i,j] * 2.0,
                         mat[i,j] * 2.0 - twice[i,j]));
  printFloat(diff);
  return 0;
})";
  EXPECT_EQ(runOk(prog), "0\n");
}

TEST(Transform, TileIsDerivedFromSplitsAndReorder) {
  std::string prog = R"(
int main() {
  Matrix float <2> a = with ([0,0] <= [i,j] < [8,8])
      genarray([8,8], (float)(i * 8 + j));
  Matrix float <2> b = init(Matrix float <2>, 8, 8);
  b = with ([0,0] <= [i,j] < [8,8])
      genarray([8,8], a[i,j] + 1.0)
      transform { tile i, j by 4, 4; };
  float diff = with ([0,0] <= [i,j] < [8,8])
      fold(max, 0.0, max(b[i,j] - a[i,j] - 1.0, a[i,j] + 1.0 - b[i,j]));
  printFloat(diff);
  return 0;
})";
  EXPECT_EQ(runOk(prog), "0\n");

  auto res = translateXc(prog);
  ASSERT_TRUE(res.ok);
  std::string irText = ir::dump(*res.module);
  // Four loops, tiled order: iout, jout, iin, jin.
  size_t iout = irText.find("for (%iout");
  size_t jout = irText.find("for (%jout");
  size_t iin = irText.find("for (%iin");
  size_t jin = irText.find("for (%jin");
  ASSERT_NE(iout, std::string::npos) << irText;
  ASSERT_NE(jout, std::string::npos);
  ASSERT_NE(iin, std::string::npos);
  ASSERT_NE(jin, std::string::npos);
  EXPECT_LT(iout, jout);
  EXPECT_LT(jout, iin);
  EXPECT_LT(iin, jin);
}

TEST(Transform, ReorderSwapsLoops) {
  std::string prog = R"(
int main() {
  Matrix float <2> a = init(Matrix float <2>, 4, 6);
  a = with ([0,0] <= [i,j] < [4,6])
      genarray([4,6], (float)(i + j))
      transform { reorder j, i; };
  printFloat(a[3, 5]);
  return 0;
})";
  EXPECT_EQ(runOk(prog), "8\n");
  auto res = translateXc(prog);
  ASSERT_TRUE(res.ok);
  std::string irText = ir::dump(*res.module);
  size_t jpos = irText.find("for (j");
  size_t ipos = irText.find("for (i");
  ASSERT_NE(jpos, std::string::npos);
  ASSERT_NE(ipos, std::string::npos);
  EXPECT_LT(jpos, ipos); // j is now outermost
}

TEST(TransformErrors, UnknownLoopIndexReported) {
  // "to detect, for example, that the loop indices in the transformations
  // correspond to loops in the code being transformed".
  expectError(fig9Program("/dev/null",
                          "transform { split z by 4, zin, zout; }"),
              "no loop named 'z'");
}

TEST(TransformErrors, VectorizeRejectsControlFlow) {
  std::string prog = R"(
int f(int x) { return x; }
int main() {
  Matrix int <1> v = with ([0] <= [i] < [8])
      genarray([8], f(i))
      transform { vectorize i; };
  return 0;
})";
  expectError(prog, "vectorize");
}

} // namespace
} // namespace mmx::test
