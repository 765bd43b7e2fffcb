// The -O1 whole-program optimizer (ir/optimize) end to end (ISSUE 6):
// with-loop fusion, temporary elimination, and in-place updates must
// never change observable behavior — interpreter output, emitted-C
// output, and refcount observations all agree with -O0 — while the
// analysisReport counters pin that each rewrite actually fired. A
// fuzz-style sweep over generated with-loop chains backs the examples.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <random>
#include <sstream>

#include "ir/cemit.hpp"
#include "runtime/matio.hpp"
#include "xc_helper.hpp"

namespace mmx::test {
namespace {

driver::TranslateOptions o0() {
  driver::TranslateOptions opts;
  opts.analyze = true;
  return opts;
}

driver::TranslateOptions o1() {
  driver::TranslateOptions opts;
  opts.analyze = true;
  opts.optFuse = opts.optElimTemp = opts.optInplace = true;
  return opts;
}

/// Translate under `opts` and return the `optimizer:` counter line from
/// the analysis report.
std::string counterLine(const std::string& src,
                        driver::TranslateOptions opts) {
  auto res = translateXc(src, opts);
  EXPECT_TRUE(res.ok) << res.renderDiagnostics();
  std::istringstream in(res.analysisReport);
  for (std::string line; std::getline(in, line);)
    if (line.rfind("optimizer:", 0) == 0) return line;
  ADD_FAILURE() << "no optimizer line in:\n" << res.analysisReport;
  return {};
}

/// Runs `src` at -O0 and -O1 on 1 and 4 threads and expects identical
/// output everywhere; returns that output.
std::string expectAgreement(const std::string& src) {
  std::string base = runOk(src, 1, o0());
  EXPECT_EQ(runOk(src, 1, o1()), base) << src;
  EXPECT_EQ(runOk(src, 4, o0()), base) << src;
  EXPECT_EQ(runOk(src, 4, o1()), base) << src;
  return base;
}

// A producer/consumer chain: the consumer loop and the closing fold can
// both absorb their producer, and the intermediates die.
const char* kFusionChain = R"(
int main() {
  Matrix float <2> A = with ([0,0] <= [i,j] < [6,8])
      genarray([6,8], (float)(i * 8 + j));
  Matrix float <2> B = with ([0,0] <= [i,j] < [6,8])
      genarray([6,8], A[i,j] * 2.0 + 1.0);
  printFloat(with ([0,0] <= [x,y] < [6,8]) fold(+, 0.0, B[x,y]));
  return 0;
})";

// The declare-then-overwrite idiom every example uses: the second
// allocation can write straight into the first buffer.
const char* kInplace = R"(
int main() {
  int n = 6;
  Matrix float <2> a = init(Matrix float <2>, n, n);
  a = with ([0,0] <= [i,j] < [n,n]) genarray([n,n], i * 2.0 + j);
  printFloat(a[0, 0]);
  printFloat(a[5, 5]);
  printFloat(with ([0,0] <= [x,y] < [n,n]) fold(+, 0.0, a[x,y]));
  return 0;
})";

// `keep` shares A's buffer and the program *observes the refcount*, so
// the in-place rewrite must stand down (alias-blocked) — rccount still
// prints 2 at -O1.
const char* kAliasObserved = R"(
int main() {
  Matrix float <2> A = with ([0,0] <= [i,j] < [5,7])
      genarray([5,7], (float)(i + j));
  Matrix float <2> keep = A;
  A = with ([0,0] <= [i,j] < [5,7]) genarray([5,7], A[i,j] + 3.0);
  printFloat(A[2, 3]);
  printFloat(keep[2, 3]);
  printInt(rccount(keep));
  return 0;
})";

TEST(Optimize, FusionChainAgreesAndCounts) {
  expectAgreement(kFusionChain);
  EXPECT_EQ(counterLine(kFusionChain, o1()),
            "optimizer: fused=2 temps-eliminated=2 inplace=0 "
            "alias-blocked=0 autopar-promoted=0 autopar-blocked=0");
}

TEST(Optimize, InplaceUpdateAgreesAndCounts) {
  expectAgreement(kInplace);
  EXPECT_EQ(counterLine(kInplace, o1()),
            "optimizer: fused=0 temps-eliminated=0 inplace=1 "
            "alias-blocked=0 autopar-promoted=0 autopar-blocked=0");
}

TEST(Optimize, ObservedAliasBlocksInplace) {
  std::string out = expectAgreement(kAliasObserved);
  EXPECT_NE(out.find("2\n"), std::string::npos) << "rccount must print 2";
  EXPECT_EQ(counterLine(kAliasObserved, o1()),
            "optimizer: fused=1 temps-eliminated=0 inplace=0 "
            "alias-blocked=1 autopar-promoted=0 autopar-blocked=0");
}

TEST(Optimize, O0ReportsAllZeroCounters) {
  // The counters always appear — with explicit zeros when no pass ran.
  EXPECT_EQ(counterLine(kFusionChain, o0()),
            "optimizer: fused=0 temps-eliminated=0 inplace=0 "
            "alias-blocked=0 autopar-promoted=0 autopar-blocked=0");
}

TEST(Optimize, O1LeavesUnoptimizableProgramsByteIdentical) {
  // Scalar control flow and calls offer the passes nothing; -O1 must emit
  // exactly the C that -O0 emits (the stronger cross-version -O0 pin runs
  // in CI against the checked-in examples).
  const char* src = R"(
    int fib(int n) {
      if (n < 2) { return n; }
      return fib(n - 1) + fib(n - 2);
    }
    int main() {
      int acc = 0;
      for (int i = 0; i < 10; i++) { acc = acc + fib(i); }
      printInt(acc);
      return 0;
    })";
  auto emit = [&](driver::TranslateOptions opts) -> std::string {
    auto res = translateXc(src, opts);
    EXPECT_TRUE(res.ok) << res.renderDiagnostics();
    if (!res.ok) return {};
    auto c = ir::emitC(*res.module);
    EXPECT_TRUE(c.ok);
    return c.code;
  };
  std::string base = emit(o0());
  ASSERT_FALSE(base.empty());
  EXPECT_EQ(emit(o1()), base);
}

/// test_cemit-style harness: compile the emitted C and return its stdout.
std::string compileAndRun(const std::string& cCode, const std::string& tag) {
  std::string base = std::string(::testing::TempDir()) + "opt_" + tag;
  std::string cPath = base + ".c";
  std::string binPath = base + ".bin";
  std::ofstream(cPath) << cCode;
  std::string cmd = "cc -O2 -std=gnu99 -msse4.2 -fopenmp " + cPath + " -o " +
                    binPath + " -lm 2>" + base + ".err";
  if (std::system(cmd.c_str()) != 0) {
    std::ifstream err(base + ".err");
    std::string msg((std::istreambuf_iterator<char>(err)),
                    std::istreambuf_iterator<char>());
    ADD_FAILURE() << "cc failed:\n" << msg;
    return {};
  }
  std::string outPath = base + ".out";
  if (std::system((binPath + " >" + outPath).c_str()) != 0) {
    ADD_FAILURE() << "emitted binary exited nonzero";
    return {};
  }
  std::ifstream out(outPath);
  std::string text((std::istreambuf_iterator<char>(out)),
                   std::istreambuf_iterator<char>());
  std::remove(cPath.c_str());
  std::remove(binPath.c_str());
  std::remove(outPath.c_str());
  std::remove((base + ".err").c_str());
  return text;
}

TEST(Optimize, EmittedCAgreesAcrossOptLevels) {
  // Compare the compiled -O1 C against the compiled -O0 C (same backend:
  // the C runtime legitimately differs from the interpreter on handle
  // counts, e.g. rccount prints one extra live handle under both opt
  // levels). Programs without refcount observation also match the
  // interpreter exactly.
  int n = 0;
  for (const char* src : {kFusionChain, kInplace, kAliasObserved}) {
    auto emit = [&](driver::TranslateOptions opts) -> std::string {
      auto res = translateXc(src, opts);
      EXPECT_TRUE(res.ok) << res.renderDiagnostics();
      if (!res.ok) return {};
      auto c = ir::emitC(*res.module);
      EXPECT_TRUE(c.ok) << (c.errors.empty() ? "" : c.errors.front());
      return c.code;
    };
    std::string tag = std::to_string(n++);
    std::string at0 = compileAndRun(emit(o0()), "c0agree_" + tag);
    std::string at1 = compileAndRun(emit(o1()), "c1agree_" + tag);
    EXPECT_EQ(at1, at0) << src;
    if (src != kAliasObserved) {
      EXPECT_EQ(at1, runOk(src, 1, o0())) << src;
    }
  }
}

TEST(Optimize, FusedFig1FoldKeepsItsParallelReduction) {
  // Fusion pulls Fig. 1's genarray into the checksum fold. The fused outer
  // loop stays parallel and takes over the fold's reduction, so -O1 sums
  // row by row, as -O0 does.
  const char* src = R"(
int main() {
  Matrix float <3> mat = synthSsh(12, 24, 16, 42, 6);
  int m = dimSize(mat, 0);
  int n = dimSize(mat, 1);
  int p = dimSize(mat, 2);
  Matrix float <2> means = init(Matrix float <2>, m, n);
  means = with ([0,0] <= [i,j] < [m,n])
    genarray([m,n],
      (with ([0] <= [k] < [p]) fold(+, 0.0, mat[i,j,k])) / p);
  printFloat(with ([0,0] <= [x,y] < [m,n]) fold(+, 0.0, means[x,y]));
  return 0;
})";
  auto res = translateXc(src, o1());
  ASSERT_TRUE(res.ok) << res.renderDiagnostics();
  std::string irText = ir::dump(*res.module);
  EXPECT_EQ(irText.find("for (x = "), std::string::npos) << irText;
  EXPECT_NE(irText.find("  #pragma parallel\n"
                        "  #pragma reduction(+: %wacc24)\n"
                        "  for (i = "),
            std::string::npos)
      << irText;
  expectAgreement(src);
}

TEST(Optimize, AutoparBlocksLoopThatRebindsAMatrixHandle) {
  // `c = a * b` rebinds c in every iteration and c is read after the loop,
  // so autopar must leave the `rep` loop serial: a parallel schedule
  // dropped the last iteration's handle and the program printed 0.
  std::string dir = ::testing::TempDir();
  std::string aPath = dir + "opt_rep_a.mmx", bPath = dir + "opt_rep_b.mmx";
  const int n = 12;
  std::vector<float> av(n * n), bv(n * n);
  for (int i = 0; i < n * n; ++i) {
    av[i] = static_cast<float>(i % 5);
    bv[i] = static_cast<float>(i % 3 + 1);
  }
  rt::writeMatrixFile(aPath, rt::Matrix::fromF32({n, n}, av));
  rt::writeMatrixFile(bPath, rt::Matrix::fromF32({n, n}, bv));
  std::string src = R"(
int main() {
  Matrix float <2> a = readMatrix(")" + aPath + R"(");
  Matrix float <2> b = readMatrix(")" + bPath + R"(");
  int n = dimSize(a, 0);
  Matrix float <2> c = init(Matrix float <2>, n, n);
  for (int rep = 0; rep < 3; rep++) { c = a * b; }
  printFloat(with ([0,0] <= [x,y] < [n,n]) fold(+, 0.0, c[x, y]));
  return 0;
})";
  driver::TranslateOptions o1Autopar = o1();
  o1Autopar.optAutopar = true;
  std::string base = runOk(src, 1, o0());
  ASSERT_NE(base, "0\n");
  EXPECT_EQ(runOk(src, 1, o1Autopar), base);
  EXPECT_EQ(runOk(src, 4, o1Autopar), base);
  for (const auto& [opts, tag] : {std::pair{o0(), "rep0"},
                                  std::pair{o1Autopar, "rep1"}}) {
    auto res = translateXc(src, opts);
    ASSERT_TRUE(res.ok) << res.renderDiagnostics();
    auto c = ir::emitC(*res.module);
    ASSERT_TRUE(c.ok);
    EXPECT_EQ(compileAndRun(c.code, tag), base) << tag;
  }
  // Only the `rep` loop reaches autopar: the checksum fold's loops carry a
  // reduction, which autopar leaves alone.
  EXPECT_EQ(counterLine(src, o1Autopar),
            "optimizer: fused=0 temps-eliminated=0 inplace=0 "
            "alias-blocked=0 autopar-promoted=0 autopar-blocked=1");
  std::remove(aPath.c_str());
  std::remove(bPath.c_str());
}

/// Random with-loop chain generator for the fuzz sweep. Every value stays
/// a small integer-valued float, so results are exact and independent of
/// evaluation order; shapes are positive and reads stay in bounds.
std::string randomProgram(uint32_t seed) {
  std::mt19937 rng(seed);
  auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  int rows = pick(2, 7), cols = pick(2, 7);
  std::string shape =
      "[" + std::to_string(rows) + "," + std::to_string(cols) + "]";
  std::ostringstream p;
  p << "int main() {\n";
  int stages = pick(2, 4);
  for (int s = 0; s < stages; ++s) {
    std::string name = "m" + std::to_string(s);
    std::string cell;
    if (s == 0) {
      cell = "(float)(i * " + std::to_string(pick(1, 4)) + " + j)";
    } else {
      std::string prev = "m" + std::to_string(s - 1) + "[i,j]";
      switch (pick(0, 2)) {
        case 0:
          cell = prev + " * " + std::to_string(pick(1, 3)) + ".0 + " +
                 std::to_string(pick(0, 9)) + ".0";
          break;
        case 1:
          cell = prev + " + (float)(i + j * " + std::to_string(pick(1, 3)) +
                 ")";
          break;
        default:
          cell = prev + " - " + std::to_string(pick(1, 5)) + ".0";
          break;
      }
    }
    bool declareFirst = pick(0, 2) == 0; // the inplace-bait idiom
    if (declareFirst)
      p << "  Matrix float <2> " << name << " = init(Matrix float <2>, "
        << rows << ", " << cols << ");\n  " << name;
    else
      p << "  Matrix float <2> " << name;
    p << " = with ([0,0] <= [i,j] < " << shape << ") genarray(" << shape
      << ", " << cell << ");\n";
  }
  std::string last = "m" + std::to_string(stages - 1);
  p << "  printFloat(with ([0,0] <= [x,y] < " << shape
    << ") fold(+, 0.0, " << last << "[x,y]));\n";
  p << "  printFloat(" << last << "[" << pick(0, rows - 1) << ", "
    << pick(0, cols - 1) << "]);\n";
  p << "  return 0;\n}\n";
  return p.str();
}

TEST(Optimize, RandomProgramsAgreeAcrossOptLevels) {
  for (uint32_t seed = 0; seed < 12; ++seed) {
    std::string src = randomProgram(seed);
    SCOPED_TRACE("seed " + std::to_string(seed) + "\n" + src);
    expectAgreement(src);
  }
}

} // namespace
} // namespace mmx::test
