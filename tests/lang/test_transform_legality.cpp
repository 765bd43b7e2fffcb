// Transformation-legality verification (dependence analysis): legal
// clause pipelines must translate warning-free and agree between the
// interpreter and the emitted C at 1 and 8 threads; illegal clauses must
// be diagnosed with the witness access pair, escalate to errors under
// --strict-transform, and stay silent under -Wno-transform. Also covers
// the -O1 autopar promotion and the analyze-mode diagnostic dedup.
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "analysis/dataflow.hpp"
#include "ir/cemit.hpp"
#include "xc_helper.hpp"

namespace mmx::test {
namespace {

/// 13x17 elementwise map with a clause pipeline appended — carries no
/// dependence, so every structurally valid pipeline is legal. Prints the
/// max abs deviation from the untransformed formula.
std::string mapped2D(const std::string& clauses) {
  return R"(
int main() {
  Matrix float <2> a = with ([0,0] <= [u,v] < [13,17])
      genarray([13,17], (float)(u * 17 + v) * 0.25);
  Matrix float <2> b = init(Matrix float <2>, 13, 17);
  b = with ([0,0] <= [i,j] < [13,17])
      genarray([13,17], a[i,j] * 3.0 + 1.0)
      )" + clauses + R"(;
  float diff = with ([0,0] <= [i,j] < [13,17])
      fold(max, 0.0, max(b[i,j] - (a[i,j] * 3.0 + 1.0),
                         (a[i,j] * 3.0 + 1.0) - b[i,j]));
  printFloat(diff);
  return 0;
})";
}

/// A nest whose body advances the recurrence v[i+1] = f(v[i]) through a
/// helper call: dependence carried by i with distance (1,*). The sum it
/// prints is deterministic at any thread count (the nest demotes to
/// serial), so illegal clauses applied in warning mode still run.
std::string recurrence2D(const std::string& clauses) {
  return R"(
float relax(Matrix float <1> v, int i) {
  v[i + 1] = v[i] * 0.5 + 1.0;
  return v[i + 1];
}
int main() {
  Matrix float <1> v = with ([0] <= [k] < [8]) genarray([8], (float)k);
  Matrix float <2> b = init(Matrix float <2>, 5, 7);
  b = with ([0,0] <= [i,j] < [5,7])
      genarray([5,7], relax(v, i) + (float)j)
      )" + clauses + R"(;
  printFloat(with ([0,0] <= [x,y] < [5,7]) fold(+, 0.0, b[x,y]));
  return 0;
})";
}

/// Compiles emitted C with the system compiler and runs it twice, with
/// OMP_NUM_THREADS pinned to 1 and 8; returns {out1, out8}.
std::pair<std::string, std::string> compileAndRunBoth(
    const std::string& cCode, const std::string& tag) {
  std::string base = std::string(::testing::TempDir()) + "legal_" + tag;
  std::string cPath = base + ".c";
  std::string binPath = base + ".bin";
  std::ofstream(cPath) << cCode;
  std::string cmd = "cc -O2 -std=gnu99 -msse4.2 -fopenmp " + cPath +
                    " -o " + binPath + " -lm 2>" + base + ".err";
  if (std::system(cmd.c_str()) != 0) {
    std::ifstream err(base + ".err");
    std::string msg((std::istreambuf_iterator<char>(err)),
                    std::istreambuf_iterator<char>());
    ADD_FAILURE() << "cc failed:\n" << msg;
    return {};
  }
  auto run = [&](const char* threads) {
    std::string outPath = base + ".out";
    std::string env = std::string("OMP_NUM_THREADS=") + threads + " ";
    if (std::system((env + binPath + " >" + outPath).c_str()) != 0) {
      ADD_FAILURE() << "emitted binary exited nonzero";
      return std::string();
    }
    std::ifstream out(outPath);
    return std::string((std::istreambuf_iterator<char>(out)),
                       std::istreambuf_iterator<char>());
  };
  std::string o1 = run("1");
  std::string o8 = run("8");
  std::remove(cPath.c_str());
  std::remove(binPath.c_str());
  std::remove((base + ".out").c_str());
  std::remove((base + ".err").c_str());
  return {o1, o8};
}

bool hasTransformWarning(const driver::TranslateResult& res) {
  for (const auto& d : res.diagnostics)
    if (d.extension == "transform" && d.severity != Severity::Note)
      return true;
  return false;
}

// --- clause-fuzz corpus --------------------------------------------------
//
// Pipelines drawn (seed 0x5eed) from the clause pool over the [i,j] nest;
// every combination is legal on the dependence-free mapped2D program.
// Each runs on the interpreter at 1 and 8 threads and as emitted C under
// OMP_NUM_THREADS=1/8; all four outputs must agree ("0\n": the transform
// preserved semantics).
struct FuzzCase {
  const char* name;
  const char* clauses;
};
// Printed by name: the default byte dump holds pointers that ASLR moves,
// which would give the discovered ctest names new bytes on every build.
void PrintTo(const FuzzCase& c, std::ostream* os) { *os << c.name; }

class LegalityFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(LegalityFuzz, InterpAndEmittedCAgreeAt1And8Threads) {
  std::string src = mapped2D(GetParam().clauses);

  driver::TranslateOptions strict;
  strict.strictTransform = true;
  auto res = translateXc(src, strict);
  ASSERT_TRUE(res.ok) << res.renderDiagnostics();
  EXPECT_FALSE(hasTransformWarning(res)) << res.renderDiagnostics();

  EXPECT_EQ(runOk(src), "0\n") << GetParam().name;
  EXPECT_EQ(runOk(src, 8), "0\n") << GetParam().name;

  auto c = ir::emitC(*res.module);
  ASSERT_TRUE(c.ok) << (c.errors.empty() ? "" : c.errors.front());
  auto [o1, o8] = compileAndRunBoth(c.code, GetParam().name);
  EXPECT_EQ(o1, "0\n") << GetParam().name;
  EXPECT_EQ(o8, "0\n") << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Pipelines, LegalityFuzz,
    ::testing::Values(
        FuzzCase{"split_i", "transform { split i by 4, iin, iout; }"},
        FuzzCase{"split_j_nondiv", "transform { split j by 5, jin, jout; }"},
        FuzzCase{"unroll_i", "transform { unroll i by 2; }"},
        FuzzCase{"unroll_j_nondiv", "transform { unroll j by 3; }"},
        FuzzCase{"interchange_ij", "transform { interchange i, j; }"},
        FuzzCase{"reorder_ji", "transform { reorder j, i; }"},
        FuzzCase{"tile_4x4", "transform { tile i, j by 4, 4; }"},
        FuzzCase{"vectorize_j", "transform { vectorize j; }"},
        FuzzCase{"parallelize_i", "transform { parallelize i; }"},
        FuzzCase{"split_vec_par",
                 "transform { split j by 4, jin, jout; vectorize jin; "
                 "parallelize i; }"},
        FuzzCase{"interchange_then_par",
                 "transform { interchange i, j; parallelize j; }"},
        FuzzCase{"tile_unroll",
                 "transform { tile i, j by 2, 8; unroll jin by 2; }"},
        FuzzCase{"reorder_roundtrip",
                 "transform { reorder j, i; reorder i, j; }"},
        FuzzCase{"split_interchange_in",
                 "transform { split i by 2, iin, iout; "
                 "interchange iin, j; }"},
        FuzzCase{"par_and_vec",
                 "transform { parallelize i; vectorize j; }"}),
    [](const auto& info) { return info.param.name; });

// --- illegal clauses: witness diagnostics --------------------------------

TEST(TransformLegality, ReorderReversingDependenceWarnsWithWitness) {
  auto res = translateXc(recurrence2D("transform { reorder j, i; }"));
  ASSERT_TRUE(res.ok) << res.renderDiagnostics(); // warning mode still ok
  std::string diag = res.renderDiagnostics();
  EXPECT_NE(diag.find("reorder: the new loop order reverses a dependence "
                      "on 'v' (distance (1,*))"),
            std::string::npos)
      << diag;
  EXPECT_NE(diag.find("witness: store to 'v' here"), std::string::npos)
      << diag;
  EXPECT_NE(diag.find("witness: load of 'v' here"), std::string::npos)
      << diag;
}

TEST(TransformLegality, InterchangeReversingDependenceWarns) {
  auto res = translateXc(recurrence2D("transform { interchange i, j; }"));
  ASSERT_TRUE(res.ok) << res.renderDiagnostics();
  std::string diag = res.renderDiagnostics();
  EXPECT_NE(diag.find("interchange: the new loop order reverses a "
                      "dependence on 'v'"),
            std::string::npos)
      << diag;
}

TEST(TransformLegality, ParallelizeCarriedLoopWarns) {
  auto res = translateXc(recurrence2D("transform { parallelize i; }"));
  ASSERT_TRUE(res.ok) << res.renderDiagnostics();
  std::string diag = res.renderDiagnostics();
  EXPECT_NE(diag.find("parallelize 'i': loop-carried dependence on 'v'"),
            std::string::npos)
      << diag;
  EXPECT_NE(diag.find("iterations are not independent"), std::string::npos)
      << diag;
}

TEST(TransformLegality, StrictTransformTurnsWarningIntoError) {
  driver::TranslateOptions strict;
  strict.strictTransform = true;
  auto res = translateXc(recurrence2D("transform { reorder j, i; }"), strict);
  EXPECT_FALSE(res.ok);
  bool sawError = false;
  for (const auto& d : res.diagnostics)
    if (d.severity == Severity::Error && d.extension == "transform")
      sawError = true;
  EXPECT_TRUE(sawError) << res.renderDiagnostics();
}

TEST(TransformLegality, WnoTransformSilencesTheWarning) {
  driver::TranslateOptions quiet;
  quiet.warnTransform = false;
  auto res = translateXc(recurrence2D("transform { reorder j, i; }"), quiet);
  ASSERT_TRUE(res.ok) << res.renderDiagnostics();
  EXPECT_FALSE(hasTransformWarning(res)) << res.renderDiagnostics();
}

TEST(TransformLegality, IllegalClauseAppliedInWarningModeStaysDeterministic) {
  // Warning mode applies the clause anyway (the -Wshape precedent); the
  // reordered recurrence is deterministic, so 1- and 8-thread runs agree.
  std::string src = recurrence2D("transform { reorder j, i; }");
  RunOutcome o1 = runXc(src, 1);
  RunOutcome o8 = runXc(src, 8);
  ASSERT_TRUE(o1.ran && o8.ran);
  EXPECT_EQ(o1.output, o8.output);
}

TEST(TransformLegality, LegalityCheckingNeverChangesEmittedCode) {
  // The verifier only reads the IR: emitted C for a legal pipeline must
  // be byte-identical with checking on, off, and strict.
  std::string src = mapped2D(
      "transform { split j by 4, jin, jout; vectorize jin; parallelize i; }");
  driver::TranslateOptions def, quiet, strict;
  quiet.warnTransform = false;
  strict.strictTransform = true;
  auto emit = [&](driver::TranslateOptions o) {
    auto res = translateXc(src, o);
    EXPECT_TRUE(res.ok) << res.renderDiagnostics();
    if (!res.ok) return std::string();
    auto c = ir::emitC(*res.module);
    EXPECT_TRUE(c.ok);
    return c.code;
  };
  std::string base = emit(def);
  EXPECT_EQ(base, emit(quiet));
  EXPECT_EQ(base, emit(strict));
}

TEST(TransformLegality, InterchangeRejectsNonNestedLoops) {
  expectError(mapped2D("transform { interchange i, q; }"),
              "interchange: no loop named 'q'");
  expectError(mapped2D("transform { interchange i, i; }"),
              "interchange: loops must be distinct");
}

// --- -O1 autopar ---------------------------------------------------------

/// Host for-nest over matrices with no carried dependence: the §III-C
/// auto-parallelizer ignores host loops, so only -O1 autopar can promote
/// it. The scalar `s` is written and read within one iteration
/// (privatizable) and never read after the loop.
const char* kHostMapSrc = R"(
int main() {
  Matrix float <2> a = with ([0,0] <= [u,v] < [9,11])
      genarray([9,11], (float)(u * 11 + v));
  Matrix float <2> b = init(Matrix float <2>, 9, 11);
  for (int i = 0; i < 9; i++) {
    for (int j = 0; j < 11; j++) {
      float s = a[i, j] * 2.0;
      b[i, j] = s + 1.0;
    }
  }
  printFloat(with ([0,0] <= [x,y] < [9,11]) fold(+, 0.0, b[x,y]));
  return 0;
})";

TEST(Autopar, PromotesDependenceFreeHostNest) {
  driver::TranslateOptions o1;
  o1.optAutopar = true;
  auto res = translateXc(kHostMapSrc, o1);
  ASSERT_TRUE(res.ok) << res.renderDiagnostics();
  bool promoted = false;
  for (auto& f : res.module->functions)
    analysis::forEachStmt(*f->body, [&](const ir::Stmt& s) {
      if (s.k == ir::Stmt::K::For && s.parallel &&
          s.parSrc == ir::Stmt::Par::Proven)
        promoted = true;
    });
  EXPECT_TRUE(promoted) << ir::dump(*res.module);
}

TEST(Autopar, PromotedNestAgreesAcrossBackendsAndThreadCounts) {
  driver::TranslateOptions o1;
  o1.optFuse = o1.optElimTemp = o1.optInplace = o1.optAutopar = true;
  std::string serial = runOk(kHostMapSrc);
  EXPECT_EQ(runOk(kHostMapSrc, 1, o1), serial);
  EXPECT_EQ(runOk(kHostMapSrc, 8, o1), serial);

  auto res = translateXc(kHostMapSrc, o1);
  ASSERT_TRUE(res.ok);
  auto c = ir::emitC(*res.module);
  ASSERT_TRUE(c.ok);
  auto [e1, e8] = compileAndRunBoth(c.code, "autopar_host");
  EXPECT_EQ(e1, serial);
  EXPECT_EQ(e8, serial);
}

TEST(Autopar, RecurrenceIsBlockedNotPromoted) {
  driver::TranslateOptions o1;
  o1.optAutopar = true;
  std::string src = R"(
int main() {
  Matrix float <1> v = with ([0] <= [k] < [64]) genarray([64], (float)k);
  for (int i = 0; i < 63; i++) {
    v[i + 1] = v[i] * 0.5 + 1.0;
  }
  printFloat(with ([0] <= [x] < [64]) fold(+, 0.0, v[x]));
  return 0;
})";
  auto res = translateXc(src, o1);
  ASSERT_TRUE(res.ok) << res.renderDiagnostics();
  for (auto& f : res.module->functions)
    analysis::forEachStmt(*f->body, [&](const ir::Stmt& s) {
      EXPECT_NE(s.parSrc, ir::Stmt::Par::Proven) << ir::dump(*res.module);
    });
  EXPECT_EQ(runOk(src, 1, o1), runOk(src));
}

TEST(Autopar, OffByDefaultAndAtO0) {
  auto res = translateXc(kHostMapSrc); // defaults: every pass off
  ASSERT_TRUE(res.ok);
  for (auto& f : res.module->functions)
    analysis::forEachStmt(*f->body, [&](const ir::Stmt& s) {
      EXPECT_NE(s.parSrc, ir::Stmt::Par::Proven);
    });
}

// --- analyze-mode diagnostic dedup/ordering ------------------------------

TEST(TransformLegality, AnalyzeDiagnosticsSortedGroupedAndUnique) {
  // Two passes warn on this program (the legality verifier at sema time,
  // the parallel-safety demotion after optimization) out of source order;
  // analyze mode must deliver them sorted by location, with witness notes
  // still attached behind their parent, and with no exact duplicates.
  driver::TranslateOptions an;
  an.analyze = true;
  auto res = translateXc(
      recurrence2D("transform { parallelize i; reorder j, i; }"), an);
  ASSERT_TRUE(res.ok) << res.renderDiagnostics();

  const auto& ds = res.diagnostics;
  ASSERT_FALSE(ds.empty());
  EXPECT_NE(ds[0].severity, Severity::Note);
  uint32_t lastHead = 0;
  for (size_t i = 0; i < ds.size(); ++i) {
    if (ds[i].severity == Severity::Note) continue;
    EXPECT_GE(ds[i].range.begin.offset, lastHead)
        << "analyze diagnostics not sorted by location:\n"
        << res.renderDiagnostics();
    lastHead = ds[i].range.begin.offset;
  }
  // No two warnings/errors may be exact duplicates. (Notes are excluded:
  // distinct findings can legitimately cite the same witness pair.)
  for (size_t i = 0; i < ds.size(); ++i) {
    if (ds[i].severity == Severity::Note) continue;
    for (size_t j = i + 1; j < ds.size(); ++j) {
      if (ds[j].severity == Severity::Note) continue;
      EXPECT_FALSE(ds[i].severity == ds[j].severity &&
                   ds[i].range.begin.offset == ds[j].range.begin.offset &&
                   ds[i].message == ds[j].message &&
                   ds[i].extension == ds[j].extension)
          << "duplicate diagnostic survived dedup: " << ds[i].message;
    }
  }
}

TEST(TransformLegality, AnalyzeReportCarriesDependSection) {
  driver::TranslateOptions an;
  an.analyze = true;
  auto res = translateXc(recurrence2D(""), an);
  ASSERT_TRUE(res.ok) << res.renderDiagnostics();
  EXPECT_NE(res.analysisReport.find("depend:"), std::string::npos)
      << res.analysisReport;
  EXPECT_NE(res.analysisReport.find("autopar-promoted="), std::string::npos)
      << res.analysisReport;
}

} // namespace
} // namespace mmx::test
