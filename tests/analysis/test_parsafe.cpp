// Parallel-safety / race detection (analysis/parsafe): loop classification
// on hand-built IR, the enforcement policy (demotion + diagnostics), call
// summaries, and end-to-end behaviour through the translator on extended-C
// programs (safe nests stay parallel, racy `parallelize` targets are
// demoted and diagnosed, results are thread-count independent).
#include "analysis/parsafe.hpp"

#include <gtest/gtest.h>

#include "analysis/dataflow.hpp"
#include "ir/ir.hpp"
#include "support/diag.hpp"
#include "../lang/xc_helper.hpp"

namespace mmx {
namespace {

using analysis::LoopClass;
using analysis::ParSafe;
using analysis::ParSafeOptions;

std::vector<ir::ExprPtr> vecOf(ir::ExprPtr e) {
  std::vector<ir::ExprPtr> v;
  v.push_back(std::move(e));
  return v;
}

std::string renderDiags(DiagnosticEngine& diags) {
  SourceManager sm;
  return diags.render(sm);
}

/// f() with locals: out (Mat, slot 0), i (I32, slot 1), sum (F32, slot 2),
/// j (I32, slot 3, never assigned → loop-invariant).
ir::Function* scaffold(ir::Module& m) {
  ir::Function* f = m.add("f");
  f->numParams = 0;
  f->addLocal("out", ir::Ty::Mat);
  f->addLocal("i", ir::Ty::I32);
  f->addLocal("sum", ir::Ty::F32);
  f->addLocal("j", ir::Ty::I32);
  return f;
}

/// Wraps `inner` in `for (i = 0; i < 8; i++)` marked parallel.
ir::StmtPtr parLoop(ir::StmtPtr inner, ir::Stmt::Par src) {
  ir::StmtPtr loop = ir::forLoop(1, ir::constI(0), ir::constI(8),
                                 std::move(inner), "i");
  loop->parallel = true;
  loop->parSrc = src;
  return loop;
}

const ir::Stmt* findFor(const ir::Function& f) {
  const ir::Stmt* found = nullptr;
  analysis::forEachStmt(*f.body, [&](const ir::Stmt& s) {
    if (!found && s.k == ir::Stmt::K::For) found = &s;
  });
  return found;
}

TEST(ParSafe, AffineStoreIsSafeAndStaysParallel) {
  ir::Module m;
  ir::Function* f = scaffold(m);
  std::vector<ir::StmtPtr> body;
  // out[i] = 1.0 — distinct element every iteration.
  body.push_back(parLoop(
      ir::storeFlat(0, ir::var(1, ir::Ty::I32), ir::constF(1.f)),
      ir::Stmt::Par::Auto));
  f->body = ir::block(std::move(body));

  ParSafe ps(m);
  auto lf = ps.classifyLoop(*f, *findFor(*f));
  EXPECT_EQ(lf.cls, LoopClass::Safe) << lf.detail;

  DiagnosticEngine diags;
  auto demoted = analysis::enforceParallelSafety(m, diags, {});
  EXPECT_TRUE(demoted.empty());
  EXPECT_TRUE(findFor(*f)->parallel) << "safe loop must stay parallel";
  EXPECT_EQ(renderDiags(diags), "");
}

TEST(ParSafe, CarriedScalarIsDiagnosedWithLoopAndVariableNames) {
  ir::Module m;
  ir::Function* f = scaffold(m);
  std::vector<ir::StmtPtr> body;
  body.push_back(ir::assign(2, ir::constF(0.f)));
  // sum = sum - 1.0 — loop-carried, and not a recognized reduction op.
  body.push_back(parLoop(
      ir::assign(2, ir::arith(ir::ArithOp::Sub, ir::var(2, ir::Ty::F32),
                              ir::constF(1.f), ir::Ty::F32)),
      ir::Stmt::Par::Explicit));
  f->body = ir::block(std::move(body));

  DiagnosticEngine diags;
  auto demoted = analysis::enforceParallelSafety(m, diags, {});
  ASSERT_EQ(demoted.size(), 1u);
  EXPECT_EQ(demoted[0].cls, LoopClass::Unsafe);
  EXPECT_FALSE(findFor(*f)->parallel) << "unsafe loop must be demoted";
  // The acceptance bar: the diagnostic names the loop and the variable.
  std::string out = renderDiags(diags);
  EXPECT_NE(out.find("cannot parallelize loop 'i'"), std::string::npos) << out;
  EXPECT_NE(out.find("'sum'"), std::string::npos) << out;
  EXPECT_NE(out.find("carried"), std::string::npos) << out;
  // Slot 2 (sum) is reported as the offending variable.
  ASSERT_FALSE(demoted[0].vars.empty());
  EXPECT_EQ(demoted[0].vars[0], 2);
  EXPECT_FALSE(diags.hasErrors()) << "non-strict mode warns, not errors";
}

TEST(ParSafe, ReductionIsClassifiedAndStillDemoted) {
  ir::Module m;
  ir::Function* f = scaffold(m);
  std::vector<ir::StmtPtr> body;
  body.push_back(ir::assign(2, ir::constF(0.f)));
  // sum = sum + out[i] — the classic reduction shape.
  body.push_back(parLoop(
      ir::assign(2, ir::arith(ir::ArithOp::Add, ir::var(2, ir::Ty::F32),
                              ir::loadFlat(ir::var(0, ir::Ty::Mat),
                                           ir::var(1, ir::Ty::I32),
                                           ir::Ty::F32),
                              ir::Ty::F32)),
      ir::Stmt::Par::Explicit));
  f->body = ir::block(std::move(body));

  ParSafe ps(m);
  auto lf = ps.classifyLoop(*f, *findFor(*f));
  EXPECT_EQ(lf.cls, LoopClass::Reduction);
  EXPECT_NE(lf.detail.find("reduction into 'sum'"), std::string::npos)
      << lf.detail;

  // The interpreter's parallel-for discards worker scalar writes, so the
  // enforcement pass must still run reductions serially.
  DiagnosticEngine diags;
  auto demoted = analysis::enforceParallelSafety(m, diags, {});
  ASSERT_EQ(demoted.size(), 1u);
  EXPECT_FALSE(findFor(*f)->parallel);
  EXPECT_NE(renderDiags(diags).find("reduction into 'sum'"),
            std::string::npos);
}

TEST(ParSafe, AnnotatedFoldReductionStaysParallel) {
  // A loop whose `reds` name exactly its reduction combines per-iteration
  // partials in both backends, so it keeps its schedule. Annotated with
  // another operator it is demoted, and keeps its `reds`.
  for (ir::ArithOp op : {ir::ArithOp::Add, ir::ArithOp::Mul}) {
    ir::Module m;
    ir::Function* f = scaffold(m);
    std::vector<ir::StmtPtr> body;
    body.push_back(ir::assign(2, ir::constF(0.f)));
    ir::StmtPtr loop = parLoop(
        ir::assign(2, ir::arith(ir::ArithOp::Add, ir::var(2, ir::Ty::F32),
                                ir::loadFlat(ir::var(0, ir::Ty::Mat),
                                             ir::var(1, ir::Ty::I32),
                                             ir::Ty::F32),
                                ir::Ty::F32)),
        ir::Stmt::Par::Auto);
    loop->reds = {{2, op}};
    body.push_back(std::move(loop));
    f->body = ir::block(std::move(body));

    DiagnosticEngine diags;
    auto demoted = analysis::enforceParallelSafety(m, diags, {});
    bool exact = op == ir::ArithOp::Add;
    EXPECT_EQ(demoted.empty(), exact) << ir::arithName(op);
    EXPECT_EQ(findFor(*f)->parallel, exact) << ir::arithName(op);
    ASSERT_EQ(findFor(*f)->reds.size(), 1u);
    EXPECT_EQ(findFor(*f)->reds[0].second, op);
  }
}

TEST(ParSafe, OverlappingStoresAreUnsafe) {
  ir::Module m;
  ir::Function* f = scaffold(m);
  std::vector<ir::StmtPtr> inner;
  // out[i] and out[i + 1] overlap across adjacent iterations.
  inner.push_back(
      ir::storeFlat(0, ir::var(1, ir::Ty::I32), ir::constF(1.f)));
  inner.push_back(ir::storeFlat(
      0,
      ir::arith(ir::ArithOp::Add, ir::var(1, ir::Ty::I32), ir::constI(1),
                ir::Ty::I32),
      ir::constF(2.f)));
  std::vector<ir::StmtPtr> body;
  body.push_back(parLoop(ir::block(std::move(inner)), ir::Stmt::Par::Auto));
  f->body = ir::block(std::move(body));

  DiagnosticEngine diags;
  auto demoted = analysis::enforceParallelSafety(m, diags, {});
  ASSERT_EQ(demoted.size(), 1u);
  EXPECT_EQ(demoted[0].cls, LoopClass::Unsafe);
  std::string out = renderDiags(diags);
  EXPECT_NE(out.find("may overlap"), std::string::npos) << out;
  EXPECT_NE(out.find("not auto-parallelizing"), std::string::npos) << out;
}

TEST(ParSafe, InvariantIndexStoreIsUnsafe) {
  ir::Module m;
  ir::Function* f = scaffold(m);
  std::vector<ir::StmtPtr> body;
  // out[j] with j loop-invariant: every iteration hits the same cell.
  body.push_back(parLoop(
      ir::storeFlat(0, ir::var(3, ir::Ty::I32), ir::constF(1.f)),
      ir::Stmt::Par::Auto));
  f->body = ir::block(std::move(body));

  ParSafe ps(m);
  auto lf = ps.classifyLoop(*f, *findFor(*f));
  EXPECT_EQ(lf.cls, LoopClass::Unsafe);
  EXPECT_NE(lf.detail.find("same element"), std::string::npos) << lf.detail;
}

TEST(ParSafe, StrictParallelTurnsExplicitUnsafeIntoError) {
  ir::Module m;
  ir::Function* f = scaffold(m);
  std::vector<ir::StmtPtr> body;
  body.push_back(ir::assign(2, ir::constF(0.f)));
  body.push_back(parLoop(
      ir::assign(2, ir::arith(ir::ArithOp::Sub, ir::var(2, ir::Ty::F32),
                              ir::constF(1.f), ir::Ty::F32)),
      ir::Stmt::Par::Explicit));
  f->body = ir::block(std::move(body));

  DiagnosticEngine diags;
  ParSafeOptions po;
  po.strictParallel = true;
  analysis::enforceParallelSafety(m, diags, po);
  EXPECT_TRUE(diags.hasErrors());
}

TEST(ParSafe, SummariesSeeIOAndParamWritesThroughCalls) {
  ir::Module m;
  // writer(mat): stores into its parameter.
  ir::Function* writer = m.add("writer");
  writer->numParams = 1;
  writer->addLocal("dst", ir::Ty::Mat);
  {
    std::vector<ir::StmtPtr> b;
    b.push_back(ir::storeFlat(0, ir::constI(0), ir::constF(1.f)));
    b.push_back(ir::ret({}));
    writer->body = ir::block(std::move(b));
  }
  // noisy(): performs IO.
  ir::Function* noisy = m.add("noisy");
  noisy->numParams = 0;
  {
    std::vector<ir::StmtPtr> b;
    b.push_back(ir::callStmt(
        ir::call(ir::Builtin::PrintInt, vecOf(ir::constI(1)))));
    b.push_back(ir::ret({}));
    noisy->body = ir::block(std::move(b));
  }

  auto sums = analysis::summarizeModule(m);
  ASSERT_TRUE(sums.count(writer));
  ASSERT_EQ(sums[writer].writesParam.size(), 1u);
  EXPECT_TRUE(sums[writer].writesParam[0]);
  EXPECT_FALSE(sums[writer].hasIO);
  ASSERT_TRUE(sums.count(noisy));
  EXPECT_TRUE(sums[noisy].hasIO);

  // A parallel loop calling writer(shared) must be rejected.
  ir::Function* f = scaffold(m);
  std::vector<ir::StmtPtr> body;
  body.push_back(parLoop(
      ir::callAssign({}, "writer", vecOf(ir::var(0, ir::Ty::Mat))),
      ir::Stmt::Par::Auto));
  f->body = ir::block(std::move(body));
  ParSafe ps(m);
  auto lf = ps.classifyLoop(*f, *findFor(*f));
  EXPECT_EQ(lf.cls, LoopClass::Unsafe);
  EXPECT_NE(lf.detail.find("writer"), std::string::npos) << lf.detail;
}

// ---------------------------------------------------------------------------
// End-to-end through the translator.

/// Fig. 9-shaped kernel (genarray of per-cell fold means) with a clause
/// tail, result folded to one printed number so runs are comparable.
std::string meansProgram(const std::string& clauses) {
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
  printFloat(with ([0,0] <= [x,y] < [m,n]) fold(+, 0.0, means[x,y]));
  return 0;
}
)";
}

TEST(ParSafeLang, SafeGenarrayNestStaysParallel) {
  auto res = test::translateXc(meansProgram(""));
  ASSERT_TRUE(res.ok) << res.renderDiagnostics();
  EXPECT_TRUE(res.diagnostics.empty()) << res.renderDiagnostics();
  std::string irText = ir::dump(*res.module);
  EXPECT_NE(irText.find("#pragma parallel"), std::string::npos)
      << "auto-parallel nest was demoted:\n" << irText;
}

TEST(ParSafeLang, ParallelizeOnFoldAccumulatorWarnsAndDemotes) {
  // `parallelize k` targets the inner fold loop — a reduction the
  // interpreter cannot run in parallel (worker frames are private).
  // `parallelize i` is safe and must survive enforcement untouched.
  auto res = test::translateXc(
      meansProgram("\n    transform { parallelize i; parallelize k; }"));
  ASSERT_TRUE(res.ok) << res.renderDiagnostics();
  EXPECT_NE(res.renderDiagnostics().find("cannot parallelize loop 'k'"),
            std::string::npos)
      << res.renderDiagnostics();
  EXPECT_NE(res.renderDiagnostics().find("reduction into"), std::string::npos)
      << res.renderDiagnostics();
  EXPECT_NE(res.renderDiagnostics().find("warning"), std::string::npos)
      << res.renderDiagnostics();
  // The fold loop lost its pragma; the safe explicit i loop keeps its own,
  // and so does the checksum's 2-D fold, whose reduction is annotated.
  std::string irText = ir::dump(*res.module);
  size_t pragmas = 0;
  for (size_t p = irText.find("#pragma parallel"); p != std::string::npos;
       p = irText.find("#pragma parallel", p + 1))
    ++pragmas;
  EXPECT_EQ(pragmas, 2u) << irText;
  EXPECT_NE(irText.find("#pragma reduction(+: %wacc"), std::string::npos)
      << irText;
}

TEST(ParSafeLang, StrictParallelFailsTranslationOnUnsafeClause) {
  driver::TranslateOptions opts;
  opts.strictParallel = true;
  auto res = test::translateXc(
      meansProgram("\n    transform { parallelize k; }"), opts);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.renderDiagnostics().find("error"), std::string::npos)
      << res.renderDiagnostics();
}

TEST(ParSafeLang, WnoParallelSilencesAutoDemotionWarnings) {
  // matrixMap auto-parallelizes its slice loop; mapping an IO-performing
  // function makes it unsafe, so it is demoted — with a warning under the
  // default -Wparallel, silently under -Wno-parallel.
  std::string src = R"(
Matrix float <1> noisy(Matrix float <1> x) {
  printFloat(x[0]);
  return x * 1.0;
}
int main() {
  Matrix float <2> m = with ([0,0] <= [i,j] < [2,3])
      genarray([2,3], (float)(i + j));
  Matrix float <2> r = matrixMap(noisy, m, [1]);
  printFloat(r[0,0]);
  return 0;
}
)";
  auto res = test::translateXc(src);
  ASSERT_TRUE(res.ok) << res.renderDiagnostics();
  EXPECT_NE(res.renderDiagnostics().find("not auto-parallelizing"), std::string::npos)
      << res.renderDiagnostics();
  EXPECT_NE(res.renderDiagnostics().find("'noisy'"), std::string::npos)
      << res.renderDiagnostics();

  driver::TranslateOptions opts;
  opts.warnParallel = false;
  auto quiet = test::translateXc(src, opts);
  ASSERT_TRUE(quiet.ok) << quiet.renderDiagnostics();
  EXPECT_TRUE(quiet.diagnostics.empty());
}

TEST(ParSafeLang, ResultsIdenticalAcrossThreadCounts) {
  std::string safe = meansProgram("");
  EXPECT_EQ(test::runOk(safe, 1), test::runOk(safe, 8));
  // Even when the user asks for an unsafe schedule, demotion keeps the
  // observable result identical to the serial one.
  std::string demoted = meansProgram("\n    transform { parallelize k; }");
  EXPECT_EQ(test::runOk(demoted, 1), test::runOk(demoted, 8));
  EXPECT_EQ(test::runOk(safe, 1), test::runOk(demoted, 8));
}

TEST(ParSafeLang, AnalyzeReportListsLoopClassifications) {
  driver::TranslateOptions opts;
  opts.analyze = true;
  auto res = test::translateXc(meansProgram(""), opts);
  ASSERT_TRUE(res.ok) << res.renderDiagnostics();
  EXPECT_NE(res.analysisReport.find("parallel-safety analysis:"),
            std::string::npos)
      << res.analysisReport;
  EXPECT_NE(res.analysisReport.find("function main:"), std::string::npos)
      << res.analysisReport;
  EXPECT_NE(res.analysisReport.find("reduction"), std::string::npos)
      << res.analysisReport;
  EXPECT_NE(res.analysisReport.find("[parallel]"), std::string::npos)
      << res.analysisReport;
}

} // namespace
} // namespace mmx
