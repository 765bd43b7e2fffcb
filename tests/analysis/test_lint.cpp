// IR lints (analysis/lint): definite initialization and dead stores on
// hand-built IR, plus the exemptions (compiler temps, effectful stores,
// matrix rebinds) and the translator wiring (lints only under --analyze).
#include "analysis/lint.hpp"

#include <gtest/gtest.h>

#include "ir/ir.hpp"
#include "support/diag.hpp"
#include "../lang/xc_helper.hpp"

namespace mmx {
namespace {

std::string lintOne(const ir::Function& f) {
  DiagnosticEngine diags;
  analysis::lintFunction(f, diags);
  SourceManager sm;
  sm.add("<test>", "x = 1;\n"); // file id 0 for hand-stamped ranges
  return diags.render(sm);
}

TEST(Lint, ReadBeforeAssignIsReported) {
  ir::Module m;
  ir::Function* f = m.add("f");
  f->numParams = 0;
  f->addLocal("x", ir::Ty::I32);
  f->addLocal("y", ir::Ty::I32);
  std::vector<ir::StmtPtr> body;
  // y = x + 1 with x never assigned.
  body.push_back(ir::assign(
      1, ir::arith(ir::ArithOp::Add, ir::var(0, ir::Ty::I32), ir::constI(1),
                   ir::Ty::I32)));
  std::vector<ir::ExprPtr> rv;
  rv.push_back(ir::var(1, ir::Ty::I32));
  body.push_back(ir::ret(std::move(rv)));
  f->body = ir::block(std::move(body));
  std::string out = lintOne(*f);
  EXPECT_NE(out.find("'x' may be used before it is assigned"),
            std::string::npos)
      << out;
  EXPECT_EQ(out.find("'y'"), std::string::npos) << out;
}

TEST(Lint, ParamsAndBranchJoinsAreHandled) {
  ir::Module m;
  ir::Function* f = m.add("f");
  f->numParams = 1; // slot 0 is a parameter: initialized by the caller
  f->addLocal("p", ir::Ty::I32);
  f->addLocal("a", ir::Ty::I32);
  f->addLocal("b", ir::Ty::I32);
  std::vector<ir::StmtPtr> body;
  // if (p < 0) { a = 1; } — a assigned on one arm only...
  body.push_back(ir::ifStmt(
      ir::cmp(ir::CmpKind::Lt, ir::var(0, ir::Ty::I32), ir::constI(0)),
      ir::assign(1, ir::constI(1)), nullptr));
  // ... so this read may see an unassigned a; p itself is fine.
  body.push_back(ir::assign(2, ir::arith(ir::ArithOp::Add,
                                         ir::var(1, ir::Ty::I32),
                                         ir::var(0, ir::Ty::I32),
                                         ir::Ty::I32)));
  std::vector<ir::ExprPtr> rv;
  rv.push_back(ir::var(2, ir::Ty::I32));
  body.push_back(ir::ret(std::move(rv)));
  f->body = ir::block(std::move(body));
  std::string out = lintOne(*f);
  EXPECT_NE(out.find("'a' may be used before it is assigned"),
            std::string::npos)
      << out;
  EXPECT_EQ(out.find("'p'"), std::string::npos) << out;
}

TEST(Lint, DeadStoreIsReportedOnce) {
  ir::Module m;
  ir::Function* f = m.add("f");
  f->numParams = 0;
  f->addLocal("x", ir::Ty::I32);
  std::vector<ir::StmtPtr> body;
  body.push_back(ir::assign(0, ir::constI(1))); // overwritten, never read
  body.push_back(ir::assign(0, ir::constI(2)));
  // Dead-store reports require a source range (range-less stores are
  // compiler-synthesized glue and exempt), so stamp one on each assign.
  body[0]->range = SourceRange{{0, 0}, 1};
  body[1]->range = SourceRange{{0, 2}, 3};
  std::vector<ir::ExprPtr> rv;
  rv.push_back(ir::var(0, ir::Ty::I32));
  body.push_back(ir::ret(std::move(rv)));
  f->body = ir::block(std::move(body));
  std::string out = lintOne(*f);
  // Exactly one report: the first store is dead, the second is returned.
  size_t first = out.find("value assigned to 'x' is never used");
  ASSERT_NE(first, std::string::npos) << out;
  EXPECT_EQ(out.find("value assigned to 'x'", first + 1), std::string::npos)
      << out;
}

TEST(Lint, SynthesizedRangelessStoreIsExempt) {
  // Lowering glue (e.g. the index reconstruction a `split` transform
  // inserts) is an Assign with no source range; dead or not, the user
  // never wrote it, so the dead-store lint must stay quiet.
  ir::Module m;
  ir::Function* f = m.add("f");
  f->numParams = 0;
  f->addLocal("q", ir::Ty::I32);
  std::vector<ir::StmtPtr> body;
  body.push_back(ir::assign(0, ir::constI(7))); // dead, but range-less
  body.push_back(ir::ret({ }));
  f->body = ir::block(std::move(body));
  EXPECT_EQ(lintOne(*f), "");
}

TEST(Lint, LoopCarriedUseKeepsStoreAlive) {
  ir::Module m;
  ir::Function* f = m.add("f");
  f->numParams = 0;
  f->addLocal("x", ir::Ty::I32);
  f->addLocal("i", ir::Ty::I32);
  std::vector<ir::StmtPtr> body;
  body.push_back(ir::assign(0, ir::constI(0)));
  // for (i...) { x = x + 1; } — the store feeds the next iteration's read
  // (only visible through the backward back-edge fixpoint).
  body.push_back(ir::forLoop(
      1, ir::constI(0), ir::constI(4),
      ir::assign(0, ir::arith(ir::ArithOp::Add, ir::var(0, ir::Ty::I32),
                              ir::constI(1), ir::Ty::I32)),
      "i"));
  body.push_back(ir::ret({ }));
  f->body = ir::block(std::move(body));
  // x's final value is never read after the loop, but every store IS read
  // by the following iteration (or could be) — no report for the body
  // store; the engine's join keeps it live via the back edge.
  std::string out = lintOne(*f);
  EXPECT_EQ(out.find("never used"), std::string::npos) << out;
}

TEST(Lint, TempsEffectfulStoresAndMatrixRebindsAreExempt) {
  ir::Module m;
  ir::Function* f = m.add("f");
  f->numParams = 0;
  f->addLocal("%t0", ir::Ty::I32);
  f->addLocal("x", ir::Ty::I32);
  f->addLocal("mat", ir::Ty::Mat);
  std::vector<ir::StmtPtr> body;
  // Compiler temp: dead but not user-visible.
  body.push_back(ir::assign(0, ir::constI(1)));
  // Effectful RHS: the store is dead but the call must run.
  std::vector<ir::ExprPtr> args;
  body.push_back(ir::assign(
      1, ir::call(ir::Builtin::NumThreads, std::move(args))));
  // Matrix rebind: handle assignments manage buffers, never reported.
  body.push_back(ir::assign(
      2, ir::call(ir::Builtin::InitMatrix, [] {
        std::vector<ir::ExprPtr> a;
        a.push_back(ir::constI(2));
        return a;
      }())));
  body.push_back(ir::ret({ }));
  f->body = ir::block(std::move(body));
  EXPECT_EQ(lintOne(*f), "");
}

TEST(LintLang, AnalyzeSurfacesLintsPlainTranslationDoesNot) {
  // `sum` is assigned and never used; `seed` is read before assignment.
  std::string src = R"(
int main() {
  int seed;
  int sum;
  sum = seed + 1;
  return 0;
}
)";
  auto plain = test::translateXc(src);
  ASSERT_TRUE(plain.ok) << plain.renderDiagnostics();
  EXPECT_TRUE(plain.diagnostics.empty()) << "lints must not fire without --analyze";

  driver::TranslateOptions opts;
  opts.analyze = true;
  auto analyzed = test::translateXc(src, opts);
  ASSERT_TRUE(analyzed.ok) << analyzed.renderDiagnostics();
  EXPECT_NE(analyzed.renderDiagnostics().find(
                "'seed' may be used before it is assigned"),
            std::string::npos)
      << analyzed.renderDiagnostics();
  EXPECT_NE(analyzed.renderDiagnostics().find(
                "value assigned to 'sum' is never used"),
            std::string::npos)
      << analyzed.renderDiagnostics();
}

TEST(LintLang, DeadMatrixIsReported) {
  // ISSUE 6 satellite: an allocated matrix nothing ever reads is exactly
  // the waste the optimizer's liveness pass can see — surface it.
  std::string src = R"(
int main() {
  int n = 4;
  Matrix float <2> unused = init(Matrix float <2>, n, n);
  Matrix float <2> a = init(Matrix float <2>, n, n);
  a = with ([0,0] <= [i,j] < [n,n]) genarray([n,n], i * 1.0 + j);
  printFloat(a[1, 2]);
  return 0;
}
)";
  driver::TranslateOptions opts;
  opts.analyze = true;
  auto res = test::translateXc(src, opts);
  ASSERT_TRUE(res.ok) << res.renderDiagnostics();
  std::string diags = res.renderDiagnostics();
  EXPECT_NE(
      diags.find(
          "matrix 'unused' is allocated but never read [-Wdead-matrix]"),
      std::string::npos)
      << diags;
  // `a` is read; exactly one matrix is flagged.
  EXPECT_EQ(diags.find("matrix 'a'"), std::string::npos) << diags;
}

TEST(LintLang, WnoDeadMatrixSilencesTheLint) {
  std::string src = R"(
int main() {
  Matrix float <2> unused = init(Matrix float <2>, 3, 3);
  printInt(7);
  return 0;
}
)";
  driver::TranslateOptions on;
  on.analyze = true;
  auto loud = test::translateXc(src, on);
  ASSERT_TRUE(loud.ok);
  EXPECT_NE(loud.renderDiagnostics().find("-Wdead-matrix"),
            std::string::npos);

  driver::TranslateOptions off;
  off.analyze = true;
  off.warnDeadMatrix = false;
  auto quiet = test::translateXc(src, off);
  ASSERT_TRUE(quiet.ok);
  EXPECT_EQ(quiet.renderDiagnostics().find("dead-matrix"), std::string::npos)
      << quiet.renderDiagnostics();
}

TEST(LintLang, NoDeadStoreOnSplitVarInDemotedLoop) {
  // Regression (ISSUE 3): `split q by 8` lowers to a synthesized
  // `q = qout*8 + qin` in the loop body. When the fold body never reads
  // `q` and the parallelize clause is demoted (reduction), the dead-store
  // lint used to blame the user for a store the compiler inserted.
  std::string src = R"(
int main() {
  float acc = with ([0] <= [q] < [64]) fold(+, 0.0, 1.0) transform {
    split q by 8, qin, qout;
    parallelize qout;
  };
  printFloat(acc);
  return 0;
}
)";
  driver::TranslateOptions opts;
  opts.analyze = true;
  auto res = test::translateXc(src, opts);
  ASSERT_TRUE(res.ok) << res.renderDiagnostics();
  std::string diags = res.renderDiagnostics();
  // The demotion itself still warns; the synthesized store must not.
  EXPECT_NE(diags.find("cannot parallelize loop 'qout'"), std::string::npos)
      << diags;
  EXPECT_EQ(diags.find("value assigned to 'q'"), std::string::npos) << diags;
}

} // namespace
} // namespace mmx
