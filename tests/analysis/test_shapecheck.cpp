// Symbolic shape & bounds verification (analysis/shapecheck, ISSUE 3):
// guard classification on affine kernels, compile-time rejection of proven
// violations under --strict-shape, borrowed-parameter retain/release
// elision, and the backend contract that --bounds-checks=on output is the
// historical (default) output while auto drops only blessed guards.
#include "analysis/shapecheck.hpp"

#include <gtest/gtest.h>

#include "interp/interp.hpp"
#include "ir/cemit.hpp"
#include "../lang/xc_helper.hpp"

namespace mmx::test {
namespace {

// The temporal-mean shape: affine indexes fully covered by the with-loop
// bounds, dims flowing straight from init(). Everything is provable.
const char* kAffineKernel = R"(
int main() {
  int m = 8;
  int n = 10;
  int p = 6;
  Matrix float <3> mat = init(Matrix float <3>, m, n, p);
  Matrix float <2> means = with ([0,0] <= [i,j] < [m,n])
    genarray([m,n], (with ([0] <= [k] < [p]) fold(+, 0.0, mat[i,j,k])) / p);
  printFloat(means[0, 0]);
  return 0;
}
)";

// Reads v[q] under a caller-supplied bound k: q < k proves nothing about
// dimSize(v, 0), so the load guard must stay. v itself is only read —
// its retain/release pair is elidable (borrowed).
const char* kUnknownBoundKernel = R"(
float headSum(Matrix float <1> v, int k) {
  float acc = with ([0] <= [q] < [k]) fold(+, 0.0, v[q]);
  return acc;
}
int main() {
  Matrix float <1> v = (0 :: 9) * 1.5;
  printFloat(headSum(v, 4));
  return 0;
}
)";

// v has 6 elements, so v[2:6] runs one past `end`: provably violating.
const char* kProvenOobKernel = R"(
int main() {
  Matrix float <1> v = (0 :: 5) * 1.0;
  int n = dimSize(v, 0);
  Matrix float <1> bad = v[2 : n];
  printFloat(bad[0]);
  return 0;
}
)";

analysis::ShapeCheckStats checkModule(const ir::Module& m,
                                      ir::GuardPlan& plan,
                                      std::string* rendered = nullptr) {
  DiagnosticEngine diags;
  auto st = analysis::checkShapes(m, plan, diags);
  if (rendered) {
    SourceManager sm;
    *rendered = diags.render(sm);
  }
  return st;
}

TEST(ShapeCheck, AffineKernelGuardsFullyProven) {
  auto res = translateXc(kAffineKernel);
  ASSERT_TRUE(res.ok) << res.renderDiagnostics();
  ir::GuardPlan plan;
  auto st = checkModule(*res.module, plan);
  EXPECT_GT(st.guardsTotal, 0u);
  EXPECT_EQ(st.guardsSafe, st.guardsTotal)
      << "kept " << st.guardsKept() << " of " << st.guardsTotal;
  EXPECT_EQ(st.guardsViolating, 0u);
  EXPECT_EQ(plan.safe.size(), st.guardsSafe);
}

TEST(ShapeCheck, UnknownBoundKeepsGuardAndBorrowsParam) {
  auto res = translateXc(kUnknownBoundKernel);
  ASSERT_TRUE(res.ok) << res.renderDiagnostics();
  ir::GuardPlan plan;
  auto st = checkModule(*res.module, plan);
  // The fold's v[q] load cannot be proven against dimSize(v, 0).
  EXPECT_GE(st.guardsKept(), 1u);
  EXPECT_EQ(st.guardsViolating, 0u);
  // v is read-only in headSum: its per-call retain/release is elidable.
  EXPECT_GE(st.borrowedParams, 1u);
  EXPECT_FALSE(plan.borrowedParams.empty());
}

TEST(ShapeCheck, ProvenViolationWarnsByDefault) {
  auto res = translateXc(kProvenOobKernel);
  // -Wshape (default): the program still translates; the violation is a
  // located warning and the runtime guard stays armed.
  ASSERT_TRUE(res.ok) << res.renderDiagnostics();
  std::string diags = res.renderDiagnostics();
  EXPECT_NE(diags.find("provably out of bounds"), std::string::npos) << diags;
  EXPECT_NE(diags.find("test.xc:"), std::string::npos)
      << "violation must carry the source range:\n" << diags;
  EXPECT_EQ(diags.find("error"), std::string::npos) << diags;
}

TEST(ShapeCheck, StrictShapeRejectsProvenViolationAtCompileTime) {
  driver::TranslateOptions opts;
  opts.strictShape = true;
  auto res = translateXc(kProvenOobKernel, opts);
  EXPECT_FALSE(res.ok);
  EXPECT_TRUE(res.hasErrors());
  std::string diags = res.renderDiagnostics();
  EXPECT_NE(diags.find("error"), std::string::npos) << diags;
  EXPECT_NE(diags.find("provably out of bounds"), std::string::npos) << diags;
  EXPECT_NE(diags.find("test.xc:"), std::string::npos) << diags;
}

TEST(ShapeCheck, OnModeEmitIsByteIdenticalToDefault) {
  auto res = translateXc(kAffineKernel);
  ASSERT_TRUE(res.ok) << res.renderDiagnostics();
  auto plain = ir::emitC(*res.module);
  ASSERT_TRUE(plain.ok);
  ir::CEmitOptions on;
  on.boundsChecks = ir::BoundsCheckMode::On;
  on.plan = res.guardPlan; // a plan must not perturb On output
  auto withOpts = ir::emitC(*res.module, on);
  ASSERT_TRUE(withOpts.ok);
  EXPECT_EQ(plain.code, withOpts.code);
}

TEST(ShapeCheck, AutoModeElidesBlessedGuardsInEmittedC) {
  auto res = translateXc(kAffineKernel);
  ASSERT_TRUE(res.ok) << res.renderDiagnostics();
  ASSERT_TRUE(res.guardPlan);
  ir::CEmitOptions autoOpts;
  autoOpts.boundsChecks = ir::BoundsCheckMode::Auto;
  autoOpts.plan = res.guardPlan;
  auto autoC = ir::emitC(*res.module, autoOpts);
  ASSERT_TRUE(autoC.ok);
  auto onC = ir::emitC(*res.module);
  ASSERT_TRUE(onC.ok);
  EXPECT_NE(autoC.code, onC.code);
  // Blessed flat loads read the payload directly instead of mmx_flat's
  // checked path.
  auto flatCalls = [](const std::string& c) {
    std::string code = emittedProgram(c);
    size_t n = 0;
    for (size_t p = code.find("mmx_flat("); p != std::string::npos;
         p = code.find("mmx_flat(", p + 1))
      ++n;
    return n;
  };
  EXPECT_LT(flatCalls(autoC.code), flatCalls(onC.code));
}

TEST(ShapeCheck, AutoModeInterpMatchesOnMode) {
  auto res = translateXc(kAffineKernel);
  ASSERT_TRUE(res.ok) << res.renderDiagnostics();
  rt::SerialExecutor ex;

  interp::Machine on(*res.module, ex);
  on.setBoundsChecks(ir::BoundsCheckMode::On);
  EXPECT_EQ(on.runMain(), 0);

  interp::Machine autoVm(*res.module, ex);
  autoVm.setBoundsChecks(ir::BoundsCheckMode::Auto, res.guardPlan);
  EXPECT_EQ(autoVm.runMain(), 0);

  EXPECT_EQ(on.output(), autoVm.output());
  EXPECT_FALSE(on.output().empty());
}

TEST(ShapeCheck, KeptGuardStillFiresUnderAuto) {
  // The proven-violating range access is NOT blessed, so even under
  // --bounds-checks=auto the interpreter must reject it at run time.
  auto res = translateXc(kProvenOobKernel);
  ASSERT_TRUE(res.ok) << res.renderDiagnostics();
  rt::SerialExecutor ex;
  interp::Machine vm(*res.module, ex);
  vm.setBoundsChecks(ir::BoundsCheckMode::Auto, res.guardPlan);
  EXPECT_THROW(vm.runMain(), interp::RuntimeError);
}

} // namespace
} // namespace mmx::test
