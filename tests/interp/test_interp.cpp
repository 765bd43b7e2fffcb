#include "interp/interp.hpp"

#include <gtest/gtest.h>

namespace mmx::interp {
namespace {

using namespace mmx::ir;
using rt::Matrix;

/// add(a, b) = a + b over i32.
void buildAdd(Module& m) {
  Function* f = m.add("add");
  f->numParams = 2;
  f->rets = {Ty::I32};
  f->addLocal("a", Ty::I32);
  f->addLocal("b", Ty::I32);
  std::vector<StmtPtr> body;
  std::vector<ExprPtr> rv;
  rv.push_back(arith(ArithOp::Add, var(0, Ty::I32), var(1, Ty::I32), Ty::I32));
  body.push_back(ret(std::move(rv)));
  f->body = block(std::move(body));
}

TEST(Interp, ScalarFunctionCall) {
  Module m;
  buildAdd(m);
  rt::SerialExecutor ex;
  Machine vm(m, ex);
  auto r = vm.call("add", {int32_t{2}, int32_t{40}});
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(std::get<int32_t>(r[0]), 42);
}

TEST(Interp, ArgumentCountChecked) {
  Module m;
  buildAdd(m);
  rt::SerialExecutor ex;
  Machine vm(m, ex);
  EXPECT_THROW(vm.call("add", {int32_t{1}}), RuntimeError);
  EXPECT_THROW(vm.call("nosuch", {}), RuntimeError);
}

/// sumto(n): for-loop accumulation, tests For + Assign + Arith.
void buildSumTo(Module& m) {
  Function* f = m.add("sumto");
  f->numParams = 1;
  f->rets = {Ty::I32};
  f->addLocal("n", Ty::I32);
  int32_t acc = f->addLocal("acc", Ty::I32);
  int32_t i = f->addLocal("i", Ty::I32);
  std::vector<StmtPtr> body;
  body.push_back(assign(acc, constI(0)));
  body.push_back(forLoop(
      i, constI(0), var(0, Ty::I32),
      assign(acc, arith(ArithOp::Add, var(acc, Ty::I32), var(i, Ty::I32),
                        Ty::I32)),
      "i"));
  std::vector<ExprPtr> rv;
  rv.push_back(var(acc, Ty::I32));
  body.push_back(ret(std::move(rv)));
  f->body = block(std::move(body));
}

TEST(Interp, ForLoopAccumulates) {
  Module m;
  buildSumTo(m);
  rt::SerialExecutor ex;
  Machine vm(m, ex);
  EXPECT_EQ(std::get<int32_t>(vm.call("sumto", {int32_t{100}})[0]), 4950);
  EXPECT_EQ(std::get<int32_t>(vm.call("sumto", {int32_t{0}})[0]), 0);
}

TEST(Interp, WhileAndIf) {
  // collatz(n): steps to reach 1.
  Module m;
  Function* f = m.add("collatz");
  f->numParams = 1;
  f->rets = {Ty::I32};
  int32_t n = f->addLocal("n", Ty::I32);
  int32_t steps = f->addLocal("steps", Ty::I32);
  std::vector<StmtPtr> body;
  body.push_back(assign(steps, constI(0)));
  std::vector<StmtPtr> loop;
  loop.push_back(ifStmt(
      cmp(CmpKind::Eq,
          arith(ArithOp::Mod, var(n, Ty::I32), constI(2), Ty::I32), constI(0)),
      assign(n, arith(ArithOp::Div, var(n, Ty::I32), constI(2), Ty::I32)),
      assign(n, arith(ArithOp::Add,
                      arith(ArithOp::Mul, var(n, Ty::I32), constI(3), Ty::I32),
                      constI(1), Ty::I32))));
  loop.push_back(assign(
      steps, arith(ArithOp::Add, var(steps, Ty::I32), constI(1), Ty::I32)));
  body.push_back(whileLoop(cmp(CmpKind::Ne, var(n, Ty::I32), constI(1)),
                           block(std::move(loop))));
  std::vector<ExprPtr> rv;
  rv.push_back(var(steps, Ty::I32));
  body.push_back(ret(std::move(rv)));
  f->body = block(std::move(body));

  rt::SerialExecutor ex;
  Machine vm(m, ex);
  EXPECT_EQ(std::get<int32_t>(vm.call("collatz", {int32_t{6}})[0]), 8);
}

TEST(Interp, FloatArithmeticAndCasts) {
  Module m;
  Function* f = m.add("avg");
  f->numParams = 2;
  f->rets = {Ty::F32};
  f->addLocal("a", Ty::I32);
  f->addLocal("b", Ty::I32);
  std::vector<StmtPtr> body;
  std::vector<ExprPtr> rv;
  rv.push_back(arith(
      ArithOp::Div,
      cast(Ty::F32,
           arith(ArithOp::Add, var(0, Ty::I32), var(1, Ty::I32), Ty::I32)),
      constF(2.f), Ty::F32));
  body.push_back(ret(std::move(rv)));
  f->body = block(std::move(body));
  rt::SerialExecutor ex;
  Machine vm(m, ex);
  EXPECT_FLOAT_EQ(std::get<float>(vm.call("avg", {int32_t{3}, int32_t{4}})[0]),
                  3.5f);
}

TEST(Interp, MatrixWholeOpsViaArith) {
  // f(a, b) = a + b .* b  (element-wise), returns matrix.
  Module m;
  Function* f = m.add("f");
  f->numParams = 2;
  f->rets = {Ty::Mat};
  f->addLocal("a", Ty::Mat);
  f->addLocal("b", Ty::Mat);
  std::vector<StmtPtr> body;
  std::vector<ExprPtr> rv;
  rv.push_back(arith(ArithOp::Add, var(0, Ty::Mat),
                     arith(ArithOp::EwMul, var(1, Ty::Mat), var(1, Ty::Mat),
                           Ty::Mat),
                     Ty::Mat));
  body.push_back(ret(std::move(rv)));
  f->body = block(std::move(body));

  rt::SerialExecutor ex;
  Machine vm(m, ex);
  Matrix a = Matrix::fromF32({3}, {1, 2, 3});
  Matrix b = Matrix::fromF32({3}, {10, 20, 30});
  auto r = vm.call("f", {a, b});
  EXPECT_TRUE(std::get<Matrix>(r[0]).equals(
      Matrix::fromF32({3}, {101, 402, 903})));
}

TEST(Interp, MatMulViaStarOnRank2) {
  Module m;
  Function* f = m.add("mm");
  f->numParams = 2;
  f->rets = {Ty::Mat};
  f->addLocal("a", Ty::Mat);
  f->addLocal("b", Ty::Mat);
  std::vector<StmtPtr> body;
  std::vector<ExprPtr> rv;
  rv.push_back(arith(ArithOp::Mul, var(0, Ty::Mat), var(1, Ty::Mat), Ty::Mat));
  body.push_back(ret(std::move(rv)));
  f->body = block(std::move(body));
  rt::SerialExecutor ex;
  Machine vm(m, ex);
  Matrix a = Matrix::fromF32({2, 2}, {1, 2, 3, 4});
  Matrix b = Matrix::fromF32({2, 2}, {5, 6, 7, 8});
  auto r = vm.call("mm", {a, b});
  EXPECT_TRUE(
      std::get<Matrix>(r[0]).equals(Matrix::fromF32({2, 2}, {19, 22, 43, 50})));
}

TEST(Interp, MatrixScalarBroadcastBothOrders) {
  Module m;
  Function* f = m.add("g");
  f->numParams = 1;
  f->rets = {Ty::Mat, Ty::Mat};
  f->addLocal("a", Ty::Mat);
  std::vector<StmtPtr> body;
  std::vector<ExprPtr> rv;
  rv.push_back(arith(ArithOp::Sub, var(0, Ty::Mat), constF(1.f), Ty::Mat));
  rv.push_back(arith(ArithOp::Sub, constF(10.f), var(0, Ty::Mat), Ty::Mat));
  body.push_back(ret(std::move(rv)));
  f->body = block(std::move(body));
  rt::SerialExecutor ex;
  Machine vm(m, ex);
  auto r = vm.call("g", {Matrix::fromF32({2}, {3, 5})});
  EXPECT_TRUE(std::get<Matrix>(r[0]).equals(Matrix::fromF32({2}, {2, 4})));
  EXPECT_TRUE(std::get<Matrix>(r[1]).equals(Matrix::fromF32({2}, {7, 5})));
}

TEST(Interp, ComparisonOnMatrixProducesBoolMask) {
  Module m;
  Function* f = m.add("mask");
  f->numParams = 1;
  f->rets = {Ty::Mat};
  f->addLocal("v", Ty::Mat);
  std::vector<StmtPtr> body;
  std::vector<ExprPtr> rv;
  // v % 2 == 1, the paper's logical-indexing example.
  rv.push_back(cmp(CmpKind::Eq,
                   arith(ArithOp::Mod, var(0, Ty::Mat), constI(2), Ty::Mat),
                   constI(1), Ty::Mat));
  body.push_back(ret(std::move(rv)));
  f->body = block(std::move(body));
  rt::SerialExecutor ex;
  Machine vm(m, ex);
  auto r = vm.call("mask", {Matrix::fromI32({4}, {1, 2, 3, 4})});
  EXPECT_TRUE(
      std::get<Matrix>(r[0]).equals(Matrix::fromBool({4}, {1, 0, 1, 0})));
}

/// Fills out[i] = i*2 with a parallel loop over a preallocated matrix.
void buildParFill(Module& m, bool parallel) {
  Function* f = m.add(parallel ? "parfill" : "serfill");
  f->numParams = 1;
  f->rets = {Ty::Mat};
  int32_t n = 0;
  (void)n;
  f->addLocal("n", Ty::I32);
  int32_t out = f->addLocal("out", Ty::Mat);
  int32_t i = f->addLocal("i", Ty::I32);
  std::vector<StmtPtr> body;
  std::vector<ExprPtr> zargs;
  zargs.push_back(constI(0)); // Elem::I32
  zargs.push_back(var(0, Ty::I32));
  body.push_back(assign(out, call(Builtin::InitMatrix, std::move(zargs))));
  StmtPtr store = storeFlat(
      out, var(i, Ty::I32),
      arith(ArithOp::Mul, var(i, Ty::I32), constI(2), Ty::I32));
  StmtPtr loop = forLoop(i, constI(0), var(0, Ty::I32), std::move(store), "i");
  loop->parallel = parallel;
  body.push_back(std::move(loop));
  std::vector<ExprPtr> rv;
  rv.push_back(var(out, Ty::Mat));
  body.push_back(ret(std::move(rv)));
  f->body = block(std::move(body));
}

TEST(Interp, ParallelForMatchesSerial) {
  Module m;
  buildParFill(m, true);
  buildParFill(m, false);
  rt::ForkJoinPool pool(4);
  Machine vm(m, pool);
  auto rp = vm.call("parfill", {int32_t{1000}});
  auto rs = vm.call("serfill", {int32_t{1000}});
  EXPECT_TRUE(std::get<Matrix>(rp[0]).equals(std::get<Matrix>(rs[0])));
  EXPECT_EQ(std::get<Matrix>(rp[0]).i32()[999], 1998);
}

TEST(Interp, ParallelLoopErrorsPropagate) {
  // Out-of-bounds store inside a parallel loop must surface as
  // RuntimeError on the main thread, not crash a worker.
  Module m;
  Function* f = m.add("bad");
  f->numParams = 0;
  int32_t out = f->addLocal("out", Ty::Mat);
  int32_t i = f->addLocal("i", Ty::I32);
  std::vector<StmtPtr> body;
  std::vector<ExprPtr> zargs;
  zargs.push_back(constI(0));
  zargs.push_back(constI(4)); // only 4 elements
  body.push_back(assign(out, call(Builtin::InitMatrix, std::move(zargs))));
  StmtPtr loop = forLoop(i, constI(0), constI(100),
                         storeFlat(out, var(i, Ty::I32), constI(1)), "i");
  loop->parallel = true;
  body.push_back(std::move(loop));
  f->body = block(std::move(body));
  rt::ForkJoinPool pool(4);
  Machine vm(m, pool);
  EXPECT_THROW(vm.call("bad", {}), RuntimeError);
}

/// The Fig. 9-11 pattern: out[j] = sum_k mat[j*p + k], j-loop vectorized.
void buildVecSum(Module& m, int vecWidth) {
  Function* f = m.add(vecWidth > 1 ? "vecsum" : "scalsum");
  f->numParams = 2; // mat (n*p flat), p
  f->rets = {Ty::Mat};
  int32_t mat = 0;
  f->addLocal("mat", Ty::Mat);
  f->addLocal("p", Ty::I32);
  int32_t out = f->addLocal("out", Ty::Mat);
  int32_t n = f->addLocal("n", Ty::I32);
  int32_t j = f->addLocal("j", Ty::I32);
  int32_t k = f->addLocal("k", Ty::I32);
  int32_t sum = f->addLocal("sum", Ty::F32);

  std::vector<StmtPtr> body;
  body.push_back(assign(
      n, arith(ArithOp::Div, dimSize(var(mat, Ty::Mat), constI(0)),
               var(1, Ty::I32), Ty::I32)));
  std::vector<ExprPtr> zargs;
  zargs.push_back(constI(1)); // Elem::F32
  zargs.push_back(var(n, Ty::I32));
  body.push_back(assign(out, call(Builtin::InitMatrix, std::move(zargs))));

  // inner: sum = sum + mat[j*p + k]
  StmtPtr inner = assign(
      sum,
      arith(ArithOp::Add, var(sum, Ty::F32),
            loadFlat(var(mat, Ty::Mat),
                     arith(ArithOp::Add,
                           arith(ArithOp::Mul, var(j, Ty::I32),
                                 var(1, Ty::I32), Ty::I32),
                           var(k, Ty::I32), Ty::I32),
                     Ty::F32),
            Ty::F32));
  std::vector<StmtPtr> jbody;
  jbody.push_back(assign(sum, constF(0.f)));
  jbody.push_back(
      forLoop(k, constI(0), var(1, Ty::I32), std::move(inner), "k"));
  jbody.push_back(storeFlat(out, var(j, Ty::I32), var(sum, Ty::F32)));
  StmtPtr jloop =
      forLoop(j, constI(0), var(n, Ty::I32), block(std::move(jbody)), "j");
  jloop->vecWidth = vecWidth;
  body.push_back(std::move(jloop));

  std::vector<ExprPtr> rv;
  rv.push_back(var(out, Ty::Mat));
  body.push_back(ret(std::move(rv)));
  f->body = block(std::move(body));
}

TEST(Interp, VectorizedLoopWithInnerReductionMatchesScalar) {
  Module m;
  buildVecSum(m, 4);
  buildVecSum(m, 1);
  rt::SerialExecutor ex;
  Machine vm(m, ex);
  // 10 series of length 7 (odd count: vector remainder path).
  Matrix mat = Matrix::zeros(rt::Elem::F32, {70});
  for (int64_t i = 0; i < 70; ++i)
    mat.f32()[i] = static_cast<float>((i % 13) - 5) * 0.5f;
  auto rv = vm.call("vecsum", {mat, int32_t{7}});
  auto rs = vm.call("scalsum", {mat, int32_t{7}});
  EXPECT_TRUE(std::get<Matrix>(rv[0]).equals(std::get<Matrix>(rs[0]), 1e-4f));
}

TEST(Interp, TupleReturnAndCallAssign) {
  Module m;
  // divmod(a, b) -> (a/b, a%b)
  Function* f = m.add("divmod");
  f->numParams = 2;
  f->rets = {Ty::I32, Ty::I32};
  f->addLocal("a", Ty::I32);
  f->addLocal("b", Ty::I32);
  std::vector<StmtPtr> fb;
  std::vector<ExprPtr> rv;
  rv.push_back(arith(ArithOp::Div, var(0, Ty::I32), var(1, Ty::I32), Ty::I32));
  rv.push_back(arith(ArithOp::Mod, var(0, Ty::I32), var(1, Ty::I32), Ty::I32));
  fb.push_back(ret(std::move(rv)));
  f->body = block(std::move(fb));

  // caller() { (d, r) = divmod(17, 5); return d*100 + r; }
  Function* g = m.add("caller");
  g->numParams = 0;
  g->rets = {Ty::I32};
  int32_t d = g->addLocal("d", Ty::I32);
  int32_t r = g->addLocal("r", Ty::I32);
  std::vector<StmtPtr> gb;
  std::vector<ExprPtr> args;
  args.push_back(constI(17));
  args.push_back(constI(5));
  gb.push_back(callAssign({d, r}, "divmod", std::move(args)));
  std::vector<ExprPtr> grv;
  grv.push_back(arith(ArithOp::Add,
                      arith(ArithOp::Mul, var(d, Ty::I32), constI(100),
                            Ty::I32),
                      var(r, Ty::I32), Ty::I32));
  gb.push_back(ret(std::move(grv)));
  g->body = block(std::move(gb));

  rt::SerialExecutor ex;
  Machine vm(m, ex);
  EXPECT_EQ(std::get<int32_t>(vm.call("caller", {})[0]), 302);
}

TEST(Interp, BuiltinsPrintAndThreads) {
  Module m;
  Function* f = m.add("main");
  f->numParams = 0;
  f->rets = {Ty::I32};
  std::vector<StmtPtr> body;
  std::vector<ExprPtr> p1;
  p1.push_back(constI(7));
  body.push_back(callStmt(call(Builtin::PrintInt, std::move(p1))));
  std::vector<ExprPtr> p2;
  p2.push_back(constS("hello"));
  body.push_back(callStmt(call(Builtin::PrintStr, std::move(p2))));
  std::vector<ExprPtr> rv;
  rv.push_back(call(Builtin::NumThreads, {}));
  body.push_back(ret(std::move(rv)));
  f->body = block(std::move(body));
  rt::ForkJoinPool pool(3);
  Machine vm(m, pool);
  EXPECT_EQ(vm.runMain(), 3);
  EXPECT_EQ(vm.output(), "7\nhello\n");
}

TEST(Interp, GenarrayBoundsBuiltinEnforcesSuperset) {
  Module m;
  Function* f = m.add("main");
  f->numParams = 0;
  std::vector<StmtPtr> body;
  std::vector<ExprPtr> args;
  args.push_back(constI(10)); // generator upper bound
  args.push_back(constI(5));  // result dimension
  body.push_back(callStmt(call(Builtin::CheckGenBounds, std::move(args))));
  f->body = block(std::move(body));
  rt::SerialExecutor ex;
  Machine vm(m, ex);
  try {
    vm.runMain();
    FAIL() << "expected RuntimeError";
  } catch (const RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("superset"), std::string::npos);
  }
}

TEST(Interp, DivisionByZeroReported) {
  Module m;
  buildAdd(m);
  Function* f = m.add("div");
  f->numParams = 2;
  f->rets = {Ty::I32};
  f->addLocal("a", Ty::I32);
  f->addLocal("b", Ty::I32);
  std::vector<StmtPtr> body;
  std::vector<ExprPtr> rv;
  rv.push_back(arith(ArithOp::Div, var(0, Ty::I32), var(1, Ty::I32), Ty::I32));
  body.push_back(ret(std::move(rv)));
  f->body = block(std::move(body));
  rt::SerialExecutor ex;
  Machine vm(m, ex);
  EXPECT_THROW(vm.call("div", {int32_t{1}, int32_t{0}}), RuntimeError);
}

TEST(Interp, BreakAndContinue) {
  // Sum of odd i below first i >= 10: for i in 0..100 { if i>=10 break;
  // if i%2==0 continue; acc+=i }
  Module m;
  Function* f = m.add("f");
  f->numParams = 0;
  f->rets = {Ty::I32};
  int32_t acc = f->addLocal("acc", Ty::I32);
  int32_t i = f->addLocal("i", Ty::I32);
  std::vector<StmtPtr> loop;
  {
    auto br = std::make_unique<Stmt>();
    br->k = Stmt::K::Break;
    loop.push_back(ifStmt(cmp(CmpKind::Ge, var(i, Ty::I32), constI(10)),
                          std::move(br), nullptr));
  }
  {
    auto co = std::make_unique<Stmt>();
    co->k = Stmt::K::Continue;
    loop.push_back(ifStmt(
        cmp(CmpKind::Eq,
            arith(ArithOp::Mod, var(i, Ty::I32), constI(2), Ty::I32),
            constI(0)),
        std::move(co), nullptr));
  }
  loop.push_back(
      assign(acc, arith(ArithOp::Add, var(acc, Ty::I32), var(i, Ty::I32),
                        Ty::I32)));
  std::vector<StmtPtr> body;
  body.push_back(assign(acc, constI(0)));
  body.push_back(forLoop(i, constI(0), constI(100), block(std::move(loop)),
                         "i"));
  std::vector<ExprPtr> rv;
  rv.push_back(var(acc, Ty::I32));
  body.push_back(ret(std::move(rv)));
  f->body = block(std::move(body));
  rt::SerialExecutor ex;
  Machine vm(m, ex);
  EXPECT_EQ(std::get<int32_t>(vm.call("f", {})[0]), 1 + 3 + 5 + 7 + 9);
}

} // namespace
} // namespace mmx::interp
