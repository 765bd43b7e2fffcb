// SaC-style uniqueness facts (analysis/uniqueness) over hand-built IR:
// fresh allocations mint uniqueness, handle copies transfer it only when
// the source dies, refcount observation poisons a buffer permanently, the
// if-join intersects, and the interprocedural summaries classify borrowed
// parameters and fresh returns (including through user-function calls).
#include "analysis/uniqueness.hpp"

#include <gtest/gtest.h>

#include "analysis/liveness.hpp"
#include "ir/ir.hpp"

namespace mmx {
namespace {

using analysis::analyzeUniqueness;
using analysis::computeLiveness;
using analysis::FnSummary;
using analysis::SummaryMap;
using analysis::summarizeModule;
using analysis::Uniqueness;

ir::ExprPtr mv(int32_t slot) { return ir::var(slot, ir::Ty::Mat); }
ir::ExprPtr iv(int32_t slot) { return ir::var(slot, ir::Ty::I32); }

ir::ExprPtr alloc() {
  std::vector<ir::ExprPtr> args;
  args.push_back(ir::constI(4));
  args.push_back(ir::constI(4));
  return ir::call(ir::Builtin::InitMatrix, std::move(args));
}

ir::ExprPtr loadM(int32_t matSlot) {
  return ir::loadFlat(mv(matSlot), ir::constI(0), ir::Ty::I32);
}

Uniqueness analyze(const ir::Module& m, const ir::Function& f) {
  return analyzeUniqueness(f, summarizeModule(m), computeLiveness(f));
}

TEST(Uniqueness, FreshAllocationMintsParametersDoNot) {
  ir::Module mod;
  ir::Function* f = mod.add("f");
  f->numParams = 1;
  f->addLocal("p", ir::Ty::Mat);  // 0, parameter
  f->addLocal("m", ir::Ty::Mat);  // 1
  f->addLocal("x", ir::Ty::I32);  // 2

  // (p is a param) m = initMatrix(...); x = p[0];
  std::vector<ir::StmtPtr> body;
  body.push_back(ir::assign(1, alloc()));
  body.push_back(ir::assign(2, loadM(0)));
  const ir::Stmt* s1 = body[0].get();
  const ir::Stmt* s2 = body[1].get();
  f->body = ir::block(std::move(body));

  Uniqueness u = analyze(mod, *f);
  EXPECT_FALSE(u.isUniqueBefore(s1, 0)) << "params enter shared";
  EXPECT_FALSE(u.isUniqueBefore(s1, 1)) << "not yet allocated";
  EXPECT_FALSE(u.isUniqueBefore(s2, 0));
  EXPECT_TRUE(u.isUniqueBefore(s2, 1)) << "freshly allocated";
}

TEST(Uniqueness, HandleCopyTransfersOnlyWhenSourceDies) {
  // The `A = %wres` pattern closing every with-loop: the temp's handle is
  // dead after the copy, so A absorbs uniqueness. If the temp stays live,
  // two handles share the buffer and neither is unique.
  auto build = [](bool readTempLater, const ir::Stmt*& copyOut,
                  const ir::Stmt*& afterOut) {
    auto mod = std::make_unique<ir::Module>();
    ir::Function* f = mod->add("f");
    f->addLocal("t", ir::Ty::Mat);  // 0
    f->addLocal("A", ir::Ty::Mat);  // 1
    f->addLocal("x", ir::Ty::I32);  // 2
    std::vector<ir::StmtPtr> body;
    body.push_back(ir::assign(0, alloc()));
    body.push_back(ir::assign(1, mv(0)));
    body.push_back(ir::assign(2, loadM(readTempLater ? 0 : 1)));
    copyOut = body[1].get();
    afterOut = body[2].get();
    f->body = ir::block(std::move(body));
    return mod;
  };

  const ir::Stmt *copy, *after;
  auto deadTemp = build(false, copy, after);
  Uniqueness u = analyze(*deadTemp, *deadTemp->find("f"));
  EXPECT_TRUE(u.isUniqueBefore(copy, 0));
  EXPECT_TRUE(u.isUniqueBefore(after, 1)) << "t died at the copy";
  EXPECT_FALSE(u.isUniqueBefore(after, 0));

  auto liveTemp = build(true, copy, after);
  Uniqueness u2 = analyze(*liveTemp, *liveTemp->find("f"));
  EXPECT_FALSE(u2.isUniqueBefore(after, 1)) << "t is still live: shared";
  EXPECT_FALSE(u2.isUniqueBefore(after, 0));
}

TEST(Uniqueness, RefcountObservationPoisonsTheBuffer) {
  ir::Module mod;
  ir::Function* f = mod.add("f");
  f->addLocal("m", ir::Ty::Mat);  // 0
  f->addLocal("x", ir::Ty::I32);  // 1

  // m = initMatrix(...); x = refCount(m); — a rewrite that stole m's
  // buffer would change what refCount prints, so m is never unique.
  std::vector<ir::StmtPtr> body;
  body.push_back(ir::assign(0, alloc()));
  {
    std::vector<ir::ExprPtr> args;
    args.push_back(mv(0));
    body.push_back(
        ir::assign(1, ir::call(ir::Builtin::RefCount, std::move(args))));
  }
  const ir::Stmt* s2 = body[1].get();
  f->body = ir::block(std::move(body));

  Uniqueness u = analyze(mod, *f);
  EXPECT_TRUE(u.observed.get(0));
  EXPECT_FALSE(u.isUniqueBefore(s2, 0));
}

TEST(Uniqueness, IfJoinIntersects) {
  ir::Module mod;
  ir::Function* f = mod.add("f");
  f->addLocal("m", ir::Ty::Mat);  // 0
  f->addLocal("A", ir::Ty::Mat);  // 1
  f->addLocal("x", ir::Ty::I32);  // 2

  // m = initMatrix(...); if (x < 1) { A = m; } x = m[0];
  // The then-arm aliases m while it stays live, so after the join m is
  // unique on neither path's terms: intersection drops it.
  std::vector<ir::StmtPtr> body;
  body.push_back(ir::assign(0, alloc()));
  body.push_back(ir::ifStmt(
      ir::cmp(ir::CmpKind::Lt, iv(2), ir::constI(1)),
      ir::assign(1, mv(0)), nullptr));
  body.push_back(ir::assign(2, loadM(0)));
  const ir::Stmt* afterIf = body[2].get();
  f->body = ir::block(std::move(body));

  Uniqueness u = analyze(mod, *f);
  EXPECT_FALSE(u.isUniqueBefore(afterIf, 0));
  EXPECT_FALSE(u.isUniqueBefore(afterIf, 1));
}

/// Module with the three callee shapes the summaries must classify:
///   reader(p): only loads from p           -> borrows, (vacuously) fresh
///   maker():   returns a new allocation    -> returnsFresh
///   keeper(p): returns p itself            -> escapes, not fresh
ir::Module* buildCallees(ir::Module& mod) {
  {
    ir::Function* g = mod.add("reader");
    g->numParams = 1;
    g->addLocal("p", ir::Ty::Mat);
    g->rets = {ir::Ty::I32};
    std::vector<ir::ExprPtr> rv;
    rv.push_back(loadM(0));
    g->body = ir::ret(std::move(rv));
  }
  {
    ir::Function* g = mod.add("maker");
    g->rets = {ir::Ty::Mat};
    g->addLocal("r", ir::Ty::Mat);
    std::vector<ir::StmtPtr> body;
    body.push_back(ir::assign(0, alloc()));
    std::vector<ir::ExprPtr> rv;
    rv.push_back(mv(0));
    body.push_back(ir::ret(std::move(rv)));
    g->body = ir::block(std::move(body));
  }
  {
    ir::Function* g = mod.add("keeper");
    g->numParams = 1;
    g->addLocal("p", ir::Ty::Mat);
    g->rets = {ir::Ty::Mat};
    std::vector<ir::ExprPtr> rv;
    rv.push_back(mv(0));
    g->body = ir::ret(std::move(rv));
  }
  return &mod;
}

TEST(Uniqueness, SummariesClassifyBorrowAndFreshness) {
  ir::Module mod;
  buildCallees(mod);
  SummaryMap sums = summarizeModule(mod);

  ASSERT_EQ(sums.at("reader").borrowedParams.size(), 1u);
  EXPECT_TRUE(sums.at("reader").borrowedParams[0]);
  EXPECT_TRUE(sums.at("maker").returnsFresh);
  EXPECT_FALSE(sums.at("keeper").borrowedParams[0])
      << "the handle escapes through the return";
  EXPECT_FALSE(sums.at("keeper").returnsFresh);
}

TEST(Uniqueness, CallsUseSummariesInterprocedurally) {
  ir::Module mod;
  buildCallees(mod);
  ir::Function* f = mod.add("main");
  f->addLocal("a", ir::Ty::Mat);  // 0
  f->addLocal("b", ir::Ty::Mat);  // 1
  f->addLocal("c", ir::Ty::Mat);  // 2
  f->addLocal("d", ir::Ty::Mat);  // 3
  f->addLocal("x", ir::Ty::I32);  // 4

  // a = initMatrix(...);
  // x = reader(a);   -- borrows: a stays unique
  // b = maker();     -- fresh return: b unique
  // d = initMatrix(...);
  // c = keeper(d);   -- d escapes, c aliases it: both shared
  // (keeper gets its own matrix: the escape taint is flow-insensitive,
  // so passing `a` there would un-unique `a` everywhere.)
  std::vector<ir::StmtPtr> body;
  body.push_back(ir::assign(0, alloc()));
  {
    std::vector<ir::ExprPtr> args;
    args.push_back(mv(0));
    body.push_back(ir::callAssign({4}, "reader", std::move(args)));
  }
  body.push_back(ir::callAssign({1}, "maker", {}));
  body.push_back(ir::assign(3, alloc()));
  {
    std::vector<ir::ExprPtr> args;
    args.push_back(mv(3));
    body.push_back(ir::callAssign({2}, "keeper", std::move(args)));
  }
  body.push_back(ir::ret({}));
  const ir::Stmt* afterReader = body[2].get();
  const ir::Stmt* afterMaker = body[3].get();
  const ir::Stmt* atRet = body[5].get();
  f->body = ir::block(std::move(body));

  Uniqueness u = analyze(mod, *f);
  EXPECT_TRUE(u.isUniqueBefore(afterReader, 0)) << "reader only borrowed a";
  EXPECT_TRUE(u.isUniqueBefore(afterMaker, 1)) << "maker's result is fresh";
  EXPECT_TRUE(u.isUniqueBefore(atRet, 0)) << "a was never captured";
  EXPECT_FALSE(u.isUniqueBefore(atRet, 3)) << "keeper kept an alias";
  EXPECT_FALSE(u.isUniqueBefore(atRet, 2));
}

} // namespace
} // namespace mmx
