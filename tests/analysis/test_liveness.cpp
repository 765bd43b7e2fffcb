// Backward may-liveness (analysis/liveness) over hand-built IR: live
// ranges end at the last use, branches keep may-reads alive, loop back
// edges carry liveness around, and statements the pass never saw report
// live (the conservative default the optimizer relies on).
#include "analysis/liveness.hpp"

#include <gtest/gtest.h>

#include "ir/ir.hpp"

namespace mmx {
namespace {

using analysis::computeLiveness;
using analysis::Liveness;

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

TEST(Liveness, LiveRangeEndsAtLastUse) {
  ir::Module m;
  ir::Function* f = m.add("f");
  f->addLocal("m", ir::Ty::Mat);  // 0
  f->addLocal("x", ir::Ty::I32);  // 1

  // m = initMatrix(...); x = m[0]; return x;
  std::vector<ir::StmtPtr> body;
  body.push_back(ir::assign(0, alloc()));
  body.push_back(ir::assign(1, loadM(0)));
  {
    std::vector<ir::ExprPtr> rv;
    rv.push_back(iv(1));
    body.push_back(ir::ret(std::move(rv)));
  }
  const ir::Stmt* s1 = body[0].get();
  const ir::Stmt* s2 = body[1].get();
  const ir::Stmt* s3 = body[2].get();
  f->body = ir::block(std::move(body));

  Liveness live = computeLiveness(*f);
  EXPECT_TRUE(live.isLiveAfter(s1, 0)) << "m is read by the load";
  EXPECT_FALSE(live.isLiveAfter(s1, 1)) << "x is written before any read";
  EXPECT_FALSE(live.isLiveAfter(s2, 0)) << "the load was m's last use";
  EXPECT_TRUE(live.isLiveAfter(s2, 1)) << "x is read by the return";
  EXPECT_FALSE(live.isLiveAfter(s3, 0));
  EXPECT_FALSE(live.isLiveAfter(s3, 1)) << "nothing is live at exit";
}

TEST(Liveness, BranchReadIsMayLive) {
  ir::Module m;
  ir::Function* f = m.add("f");
  f->addLocal("m", ir::Ty::Mat);  // 0
  f->addLocal("x", ir::Ty::I32);  // 1

  // m = initMatrix(...); if (x < 1) { x = m[0]; }  — a read on one path
  // keeps m live on both.
  std::vector<ir::StmtPtr> body;
  body.push_back(ir::assign(0, alloc()));
  ir::StmtPtr thenS = ir::assign(1, loadM(0));
  const ir::Stmt* inThen = thenS.get();
  body.push_back(ir::ifStmt(
      ir::cmp(ir::CmpKind::Lt, iv(1), ir::constI(1)), std::move(thenS),
      nullptr));
  const ir::Stmt* s1 = body[0].get();
  f->body = ir::block(std::move(body));

  Liveness live = computeLiveness(*f);
  EXPECT_TRUE(live.isLiveAfter(s1, 0)) << "may be read in the then-arm";
  EXPECT_FALSE(live.isLiveAfter(inThen, 0)) << "no reads remain";
}

TEST(Liveness, LoopBackEdgeCarriesLiveness) {
  ir::Module m;
  ir::Function* f = m.add("f");
  f->addLocal("m", ir::Ty::Mat);  // 0
  f->addLocal("x", ir::Ty::I32);  // 1
  f->addLocal("i", ir::Ty::I32);  // 2

  // m = initMatrix(...); for (i ...) { x = m[i]; }
  std::vector<ir::StmtPtr> body;
  body.push_back(ir::assign(0, alloc()));
  ir::StmtPtr rd =
      ir::assign(1, ir::loadFlat(mv(0), iv(2), ir::Ty::I32));
  const ir::Stmt* inLoop = rd.get();
  body.push_back(
      ir::forLoop(2, ir::constI(0), ir::constI(8), std::move(rd), "i"));
  const ir::Stmt* s1 = body[0].get();
  f->body = ir::block(std::move(body));

  Liveness live = computeLiveness(*f);
  EXPECT_TRUE(live.isLiveAfter(s1, 0));
  EXPECT_TRUE(live.isLiveAfter(inLoop, 0))
      << "the next iteration reads m again — only the back-edge fixpoint "
         "sees this";
  EXPECT_FALSE(live.isLiveAfter(inLoop, 1)) << "x is dead even in the loop";
}

TEST(Liveness, UnvisitedStatementsReportLive) {
  ir::Module m;
  ir::Function* f = m.add("f");
  f->addLocal("m", ir::Ty::Mat);
  f->body = ir::block({});

  // A statement the pass never saw (dead code, detached nodes) must get
  // the conservative answer: the optimizer then declines to rewrite.
  ir::StmtPtr orphan = ir::assign(0, alloc());
  Liveness live = computeLiveness(*f);
  EXPECT_TRUE(live.isLiveAfter(orphan.get(), 0));
}

} // namespace
} // namespace mmx
