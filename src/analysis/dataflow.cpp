#include "analysis/dataflow.hpp"

#include <algorithm>

namespace mmx::analysis {

namespace {

void walkDims(const std::vector<ir::IndexDim>& dims,
              const std::function<void(const ir::Expr&)>& f);

void walkExpr(const ir::Expr& e, const std::function<void(const ir::Expr&)>& f) {
  f(e);
  for (const auto& a : e.args)
    if (a) walkExpr(*a, f);
  walkDims(e.dims, f);
}

void walkDims(const std::vector<ir::IndexDim>& dims,
              const std::function<void(const ir::Expr&)>& f) {
  for (const auto& d : dims) {
    if (d.a) walkExpr(*d.a, f);
    if (d.b) walkExpr(*d.b, f);
  }
}

} // namespace

void forEachExpr(const ir::Expr& e,
                 const std::function<void(const ir::Expr&)>& f) {
  walkExpr(e, f);
}

void forEachStmtExpr(const ir::Stmt& s,
                     const std::function<void(const ir::Expr&)>& f) {
  for (const auto& e : s.exprs)
    if (e) walkExpr(*e, f);
  walkDims(s.dims, f);
}

void forEachStmt(const ir::Stmt& root,
                 const std::function<void(const ir::Stmt&)>& f) {
  f(root);
  for (const auto& k : root.kids)
    if (k) forEachStmt(static_cast<const ir::Stmt&>(*k), f);
}

void forEachStmt(ir::Stmt& root, const std::function<void(ir::Stmt&)>& f) {
  f(root);
  for (auto& k : root.kids)
    if (k) forEachStmt(*k, f);
}

std::vector<int32_t> readSlots(const ir::Stmt& s) {
  std::vector<int32_t> out;
  forEachStmtExpr(s, [&](const ir::Expr& e) {
    if (e.k == ir::Expr::K::Var) out.push_back(e.slot);
  });
  // Buffer stores read the target handle through the frame slot.
  if (s.k == ir::Stmt::K::StoreFlat || s.k == ir::Stmt::K::IndexStore)
    out.push_back(s.slot);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<int32_t> writtenSlots(const ir::Stmt& s) {
  switch (s.k) {
    case ir::Stmt::K::Assign:
    case ir::Stmt::K::For: return {s.slot};
    case ir::Stmt::K::CallAssign: return s.dsts;
    default: return {};
  }
}

bool exprReadsSlot(const ir::Expr& e, int32_t slot) {
  bool found = false;
  walkExpr(e, [&](const ir::Expr& x) {
    if (x.k == ir::Expr::K::Var && x.slot == slot) found = true;
  });
  return found;
}

bool exprEquals(const ir::Expr& a, const ir::Expr& b) {
  if (a.k != b.k || a.ty != b.ty) return false;
  switch (a.k) {
    case ir::Expr::K::ConstI:
    case ir::Expr::K::ConstB:
      if (a.i != b.i) return false;
      break;
    case ir::Expr::K::ConstF:
      if (a.f != b.f) return false;
      break;
    case ir::Expr::K::ConstS:
      if (a.s != b.s) return false;
      break;
    case ir::Expr::K::Var:
      if (a.slot != b.slot) return false;
      break;
    case ir::Expr::K::Arith:
      if (a.aop != b.aop) return false;
      break;
    case ir::Expr::K::Cmp:
      if (a.cop != b.cop) return false;
      break;
    case ir::Expr::K::Logic:
      if (a.lop != b.lop) return false;
      break;
    case ir::Expr::K::Call:
      if (a.builtin != b.builtin) return false;
      break;
    default: break;
  }
  if (a.args.size() != b.args.size()) return false;
  for (size_t i = 0; i < a.args.size(); ++i) {
    if (!a.args[i] != !b.args[i]) return false;
    if (a.args[i] && !exprEquals(*a.args[i], *b.args[i])) return false;
  }
  return dimsEqual(a.dims, b.dims);
}

bool dimsEqual(const std::vector<ir::IndexDim>& a,
               const std::vector<ir::IndexDim>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].kind != b[i].kind) return false;
    if (!a[i].a != !b[i].a || !a[i].b != !b[i].b) return false;
    if (a[i].a && !exprEquals(*a[i].a, *b[i].a)) return false;
    if (a[i].b && !exprEquals(*a[i].b, *b[i].b)) return false;
  }
  return true;
}

} // namespace mmx::analysis
