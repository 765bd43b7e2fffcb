// Host-language semantics: scalar expressions and operators, control flow
// (including canonical-for detection so parallelizable counted loops lower
// to ir::For), calls, and the tuple semantics that §VI-A packages with the
// host. Registered per production name; extensions override or extend via
// the same interface.
#include <cassert>

#include "cminus/sema.hpp"

namespace mmx::cm {

namespace {

constexpr const char* kExt = "host";

// --- small helpers ------------------------------------------------------

/// Flattens left-recursive lists (X -> X , e | e) into element nodes.
std::vector<ast::NodePtr> flattenList(const ast::NodePtr& n,
                                      std::string_view consName,
                                      std::string_view oneName) {
  std::vector<ast::NodePtr> out;
  const ast::Node* cur = n.get();
  std::vector<ast::NodePtr> stack;
  ast::NodePtr node = n;
  while (node->is(consName)) {
    stack.push_back(node->kids.back());
    node = node->child(0);
  }
  (void)cur;
  if (node->is(oneName))
    out.push_back(node->child(0));
  else
    out.push_back(node); // already an element
  for (auto it = stack.rbegin(); it != stack.rend(); ++it) out.push_back(*it);
  return out;
}

std::vector<ast::NodePtr> exprListElems(const ast::NodePtr& n) {
  return flattenList(n, "exprlist_cons", "exprlist_one");
}

void passExpr(Sema& s, const char* prod) {
  s.defineExpr(prod, [](Sema& s2, const ast::NodePtr& n) {
    return s2.expr(n->child(0));
  }, kExt);
}

void passStmt(Sema& s, const char* prod) {
  s.defineStmt(prod, [](Sema& s2, const ast::NodePtr& n) {
    s2.stmt(n->child(0));
  }, kExt);
}

// --- numeric operator helpers ------------------------------------------

ExprRes numericBin(Sema& s, ir::ArithOp op, ExprRes a, ExprRes b,
                   SourceRange r) {
  if (a.bad() || b.bad()) return ExprRes::error();
  if (auto hooked = s.tryBinHooks(op, a, b, r)) return std::move(*hooked);
  if (!a.type.isScalarNumeric() || !b.type.isScalarNumeric()) {
    s.error(r, std::string("operator '") + ir::arithName(op) +
                   "' is not defined for " + a.type.str() + " and " +
                   b.type.str());
    return ExprRes::error();
  }
  Type out = (a.type.k == Type::K::Float || b.type.k == Type::K::Float)
                 ? Type::floatTy()
                 : Type::intTy();
  a = s.coerce(std::move(a), out, r);
  b = s.coerce(std::move(b), out, r);
  if (a.bad() || b.bad()) return ExprRes::error();
  return {out, ir::arith(op, std::move(a.code), std::move(b.code),
                         Sema::lowerTy(out))};
}

ExprRes numericCmp(Sema& s, ir::CmpKind op, ExprRes a, ExprRes b,
                   SourceRange r) {
  if (a.bad() || b.bad()) return ExprRes::error();
  if (auto hooked = s.tryCmpHooks(op, a, b, r)) return std::move(*hooked);
  bool bothBool = a.type.k == Type::K::Bool && b.type.k == Type::K::Bool;
  if (bothBool && (op == ir::CmpKind::Eq || op == ir::CmpKind::Ne)) {
    return {Type::boolTy(),
            ir::cmp(op, std::move(a.code), std::move(b.code))};
  }
  if (!a.type.isScalarNumeric() || !b.type.isScalarNumeric()) {
    s.error(r, std::string("comparison '") + ir::cmpName(op) +
                   "' is not defined for " + a.type.str() + " and " +
                   b.type.str());
    return ExprRes::error();
  }
  Type wide = (a.type.k == Type::K::Float || b.type.k == Type::K::Float)
                  ? Type::floatTy()
                  : Type::intTy();
  a = s.coerce(std::move(a), wide, r);
  b = s.coerce(std::move(b), wide, r);
  if (a.bad() || b.bad()) return ExprRes::error();
  return {Type::boolTy(), ir::cmp(op, std::move(a.code), std::move(b.code))};
}

void binOp(Sema& s, const char* prod, ir::ArithOp op) {
  s.defineExpr(prod, [op](Sema& s2, const ast::NodePtr& n) {
    return numericBin(s2, op, s2.expr(n->child(0)), s2.expr(n->child(2)),
                      n->range);
  }, kExt);
}

void cmpOp(Sema& s, const char* prod, ir::CmpKind op) {
  s.defineExpr(prod, [op](Sema& s2, const ast::NodePtr& n) {
    return numericCmp(s2, op, s2.expr(n->child(0)), s2.expr(n->child(2)),
                      n->range);
  }, kExt);
}

// --- assignment ---------------------------------------------------------

/// Unwraps pass-through chains to the first "interesting" production.
const ast::NodePtr& significant(const ast::NodePtr& n) {
  static const std::vector<std::string_view> chains = {
      "expr_pass", "or_pass", "and_pass", "cmp_pass",
      "add_pass",  "mul_pass", "un_pass", "post_pass"};
  const ast::NodePtr* cur = &n;
  for (;;) {
    bool advanced = false;
    for (auto c : chains)
      if ((*cur)->is(c)) {
        cur = &(*cur)->child(0);
        advanced = true;
        break;
      }
    if (!advanced) return *cur;
  }
}

/// Assigns `src` (already coerced) into a declared variable.
void storeToVar(Sema& s, VarInfo* v, ExprRes src) {
  if (src.bad()) return;
  s.emit(ir::assign(v->slots[0], std::move(src.code)));
}

/// Tuple-literal node (bare or alt syntax), or null.
bool isTupleLiteral(const ast::NodePtr& n) {
  return n->is("prim_tuple") || n->is("aprim_tuple");
}

/// Elements of a tuple literal: '(' Expr ',' ExprList ')'.
std::vector<ast::NodePtr> tupleLiteralElems(const ast::NodePtr& n) {
  std::vector<ast::NodePtr> out;
  out.push_back(n->child(1));
  for (auto& e : exprListElems(n->child(3))) out.push_back(e);
  return out;
}

/// Lowers RHS values of tuple type into destination slots. Handles:
/// tuple-returning calls, tuple variables, and tuple literals.
void assignTupleInto(Sema& s, const std::vector<Type>& dstTypes,
                     const std::vector<int32_t>& dstSlots,
                     const ast::NodePtr& rhs) {
  const ast::NodePtr& r = significant(rhs);

  if (isTupleLiteral(r)) {
    auto elems = tupleLiteralElems(r);
    if (elems.size() != dstTypes.size()) {
      s.error(rhs->range, "tuple arity mismatch: expected " +
                              std::to_string(dstTypes.size()) + " elements, "
                              "found " + std::to_string(elems.size()));
      return;
    }
    // Evaluate into temporaries first ((a, b) = (b, a) must swap).
    std::vector<int32_t> tmps;
    for (size_t i = 0; i < elems.size(); ++i) {
      ExprRes e = s.coerce(s.expr(elems[i]), dstTypes[i], elems[i]->range);
      if (e.bad()) return;
      int32_t t = s.newTemp(dstTypes[i]);
      s.emit(ir::assign(t, std::move(e.code)));
      tmps.push_back(t);
    }
    for (size_t i = 0; i < tmps.size(); ++i)
      s.emit(ir::assign(dstSlots[i],
                        ir::var(tmps[i], Sema::lowerTy(dstTypes[i]))));
    return;
  }

  if (r->is("post_call")) {
    std::string callee(Sema::idText(r->child(0)));
    const FuncSig* sig = callee.empty() ? nullptr : s.findFunction(callee);
    if (sig && sig->rets.size() == dstTypes.size() && sig->rets.size() > 1) {
      // Direct multi-value call.
      std::vector<ir::ExprPtr> args;
      std::vector<ast::NodePtr> argNodes;
      if (r->child(2)->is("argsopt_some"))
        argNodes = exprListElems(r->child(2)->child(0));
      if (argNodes.size() != sig->params.size()) {
        s.error(r->range, "call to '" + callee + "': expected " +
                              std::to_string(sig->params.size()) +
                              " arguments, found " +
                              std::to_string(argNodes.size()));
        return;
      }
      for (size_t i = 0; i < argNodes.size(); ++i) {
        ExprRes a =
            s.coerce(s.expr(argNodes[i]), sig->params[i], argNodes[i]->range);
        if (a.bad()) return;
        args.push_back(std::move(a.code));
      }
      for (size_t i = 0; i < dstTypes.size(); ++i) {
        if (sig->rets[i] != dstTypes[i]) {
          s.error(rhs->range, "tuple element " + std::to_string(i) +
                                  ": cannot assign " + sig->rets[i].str() +
                                  " to " + dstTypes[i].str());
          return;
        }
      }
      s.emit(ir::callAssign(dstSlots, callee, std::move(args)));
      return;
    }
  }

  // Tuple variable?
  std::string name(Sema::idText(r));
  if (!name.empty()) {
    VarInfo* v = s.lookupVar(name);
    if (v && v->type.k == Type::K::Tuple) {
      if (v->type.elems != dstTypes) {
        s.error(rhs->range, "cannot assign " + v->type.str() + " here");
        return;
      }
      for (size_t i = 0; i < dstSlots.size(); ++i)
        s.emit(ir::assign(dstSlots[i],
                          ir::var(v->slots[i], Sema::lowerTy(dstTypes[i]))));
      return;
    }
  }

  s.error(rhs->range,
          "the right-hand side of a tuple assignment must be a tuple "
          "literal, a tuple variable, or a call to a tuple-returning "
          "function");
}

// --- calls ----------------------------------------------------------------

ExprRes lowerCall(Sema& s, const ast::NodePtr& n) {
  // post_call: Postfix ( ArgsOpt )
  std::string callee(Sema::idText(n->child(0)));
  if (callee.empty()) {
    s.error(n->range, "called expression is not a function name");
    return ExprRes::error();
  }
  std::vector<ast::NodePtr> argNodes;
  if (n->child(2)->is("argsopt_some"))
    argNodes = exprListElems(n->child(2)->child(0));

  // Builtins first (extensions register these).
  if (s.hasBuiltin(callee)) {
    std::vector<ExprRes> args;
    for (auto& a : argNodes) args.push_back(s.expr(a));
    // The builtin handler reports its own errors.
    return s.builtinCall(callee, n, std::move(args));
  }

  const FuncSig* sig = s.findFunction(callee);
  if (!sig) {
    s.error(n->range, "call to undeclared function '" + callee + "'");
    return ExprRes::error();
  }
  if (argNodes.size() != sig->params.size()) {
    s.error(n->range, "call to '" + callee + "': expected " +
                          std::to_string(sig->params.size()) +
                          " arguments, found " +
                          std::to_string(argNodes.size()));
    return ExprRes::error();
  }
  std::vector<ir::ExprPtr> args;
  for (size_t i = 0; i < argNodes.size(); ++i) {
    ExprRes a =
        s.coerce(s.expr(argNodes[i]), sig->params[i], argNodes[i]->range);
    if (a.bad()) return ExprRes::error();
    args.push_back(std::move(a.code));
  }

  if (sig->rets.empty()) {
    s.emit(ir::callAssign({}, callee, std::move(args)));
    return {Type::voidTy(), ir::constI(0)};
  }
  if (sig->rets.size() > 1) {
    s.error(n->range, "tuple-returning function '" + callee +
                          "' must be destructured with (a, b, ...) = " +
                          callee + "(...)");
    return ExprRes::error();
  }
  int32_t tmp = s.newTemp(sig->rets[0], "call");
  s.emit(ir::callAssign({tmp}, callee, std::move(args)));
  return {sig->rets[0], ir::var(tmp, Sema::lowerTy(sig->rets[0]))};
}

// --- for-loop canonicalization -----------------------------------------

/// Matches `for (int i = LO; i < HI; i++)` / `for (i = LO; i < HI; i++)`.
struct CanonicalFor {
  bool ok = false;
  std::string var;
  bool declares = false;
  ast::NodePtr lo, hi;
};

CanonicalFor matchCanonicalFor(const ast::NodePtr& init,
                               const ast::NodePtr& cond,
                               const ast::NodePtr& step) {
  CanonicalFor c;
  if (init->is("forinit_decl")) {
    if (!init->child(0)->is("ty_int")) return c;
    c.var = std::string(init->child(1)->text());
    c.declares = true;
    c.lo = init->child(3);
  } else if (init->is("forinit_assign")) {
    std::string v(Sema::idText(init->child(0)));
    if (v.empty()) return c;
    c.var = v;
    c.lo = init->child(2);
  } else {
    return c;
  }
  const ast::NodePtr& cc = significant(cond);
  if (!cc->is("cmp_lt")) return c;
  if (std::string(Sema::idText(cc->child(0))) != c.var) return c;
  c.hi = cc->child(2);
  if (!step->is("forstep_inc")) return c;
  if (std::string(Sema::idText(step->child(0))) != c.var) return c;
  c.ok = true;
  return c;
}

void lowerFor(Sema& s, const ast::NodePtr& n) {
  // closed_for/open_for: for ( ForInit ; Expr ; ForStep ) Body
  const ast::NodePtr& init = n->child(2);
  const ast::NodePtr& cond = n->child(4);
  const ast::NodePtr& step = n->child(6);
  const ast::NodePtr& body = n->child(8);

  s.pushScope();
  CanonicalFor c = matchCanonicalFor(init, cond, step);
  if (c.ok) {
    ExprRes lo = s.coerce(s.expr(c.lo), Type::intTy(), c.lo->range);
    ExprRes hi = s.coerce(s.expr(c.hi), Type::intTy(), c.hi->range);
    int32_t slot;
    if (c.declares) {
      VarInfo* v = s.declareVar(c.var, Type::intTy(), init->range);
      slot = v->slots[0];
    } else {
      VarInfo* v = s.lookupVar(c.var);
      if (!v || v->type.k != Type::K::Int) {
        s.error(init->range, "for-loop variable '" + c.var +
                                 "' must be a declared int");
        s.popScope();
        return;
      }
      slot = v->slots[0];
    }
    if (!lo.bad() && !hi.bad()) {
      s.pushBlock();
      s.stmt(body);
      ir::StmtPtr b = s.popBlock();
      s.emit(ir::forLoop(slot, std::move(lo.code), std::move(hi.code),
                         std::move(b), c.var));
    }
    s.popScope();
    return;
  }

  // General form: init; while (cond) { body; step; }. `continue` would
  // skip the step here, so it is rejected in non-canonical for-loops.
  if (ast::findFirst(body, "simple_continue"))
    s.error(body->range,
            "continue is only supported in canonical for-loops "
            "(for (int i = lo; i < hi; i++))");

  if (init->is("forinit_decl")) {
    Type t = s.typeExpr(init->child(0));
    VarInfo* v = s.declareVar(std::string(init->child(1)->text()), t,
                              init->range);
    ExprRes e = s.coerce(s.expr(init->child(3)), t, init->range);
    if (!e.bad()) storeToVar(s, v, std::move(e));
  } else {
    std::string v(Sema::idText(init->child(0)));
    VarInfo* vi = v.empty() ? nullptr : s.lookupVar(v);
    if (!vi) {
      s.error(init->range, "for-loop init assigns to an unknown variable");
    } else {
      ExprRes e = s.coerce(s.expr(init->child(2)), vi->type, init->range);
      if (!e.bad()) storeToVar(s, vi, std::move(e));
    }
  }
  ExprRes condE = s.coerce(s.expr(cond), Type::boolTy(), cond->range);
  if (condE.bad()) {
    s.popScope();
    return;
  }
  s.pushBlock();
  s.stmt(body);
  // step
  if (step->is("forstep_inc") || step->is("forstep_dec")) {
    std::string v(Sema::idText(step->child(0)));
    VarInfo* vi = v.empty() ? nullptr : s.lookupVar(v);
    if (vi && vi->type.k == Type::K::Int) {
      s.emit(ir::assign(
          vi->slots[0],
          ir::arith(step->is("forstep_inc") ? ir::ArithOp::Add
                                            : ir::ArithOp::Sub,
                    ir::var(vi->slots[0], ir::Ty::I32), ir::constI(1),
                    ir::Ty::I32)));
    } else {
      s.error(step->range, "for-step must increment a declared int");
    }
  } else { // forstep_assign
    std::string v(Sema::idText(step->child(0)));
    VarInfo* vi = v.empty() ? nullptr : s.lookupVar(v);
    if (!vi) {
      s.error(step->range, "for-step assigns to an unknown variable");
    } else {
      ExprRes e = s.coerce(s.expr(step->child(2)), vi->type, step->range);
      if (!e.bad()) storeToVar(s, vi, std::move(e));
    }
  }
  ir::StmtPtr b = s.popBlock();
  s.emit(ir::whileLoop(std::move(condE.code), std::move(b)));
  s.popScope();
}

} // namespace

void installHostSemantics(Sema& s) {
  // ---- types ----------------------------------------------------------
  s.defineType("ty_int",
               [](Sema&, const ast::NodePtr&) { return Type::intTy(); },
               kExt);
  s.defineType("ty_float",
               [](Sema&, const ast::NodePtr&) { return Type::floatTy(); },
               kExt);
  s.defineType("ty_bool",
               [](Sema&, const ast::NodePtr&) { return Type::boolTy(); },
               kExt);
  s.defineType("retty_type", [](Sema& s2, const ast::NodePtr& n) {
    return s2.typeExpr(n->child(0));
  }, kExt);

  // ---- pass-through chains ---------------------------------------------
  for (const char* p : {"expr_pass", "or_pass", "and_pass", "cmp_pass",
                        "add_pass", "mul_pass", "un_pass", "post_pass"})
    passExpr(s, p);
  for (const char* p : {"stmt_open", "stmt_closed", "closed_simple",
                        "simple_block"})
    passStmt(s, p);

  // ---- literals & identifiers -------------------------------------------
  s.defineExpr("prim_int", [](Sema&, const ast::NodePtr& n) {
    return ExprRes{Type::intTy(),
                   ir::constI(static_cast<int32_t>(
                       std::stoll(std::string(n->child(0)->text()))))};
  }, kExt);
  s.defineExpr("prim_float", [](Sema&, const ast::NodePtr& n) {
    return ExprRes{Type::floatTy(),
                   ir::constF(std::stof(std::string(n->child(0)->text())))};
  }, kExt);
  s.defineExpr("prim_true", [](Sema&, const ast::NodePtr&) {
    return ExprRes{Type::boolTy(), ir::constB(true)};
  }, kExt);
  s.defineExpr("prim_false", [](Sema&, const ast::NodePtr&) {
    return ExprRes{Type::boolTy(), ir::constB(false)};
  }, kExt);
  s.defineExpr("prim_str", [](Sema&, const ast::NodePtr& n) {
    std::string raw(n->child(0)->text());
    std::string out;
    for (size_t i = 1; i + 1 < raw.size(); ++i) {
      if (raw[i] == '\\' && i + 2 < raw.size()) {
        ++i;
        switch (raw[i]) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          default: out += raw[i];
        }
      } else {
        out += raw[i];
      }
    }
    return ExprRes{Type::strTy(), ir::constS(std::move(out))};
  }, kExt);
  s.defineExpr("prim_id", [](Sema& s2, const ast::NodePtr& n) {
    std::string name(n->child(0)->text());
    VarInfo* v = s2.lookupVar(name);
    if (!v) {
      s2.error(n->range, "use of undeclared variable '" + name + "'");
      return ExprRes::error();
    }
    if (v->type.k == Type::K::Tuple) {
      s2.error(n->range, "tuple variable '" + name +
                             "' can only be destructured or returned");
      return ExprRes::error();
    }
    return ExprRes{v->type, ir::var(v->slots[0], Sema::lowerTy(v->type))};
  }, kExt);
  s.defineExpr("prim_paren", [](Sema& s2, const ast::NodePtr& n) {
    return s2.expr(n->child(1));
  }, kExt);

  // Range literal (lo :: hi): inclusive 1-D int matrix — syntax carried by
  // the host, meaning defined here since it is type-closed.
  s.defineExpr("prim_range", [](Sema& s2, const ast::NodePtr& n) {
    ExprRes lo = s2.coerce(s2.expr(n->child(1)), Type::intTy(),
                           n->child(1)->range);
    ExprRes hi = s2.coerce(s2.expr(n->child(3)), Type::intTy(),
                           n->child(3)->range);
    if (lo.bad() || hi.bad()) return ExprRes::error();
    auto e = std::make_unique<ir::Expr>();
    e->k = ir::Expr::K::RangeLit;
    e->ty = ir::Ty::Mat;
    e->args.push_back(std::move(lo.code));
    e->args.push_back(std::move(hi.code));
    return ExprRes{Type::matrix(rt::Elem::I32, 1), std::move(e)};
  }, kExt);

  // ---- operators ----------------------------------------------------------
  binOp(s, "add_add", ir::ArithOp::Add);
  binOp(s, "add_sub", ir::ArithOp::Sub);
  binOp(s, "mul_mul", ir::ArithOp::Mul);
  binOp(s, "mul_div", ir::ArithOp::Div);
  binOp(s, "mul_mod", ir::ArithOp::Mod);
  cmpOp(s, "cmp_lt", ir::CmpKind::Lt);
  cmpOp(s, "cmp_le", ir::CmpKind::Le);
  cmpOp(s, "cmp_gt", ir::CmpKind::Gt);
  cmpOp(s, "cmp_ge", ir::CmpKind::Ge);
  cmpOp(s, "cmp_eq", ir::CmpKind::Eq);
  cmpOp(s, "cmp_ne", ir::CmpKind::Ne);

  s.defineExpr("or_or", [](Sema& s2, const ast::NodePtr& n) {
    ExprRes a = s2.coerce(s2.expr(n->child(0)), Type::boolTy(), n->range);
    ExprRes b = s2.coerce(s2.expr(n->child(2)), Type::boolTy(), n->range);
    if (a.bad() || b.bad()) return ExprRes::error();
    return ExprRes{Type::boolTy(), ir::logic(ir::LogicOp::Or,
                                             std::move(a.code),
                                             std::move(b.code))};
  }, kExt);
  s.defineExpr("and_and", [](Sema& s2, const ast::NodePtr& n) {
    ExprRes a = s2.coerce(s2.expr(n->child(0)), Type::boolTy(), n->range);
    ExprRes b = s2.coerce(s2.expr(n->child(2)), Type::boolTy(), n->range);
    if (a.bad() || b.bad()) return ExprRes::error();
    return ExprRes{Type::boolTy(), ir::logic(ir::LogicOp::And,
                                             std::move(a.code),
                                             std::move(b.code))};
  }, kExt);

  s.defineExpr("un_neg", [](Sema& s2, const ast::NodePtr& n) {
    ExprRes a = s2.expr(n->child(1));
    if (a.bad()) return ExprRes::error();
    if (a.type.isMatrix())
      return ExprRes{a.type, ir::negE(std::move(a.code), ir::Ty::Mat)};
    if (!a.type.isScalarNumeric()) {
      s2.error(n->range, "unary '-' needs a numeric operand, found " +
                             a.type.str());
      return ExprRes::error();
    }
    return ExprRes{a.type,
                   ir::negE(std::move(a.code), Sema::lowerTy(a.type))};
  }, kExt);
  s.defineExpr("un_not", [](Sema& s2, const ast::NodePtr& n) {
    ExprRes a = s2.coerce(s2.expr(n->child(1)), Type::boolTy(), n->range);
    if (a.bad()) return ExprRes::error();
    return ExprRes{Type::boolTy(), ir::notE(std::move(a.code))};
  }, kExt);
  s.defineExpr("un_cast", [](Sema& s2, const ast::NodePtr& n) {
    Type to = s2.typeExpr(n->child(1));
    ExprRes a = s2.expr(n->child(3));
    if (a.bad() || to.isError()) return ExprRes::error();
    if (!to.isScalar() || !a.type.isScalar()) {
      s2.error(n->range, "cast from " + a.type.str() + " to " + to.str() +
                             " is not supported");
      return ExprRes::error();
    }
    return ExprRes{to, ir::cast(Sema::lowerTy(to), std::move(a.code))};
  }, kExt);

  s.defineExpr("post_call", lowerCall, kExt);

  // Indexing syntax is carried by the host but given meaning by the
  // matrix/refcount extensions (they re-register this production).
  s.defineExpr("post_index", [](Sema& s2, const ast::NodePtr& n) {
    ExprRes base = s2.expr(n->child(0));
    if (base.bad()) return ExprRes::error();
    s2.error(n->range, "no composed extension defines indexing for type " +
                           base.type.str());
    return ExprRes::error();
  }, kExt);

  // ---- statements ----------------------------------------------------------
  s.defineStmt("block", [](Sema& s2, const ast::NodePtr& n) {
    s2.pushScope();
    s2.stmt(n->child(1));
    s2.popScope();
  }, kExt);
  s.defineStmt("block_empty", [](Sema&, const ast::NodePtr&) {}, kExt);
  s.defineStmt("stmtseq_one", [](Sema& s2, const ast::NodePtr& n) {
    s2.stmt(n->child(0));
  }, kExt);
  s.defineStmt("stmtseq_cons", [](Sema& s2, const ast::NodePtr& n) {
    s2.stmt(n->child(0));
    s2.stmt(n->child(1));
  }, kExt);

  auto vardecl = [](Sema& s2, const ast::NodePtr& n) {
    Type t = s2.typeExpr(n->child(0));
    std::string name(n->child(1)->text());
    VarInfo* v = s2.declareVar(name, t, n->range);
    bool hasInit = n->arity() == 5;
    if (t.k == Type::K::Tuple) {
      if (hasInit) assignTupleInto(s2, t.elems, v->slots, n->child(3));
      return;
    }
    if (hasInit) {
      ExprRes e = s2.coerce(s2.expr(n->child(3)), t, n->child(3)->range);
      if (!e.bad()) storeToVar(s2, v, std::move(e));
    } else if (t.isMatrix()) {
      // Matrices have no usable default value; requiring initialization
      // catches use-before-init at compile time.
      s2.error(n->range,
               "matrix variable '" + name + "' must be initialized");
    }
  };
  s.defineStmt("simple_vardecl_init", vardecl, kExt);
  s.defineStmt("simple_vardecl", vardecl, kExt);

  s.defineStmt("simple_assign", [](Sema& s2, const ast::NodePtr& n) {
    const ast::NodePtr& lhs = n->child(0);
    const ast::NodePtr& rhs = n->child(2);
    if (s2.tryAssignHooks(lhs, rhs)) return;

    const ast::NodePtr& l = significant(lhs);
    if (isTupleLiteral(l)) {
      // (a, b, c) = ... destructuring.
      std::vector<Type> types;
      std::vector<int32_t> slots;
      for (auto& e : tupleLiteralElems(l)) {
        std::string name(Sema::idText(e));
        VarInfo* v = name.empty() ? nullptr : s2.lookupVar(name);
        if (!v) {
          s2.error(e->range,
                   "destructuring targets must be declared variables");
          return;
        }
        if (v->type.k == Type::K::Tuple) {
          s2.error(e->range, "cannot destructure into a tuple variable");
          return;
        }
        types.push_back(v->type);
        slots.push_back(v->slots[0]);
      }
      assignTupleInto(s2, types, slots, rhs);
      return;
    }

    std::string name(Sema::idText(l));
    if (!name.empty()) {
      VarInfo* v = s2.lookupVar(name);
      if (!v) {
        s2.error(l->range, "assignment to undeclared variable '" + name +
                               "'");
        return;
      }
      if (v->type.k == Type::K::Tuple) {
        assignTupleInto(s2, v->type.elems, v->slots, rhs);
        return;
      }
      ExprRes e = s2.coerce(s2.expr(rhs), v->type, rhs->range);
      if (!e.bad()) storeToVar(s2, v, std::move(e));
      return;
    }
    s2.error(lhs->range, "expression is not assignable");
  }, kExt);

  s.defineStmt("simple_expr", [](Sema& s2, const ast::NodePtr& n) {
    const ast::NodePtr& e = significant(n->child(0));
    if (e->is("post_call")) {
      ExprRes r = s2.expr(e);
      // Value-returning builtins used as statements still run for their
      // effects; discard pure results.
      if (!r.bad() && r.code && r.code->k == ir::Expr::K::Call)
        s2.emit(ir::callStmt(std::move(r.code)));
      return;
    }
    ExprRes r = s2.expr(n->child(0));
    (void)r; // pure expression statement: checked, then dropped
  }, kExt);

  auto incdec = [](Sema& s2, const ast::NodePtr& n) {
    std::string name(Sema::idText(n->child(0)));
    VarInfo* v = name.empty() ? nullptr : s2.lookupVar(name);
    if (!v || v->type.k != Type::K::Int) {
      s2.error(n->range, "++/-- needs a declared int variable");
      return;
    }
    bool inc = n->is("simple_inc") || n->is("forstep_inc");
    s2.emit(ir::assign(
        v->slots[0],
        ir::arith(inc ? ir::ArithOp::Add : ir::ArithOp::Sub,
                  ir::var(v->slots[0], ir::Ty::I32), ir::constI(1),
                  ir::Ty::I32)));
  };
  s.defineStmt("simple_inc", incdec, kExt);
  s.defineStmt("simple_dec", incdec, kExt);

  s.defineStmt("simple_ret_void", [](Sema& s2, const ast::NodePtr& n) {
    if (!s2.currentRets().empty()) {
      s2.error(n->range, "non-void function must return a value");
      return;
    }
    s2.emit(ir::ret({}));
  }, kExt);
  s.defineStmt("simple_ret", [](Sema& s2, const ast::NodePtr& n) {
    const auto& rets = s2.currentRets();
    if (rets.empty()) {
      s2.error(n->range, "void function cannot return a value");
      return;
    }
    const ast::NodePtr& rhs = n->child(1);
    if (rets.size() > 1) {
      // Tuple return: evaluate into temps, then return them.
      std::vector<int32_t> tmps;
      for (const Type& t : rets) tmps.push_back(s2.newTemp(t, "ret"));
      assignTupleInto(s2, rets, tmps, rhs);
      std::vector<ir::ExprPtr> vals;
      for (size_t i = 0; i < rets.size(); ++i)
        vals.push_back(ir::var(tmps[i], Sema::lowerTy(rets[i])));
      s2.emit(ir::ret(std::move(vals)));
      return;
    }
    ExprRes e = s2.coerce(s2.expr(rhs), rets[0], rhs->range);
    if (e.bad()) return;
    std::vector<ir::ExprPtr> vals;
    vals.push_back(std::move(e.code));
    s2.emit(ir::ret(std::move(vals)));
  }, kExt);

  s.defineStmt("simple_break", [](Sema& s2, const ast::NodePtr&) {
    auto b = std::make_unique<ir::Stmt>();
    b->k = ir::Stmt::K::Break;
    s2.emit(std::move(b));
  }, kExt);
  s.defineStmt("simple_continue", [](Sema& s2, const ast::NodePtr&) {
    auto c = std::make_unique<ir::Stmt>();
    c->k = ir::Stmt::K::Continue;
    s2.emit(std::move(c));
  }, kExt);

  auto ifHandler = [](Sema& s2, const ast::NodePtr& n) {
    ExprRes cond = s2.coerce(s2.expr(n->child(2)), Type::boolTy(),
                             n->child(2)->range);
    bool hasElse = n->arity() > 5;
    if (cond.bad()) return;
    s2.pushBlock();
    s2.pushScope();
    s2.stmt(n->child(4));
    s2.popScope();
    ir::StmtPtr thenB = s2.popBlock();
    ir::StmtPtr elseB;
    if (hasElse) {
      s2.pushBlock();
      s2.pushScope();
      s2.stmt(n->child(6));
      s2.popScope();
      elseB = s2.popBlock();
    }
    s2.emit(ir::ifStmt(std::move(cond.code), std::move(thenB),
                       std::move(elseB)));
  };
  s.defineStmt("open_if", ifHandler, kExt);
  s.defineStmt("open_ifelse", ifHandler, kExt);
  s.defineStmt("closed_ifelse", ifHandler, kExt);

  auto whileHandler = [](Sema& s2, const ast::NodePtr& n) {
    ExprRes cond = s2.coerce(s2.expr(n->child(2)), Type::boolTy(),
                             n->child(2)->range);
    if (cond.bad()) return;
    s2.pushBlock();
    s2.pushScope();
    s2.stmt(n->child(4));
    s2.popScope();
    ir::StmtPtr body = s2.popBlock();
    s2.emit(ir::whileLoop(std::move(cond.code), std::move(body)));
  };
  s.defineStmt("closed_while", whileHandler, kExt);
  s.defineStmt("open_while", whileHandler, kExt);

  s.defineStmt("closed_for", lowerFor, kExt);
  s.defineStmt("open_for", lowerFor, kExt);

  // ---- host builtins ------------------------------------------------------
  auto print1 = [](ir::Builtin b, Type want) {
    return [b, want](Sema& s2, const ast::NodePtr& n,
                     std::vector<ExprRes> args) -> ExprRes {
      if (args.size() != 1 || args[0].bad()) {
        if (args.size() != 1)
          s2.error(n->range, std::string(ir::builtinInfo(b).name) +
                                 " takes one argument");
        return ExprRes::error();
      }
      ExprRes a = s2.coerce(std::move(args[0]), want, n->range);
      if (a.bad()) return ExprRes::error();
      std::vector<ir::ExprPtr> irArgs;
      irArgs.push_back(std::move(a.code));
      return ExprRes{Type::voidTy(), ir::call(b, std::move(irArgs))};
    };
  };
  s.defineBuiltin("printInt", print1(ir::Builtin::PrintInt, Type::intTy()));
  s.defineBuiltin("printFloat",
                  print1(ir::Builtin::PrintFloat, Type::floatTy()));
  s.defineBuiltin("printBool", print1(ir::Builtin::PrintBool, Type::boolTy()));
  s.defineBuiltin("printStr", print1(ir::Builtin::PrintStr, Type::strTy()));
  // ---- tuple syntax semantics (packaged with the host, §VI-A) -----------
  auto tupleTypeH = [](Sema& s2, const ast::NodePtr& n) {
    // ty_tuple: ( TypeList )  /  aty_tuple: (| ATypeList |)
    std::vector<Type> elems;
    std::function<void(const ast::NodePtr&)> walk =
        [&](const ast::NodePtr& tl) {
          if (tl->is("typelist_two") || tl->is("atypelist_two")) {
            elems.push_back(s2.typeExpr(tl->child(0)));
            elems.push_back(s2.typeExpr(tl->child(2)));
          } else { // *_cons
            walk(tl->child(0));
            elems.push_back(s2.typeExpr(tl->child(2)));
          }
        };
    walk(n->child(1));
    for (const Type& t : elems)
      if (t.k == Type::K::Tuple) {
        s2.error(n->range, "nested tuple types are not supported");
        return Type::error();
      }
    return Type::tuple(std::move(elems));
  };
  s.defineType("ty_tuple", tupleTypeH, "tuple");
  s.defineType("aty_tuple", tupleTypeH, "tuple_alt");

  auto tupleExprErr = [](Sema& s2, const ast::NodePtr& n) {
    s2.error(n->range,
             "tuple expressions may only appear as destructuring targets, "
             "initializers of tuple variables, or return values");
    return ExprRes::error();
  };
  s.defineExpr("prim_tuple", tupleExprErr, "tuple");
  s.defineExpr("aprim_tuple", tupleExprErr, "tuple_alt");

  s.defineBuiltin("numThreads",
                  [](Sema& s2, const ast::NodePtr& n,
                     std::vector<ExprRes> args) -> ExprRes {
                    if (!args.empty()) {
                      s2.error(n->range, "numThreads takes no arguments");
                      return ExprRes::error();
                    }
                    return ExprRes{Type::intTy(),
                                   ir::call(ir::Builtin::NumThreads, {})};
                  });
}

} // namespace mmx::cm
