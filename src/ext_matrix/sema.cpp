// Semantic analysis and lowering of the matrix extension. With-loops
// expand into annotated for-loop nests (the approximate translation of
// Fig. 3); the §III-A4 optimizations — with-loop/assignment fusion and
// fold slice elimination — and §III-C auto-parallelization are applied
// here, each behind a Sema option so the benches can ablate them.
#include <functional>

#include "cminus/sema.hpp"
#include "ext_matrix/matrix_ext.hpp"
#include "support/metrics.hpp"

namespace mmx::ext_matrix {

using cm::ExprRes;
using cm::Sema;
using cm::Type;
using cm::VarInfo;

namespace {

constexpr const char* kExt = "matrix";

// Optimization counters (§III-A4/§III-C): how often each rewrite fired
// during lowering. Only touched when metrics are on.
void countOpt(const char* which) {
  if (!metrics::enabled()) return;
  metrics::counter(which).add();
}

// --- local tree helpers (mirrors host_sema's internal ones) ---------------

std::vector<ast::NodePtr> listElems(const ast::NodePtr& n,
                                    std::string_view consName,
                                    std::string_view oneName) {
  std::vector<ast::NodePtr> stack;
  ast::NodePtr node = n;
  while (node->is(consName)) {
    stack.push_back(node->kids.back());
    node = node->child(0);
  }
  std::vector<ast::NodePtr> out;
  if (node->is(oneName))
    out.push_back(node->child(0));
  else
    out.push_back(node);
  for (auto it = stack.rbegin(); it != stack.rend(); ++it) out.push_back(*it);
  return out;
}

std::vector<ast::NodePtr> exprListElems(const ast::NodePtr& n) {
  return listElems(n, "exprlist_cons", "exprlist_one");
}
std::vector<ast::NodePtr> idListElems(const ast::NodePtr& n) {
  return listElems(n, "midlist_cons", "midlist_one");
}
std::vector<ast::NodePtr> indexListElems(const ast::NodePtr& n) {
  return listElems(n, "indexlist_cons", "indexlist_one");
}

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

/// Materializes an expression into a slot (no-op for plain variables).
int32_t materialize(Sema& s, ExprRes& e, const char* hint) {
  if (e.code->k == ir::Expr::K::Var) return e.code->slot;
  int32_t slot = s.newTemp(e.type, hint);
  s.emit(ir::assign(slot, std::move(e.code)));
  e.code = ir::var(slot, Sema::lowerTy(e.type));
  return slot;
}

/// Evaluates an int expression into a fresh slot; returns the slot.
int32_t intTemp(Sema& s, const ast::NodePtr& n, const char* hint,
                bool& okFlag) {
  ExprRes e = s.coerce(s.expr(n), Type::intTy(), n->range);
  if (e.bad()) {
    okFlag = false;
    return -1;
  }
  int32_t slot = s.newTemp(Type::intTy(), hint);
  s.emit(ir::assign(slot, std::move(e.code)));
  return slot;
}

// --- matrix type handling -------------------------------------------------

rt::Elem elemOfNode(const ast::NodePtr& elemTy) {
  if (elemTy->is("melem_int")) return rt::Elem::I32;
  if (elemTy->is("melem_bool")) return rt::Elem::Bool;
  return rt::Elem::F32;
}

// --- operator hooks (overloading, §III-A2) ------------------------------

/// True when the type participates in matrix arithmetic.
bool matLike(const Type& t) { return t.isMatrix(); }

/// Promotes an int matrix to float (MATLAB-style widening when combined
/// with a float scalar), in place.
void promoteMatToFloat(ExprRes& m) {
  std::vector<ir::ExprPtr> args;
  args.push_back(std::move(m.code));
  m.code = ir::call(ir::Builtin::MatToFloat, std::move(args));
  m.type = Type::matrix(rt::Elem::F32, m.type.rank);
}

std::optional<ExprRes> matrixBin(Sema& s, ir::ArithOp op, ExprRes& a,
                                 ExprRes& b, SourceRange r) {
  if (!matLike(a.type) && !matLike(b.type)) return std::nullopt;
  auto err = [&](const std::string& m) {
    s.error(r, m);
    return std::optional<ExprRes>(ExprRes::error());
  };
  if (a.type.k == Type::K::MatrixAny || b.type.k == Type::K::MatrixAny)
    return err("assign the result of readMatrix to a typed Matrix variable "
               "before using it in arithmetic");

  if (matLike(a.type) && matLike(b.type)) {
    if (a.type.elem == rt::Elem::Bool || b.type.elem == rt::Elem::Bool)
      return err("arithmetic on bool matrices is not defined");
    if (a.type.elem != b.type.elem)
      return err("matrix operands must have the same element type: " +
                 a.type.str() + " vs " + b.type.str());
    if (op == ir::ArithOp::Mul) {
      // Linear-algebra multiplication (paper: '*' is matrix multiply).
      if (a.type.rank != 2 || b.type.rank != 2)
        return err("matrix multiplication '*' needs two rank-2 matrices; "
                   "use '.*' for element-wise multiplication");
      return ExprRes{Type::matrix(a.type.elem, 2),
                     ir::arith(op, std::move(a.code), std::move(b.code),
                               ir::Ty::Mat)};
    }
    if (a.type.rank != b.type.rank)
      return err("element-wise operator needs matrices of the same rank: " +
                 a.type.str() + " vs " + b.type.str());
    return ExprRes{a.type, ir::arith(op, std::move(a.code),
                                     std::move(b.code), ir::Ty::Mat)};
  }

  // Matrix (op) scalar / scalar (op) matrix broadcast.
  ExprRes& m = matLike(a.type) ? a : b;
  ExprRes& sc = matLike(a.type) ? b : a;
  if (m.type.elem == rt::Elem::Bool)
    return err("arithmetic on bool matrices is not defined");
  if (m.type.elem == rt::Elem::I32 && sc.type.k == Type::K::Float)
    promoteMatToFloat(m); // int matrix + float scalar widens the matrix
  Type scalarWant = m.type.elementType();
  sc = s.coerce(std::move(sc), scalarWant, r);
  if (sc.bad()) return ExprRes::error();
  return ExprRes{m.type, ir::arith(op, std::move(a.code), std::move(b.code),
                                   ir::Ty::Mat)};
}

std::optional<ExprRes> matrixCmp(Sema& s, ir::CmpKind op, ExprRes& a,
                                 ExprRes& b, SourceRange r) {
  if (!matLike(a.type) && !matLike(b.type)) return std::nullopt;
  auto err = [&](const std::string& m) {
    s.error(r, m);
    return std::optional<ExprRes>(ExprRes::error());
  };
  if (a.type.k == Type::K::MatrixAny || b.type.k == Type::K::MatrixAny)
    return err("assign the result of readMatrix to a typed Matrix variable "
               "before comparing it");
  uint32_t rank;
  if (matLike(a.type) && matLike(b.type)) {
    if (a.type.elem != b.type.elem || a.type.rank != b.type.rank)
      return err("comparison needs matrices of the same type and rank: " +
                 a.type.str() + " vs " + b.type.str());
    rank = a.type.rank;
  } else {
    ExprRes& m = matLike(a.type) ? a : b;
    ExprRes& sc = matLike(a.type) ? b : a;
    if (m.type.elem == rt::Elem::Bool)
      return err("ordering comparisons on bool matrices are not defined");
    if (m.type.elem == rt::Elem::I32 && sc.type.k == Type::K::Float)
      promoteMatToFloat(m);
    sc = s.coerce(std::move(sc), m.type.elementType(), r);
    if (sc.bad()) return ExprRes::error();
    rank = m.type.rank;
  }
  return ExprRes{Type::matrix(rt::Elem::Bool, rank),
                 ir::cmp(op, std::move(a.code), std::move(b.code),
                         ir::Ty::Mat)};
}

// --- indexing (§III-A3) --------------------------------------------------

struct LoweredSelectors {
  std::vector<ir::IndexDim> dims;
  uint32_t keptRank = 0;
  bool allScalar = true;
  bool ok = false;
};

LoweredSelectors lowerSelectors(Sema& s, int32_t matSlot, const Type& matTy,
                                const std::vector<ast::NodePtr>& elems) {
  LoweredSelectors out;
  for (size_t d = 0; d < elems.size(); ++d) {
    const ast::NodePtr& e = elems[d];
    s.pushIndexCtx({matSlot, static_cast<uint32_t>(d), matTy});
    ir::IndexDim dim;
    if (e->is("ixe_all")) {
      dim.kind = ir::IndexDim::Kind::All;
      out.keptRank++;
      out.allScalar = false;
    } else if (e->is("ixe_range")) {
      ExprRes lo = s.coerce(s.expr(e->child(0)), Type::intTy(), e->range);
      ExprRes hi = s.coerce(s.expr(e->child(2)), Type::intTy(), e->range);
      if (lo.bad() || hi.bad()) {
        s.popIndexCtx();
        return out;
      }
      dim.kind = ir::IndexDim::Kind::Range;
      dim.a = std::move(lo.code);
      dim.b = std::move(hi.code);
      out.keptRank++;
      out.allScalar = false;
    } else { // ixe_expr
      ExprRes v = s.expr(e->child(0));
      if (v.bad()) {
        s.popIndexCtx();
        return out;
      }
      if (v.type.k == Type::K::Int) {
        dim.kind = ir::IndexDim::Kind::Scalar;
        dim.a = std::move(v.code);
      } else if (v.type.k == Type::K::Matrix &&
                 v.type.elem == rt::Elem::Bool && v.type.rank == 1) {
        dim.kind = ir::IndexDim::Kind::Mask;
        dim.a = std::move(v.code);
        out.keptRank++;
        out.allScalar = false;
      } else {
        s.error(e->range, "index selector must be an int or a rank-1 bool "
                          "matrix (logical indexing), found " +
                              v.type.str());
        s.popIndexCtx();
        return out;
      }
    }
    s.popIndexCtx();
    out.dims.push_back(std::move(dim));
  }
  out.ok = true;
  return out;
}

/// Row-major flat offset for all-scalar selectors:
/// ((i0 * d1 + i1) * d2 + i2) ... using runtime DimSize.
ir::ExprPtr flatOffset(int32_t matSlot, std::vector<ir::IndexDim>& dims) {
  ir::ExprPtr flat;
  for (size_t d = 0; d < dims.size(); ++d) {
    ir::ExprPtr idx = std::move(dims[d].a);
    if (!flat) {
      flat = std::move(idx);
    } else {
      flat = ir::arith(
          ir::ArithOp::Add,
          ir::arith(ir::ArithOp::Mul, std::move(flat),
                    ir::dimSize(ir::var(matSlot, ir::Ty::Mat),
                                ir::constI(static_cast<int32_t>(d))),
                    ir::Ty::I32),
          std::move(idx), ir::Ty::I32);
    }
  }
  return flat;
}

ExprRes lowerIndexExpr(Sema& s, const ast::NodePtr& n) {
  // post_index: Postfix [ IndexList ]
  ExprRes base = s.expr(n->child(0));
  if (base.bad()) return ExprRes::error();

  Type bt = base.type;
  uint32_t rank;
  rt::Elem elem;
  if (bt.k == Type::K::Matrix || bt.k == Type::K::RefPtr) {
    rank = bt.k == Type::K::RefPtr ? 1 : bt.rank;
    elem = bt.elem;
  } else if (bt.k == Type::K::MatrixAny) {
    s.error(n->range, "assign the result of readMatrix to a typed Matrix "
                      "variable before indexing it");
    return ExprRes::error();
  } else {
    s.error(n->range, "type " + bt.str() + " cannot be indexed");
    return ExprRes::error();
  }

  auto elems = indexListElems(n->child(2));
  if (elems.size() != rank) {
    s.error(n->range, "indexing a rank-" + std::to_string(rank) + " " +
                          bt.str() + " with " + std::to_string(elems.size()) +
                          " selectors");
    return ExprRes::error();
  }

  int32_t baseSlot = materialize(s, base, "mat");
  LoweredSelectors sel = lowerSelectors(s, baseSlot, bt, elems);
  if (!sel.ok) return ExprRes::error();

  if (sel.allScalar) {
    Type et = cm::scalarOfElem(elem);
    if (s.sliceEliminationEnabled) {
      // Direct flat load — the §III-A4 fast path (Fig. 3 uses exactly
      // this shape).
      countOpt("matrix.sliceElims");
      ir::ExprPtr flat = flatOffset(baseSlot, sel.dims);
      return ExprRes{et, ir::loadFlat(ir::var(baseSlot, ir::Ty::Mat),
                                      std::move(flat), Sema::lowerTy(et))};
    }
    // Unoptimized path: full selector machinery even for one element.
    auto e = std::make_unique<ir::Expr>();
    e->k = ir::Expr::K::Index;
    e->ty = Sema::lowerTy(et);
    e->args.push_back(ir::var(baseSlot, ir::Ty::Mat));
    e->dims = std::move(sel.dims);
    return ExprRes{et, std::move(e)};
  }

  auto e = std::make_unique<ir::Expr>();
  e->k = ir::Expr::K::Index;
  e->ty = ir::Ty::Mat;
  e->args.push_back(ir::var(baseSlot, ir::Ty::Mat));
  e->dims = std::move(sel.dims);
  return ExprRes{Type::matrix(elem, sel.keptRank), std::move(e)};
}

// --- with-loops (§III-A4) --------------------------------------------------

struct GeneratorInfo {
  bool ok = false;
  std::vector<int32_t> lo, hiEx; // slots: inclusive lower, exclusive upper
  std::vector<std::string> ids;
  std::vector<int32_t> ivars; // loop variable slots
};

GeneratorInfo lowerGenerator(Sema& s, const ast::NodePtr& gen) {
  GeneratorInfo g;
  auto lowers = exprListElems(gen->child(1));
  auto ids = idListElems(gen->child(5));
  auto uppers = exprListElems(gen->child(9));
  bool leftIncl = gen->child(3)->is("mrelb_le");
  bool rightExcl = gen->child(7)->is("mrelb_lt");

  if (lowers.size() != ids.size() || uppers.size() != ids.size()) {
    s.error(gen->range,
            "with-loop generator: the lower bound has " +
                std::to_string(lowers.size()) + " expressions, the upper " +
                std::to_string(uppers.size()) + ", but " +
                std::to_string(ids.size()) + " index variables are given");
    return g;
  }

  bool ok = true;
  for (size_t d = 0; d < ids.size(); ++d) {
    int32_t lo = intTemp(s, lowers[d], "wlo", ok);
    if (!ok) return g;
    if (!leftIncl) {
      s.emit(ir::assign(lo, ir::arith(ir::ArithOp::Add,
                                      ir::var(lo, ir::Ty::I32), ir::constI(1),
                                      ir::Ty::I32)));
    }
    int32_t hi = intTemp(s, uppers[d], "whi", ok);
    if (!ok) return g;
    if (!rightExcl) {
      s.emit(ir::assign(hi, ir::arith(ir::ArithOp::Add,
                                      ir::var(hi, ir::Ty::I32), ir::constI(1),
                                      ir::Ty::I32)));
    }
    g.lo.push_back(lo);
    g.hiEx.push_back(hi);
    g.ids.emplace_back(ids[d]->text());
  }
  g.ok = true;
  return g;
}

/// Wraps `body` into the generator's loop nest, innermost-first.
ir::StmtPtr buildNest(const GeneratorInfo& g, ir::StmtPtr body) {
  ir::StmtPtr cur = std::move(body);
  for (size_t d = g.ids.size(); d-- > 0;) {
    cur = ir::forLoop(g.ivars[d], ir::var(g.lo[d], ir::Ty::I32),
                      ir::var(g.hiEx[d], ir::Ty::I32), std::move(cur),
                      g.ids[d]);
  }
  return cur;
}

/// Applies the WithTail: auto-parallelize for the plain tail, or dispatch
/// to a registered transformation hook (paper §V).
ir::StmtPtr applyTail(Sema& s, const ast::NodePtr& tail, ir::StmtPtr nest,
                      bool allowAutoParallel) {
  if (tail->is("withtail_none")) {
    if (allowAutoParallel && s.autoParallelEnabled &&
        nest->k == ir::Stmt::K::For) {
      countOpt("matrix.autoParallel");
      nest->parallel = true;
      nest->parSrc = ir::Stmt::Par::Auto;
    }
    return nest;
  }
  auto it = s.extensionData.find(kWithTailHooksKey);
  if (it != s.extensionData.end()) {
    auto& hooks = *std::any_cast<WithTailHookMap>(&it->second);
    auto h = hooks.find(std::string(tail->kind()));
    if (h != hooks.end()) return h->second(s, tail, std::move(nest));
  }
  s.error(tail->range, "no transformation extension handles '" +
                           std::string(tail->kind()) + "'");
  return nest;
}

ir::ArithOp foldOpOf(const ast::NodePtr& n) {
  if (n->is("mfold_add")) return ir::ArithOp::Add;
  if (n->is("mfold_mul")) return ir::ArithOp::Mul;
  if (n->is("mfold_min")) return ir::ArithOp::Min;
  return ir::ArithOp::Max;
}

ExprRes lowerWith(Sema& s, const ast::NodePtr& n) {
  const ast::NodePtr& gen = n->child(2);
  const ast::NodePtr& op = n->child(4);

  GeneratorInfo g = lowerGenerator(s, gen);
  if (!g.ok) return ExprRes::error();
  size_t rank = g.ids.size();

  s.pushScope();
  for (size_t d = 0; d < rank; ++d) {
    VarInfo* v = s.declareVar(g.ids[d], Type::intTy(), gen->range);
    g.ivars.push_back(v->slots[0]);
  }

  ExprRes result = ExprRes::error();
  if (op->is("mwithop_genarray")) {
    auto shapeNodes = exprListElems(op->child(3));
    const ast::NodePtr& bodyNode = op->child(6);
    const ast::NodePtr& tail = op->child(8);
    if (shapeNodes.size() != rank) {
      s.error(op->range, "genarray shape has " +
                             std::to_string(shapeNodes.size()) +
                             " dimensions but the generator defines " +
                             std::to_string(rank) + " index variables");
      s.popScope();
      return ExprRes::error();
    }
    // Shape temps (evaluated outside the loop-variable scope visually,
    // but loop variables may not appear in them anyway per checking).
    bool ok = true;
    std::vector<int32_t> shape;
    for (auto& sn : shapeNodes) {
      shape.push_back(intTemp(s, sn, "wsh", ok));
      if (!ok) {
        s.popScope();
        return ExprRes::error();
      }
    }

    // Lower the element expression into the innermost loop body.
    s.pushBlock();
    ExprRes body = s.expr(bodyNode);
    if (body.bad() || !body.type.isScalar()) {
      if (!body.bad())
        s.error(bodyNode->range,
                "genarray element expression must be scalar, found " +
                    body.type.str());
      s.popBlock();
      s.popScope();
      return ExprRes::error();
    }
    rt::Elem elem = cm::elemOfScalar(body.type);
    Type resTy = Type::matrix(elem, static_cast<uint32_t>(rank));
    int32_t res = s.newTemp(resTy, "wres");

    // Flat offset over the *shape* dims: ((i0*s1)+i1)*s2 + ...
    ir::ExprPtr flat = ir::var(g.ivars[0], ir::Ty::I32);
    for (size_t d = 1; d < rank; ++d) {
      flat = ir::arith(
          ir::ArithOp::Add,
          ir::arith(ir::ArithOp::Mul, std::move(flat),
                    ir::var(shape[d], ir::Ty::I32), ir::Ty::I32),
          ir::var(g.ivars[d], ir::Ty::I32), ir::Ty::I32);
    }
    s.emit(ir::storeFlat(res, std::move(flat), std::move(body.code)));
    ir::StmtPtr innerBody = s.popBlock();

    // Result allocation + the runtime superset check, ahead of the nest.
    std::vector<ir::ExprPtr> initArgs;
    initArgs.push_back(ir::constI(static_cast<int32_t>(elem)));
    for (size_t d = 0; d < rank; ++d)
      initArgs.push_back(ir::var(shape[d], ir::Ty::I32));
    s.emit(ir::assign(
        res, ir::call(ir::Builtin::InitMatrix, std::move(initArgs))));
    for (size_t d = 0; d < rank; ++d) {
      std::vector<ir::ExprPtr> chk;
      chk.push_back(ir::var(g.hiEx[d], ir::Ty::I32));
      chk.push_back(ir::var(shape[d], ir::Ty::I32));
      s.emit(ir::callStmt(
          ir::call(ir::Builtin::CheckGenBounds, std::move(chk))));
    }

    ir::StmtPtr nest = buildNest(g, std::move(innerBody));
    nest = applyTail(s, tail, std::move(nest), /*allowAutoParallel=*/true);
    s.emit(std::move(nest));
    result = ExprRes{resTy, ir::var(res, ir::Ty::Mat)};
  } else { // mwithop_fold
    ir::ArithOp fop = foldOpOf(op->child(2));
    const ast::NodePtr& baseNode = op->child(4);
    const ast::NodePtr& bodyNode = op->child(6);
    const ast::NodePtr& tail = op->child(8);

    ExprRes base = s.expr(baseNode);
    if (base.bad() || !base.type.isScalarNumeric()) {
      if (!base.bad())
        s.error(baseNode->range, "fold base value must be numeric, found " +
                                     base.type.str());
      s.popScope();
      return ExprRes::error();
    }
    int32_t acc = s.newTemp(base.type, "wacc");
    s.emit(ir::assign(acc, std::move(base.code)));

    s.pushBlock();
    ExprRes body =
        s.coerce(s.expr(bodyNode), base.type, bodyNode->range);
    if (body.bad()) {
      s.popBlock();
      s.popScope();
      return ExprRes::error();
    }
    s.emit(ir::assign(
        acc, ir::arith(fop, ir::var(acc, Sema::lowerTy(base.type)),
                       std::move(body.code), Sema::lowerTy(base.type))));
    ir::StmtPtr innerBody = s.popBlock();

    ir::StmtPtr nest = buildNest(g, std::move(innerBody));
    // A fold over two or more dimensions reduces row by row: the outer loop
    // carries the reduction and runs parallel, and both backends combine the
    // per-row partials in row order. 1-D folds, whose partials would be the
    // elements, stay serial, and a transform tail restructures the nest as
    // written.
    bool rows = rank >= 2 && tail->is("withtail_none");
    nest = applyTail(s, tail, std::move(nest), /*allowAutoParallel=*/rows);
    if (rows) nest->reds = {{acc, fop}};
    s.emit(std::move(nest));
    result = ExprRes{base.type, ir::var(acc, Sema::lowerTy(base.type))};
  }

  s.popScope();
  return result;
}

// --- matrixMap (§III-A5) --------------------------------------------------

ExprRes lowerMatrixMap(Sema& s, const ast::NodePtr& n) {
  // prim_matrixmap: matrixMap ( ID , Expr , [ ExprList ] )
  std::string fname(n->child(2)->text());
  ExprRes src = s.expr(n->child(4));
  if (src.bad()) return ExprRes::error();
  if (src.type.k != Type::K::Matrix) {
    s.error(n->range, "matrixMap needs a typed matrix, found " +
                          src.type.str());
    return ExprRes::error();
  }
  uint32_t rank = src.type.rank;

  // Mapped dimensions: int literals, unique, ascending, in range.
  std::vector<uint32_t> mapped;
  for (auto& d : exprListElems(n->child(7))) {
    const ast::NodePtr& lit = significant(d);
    if (!lit->is("prim_int")) {
      s.error(d->range, "matrixMap dimensions must be integer literals");
      return ExprRes::error();
    }
    mapped.push_back(
        static_cast<uint32_t>(std::stoul(std::string(lit->child(0)->text()))));
  }
  for (size_t i = 0; i < mapped.size(); ++i) {
    if (mapped[i] >= rank) {
      s.error(n->range, "matrixMap dimension " + std::to_string(mapped[i]) +
                            " is out of range for " + src.type.str());
      return ExprRes::error();
    }
    if (i && mapped[i] <= mapped[i - 1]) {
      s.error(n->range, "matrixMap dimensions must be strictly ascending");
      return ExprRes::error();
    }
  }

  // The mapped function: Matrix<e, k> -> Matrix<e, k> (result is the same
  // size and rank as the input, §III-A5).
  const cm::FuncSig* sig = s.findFunction(fname);
  if (!sig) {
    s.error(n->range, "matrixMap: unknown function '" + fname + "'");
    return ExprRes::error();
  }
  Type sliceTy =
      Type::matrix(src.type.elem, static_cast<uint32_t>(mapped.size()));
  if (sig->params.size() != 1 || !(sig->params[0] == sliceTy) ||
      sig->rets.size() != 1 || !(sig->rets[0] == sliceTy)) {
    s.error(n->range, "matrixMap: '" + fname + "' must have signature " +
                          sliceTy.str() + " -> " + sliceTy.str());
    return ExprRes::error();
  }

  int32_t srcSlot = materialize(s, src, "mmsrc");

  // Result: same shape and element type.
  std::vector<ir::ExprPtr> initArgs;
  initArgs.push_back(ir::constI(static_cast<int32_t>(src.type.elem)));
  for (uint32_t d = 0; d < rank; ++d)
    initArgs.push_back(
        ir::dimSize(ir::var(srcSlot, ir::Ty::Mat), ir::constI(d)));
  int32_t res = s.newTemp(src.type, "mmres");
  s.emit(ir::assign(res,
                    ir::call(ir::Builtin::InitMatrix, std::move(initArgs))));

  // Iterate the product of the non-mapped dimensions.
  std::vector<uint32_t> others;
  for (uint32_t d = 0; d < rank; ++d)
    if (std::find(mapped.begin(), mapped.end(), d) == mapped.end())
      others.push_back(d);

  int32_t total = s.newTemp(Type::intTy(), "mmtot");
  {
    ir::ExprPtr prod = ir::constI(1);
    for (uint32_t d : others)
      prod = ir::arith(ir::ArithOp::Mul, std::move(prod),
                       ir::dimSize(ir::var(srcSlot, ir::Ty::Mat),
                                   ir::constI(static_cast<int32_t>(d))),
                       ir::Ty::I32);
    s.emit(ir::assign(total, std::move(prod)));
  }

  int32_t t = s.fn()->addLocal("%mm_t", ir::Ty::I32);
  int32_t sliceSlot = s.newTemp(sliceTy, "mmslice");

  s.pushBlock();
  // Decompose t: for others in reverse order, idx = t' % dim; t' /= dim.
  std::vector<int32_t> idxSlots(rank, -1);
  int32_t rem = s.newTemp(Type::intTy(), "mmrem");
  s.emit(ir::assign(rem, ir::var(t, ir::Ty::I32)));
  for (size_t i = others.size(); i-- > 0;) {
    uint32_t d = others[i];
    int32_t idx = s.newTemp(Type::intTy(), "mmidx");
    idxSlots[d] = idx;
    s.emit(ir::assign(
        idx, ir::arith(ir::ArithOp::Mod, ir::var(rem, ir::Ty::I32),
                       ir::dimSize(ir::var(srcSlot, ir::Ty::Mat),
                                   ir::constI(static_cast<int32_t>(d))),
                       ir::Ty::I32)));
    s.emit(ir::assign(
        rem, ir::arith(ir::ArithOp::Div, ir::var(rem, ir::Ty::I32),
                       ir::dimSize(ir::var(srcSlot, ir::Ty::Mat),
                                   ir::constI(static_cast<int32_t>(d))),
                       ir::Ty::I32)));
  }

  auto makeDims = [&]() {
    std::vector<ir::IndexDim> dims;
    for (uint32_t d = 0; d < rank; ++d) {
      ir::IndexDim dim;
      if (idxSlots[d] < 0) {
        dim.kind = ir::IndexDim::Kind::All;
      } else {
        dim.kind = ir::IndexDim::Kind::Scalar;
        dim.a = ir::var(idxSlots[d], ir::Ty::I32);
      }
      dims.push_back(std::move(dim));
    }
    return dims;
  };

  // slice = src[ ..., :, ... ]
  {
    auto e = std::make_unique<ir::Expr>();
    e->k = ir::Expr::K::Index;
    e->ty = ir::Ty::Mat;
    e->args.push_back(ir::var(srcSlot, ir::Ty::Mat));
    e->dims = makeDims();
    s.emit(ir::assign(sliceSlot, std::move(e)));
  }
  // slice = f(slice)
  {
    std::vector<ir::ExprPtr> args;
    args.push_back(ir::var(sliceSlot, ir::Ty::Mat));
    s.emit(ir::callAssign({sliceSlot}, fname, std::move(args)));
  }
  // res[ same selectors ] = slice
  {
    auto st = std::make_unique<ir::Stmt>();
    st->k = ir::Stmt::K::IndexStore;
    st->slot = res;
    st->dims = makeDims();
    st->exprs.push_back(ir::var(sliceSlot, ir::Ty::Mat));
    s.emit(std::move(st));
  }
  ir::StmtPtr body = s.popBlock();

  ir::StmtPtr loop = ir::forLoop(t, ir::constI(0),
                                 ir::var(total, ir::Ty::I32), std::move(body),
                                 "mm_t");
  if (s.autoParallelEnabled) {
    countOpt("matrix.autoParallel");
    loop->parallel = true;
    loop->parSrc = ir::Stmt::Par::Auto;
  }
  s.emit(std::move(loop));

  return ExprRes{src.type, ir::var(res, ir::Ty::Mat)};
}

// --- assignment hook: fusion + indexed stores --------------------------

bool matrixAssignHook(Sema& s, const ast::NodePtr& lhs,
                      const ast::NodePtr& rhs) {
  const ast::NodePtr& l = significant(lhs);
  const ast::NodePtr& r = significant(rhs);

  // means = with (...) ...  — with-loop/assignment fusion (§III-A4).
  // Only when the target is a whole variable: indexed targets fall
  // through to the region-store path below.
  if (r->is("prim_with") && !l->is("post_index")) {
    std::string name(Sema::idText(l));
    if (name.empty()) return false;
    VarInfo* v = s.lookupVar(name);
    if (!v || !(v->type.k == Type::K::Matrix ||
                v->type.isScalarNumeric()))
      return false;
    ExprRes e = lowerWith(s, r);
    if (e.bad()) return true; // error already reported
    e = s.coerce(std::move(e), v->type, rhs->range);
    if (e.bad()) return true;
    if (s.fusionEnabled || !e.type.isMatrix()) {
      // Fused: the with-loop's buffer simply becomes the variable.
      if (e.type.isMatrix()) countOpt("matrix.fusions");
      s.emit(ir::assign(v->slots[0], std::move(e.code)));
    } else {
      // Library semantics: materialize a temporary, then copy it into
      // the destination — the extraneous copy the paper's fusion avoids.
      std::vector<ir::ExprPtr> args;
      args.push_back(std::move(e.code));
      s.emit(ir::assign(v->slots[0],
                        ir::call(ir::Builtin::CloneMatrix, std::move(args))));
    }
    return true;
  }

  // m[ ... ] = value — MATLAB indexing on the left-hand side.
  if (l->is("post_index")) {
    std::string name(Sema::idText(l->child(0)));
    VarInfo* v = name.empty() ? nullptr : s.lookupVar(name);
    if (!v) {
      s.error(l->range,
              "the target of an indexed assignment must be a declared "
              "matrix variable");
      return true;
    }
    if (!(v->type.k == Type::K::Matrix || v->type.k == Type::K::RefPtr)) {
      s.error(l->range, "type " + v->type.str() + " cannot be indexed");
      return true;
    }
    uint32_t rank = v->type.k == Type::K::RefPtr ? 1 : v->type.rank;
    auto elems = indexListElems(l->child(2));
    if (elems.size() != rank) {
      s.error(l->range, "indexing a rank-" + std::to_string(rank) + " " +
                            v->type.str() + " with " +
                            std::to_string(elems.size()) + " selectors");
      return true;
    }
    LoweredSelectors sel = lowerSelectors(s, v->slots[0], v->type, elems);
    if (!sel.ok) return true;

    Type elemTy = cm::scalarOfElem(v->type.elem);
    ExprRes val = s.expr(rhs);
    if (val.bad()) return true;

    if (sel.allScalar) {
      val = s.coerce(std::move(val), elemTy, rhs->range);
      if (val.bad()) return true;
      ir::ExprPtr flat = flatOffset(v->slots[0], sel.dims);
      s.emit(ir::storeFlat(v->slots[0], std::move(flat),
                           std::move(val.code)));
      return true;
    }

    // Region store: scalar broadcast or matching matrix.
    if (val.type.isScalar()) {
      val = s.coerce(std::move(val), elemTy, rhs->range);
      if (val.bad()) return true;
    } else if (val.type.k == Type::K::Matrix) {
      if (val.type.elem != v->type.elem) {
        s.error(rhs->range, "cannot store " + val.type.str() + " into " +
                                v->type.str());
        return true;
      }
    } else {
      s.error(rhs->range, "cannot store " + val.type.str() +
                              " through matrix indexing");
      return true;
    }
    auto st = std::make_unique<ir::Stmt>();
    st->k = ir::Stmt::K::IndexStore;
    st->slot = v->slots[0];
    st->dims = std::move(sel.dims);
    st->exprs.push_back(std::move(val.code));
    s.emit(std::move(st));
    return true;
  }

  return false;
}

// --- builtins ------------------------------------------------------------

void installBuiltins(Sema& s) {
  s.defineBuiltin("readMatrix", [](Sema& s2, const ast::NodePtr& n,
                                   std::vector<ExprRes> args) -> ExprRes {
    if (args.size() != 1 || args[0].bad() ||
        args[0].type.k != Type::K::Str) {
      s2.error(n->range, "readMatrix takes one string path");
      return ExprRes::error();
    }
    std::vector<ir::ExprPtr> a;
    a.push_back(std::move(args[0].code));
    return ExprRes{Type::matrixAny(),
                   ir::call(ir::Builtin::ReadMatrix, std::move(a))};
  });
  s.defineBuiltin("writeMatrix", [](Sema& s2, const ast::NodePtr& n,
                                    std::vector<ExprRes> args) -> ExprRes {
    if (args.size() != 2 || args[0].bad() || args[1].bad() ||
        args[0].type.k != Type::K::Str || !args[1].type.isMatrix()) {
      s2.error(n->range, "writeMatrix takes a string path and a matrix");
      return ExprRes::error();
    }
    std::vector<ir::ExprPtr> a;
    a.push_back(std::move(args[0].code));
    a.push_back(std::move(args[1].code));
    return ExprRes{Type::voidTy(),
                   ir::call(ir::Builtin::WriteMatrix, std::move(a))};
  });
  s.defineBuiltin("dimSize", [](Sema& s2, const ast::NodePtr& n,
                                std::vector<ExprRes> args) -> ExprRes {
    if (args.size() != 2 || args[0].bad() || args[1].bad() ||
        !(args[0].type.isMatrix() || args[0].type.k == Type::K::RefPtr) ||
        args[1].type.k != Type::K::Int) {
      s2.error(n->range, "dimSize takes a matrix and an int dimension");
      return ExprRes::error();
    }
    return ExprRes{Type::intTy(),
                   ir::dimSize(std::move(args[0].code),
                               std::move(args[1].code))};
  });
  s.defineBuiltin("connComp", [](Sema& s2, const ast::NodePtr& n,
                                 std::vector<ExprRes> args) -> ExprRes {
    if (args.size() != 1 || args[0].bad() ||
        !(args[0].type == Type::matrix(rt::Elem::Bool, 2))) {
      s2.error(n->range, "connComp takes a Matrix bool <2>");
      return ExprRes::error();
    }
    std::vector<ir::ExprPtr> a;
    a.push_back(std::move(args[0].code));
    return ExprRes{Type::matrix(rt::Elem::I32, 2),
                   ir::call(ir::Builtin::ConnComp, std::move(a))};
  });
  s.defineBuiltin("detectEddies", [](Sema& s2, const ast::NodePtr& n,
                                     std::vector<ExprRes> args) -> ExprRes {
    if (args.size() != 6) {
      s2.error(n->range, "detectEddies takes (Matrix float <2>, float lo, "
                         "float hi, float step, int minSize, int maxSize)");
      return ExprRes::error();
    }
    const Type want[] = {Type::matrix(rt::Elem::F32, 2), Type::floatTy(),
                         Type::floatTy(), Type::floatTy(), Type::intTy(),
                         Type::intTy()};
    std::vector<ir::ExprPtr> a;
    for (size_t i = 0; i < 6; ++i) {
      ExprRes c = s2.coerce(std::move(args[i]), want[i], n->range);
      if (c.bad()) return ExprRes::error();
      a.push_back(std::move(c.code));
    }
    return ExprRes{Type::matrix(rt::Elem::I32, 2),
                   ir::call(ir::Builtin::DetectEddies, std::move(a))};
  });
  s.defineBuiltin("synthSsh", [](Sema& s2, const ast::NodePtr& n,
                                 std::vector<ExprRes> args) -> ExprRes {
    if (args.size() != 5) {
      s2.error(n->range,
               "synthSsh takes (nlat, nlon, ntime, seed, numEddies)");
      return ExprRes::error();
    }
    std::vector<ir::ExprPtr> a;
    for (auto& arg : args) {
      ExprRes c = s2.coerce(std::move(arg), Type::intTy(), n->range);
      if (c.bad()) return ExprRes::error();
      a.push_back(std::move(c.code));
    }
    return ExprRes{Type::matrix(rt::Elem::F32, 3),
                   ir::call(ir::Builtin::SynthSsh, std::move(a))};
  });
  auto scalarMinMax = [](ir::ArithOp op, const char* nm) {
    return [op, nm](Sema& s2, const ast::NodePtr& n,
                    std::vector<ExprRes> args) -> ExprRes {
      if (args.size() != 2 || args[0].bad() || args[1].bad()) {
        if (args.size() != 2)
          s2.error(n->range, std::string(nm) + " takes two arguments");
        return ExprRes::error();
      }
      // Matrix operands go through the element-wise hook.
      if (args[0].type.isMatrix() || args[1].type.isMatrix()) {
        auto r = matrixBin(s2, op, args[0], args[1], n->range);
        if (r) return std::move(*r);
        return ExprRes::error();
      }
      if (!args[0].type.isScalarNumeric() || !args[1].type.isScalarNumeric()) {
        s2.error(n->range, std::string(nm) + " needs numeric operands");
        return ExprRes::error();
      }
      Type out = (args[0].type.k == Type::K::Float ||
                  args[1].type.k == Type::K::Float)
                     ? Type::floatTy()
                     : Type::intTy();
      ExprRes a = s2.coerce(std::move(args[0]), out, n->range);
      ExprRes b = s2.coerce(std::move(args[1]), out, n->range);
      if (a.bad() || b.bad()) return ExprRes::error();
      return ExprRes{out, ir::arith(op, std::move(a.code), std::move(b.code),
                                    Sema::lowerTy(out))};
    };
  };
  s.defineBuiltin("min", scalarMinMax(ir::ArithOp::Min, "min"));
  s.defineBuiltin("max", scalarMinMax(ir::ArithOp::Max, "max"));

  s.defineBuiltin("printShape", [](Sema& s2, const ast::NodePtr& n,
                                   std::vector<ExprRes> args) -> ExprRes {
    if (args.size() != 1 || args[0].bad() || !args[0].type.isMatrix()) {
      s2.error(n->range, "printShape takes a matrix");
      return ExprRes::error();
    }
    std::vector<ir::ExprPtr> a;
    a.push_back(std::move(args[0].code));
    return ExprRes{Type::voidTy(),
                   ir::call(ir::Builtin::PrintShape, std::move(a))};
  });
}

} // namespace

void installMatrixSemantics(Sema& s) {
  // Publish the WithTail hook table for transformation extensions.
  if (!s.extensionData.count(kWithTailHooksKey))
    s.extensionData[kWithTailHooksKey] = WithTailHookMap{};

  // ---- types ----------------------------------------------------------
  s.defineType("ty_matrix", [](Sema& s2, const ast::NodePtr& n) {
    // Matrix ElemTy < INTLIT >
    rt::Elem e = elemOfNode(n->child(1));
    long rank = std::stol(std::string(n->child(3)->text()));
    if (rank < 1 || rank > static_cast<long>(rt::Matrix::kMaxRank)) {
      s2.error(n->range, "matrix rank must be between 1 and " +
                             std::to_string(rt::Matrix::kMaxRank));
      return Type::error();
    }
    return Type::matrix(e, static_cast<uint32_t>(rank));
  }, kExt);

  // ---- operators --------------------------------------------------------
  s.addBinHook(matrixBin);
  s.addCmpHook(matrixCmp);
  s.defineExpr("mul_ewmul", [](Sema& s2, const ast::NodePtr& n) {
    ExprRes a = s2.expr(n->child(0));
    ExprRes b = s2.expr(n->child(2));
    if (a.bad() || b.bad()) return ExprRes::error();
    auto r = matrixBin(s2, ir::ArithOp::EwMul, a, b, n->range);
    if (r) return std::move(*r);
    s2.error(n->range, "'.*' needs at least one matrix operand");
    return ExprRes::error();
  }, kExt);

  // ---- indexing ---------------------------------------------------------
  s.defineExpr("post_index", lowerIndexExpr, kExt);
  s.addAssignHook(matrixAssignHook);

  // ---- with-loop / matrixMap / init / end ------------------------------
  s.defineExpr("prim_with", lowerWith, kExt);
  s.defineExpr("prim_matrixmap", lowerMatrixMap, kExt);
  s.defineExpr("prim_init", [](Sema& s2, const ast::NodePtr& n) {
    Type t = s2.typeExpr(n->child(2));
    if (t.isError()) return ExprRes::error();
    if (t.k != Type::K::Matrix) {
      s2.error(n->range, "init needs a Matrix type, found " + t.str());
      return ExprRes::error();
    }
    auto dims = exprListElems(n->child(4));
    if (dims.size() != t.rank) {
      s2.error(n->range, "init: " + t.str() + " needs " +
                             std::to_string(t.rank) + " dimension sizes, "
                             "found " + std::to_string(dims.size()));
      return ExprRes::error();
    }
    std::vector<ir::ExprPtr> args;
    args.push_back(ir::constI(static_cast<int32_t>(t.elem)));
    for (auto& d : dims) {
      ExprRes e = s2.coerce(s2.expr(d), Type::intTy(), d->range);
      if (e.bad()) return ExprRes::error();
      args.push_back(std::move(e.code));
    }
    return ExprRes{t, ir::call(ir::Builtin::InitMatrix, std::move(args))};
  }, kExt);
  s.defineExpr("prim_end", [](Sema& s2, const ast::NodePtr& n) {
    const Sema::IndexCtx* ctx = s2.currentIndexCtx();
    if (!ctx) {
      s2.error(n->range, "'end' is only meaningful inside a matrix index");
      return ExprRes::error();
    }
    return ExprRes{
        Type::intTy(),
        ir::arith(ir::ArithOp::Sub,
                  ir::dimSize(ir::var(ctx->matSlot, ir::Ty::Mat),
                              ir::constI(static_cast<int32_t>(ctx->dim))),
                  ir::constI(1), ir::Ty::I32)};
  }, kExt);

  installBuiltins(s);
}

// Grammar is in grammar.cpp.
ext::GrammarFragment matrixGrammarFragment();

namespace {
class MatrixExtension final : public ext::LanguageExtension {
public:
  std::string name() const override { return "matrix"; }
  ext::GrammarFragment grammarFragment() const override {
    return matrixGrammarFragment();
  }
  void installSemantics(cm::Sema& sema) const override {
    installMatrixSemantics(sema);
  }
};
} // namespace

ext::ExtensionPtr matrixExtension() {
  return std::make_unique<MatrixExtension>();
}

} // namespace mmx::ext_matrix
