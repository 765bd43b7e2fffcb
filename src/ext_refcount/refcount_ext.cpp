#include "ext_refcount/refcount_ext.hpp"

#include "cminus/sema.hpp"

namespace mmx::ext_refcount {

using cm::ExprRes;
using cm::Sema;
using cm::Type;

namespace {

ext::GrammarFragment refcountFragment() {
  ext::GrammarFragment f;
  f.name = "refcount";
  auto kw = [&](const char* t) {
    f.terminals.push_back({std::string("'") + t + "'", t, true, 10, false});
  };
  kw("refptr");
  kw("rcalloc");
  kw("rccount");
  kw("rclive");
  f.nonterminals.push_back("RElemTy");
  auto prod = [&](const char* name, const char* lhs,
                  std::vector<std::string> rhs) {
    f.productions.push_back({lhs, std::move(rhs), name});
  };
  prod("ty_refptr", "TypeE", {"'refptr'", "RElemTy"});
  prod("relem_int", "RElemTy", {"'int'"});
  prod("relem_float", "RElemTy", {"'float'"});
  prod("relem_bool", "RElemTy", {"'bool'"});
  prod("prim_rcalloc", "Primary",
       {"'rcalloc'", "'('", "RElemTy", "','", "Expr", "')'"});
  prod("prim_rccount", "Primary", {"'rccount'", "'('", "Expr", "')'"});
  prod("prim_rclive", "Primary", {"'rclive'", "'('", "')'"});
  return f;
}

rt::Elem elemOf(const ast::NodePtr& n) {
  if (n->is("relem_int")) return rt::Elem::I32;
  if (n->is("relem_bool")) return rt::Elem::Bool;
  return rt::Elem::F32;
}

void installRefcountSemantics(Sema& s) {
  s.defineType("ty_refptr", [](Sema&, const ast::NodePtr& n) {
    return Type::refptr(elemOf(n->child(1)));
  }, "refcount");

  s.defineExpr("prim_rcalloc", [](Sema& s2, const ast::NodePtr& n) {
    rt::Elem e = elemOf(n->child(2));
    ExprRes len = s2.coerce(s2.expr(n->child(4)), Type::intTy(), n->range);
    if (len.bad()) return ExprRes::error();
    std::vector<ir::ExprPtr> args;
    args.push_back(ir::constI(static_cast<int32_t>(e)));
    args.push_back(std::move(len.code));
    return ExprRes{Type::refptr(e),
                   ir::call(ir::Builtin::InitMatrix, std::move(args))};
  }, "refcount");

  s.defineExpr("prim_rccount", [](Sema& s2, const ast::NodePtr& n) {
    ExprRes p = s2.expr(n->child(2));
    if (p.bad()) return ExprRes::error();
    if (p.type.k != Type::K::RefPtr && !p.type.isMatrix()) {
      s2.error(n->range, "rccount needs a refptr or matrix, found " +
                             p.type.str());
      return ExprRes::error();
    }
    std::vector<ir::ExprPtr> args;
    args.push_back(std::move(p.code));
    return ExprRes{Type::intTy(),
                   ir::call(ir::Builtin::RefCount, std::move(args))};
  }, "refcount");

  s.defineExpr("prim_rclive", [](Sema&, const ast::NodePtr&) {
    return ExprRes{Type::intTy(), ir::call(ir::Builtin::RcLive, {})};
  }, "refcount");

  // Indexing of refptr buffers: when the matrix extension is composed its
  // post_index handler already covers RefPtr (they share the runtime);
  // standalone, install a scalar-only handler.
  if (!s.extensionData.count("matrix.withTailHooks")) {
    s.defineExpr("post_index", [](Sema& s2, const ast::NodePtr& n) {
      ExprRes base = s2.expr(n->child(0));
      if (base.bad()) return ExprRes::error();
      if (base.type.k != Type::K::RefPtr) {
        s2.error(n->range, "type " + base.type.str() + " cannot be indexed");
        return ExprRes::error();
      }
      auto idxList = n->child(2);
      if (!idxList->is("indexlist_one") ||
          !idxList->child(0)->is("ixe_expr")) {
        s2.error(n->range, "refptr indexing takes a single int index");
        return ExprRes::error();
      }
      ExprRes i = s2.coerce(s2.expr(idxList->child(0)->child(0)),
                            Type::intTy(), n->range);
      if (i.bad()) return ExprRes::error();
      Type et = cm::scalarOfElem(base.type.elem);
      return ExprRes{et, ir::loadFlat(std::move(base.code),
                                      std::move(i.code),
                                      Sema::lowerTy(et))};
    }, "refcount");

    s.addAssignHook([](Sema& s2, const ast::NodePtr& lhs,
                       const ast::NodePtr& rhs) -> bool {
      // p[i] = v for a refptr variable p.
      ast::NodePtr idx = ast::findFirst(lhs, "post_index");
      if (!idx) return false;
      std::string name(Sema::idText(idx->child(0)));
      cm::VarInfo* v = name.empty() ? nullptr : s2.lookupVar(name);
      if (!v || v->type.k != Type::K::RefPtr) return false;
      auto idxList = idx->child(2);
      if (!idxList->is("indexlist_one") ||
          !idxList->child(0)->is("ixe_expr")) {
        s2.error(lhs->range, "refptr indexing takes a single int index");
        return true;
      }
      ExprRes i = s2.coerce(s2.expr(idxList->child(0)->child(0)),
                            Type::intTy(), lhs->range);
      ExprRes val = s2.coerce(s2.expr(rhs),
                              cm::scalarOfElem(v->type.elem), rhs->range);
      if (i.bad() || val.bad()) return true;
      s2.emit(ir::storeFlat(v->slots[0], std::move(i.code),
                            std::move(val.code)));
      return true;
    });
  }
}

class RefcountExtension final : public ext::LanguageExtension {
public:
  std::string name() const override { return "refcount"; }
  ext::GrammarFragment grammarFragment() const override {
    return refcountFragment();
  }
  void installSemantics(cm::Sema& sema) const override {
    installRefcountSemantics(sema);
  }
};

} // namespace

ext::ExtensionPtr refcountExtension() {
  return std::make_unique<RefcountExtension>();
}

} // namespace mmx::ext_refcount
