#include "cminus/sema.hpp"

#include <cassert>

#include "support/metrics.hpp"

namespace mmx::cm {

Sema::Sema(DiagnosticEngine& diags, attr::Registry& attrReg)
    : diags_(diags), attrReg_(attrReg) {
  // Declare the core attributes the handlers implement; every
  // defineExpr/defineStmt/defineType mirrors an equation into the
  // registry so the modular well-definedness analysis sees the real
  // coverage (paper §VI-B).
  typeAttr_ = attrReg_.declare<int>("type", attr::AttrKind::Synthesized, "host");
  codeAttr_ = attrReg_.declare<int>("code", attr::AttrKind::Synthesized, "host");
  stmtAttr_ =
      attrReg_.declare<int>("translation", attr::AttrKind::Synthesized, "host");
  for (const char* nt : {"Expr", "OrE", "AndE", "CmpE", "AddE", "MulE",
                         "Unary", "Postfix", "Primary"}) {
    attrReg_.occursOn(typeAttr_.id, nt);
    attrReg_.occursOn(codeAttr_.id, nt);
  }
  for (const char* nt : {"Stmt", "Open", "Closed", "Simple", "Block"})
    attrReg_.occursOn(stmtAttr_.id, nt);
}

void Sema::defineExpr(const std::string& prod, ExprHandler h,
                      const std::string& ext) {
  prodExt_[prod] = ext;
  attrReg_.synRaw(prod, typeAttr_.id,
                  [](const ast::NodePtr&, attr::Evaluator&) {
                    return std::any(0);
                  });
  attrReg_.synRaw(prod, codeAttr_.id,
                  [](const ast::NodePtr&, attr::Evaluator&) {
                    return std::any(0);
                  });
  exprH_[prod] = std::move(h);
}

void Sema::defineStmt(const std::string& prod, StmtHandler h,
                      const std::string& ext) {
  prodExt_[prod] = ext;
  attrReg_.synRaw(prod, stmtAttr_.id,
                  [](const ast::NodePtr&, attr::Evaluator&) {
                    return std::any(0);
                  });
  stmtH_[prod] = std::move(h);
}

void Sema::defineType(const std::string& prod, TypeHandler h,
                      const std::string& ext) {
  prodExt_[prod] = ext;
  typeH_[prod] = std::move(h);
}

const std::string* Sema::extensionOf(const std::string& prod) const {
  auto it = prodExt_.find(prod);
  return it == prodExt_.end() || it->second.empty() ? nullptr : &it->second;
}

void Sema::defineBuiltin(const std::string& name, CallHandler h) {
  builtins_[name] = std::move(h);
}

bool Sema::hasBuiltin(const std::string& name) const {
  return builtins_.count(name) > 0;
}

ExprRes Sema::builtinCall(const std::string& name, const ast::NodePtr& n,
                          std::vector<ExprRes> args) {
  auto it = builtins_.find(name);
  if (it == builtins_.end()) {
    error(n->range, "unknown builtin '" + name + "'");
    return ExprRes::error();
  }
  return it->second(*this, n, std::move(args));
}

std::optional<ExprRes> Sema::tryBinHooks(ir::ArithOp op, ExprRes& a,
                                         ExprRes& b, SourceRange r) {
  for (auto& h : binHooks_) {
    auto res = h(*this, op, a, b, r);
    if (res) return res;
  }
  return std::nullopt;
}

std::optional<ExprRes> Sema::tryCmpHooks(ir::CmpKind op, ExprRes& a,
                                         ExprRes& b, SourceRange r) {
  for (auto& h : cmpHooks_) {
    auto res = h(*this, op, a, b, r);
    if (res) return res;
  }
  return std::nullopt;
}

bool Sema::tryAssignHooks(const ast::NodePtr& lhs, const ast::NodePtr& rhs) {
  for (auto& h : assignHooks_)
    if (h(*this, lhs, rhs)) return true;
  return false;
}

ExprRes Sema::expr(const ast::NodePtr& n) {
  std::string kind(n->kind());
  auto it = exprH_.find(kind);
  if (it == exprH_.end()) {
    error(n->range, "no semantics registered for expression production '" +
                        kind + "'");
    return ExprRes::error();
  }
  // Diagnostics emitted by the handler record the extension that owns
  // this production (structured-diagnostics satellite of ISSUE 2).
  if (const std::string* ext = extensionOf(kind)) {
    DiagnosticEngine::OriginScope scope(diags_, *ext);
    return it->second(*this, n);
  }
  return it->second(*this, n);
}

void Sema::stmt(const ast::NodePtr& n) {
  std::string kind(n->kind());
  auto it = stmtH_.find(kind);
  if (it == stmtH_.end()) {
    error(n->range, "no semantics registered for statement production '" +
                        kind + "'");
    return;
  }
  // Everything emitted while this statement lowers reports against its
  // source range (restored afterwards: parents keep emitting glue after
  // their children lower).
  SourceRange prev = curStmtRange_;
  curStmtRange_ = n->range;
  if (const std::string* ext = extensionOf(kind)) {
    DiagnosticEngine::OriginScope scope(diags_, *ext);
    it->second(*this, n);
  } else {
    it->second(*this, n);
  }
  curStmtRange_ = prev;
}

Type Sema::typeExpr(const ast::NodePtr& n) {
  std::string kind(n->kind());
  auto it = typeH_.find(kind);
  if (it == typeH_.end()) {
    error(n->range, "no semantics registered for type production '" +
                        kind + "'");
    return Type::error();
  }
  if (const std::string* ext = extensionOf(kind)) {
    DiagnosticEngine::OriginScope scope(diags_, *ext);
    return it->second(*this, n);
  }
  return it->second(*this, n);
}

void Sema::declareFunction(const std::string& name, FuncSig sig,
                           SourceRange r) {
  if (functions_.count(name)) {
    error(r, "function '" + name + "' is declared twice");
    return;
  }
  if (builtins_.count(name))
    error(r, "function '" + name + "' collides with a builtin");
  functions_[name] = std::move(sig);
}

const FuncSig* Sema::findFunction(const std::string& name) const {
  auto it = functions_.find(name);
  return it == functions_.end() ? nullptr : &it->second;
}

void Sema::pushScope() { scopes_.emplace_back(); }
void Sema::popScope() { scopes_.pop_back(); }

VarInfo* Sema::declareVar(const std::string& name, const Type& t,
                          SourceRange r) {
  assert(!scopes_.empty());
  if (scopes_.back().count(name)) {
    error(r, "variable '" + name + "' is already declared in this scope");
    return &scopes_.back()[name];
  }
  VarInfo info;
  info.type = t;
  info.declared = r;
  if (t.k == Type::K::Tuple) {
    for (size_t i = 0; i < t.elems.size(); ++i) {
      int32_t slot =
          fn_->addLocal(name + "." + std::to_string(i), lowerTy(t.elems[i]));
      stampMatrixMeta(*fn_, slot, t.elems[i]);
      info.slots.push_back(slot);
    }
  } else {
    int32_t slot = fn_->addLocal(name, lowerTy(t));
    stampMatrixMeta(*fn_, slot, t);
    info.slots.push_back(slot);
  }
  auto [it, ok] = scopes_.back().emplace(name, std::move(info));
  (void)ok;
  return &it->second;
}

VarInfo* Sema::lookupVar(const std::string& name) {
  for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
    auto f = it->find(name);
    if (f != it->end()) return &f->second;
  }
  return nullptr;
}

void Sema::emit(ir::StmtPtr s) {
  assert(!blockStack_.empty());
  if (s && !s->range.valid()) s->range = curStmtRange_;
  blockStack_.back().push_back(std::move(s));
}

void Sema::pushBlock() { blockStack_.emplace_back(); }

ir::StmtPtr Sema::popBlock() {
  assert(!blockStack_.empty());
  auto stmts = std::move(blockStack_.back());
  blockStack_.pop_back();
  return ir::block(std::move(stmts));
}

int32_t Sema::newTemp(const Type& t, const char* hint) {
  int32_t slot = fn_->addLocal(std::string("%") + hint +
                                   std::to_string(fn_->locals.size()),
                               lowerTy(t));
  stampMatrixMeta(*fn_, slot, t);
  return slot;
}

void Sema::stampMatrixMeta(ir::Function& f, int32_t slot, const Type& t) {
  // Declared matrix metadata for the analyses: a Mat slot whose static type
  // is concrete can only ever hold values of that element kind and rank
  // (MatrixAny-to-Matrix coercions pass through checkMatrixMeta first).
  if (t.k == Type::K::Matrix) {
    f.locals[slot].matRank = static_cast<int32_t>(t.rank);
    f.locals[slot].matElem = static_cast<int32_t>(t.elem);
  } else if (t.k == Type::K::RefPtr) {
    f.locals[slot].matRank = 1;
    f.locals[slot].matElem = static_cast<int32_t>(t.elem);
  }
}

ir::Ty Sema::lowerTy(const Type& t) {
  switch (t.k) {
    case Type::K::Void: return ir::Ty::Void;
    case Type::K::Int: return ir::Ty::I32;
    case Type::K::Float: return ir::Ty::F32;
    case Type::K::Bool: return ir::Ty::Bool;
    case Type::K::Str: return ir::Ty::Str;
    case Type::K::Matrix:
    case Type::K::MatrixAny:
    case Type::K::RefPtr: return ir::Ty::Mat;
    case Type::K::Tuple:
    case Type::K::Error: return ir::Ty::Void; // never materialized directly
  }
  return ir::Ty::Void;
}

ExprRes Sema::coerce(ExprRes r, const Type& want, SourceRange where) {
  if (r.bad() || want.isError()) return ExprRes::error();
  if (r.type == want) return r;
  // int -> float implicit widening.
  if (r.type.k == Type::K::Int && want.k == Type::K::Float) {
    r.type = Type::floatTy();
    r.code = ir::cast(ir::Ty::F32, std::move(r.code));
    return r;
  }
  // MatrixAny -> concrete matrix: runtime metadata check.
  if (r.type.k == Type::K::MatrixAny && want.k == Type::K::Matrix) {
    std::vector<ir::ExprPtr> args;
    args.push_back(std::move(r.code));
    args.push_back(ir::constI(static_cast<int32_t>(want.elem)));
    args.push_back(ir::constI(static_cast<int32_t>(want.rank)));
    r.code = ir::call(ir::Builtin::CheckMatrixMeta, std::move(args));
    r.type = want;
    return r;
  }
  error(where, "type mismatch: expected " + want.str() + ", found " +
                   r.type.str());
  return ExprRes::error();
}

std::string_view Sema::idText(const ast::NodePtr& n) {
  const ast::Node* cur = n.get();
  while (cur && !cur->isToken()) {
    if (cur->kids.size() != 1) {
      if (cur->is("prim_id")) {
        cur = cur->kids[0].get();
        continue;
      }
      return {};
    }
    cur = cur->kids[0].get();
  }
  return cur ? cur->text() : std::string_view{};
}

bool Sema::translate(const ast::NodePtr& tu, ir::Module& out) {
  mod_ = &out;

  // Pass 1 is the interface-level typecheck (signatures, declared types);
  // pass 2 checks bodies while lowering them. The phase split mirrors how
  // --time-report and --trace-json present the pipeline.
  std::vector<ast::NodePtr> decls;
  {
    metrics::ScopedTimer typecheckTimer("typecheck");

    // Pass 1: collect function signatures.
    decls = ast::findAll(tu, "fn_decl");
    for (const auto& d : decls) {
      // fn_decl: RetType ID ( ParamsOpt ) Block
      std::string name(d->child(1)->text());
      FuncSig sig;
      const ast::NodePtr& retN = d->child(0);
      if (retN->is("retty_void")) {
        // no returns
      } else {
        Type rt = typeExpr(retN->child(0));
        if (rt.k == Type::K::Tuple)
          sig.rets = rt.elems;
        else if (!rt.isError())
          sig.rets = {rt};
      }
      // Params.
      for (const auto& p : ast::findAll(d->child(3), "param")) {
        Type pt = typeExpr(p->child(0));
        if (pt.k == Type::K::Tuple) {
          error(p->range, "tuple-typed parameters are not supported");
          pt = Type::error();
        }
        sig.params.push_back(pt);
        sig.paramNames.emplace_back(p->child(1)->text());
      }
      declareFunction(name, std::move(sig), d->range);
    }

    if (!findFunction("main"))
      diags_.error({}, "program has no main function");
  }

  // Pass 2: lower bodies.
  {
    metrics::ScopedTimer lowerTimer("lower");
    for (const auto& d : decls) lowerFunction(d);
  }

  mod_ = nullptr;
  return !diags_.hasErrors();
}

void Sema::lowerFunction(const ast::NodePtr& d) {
  std::string name(d->child(1)->text());
  const FuncSig* sig = findFunction(name);
  if (!sig) return;

  fn_ = mod_->add(name);
  fn_->numParams = sig->params.size();
  for (const Type& t : sig->rets) fn_->rets.push_back(lowerTy(t));
  curRets_ = sig->rets;

  pushScope();
  // Parameters become the first locals, in order.
  for (size_t i = 0; i < sig->params.size(); ++i) {
    VarInfo info;
    info.type = sig->params[i];
    info.slots.push_back(
        fn_->addLocal(sig->paramNames[i], lowerTy(sig->params[i])));
    scopes_.back()[sig->paramNames[i]] = std::move(info);
  }

  pushBlock();
  stmt(d->child(5)); // Block
  fn_->body = popBlock();
  popScope();

  fn_ = nullptr;
  curRets_.clear();
}

} // namespace mmx::cm
