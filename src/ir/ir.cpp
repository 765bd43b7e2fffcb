#include "ir/ir.hpp"

#include <iterator>
#include <limits>
#include <sstream>

namespace mmx::ir {

const char* tyName(Ty t) {
  switch (t) {
    case Ty::Void: return "void";
    case Ty::I32: return "int";
    case Ty::F32: return "float";
    case Ty::Bool: return "bool";
    case Ty::Mat: return "matrix";
    case Ty::Str: return "str";
  }
  return "?";
}

const char* arithName(ArithOp op) {
  switch (op) {
    case ArithOp::Add: return "+";
    case ArithOp::Sub: return "-";
    case ArithOp::Mul: return "*";
    case ArithOp::EwMul: return ".*";
    case ArithOp::Div: return "/";
    case ArithOp::Mod: return "%";
    case ArithOp::Min: return "min";
    case ArithOp::Max: return "max";
  }
  return "?";
}

const char* cmpName(CmpKind op) {
  switch (op) {
    case CmpKind::Lt: return "<";
    case CmpKind::Le: return "<=";
    case CmpKind::Gt: return ">";
    case CmpKind::Ge: return ">=";
    case CmpKind::Eq: return "==";
    case CmpKind::Ne: return "!=";
  }
  return "?";
}

namespace {
constexpr BuiltinInfo kBuiltins[] = {
    {.name = "readMatrix", .ret = Ty::Mat, .returnsFresh = true,
     .borrowsArgs = true},
    {.name = "writeMatrix", .ret = Ty::Void, .io = true, .borrowsArgs = true},
    {.name = "initMatrix", .ret = Ty::Mat, .returnsFresh = true,
     .borrowsArgs = true},
    {.name = "cloneMatrix", .ret = Ty::Mat, .returnsFresh = true,
     .borrowsArgs = true},
    {.name = "connComp", .ret = Ty::Mat, .returnsFresh = true,
     .borrowsArgs = true},
    {.name = "detectEddies", .ret = Ty::Mat, .returnsFresh = true,
     .borrowsArgs = true},
    {.name = "synthSsh", .ret = Ty::Mat, .returnsFresh = true,
     .borrowsArgs = true},
    {.name = "checkGenBounds", .ret = Ty::Void, .metaOnly = true,
     .borrowsArgs = true},
    {.name = "checkMatrixMeta", .ret = Ty::Mat, .metaOnly = true,
     .aliasArg0 = true, .borrowsArgs = true},
    // May return its argument's buffer unchanged when it is already float:
    // neither fresh nor borrowing to uniqueness, while parsafe and depend
    // read the result as a new matrix.
    {.name = "matToFloat", .ret = Ty::Mat},
    {.name = "numThreads", .ret = Ty::I32, .borrowsArgs = true},
    {.name = "refCount", .ret = Ty::I32, .io = true, .metaOnly = true,
     .observesRefcount = true},
    {.name = "rcLive", .ret = Ty::I32, .io = true, .metaOnly = true,
     .observesRefcount = true},
    {.name = "printInt", .ret = Ty::Void, .io = true, .borrowsArgs = true},
    {.name = "printFloat", .ret = Ty::Void, .io = true, .borrowsArgs = true},
    {.name = "printBool", .ret = Ty::Void, .io = true, .borrowsArgs = true},
    {.name = "printStr", .ret = Ty::Void, .io = true, .borrowsArgs = true},
    {.name = "printShape", .ret = Ty::Void, .io = true, .metaOnly = true,
     .borrowsArgs = true},
};
static_assert(std::size(kBuiltins) ==
              static_cast<size_t>(Builtin::PrintShape) + 1);

ExprPtr mk(Expr::K k, Ty ty) {
  auto e = std::make_unique<Expr>();
  e->k = k;
  e->ty = ty;
  return e;
}
} // namespace

const BuiltinInfo& builtinInfo(Builtin b) {
  return kBuiltins[static_cast<size_t>(b)];
}

ExprPtr constI(int32_t v) {
  auto e = mk(Expr::K::ConstI, Ty::I32);
  e->i = v;
  return e;
}
ExprPtr constF(float v) {
  auto e = mk(Expr::K::ConstF, Ty::F32);
  e->f = v;
  return e;
}
ExprPtr constB(bool v) {
  auto e = mk(Expr::K::ConstB, Ty::Bool);
  e->i = v ? 1 : 0;
  return e;
}
ExprPtr constS(std::string v) {
  auto e = mk(Expr::K::ConstS, Ty::Str);
  e->s = std::move(v);
  return e;
}
ExprPtr var(int32_t slot, Ty ty) {
  auto e = mk(Expr::K::Var, ty);
  e->slot = slot;
  return e;
}
ExprPtr arith(ArithOp op, ExprPtr a, ExprPtr b, Ty ty) {
  auto e = mk(Expr::K::Arith, ty);
  e->aop = op;
  e->args.push_back(std::move(a));
  e->args.push_back(std::move(b));
  return e;
}
ExprPtr cmp(CmpKind op, ExprPtr a, ExprPtr b, Ty ty) {
  auto e = mk(Expr::K::Cmp, ty);
  e->cop = op;
  e->args.push_back(std::move(a));
  e->args.push_back(std::move(b));
  return e;
}
ExprPtr logic(LogicOp op, ExprPtr a, ExprPtr b) {
  auto e = mk(Expr::K::Logic, Ty::Bool);
  e->lop = op;
  e->args.push_back(std::move(a));
  e->args.push_back(std::move(b));
  return e;
}
ExprPtr notE(ExprPtr a) {
  auto e = mk(Expr::K::Not, Ty::Bool);
  e->args.push_back(std::move(a));
  return e;
}
ExprPtr negE(ExprPtr a, Ty ty) {
  auto e = mk(Expr::K::Neg, ty);
  e->args.push_back(std::move(a));
  return e;
}
ExprPtr cast(Ty to, ExprPtr a) {
  auto e = mk(Expr::K::Cast, to);
  e->args.push_back(std::move(a));
  return e;
}
ExprPtr call(Builtin b, std::vector<ExprPtr> args) {
  auto e = mk(Expr::K::Call, builtinInfo(b).ret);
  e->builtin = b;
  e->args = std::move(args);
  return e;
}
ExprPtr loadFlat(ExprPtr mat, ExprPtr flat, Ty elemTy) {
  auto e = mk(Expr::K::LoadFlat, elemTy);
  e->args.push_back(std::move(mat));
  e->args.push_back(std::move(flat));
  return e;
}
ExprPtr dimSize(ExprPtr mat, ExprPtr d) {
  auto e = mk(Expr::K::DimSize, Ty::I32);
  e->args.push_back(std::move(mat));
  e->args.push_back(std::move(d));
  return e;
}

ExprPtr reductionIdentity(ArithOp op, Ty ty) {
  using F = std::numeric_limits<float>;
  using I = std::numeric_limits<int32_t>;
  bool f = ty == Ty::F32;
  switch (op) {
    case ArithOp::Mul: return f ? constF(1.0f) : constI(1);
    case ArithOp::Min: return f ? constF(F::infinity()) : constI(I::max());
    case ArithOp::Max: return f ? constF(-F::infinity()) : constI(I::min());
    // +: -0.0f, since -0 + x is x for every x, and 0 + -0 is not -0.
    default: return f ? constF(-0.0f) : constI(0);
  }
}

static IndexDim cloneDim(const IndexDim& d) {
  IndexDim o;
  o.kind = d.kind;
  if (d.a) o.a = cloneExpr(*d.a);
  if (d.b) o.b = cloneExpr(*d.b);
  return o;
}

ExprPtr cloneExpr(const Expr& e) {
  auto n = std::make_unique<Expr>();
  n->k = e.k;
  n->ty = e.ty;
  n->slot = e.slot;
  n->i = e.i;
  n->f = e.f;
  n->s = e.s;
  n->aop = e.aop;
  n->cop = e.cop;
  n->lop = e.lop;
  n->builtin = e.builtin;
  for (const auto& a : e.args) n->args.push_back(cloneExpr(*a));
  for (const auto& d : e.dims) n->dims.push_back(cloneDim(d));
  return n;
}

namespace {
StmtPtr mkS(Stmt::K k) {
  auto s = std::make_unique<Stmt>();
  s->k = k;
  return s;
}
} // namespace

StmtPtr block(std::vector<StmtPtr> kids) {
  auto s = mkS(Stmt::K::Block);
  s->kids = std::move(kids);
  return s;
}
StmtPtr assign(int32_t slot, ExprPtr e) {
  auto s = mkS(Stmt::K::Assign);
  s->slot = slot;
  s->exprs.push_back(std::move(e));
  return s;
}
StmtPtr storeFlat(int32_t matSlot, ExprPtr flat, ExprPtr value) {
  auto s = mkS(Stmt::K::StoreFlat);
  s->slot = matSlot;
  s->exprs.push_back(std::move(flat));
  s->exprs.push_back(std::move(value));
  return s;
}
StmtPtr forLoop(int32_t slot, ExprPtr lo, ExprPtr hi, StmtPtr body,
                std::string name) {
  auto s = mkS(Stmt::K::For);
  s->slot = slot;
  s->exprs.push_back(std::move(lo));
  s->exprs.push_back(std::move(hi));
  s->kids.push_back(std::move(body));
  s->loopName = std::move(name);
  return s;
}
StmtPtr whileLoop(ExprPtr cond, StmtPtr body) {
  auto s = mkS(Stmt::K::While);
  s->exprs.push_back(std::move(cond));
  s->kids.push_back(std::move(body));
  return s;
}
StmtPtr ifStmt(ExprPtr cond, StmtPtr thenS, StmtPtr elseS) {
  auto s = mkS(Stmt::K::If);
  s->exprs.push_back(std::move(cond));
  s->kids.push_back(std::move(thenS));
  s->kids.push_back(std::move(elseS)); // may be null
  return s;
}
StmtPtr ret(std::vector<ExprPtr> vals) {
  auto s = mkS(Stmt::K::Ret);
  s->exprs = std::move(vals);
  return s;
}
StmtPtr callStmt(ExprPtr callExpr) {
  auto s = mkS(Stmt::K::CallStmt);
  s->exprs.push_back(std::move(callExpr));
  return s;
}
StmtPtr callAssign(std::vector<int32_t> dsts, std::string callee,
                   std::vector<ExprPtr> args) {
  auto s = mkS(Stmt::K::CallAssign);
  s->dsts = std::move(dsts);
  s->callee = std::move(callee);
  s->exprs = std::move(args);
  return s;
}

StmtPtr cloneStmt(const Stmt& s) {
  auto n = std::make_unique<Stmt>();
  n->k = s.k;
  n->slot = s.slot;
  for (const auto& e : s.exprs)
    n->exprs.push_back(e ? cloneExpr(*e) : nullptr);
  for (const auto& c : s.kids) n->kids.push_back(c ? cloneStmt(*c) : nullptr);
  for (const auto& d : s.dims) n->dims.push_back(cloneDim(d));
  n->dsts = s.dsts;
  n->callee = s.callee;
  n->range = s.range;
  n->parallel = s.parallel;
  n->parSrc = s.parSrc;
  n->vecWidth = s.vecWidth;
  n->loopName = s.loopName;
  n->reds = s.reds;
  return n;
}

Function* Module::find(const std::string& name) const {
  for (const auto& f : functions)
    if (f->name == name) return f.get();
  return nullptr;
}

Function* Module::add(std::string name) {
  functions.push_back(std::make_unique<Function>());
  functions.back()->name = std::move(name);
  return functions.back().get();
}

// ---------------------------------------------------------------------------
// Pseudo-C dump

namespace {

class Dumper {
public:
  explicit Dumper(const Function& f) : f_(f) {}

  std::string run() {
    out_ << tySig() << " {\n";
    indent_ = 1;
    stmt(*f_.body);
    out_ << "}\n";
    return out_.str();
  }

private:
  std::string tySig() {
    std::ostringstream s;
    if (f_.rets.empty())
      s << "void";
    else {
      for (size_t i = 0; i < f_.rets.size(); ++i)
        s << (i ? ", " : "") << tyName(f_.rets[i]);
    }
    s << ' ' << f_.name << '(';
    for (size_t i = 0; i < f_.numParams; ++i)
      s << (i ? ", " : "") << tyName(f_.locals[i].ty) << ' '
        << f_.locals[i].name;
    s << ')';
    return s.str();
  }

  void line() {
    for (int i = 0; i < indent_; ++i) out_ << "  ";
  }

  std::string lv(int32_t slot) { return f_.locals[slot].name; }

  std::string expr(const Expr& e) {
    std::ostringstream s;
    switch (e.k) {
      case Expr::K::ConstI: s << e.i; break;
      case Expr::K::ConstF: s << e.f << 'f'; break;
      case Expr::K::ConstB: s << (e.i ? "true" : "false"); break;
      case Expr::K::ConstS: s << '"' << e.s << '"'; break;
      case Expr::K::Var: s << lv(e.slot); break;
      case Expr::K::Arith:
        s << '(' << expr(*e.args[0]) << ' ' << arithName(e.aop) << ' '
          << expr(*e.args[1]) << ')';
        break;
      case Expr::K::Cmp:
        s << '(' << expr(*e.args[0]) << ' ' << cmpName(e.cop) << ' '
          << expr(*e.args[1]) << ')';
        break;
      case Expr::K::Logic:
        s << '(' << expr(*e.args[0]) << (e.lop == LogicOp::And ? " && " : " || ")
          << expr(*e.args[1]) << ')';
        break;
      case Expr::K::Not: s << "!(" << expr(*e.args[0]) << ')'; break;
      case Expr::K::Neg: s << "-(" << expr(*e.args[0]) << ')'; break;
      case Expr::K::Cast:
        s << '(' << tyName(e.ty) << ")(" << expr(*e.args[0]) << ')';
        break;
      case Expr::K::Call: {
        s << builtinInfo(e.builtin).name << '(';
        for (size_t i = 0; i < e.args.size(); ++i)
          s << (i ? ", " : "") << expr(*e.args[i]);
        s << ')';
        break;
      }
      case Expr::K::Index: {
        s << expr(*e.args[0]) << '[';
        for (size_t i = 0; i < e.dims.size(); ++i) {
          if (i) s << ", ";
          s << dim(e.dims[i]);
        }
        s << ']';
        break;
      }
      case Expr::K::RangeLit:
        s << '(' << expr(*e.args[0]) << " :: " << expr(*e.args[1]) << ')';
        break;
      case Expr::K::DimSize:
        s << "dimSize(" << expr(*e.args[0]) << ", " << expr(*e.args[1]) << ')';
        break;
      case Expr::K::LoadFlat:
        s << expr(*e.args[0]) << ".data[" << expr(*e.args[1]) << ']';
        break;
    }
    return s.str();
  }

  std::string dim(const IndexDim& d) {
    switch (d.kind) {
      case IndexDim::Kind::Scalar: return expr(*d.a);
      case IndexDim::Kind::Range: return expr(*d.a) + " : " + expr(*d.b);
      case IndexDim::Kind::All: return ":";
      case IndexDim::Kind::Mask: return "mask(" + expr(*d.a) + ")";
    }
    return "?";
  }

  void stmt(const Stmt& s) {
    switch (s.k) {
      case Stmt::K::Block:
        for (const auto& k : s.kids)
          if (k) stmt(*k);
        break;
      case Stmt::K::Assign:
        line();
        out_ << lv(s.slot) << " = " << expr(*s.exprs[0]) << ";\n";
        break;
      case Stmt::K::IndexStore: {
        line();
        out_ << lv(s.slot) << '[';
        for (size_t i = 0; i < s.dims.size(); ++i) {
          if (i) out_ << ", ";
          out_ << dim(s.dims[i]);
        }
        out_ << "] = " << expr(*s.exprs[0]) << ";\n";
        break;
      }
      case Stmt::K::StoreFlat:
        line();
        out_ << lv(s.slot) << ".data[" << expr(*s.exprs[0])
             << "] = " << expr(*s.exprs[1]) << ";\n";
        break;
      case Stmt::K::For: {
        line();
        if (s.parallel) out_ << "#pragma parallel\n", line();
        for (const auto& [slot, op] : s.reds)
          out_ << "#pragma reduction(" << arithName(op) << ": " << lv(slot)
               << ")\n", line();
        if (s.vecWidth > 1) out_ << "#pragma vectorize " << s.vecWidth << "\n",
            line();
        out_ << "for (" << lv(s.slot) << " = " << expr(*s.exprs[0]) << "; "
             << lv(s.slot) << " < " << expr(*s.exprs[1]) << "; " << lv(s.slot)
             << "++) {\n";
        ++indent_;
        stmt(*s.kids[0]);
        --indent_;
        line();
        out_ << "}\n";
        break;
      }
      case Stmt::K::While:
        line();
        out_ << "while (" << expr(*s.exprs[0]) << ") {\n";
        ++indent_;
        stmt(*s.kids[0]);
        --indent_;
        line();
        out_ << "}\n";
        break;
      case Stmt::K::If:
        line();
        out_ << "if (" << expr(*s.exprs[0]) << ") {\n";
        ++indent_;
        stmt(*s.kids[0]);
        --indent_;
        line();
        out_ << "}";
        if (s.kids.size() > 1 && s.kids[1]) {
          out_ << " else {\n";
          ++indent_;
          stmt(*s.kids[1]);
          --indent_;
          line();
          out_ << "}";
        }
        out_ << "\n";
        break;
      case Stmt::K::Ret: {
        line();
        out_ << "return";
        for (size_t i = 0; i < s.exprs.size(); ++i)
          out_ << (i ? ", " : " ") << expr(*s.exprs[i]);
        out_ << ";\n";
        break;
      }
      case Stmt::K::CallStmt:
        line();
        out_ << expr(*s.exprs[0]) << ";\n";
        break;
      case Stmt::K::CallAssign: {
        line();
        if (!s.dsts.empty()) {
          out_ << '(';
          for (size_t i = 0; i < s.dsts.size(); ++i)
            out_ << (i ? ", " : "") << lv(s.dsts[i]);
          out_ << ") = ";
        }
        out_ << s.callee << '(';
        for (size_t i = 0; i < s.exprs.size(); ++i)
          out_ << (i ? ", " : "") << expr(*s.exprs[i]);
        out_ << ");\n";
        break;
      }
      case Stmt::K::Break:
        line();
        out_ << "break;\n";
        break;
      case Stmt::K::Continue:
        line();
        out_ << "continue;\n";
        break;
    }
  }

  const Function& f_;
  std::ostringstream out_;
  int indent_ = 0;
};

} // namespace

std::string dump(const Function& f) { return Dumper(f).run(); }

std::string dump(const Module& m) {
  std::string out;
  for (const auto& f : m.functions) {
    out += dump(*f);
    out += '\n';
  }
  return out;
}

} // namespace mmx::ir
