// The loop-level intermediate representation — the "plain C" the paper's
// extensions translate down to. With-loops expand into annotated for-loop
// nests here (Fig. 3); the §V transformation extension rewrites these
// loops (split/vectorize/parallelize/reorder/tile); the C emitter prints
// them as parallel C (Figs. 10-11) and the interpreter executes them on
// the matrix runtime.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "support/source.hpp"

namespace mmx::ir {

/// Scalar and aggregate types of the lowered language.
enum class Ty : uint8_t { Void, I32, F32, Bool, Mat, Str };

const char* tyName(Ty t);

/// Arithmetic operators (element-wise over matrices when an operand is a
/// matrix; '*' on two matrices is linear-algebra matmul, '.*' lowers to
/// EwMul).
enum class ArithOp : uint8_t { Add, Sub, Mul, EwMul, Div, Mod, Min, Max };
/// Comparisons (produce Bool, or a Bool matrix when an operand is a matrix).
enum class CmpKind : uint8_t { Lt, Le, Gt, Ge, Eq, Ne };
/// Short-circuit logical ops on scalars.
enum class LogicOp : uint8_t { And, Or };

const char* arithName(ArithOp);
const char* cmpName(CmpKind);

/// The builtins an `Expr::Call` names. Every front end lowers calls to user
/// functions to `Stmt::CallAssign`, so a Call is always one of these, and
/// both backends implement each of them.
enum class Builtin : uint8_t {
  ReadMatrix, WriteMatrix, InitMatrix, CloneMatrix, ConnComp, DetectEddies,
  SynthSsh, CheckGenBounds, CheckMatrixMeta, MatToFloat, NumThreads,
  RefCount, RcLive, PrintInt, PrintFloat, PrintBool, PrintStr, PrintShape,
};

/// What the analyses know about a builtin: one row per `Builtin`.
struct BuiltinInfo {
  const char* name;        // spelling in `--emit-ir` and diagnostics
  Ty ret;                  // result type
  bool io = false;         // observable side effect, or mutable runtime state
  bool metaOnly = false;   // reads matrix metadata (shape) only, not elements
  bool aliasArg0 = false;  // returns its first argument's handle
  /// The Mat result is a buffer no other handle references (uniqueness).
  bool returnsFresh = false;
  /// Keeps no reference to its Mat arguments (uniqueness).
  bool borrowsArgs = false;
  bool observesRefcount = false; // result depends on reference counts
};

const BuiltinInfo& builtinInfo(Builtin);

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// One dimension of a MATLAB-style index (paper §III-A3).
struct IndexDim {
  enum class Kind : uint8_t { Scalar, Range, All, Mask };
  Kind kind = Kind::Scalar;
  ExprPtr a; // Scalar: the index; Range: lower bound; Mask: bool matrix
  ExprPtr b; // Range: upper bound (inclusive, per the paper)
};

/// Expression node. `ty` is the checked result type.
struct Expr {
  enum class K : uint8_t {
    ConstI, ConstF, ConstB, ConstS,
    Var,        // local slot
    Arith,      // args[0] op args[1]
    Cmp,        // args[0] cmp args[1]
    Logic,      // args[0] &&/|| args[1] (scalars, short-circuit)
    Not,        // !args[0]
    Neg,        // -args[0]
    Cast,       // (ty) args[0]  (i32 <-> f32)
    Call,       // builtin(args...); see BuiltinInfo
    Index,      // args[0] = matrix; dims = per-dimension selectors
    RangeLit,   // (a :: b) inclusive 1-D i32 matrix; args[0..1]
    DimSize,    // dimSize(args[0], args[1])
    LoadFlat,   // low-level: element args[1] of matrix args[0] (row-major)
  };

  K k;
  Ty ty = Ty::Void;
  int32_t slot = -1;      // Var
  int32_t i = 0;          // ConstI / ConstB(0|1)
  float f = 0.f;          // ConstF
  std::string s;          // ConstS
  ArithOp aop{};
  CmpKind cop{};
  LogicOp lop{};
  Builtin builtin{};      // Call
  std::vector<ExprPtr> args;
  std::vector<IndexDim> dims; // Index
};

ExprPtr constI(int32_t v);
ExprPtr constF(float v);
ExprPtr constB(bool v);
ExprPtr constS(std::string v);
ExprPtr var(int32_t slot, Ty ty);
ExprPtr arith(ArithOp op, ExprPtr a, ExprPtr b, Ty ty);
ExprPtr cmp(CmpKind op, ExprPtr a, ExprPtr b, Ty ty = Ty::Bool);
ExprPtr logic(LogicOp op, ExprPtr a, ExprPtr b);
ExprPtr notE(ExprPtr a);
ExprPtr negE(ExprPtr a, Ty ty);
ExprPtr cast(Ty to, ExprPtr a);
ExprPtr call(Builtin b, std::vector<ExprPtr> args);
ExprPtr loadFlat(ExprPtr mat, ExprPtr flat, Ty elemTy);
ExprPtr dimSize(ExprPtr mat, ExprPtr d);

/// Deep copy (the transformation extension rewrites loop bodies).
ExprPtr cloneExpr(const Expr& e);

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

/// Statement node.
struct Stmt {
  enum class K : uint8_t {
    Block,      // kids
    Assign,     // locals[slot] = expr0
    IndexStore, // target matrix in locals[slot], dims selectors, expr0 value
    StoreFlat,  // low-level: locals[slot] matrix, expr0 = flat idx, expr1 = value
    For,        // for (slot = expr0; slot < expr1; slot += 1) kids[0]
    While,      // while (expr0) kids[0]
    If,         // if (expr0) kids[0] else kids[1] (kids[1] may be null)
    Ret,        // return exprs (0, 1, or a tuple's worth)
    CallStmt,   // expr0 is a void builtin call (e.g. writeMatrix)
    CallAssign, // locals[dsts...] = callee(exprs...)  (user functions)
    Break, Continue,
  };

  K k;
  int32_t slot = -1;           // Assign / IndexStore / StoreFlat / For var
  std::vector<ExprPtr> exprs;
  std::vector<StmtPtr> kids;
  std::vector<IndexDim> dims;  // IndexStore
  std::vector<int32_t> dsts;   // CallAssign
  std::string callee;          // CallAssign

  /// Source statement this IR statement was lowered from (stamped by the
  /// Sema emit path; invalid for synthesized glue). Analyses report their
  /// findings against this range.
  SourceRange range;

  // --- loop annotations (For only) ------------------------------------
  /// Who asked for `parallel`: the §III-C auto-parallelizer, an explicit
  /// §V `parallelize` clause, or the `-O1` autopar pass after proving the
  /// loop dependence-free. The parallel-safety pass demotes unsafe `Auto`
  /// loops silently, diagnoses unsafe `Explicit` ones, and trusts `Proven`
  /// promotions (its coarser read/write matching would demote them).
  enum class Par : uint8_t { None, Auto, Explicit, Proven };

  bool parallel = false; // run iterations on the fork-join pool
  Par parSrc = Par::None;
  int vecWidth = 1;      // 4 => SSE-vectorized (paper §V)
  std::string loopName;  // source index name; transform clauses target this
};

StmtPtr block(std::vector<StmtPtr> kids);
StmtPtr assign(int32_t slot, ExprPtr e);
StmtPtr storeFlat(int32_t matSlot, ExprPtr flat, ExprPtr value);
StmtPtr forLoop(int32_t slot, ExprPtr lo, ExprPtr hi, StmtPtr body,
                std::string name);
StmtPtr whileLoop(ExprPtr cond, StmtPtr body);
StmtPtr ifStmt(ExprPtr cond, StmtPtr thenS, StmtPtr elseS);
StmtPtr ret(std::vector<ExprPtr> vals);
StmtPtr callStmt(ExprPtr callExpr);
StmtPtr callAssign(std::vector<int32_t> dsts, std::string callee,
                   std::vector<ExprPtr> args);

StmtPtr cloneStmt(const Stmt& s);

/// A local variable (parameters are the first `params` locals).
struct Local {
  std::string name;
  Ty ty = Ty::Void;
  /// Declared matrix metadata for Mat-typed slots, stamped from the static
  /// type during lowering; -1 = unknown (MatrixAny) or not a matrix.
  /// matElem uses the rt::Elem encoding (0 = int, 1 = float, 2 = bool).
  int32_t matRank = -1;
  int32_t matElem = -1;
};

/// A lowered function. Multiple return types model tuple returns.
struct Function {
  std::string name;
  size_t numParams = 0;
  std::vector<Ty> rets;
  std::vector<Local> locals;
  StmtPtr body;

  /// Adds a local and returns its slot.
  int32_t addLocal(std::string name, Ty ty) {
    locals.push_back({std::move(name), ty});
    return static_cast<int32_t>(locals.size() - 1);
  }
};

/// A lowered program.
struct Module {
  std::vector<std::unique_ptr<Function>> functions;

  Function* find(const std::string& name) const;
  Function* add(std::string name);
};

/// Renders the IR as readable pseudo-C (tests assert on loop structure;
/// this is not the compilable emitter — see cemit.hpp).
std::string dump(const Module& m);
std::string dump(const Function& f);

} // namespace mmx::ir
