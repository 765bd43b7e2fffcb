// Parallel-safety / race detection over the loop IR (the analysis the
// paper's §III-C auto-parallelizer and §V `parallelize` clause lean on).
//
// For every `For` loop the pass computes per-iteration read/write effects
// with a symbolic walk over the body (affine index expressions in the
// loop variable, mixed-radix div/mod digit chains, loop-invariant values
// via constant/shape propagation) and classifies the loop:
//
//   Safe      — iterations are independent: every store to a matrix that
//               outlives the iteration lands at an index that provably
//               differs across iterations, no scalar local carries a
//               value from one iteration to the next, and the body has
//               no IO or other observable side effects.
//   Reduction — the only loop-carried dependence is `acc = acc op e`
//               with op in {+, *, min, max}. A loop whose `reds` name
//               exactly these accumulators stays parallel: both backends
//               give each iteration its own partial and combine the
//               partials in index order (ir::Stmt::reds). Any other
//               reduction runs serially.
//   Unsafe    — a data race or semantic change was detected (or could
//               not be ruled out): overlapping matrix stores, a scalar
//               read-before-write across iterations, IO, break from the
//               loop, ...
//
// Function calls are handled compositionally: summarizeModule computes
// bottom-up effect summaries (IO, which Mat params are written, which
// params the return may alias) so a loop body calling helpers is not
// conservatively rejected.
//
// enforceParallelSafety applies the policy: auto-parallelized loops that
// are neither Safe nor a Reduction on exactly their `reds` are demoted to
// serial (warning under -Wparallel); loops the user explicitly marked
// with `parallelize` raise an error under --strict-parallel (warning
// otherwise) and are demoted too, so the interpreter never executes a
// racy schedule.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ir/ir.hpp"
#include "support/diag.hpp"

namespace mmx::analysis {

/// Per-function effect summary, computed bottom-up over the call graph
/// (optimistic start + monotone fixpoint, so recursion converges).
struct FnSummary {
  /// Performs IO or reads runtime-mutable state (print*, writeMatrix,
  /// refCount, ...) — directly or through a callee.
  bool hasIO = false;
  /// writesParam[i]: the i-th parameter's matrix buffer may be stored to.
  std::vector<bool> writesParam;
  /// retMayAliasParam[i]: some returned matrix may alias parameter i
  /// (e.g. returning the argument of checkMatrixMeta()).
  std::vector<bool> retMayAliasParam;
};

/// Summaries for every function of `m`, keyed by function pointer.
std::map<const ir::Function*, FnSummary> summarizeModule(const ir::Module& m);

/// Classification of one For loop.
enum class LoopClass : uint8_t { Safe, Reduction, Unsafe };

const char* loopClassName(LoopClass c);

struct LoopFinding {
  const ir::Stmt* loop = nullptr;    // the For statement
  const ir::Function* fn = nullptr;  // enclosing function
  LoopClass cls = LoopClass::Safe;
  /// Human-readable reason for a non-Safe classification, e.g.
  /// "scalar 'sum' carries a value across iterations".
  std::string detail;
  /// Slots of the offending (Unsafe) or accumulating (Reduction) locals.
  std::vector<int32_t> vars;
  /// Reduction: the accumulators and their operators, by slot.
  std::vector<std::pair<int32_t, ir::ArithOp>> reds;
};

/// The analysis context: builds call summaries and per-function constant
/// environments once, then classifies loops on demand.
class ParSafe {
public:
  explicit ParSafe(const ir::Module& m);
  ~ParSafe();

  /// Classifies one For loop of `f` (must be a Stmt::K::For).
  LoopFinding classifyLoop(const ir::Function& f, const ir::Stmt& loop) const;

  /// Classifies every For loop of every function, in program order.
  std::vector<LoopFinding> analyzeAll() const;

  const std::map<const ir::Function*, FnSummary>& summaries() const {
    return summaries_;
  }

private:
  struct FnCtx; // per-function cached constprop results
  const FnCtx& ctx(const ir::Function& f) const;

  const ir::Module& mod_;
  std::map<const ir::Function*, FnSummary> summaries_;
  mutable std::map<const ir::Function*, std::unique_ptr<FnCtx>> ctx_;
};

struct ParSafeOptions {
  bool warnParallel = true;    // -Wparallel: warn on demoted auto loops
  bool strictParallel = false; // --strict-parallel: unsafe `parallelize` = error
};

/// Runs ParSafe over `m` and demotes every `parallel` For whose
/// classification is not Safe, nor a Reduction on exactly the loop's
/// `reds` (clearing Stmt::parallel in place; `reds` stay).
/// Diagnostics name the loop and the offending variables:
///   - auto-parallelized (Par::Auto): warning when opts.warnParallel;
///   - explicit `parallelize` (Par::Explicit): error when
///     opts.strictParallel, warning otherwise.
/// Returns the findings for every demoted loop.
std::vector<LoopFinding> enforceParallelSafety(ir::Module& m,
                                               DiagnosticEngine& diags,
                                               const ParSafeOptions& opts);

/// Renders `analyzeAll()` findings as a human-readable report (one line
/// per loop: function, loop name, classification, detail) — the output of
/// `mmc --analyze`.
std::string renderAnalysis(const ir::Module& m,
                           const std::vector<LoopFinding>& findings);

} // namespace mmx::analysis
