// The translator pipeline (paper §II): compose the host specification with
// the user-chosen extension specifications, build the custom parser, then
// translate extended-C programs down to the plain-parallel-C level (our
// loop IR), which can be executed directly (interp/) or printed as C
// (ir/cemit). Composition runs the modular analyses and refuses to build
// a translator whose composition has LALR conflicts.
//
// Observability (ISSUE 2): every pipeline phase runs under a
// metrics::ScopedTimer (compose / parse / typecheck / lower / optimize /
// analyze) so --time-report, --stats-json, and --trace-json can account
// for where translation time goes. Diagnostics are structured
// (std::vector<Diagnostic> with severity, range, and originating
// extension); the classic rendered string is derived on demand.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "attr/engine.hpp"
#include "ext/extension.hpp"
#include "grammar/grammar.hpp"
#include "ir/guards.hpp"
#include "ir/ir.hpp"
#include "parse/parser.hpp"
#include "support/diag.hpp"

namespace mmx::driver {

/// Options threaded into the matrix extension's lowering (the DESIGN.md
/// ablation switches).
struct TranslateOptions {
  bool fusion = true;           // §III-A4 with-loop/assignment fusion
  bool sliceElimination = true; // §III-A4 fold slice elimination
  bool autoParallel = true;     // §III-C parallel code generation
  bool warnParallel = true;     // -Wparallel: warn when loops are demoted
  bool strictParallel = false;  // unsafe `parallelize` is an error
  bool analyze = false;         // collect the --analyze report + IR lints
  /// --bounds-checks mode the backends should honor; Auto consults the
  /// shapecheck guard plan attached to the TranslateResult.
  ir::BoundsCheckMode boundsChecks = ir::BoundsCheckMode::Auto;
  bool warnShape = true;   // -Wshape: warn on proven shape violations
  bool strictShape = false; // proven shape violations are errors
  bool warnTransform = true;   // -Wtransform: warn on illegal §V clauses
  bool strictTransform = false; // illegal transform clauses are errors
  // Whole-program optimizer passes (ISSUE 6). All off by default: -O0
  // output stays byte-identical to the unoptimized pipeline. `-O1` turns
  // all three on; `--opt=fuse,elim-temp,inplace` picks individually.
  bool optFuse = false;     // producer/consumer with-loop fusion
  bool optElimTemp = false; // whole-matrix temporary elimination
  bool optInplace = false;  // copy-then-mutate -> in-place rewriting
  bool optAutopar = false;  // promote dependence-free serial loops
  bool warnDeadMatrix = true; // -Wdead-matrix: allocated-but-dead matrices
};

/// Result of translating one program.
struct TranslateResult {
  bool ok = false;
  std::unique_ptr<ir::Module> module; // valid when ok
  ast::NodePtr tree;                  // parse tree (valid when parsed)
  /// Structured diagnostics (always populated; severity + source range +
  /// originating extension name).
  std::vector<Diagnostic> diagnostics;
  /// Resolves the diagnostics' source ranges; null only for the
  /// translate-before-compose error path.
  std::shared_ptr<SourceManager> sourceManager;
  std::string analysisReport; // parallel-safety report (analyze)
  /// Shapecheck verdicts: guard sites proven redundant and parameters
  /// whose retain/release pair codegen may drop. Valid when ok; shared
  /// with the backends (emitC options, the interpreter Machine).
  std::shared_ptr<const ir::GuardPlan> guardPlan;
  /// The mode translation ran under, for backends driven off the result.
  ir::BoundsCheckMode boundsChecks = ir::BoundsCheckMode::Auto;

  bool hasErrors() const;
  /// Derived convenience: the classic "file:line:col: severity: message"
  /// rendering (mmc output is unchanged from the string-first API).
  std::string renderDiagnostics() const;
};

class Translator {
public:
  /// A translator over the host language (with the paper's host-packaged
  /// tuple syntax). Call addExtension() for each chosen extension, then
  /// compose().
  Translator();
  ~Translator();

  Translator(const Translator&) = delete;
  Translator& operator=(const Translator&) = delete;

  void addExtension(ext::ExtensionPtr e);

  /// Composes grammar + semantics and builds the parser. Returns false
  /// (with composeDiagnostics()) on duplicate extension names, symbol
  /// clashes, or LALR conflicts in the composition.
  bool compose(TranslateOptions opts = {});

  /// Parses + checks + lowers one source buffer.
  TranslateResult translate(const std::string& name,
                            const std::string& source);

  /// Structured diagnostics from compose().
  const std::vector<Diagnostic>& composeDiagnostics() const {
    return composeDiags_.all();
  }
  /// Rendered convenience form of composeDiagnostics().
  std::string renderComposeDiagnostics() const;

  const grammar::Grammar& grammar() const { return grammar_; }
  const parse::Parser* parser() const { return parser_.get(); }

private:
  std::vector<ext::ExtensionPtr> extensions_;
  grammar::Grammar grammar_;
  std::unique_ptr<parse::Parser> parser_;
  DiagnosticEngine composeDiags_;
  SourceManager composeSm_;
  bool composed_ = false;
  TranslateOptions opts_;
};

} // namespace mmx::driver
