#include "driver/translator.hpp"

#include <set>

#include <algorithm>
#include <tuple>

#include "analysis/depend.hpp"
#include "analysis/lint.hpp"
#include "analysis/parsafe.hpp"
#include "analysis/shapecheck.hpp"
#include "cminus/host_grammar.hpp"
#include "cminus/sema.hpp"
#include "ir/optimize.hpp"
#include "parse/lalr.hpp"
#include "support/metrics.hpp"

namespace mmx::driver {

bool TranslateResult::hasErrors() const {
  for (const auto& d : diagnostics)
    if (d.severity == Severity::Error) return true;
  return false;
}

std::string TranslateResult::renderDiagnostics() const {
  return mmx::renderDiagnostics(diagnostics, sourceManager.get());
}

Translator::Translator() = default;
Translator::~Translator() = default;

void Translator::addExtension(ext::ExtensionPtr e) {
  extensions_.push_back(std::move(e));
}

bool Translator::compose(TranslateOptions opts) {
  metrics::ScopedTimer composeTimer("compose");
  opts_ = opts;
  composeDiags_.clear();

  // Duplicate extension registrations compose into nonsense grammars
  // (every symbol "clashes with itself"); reject them up front with the
  // offending extension named in the structured diagnostic.
  std::set<std::string> extNames;
  for (const auto& e : extensions_) {
    if (!extNames.insert(e->name()).second) {
      DiagnosticEngine::OriginScope origin(composeDiags_, e->name());
      composeDiags_.error({}, "extension '" + e->name() +
                                  "' registered more than once");
    }
  }
  if (composeDiags_.hasErrors()) return false;

  ext::GrammarFragment host = cm::hostFragment();
  ext::GrammarFragment tuple = cm::tupleFragment(); // host-packaged (§VI-A)
  std::vector<ext::GrammarFragment> extFrags;
  for (const auto& e : extensions_) extFrags.push_back(e->grammarFragment());

  std::vector<const ext::GrammarFragment*> all{&host, &tuple};
  for (const auto& f : extFrags) all.push_back(&f);

  grammar_ = grammar::Grammar();
  if (!ext::composeGrammar(all, grammar_, composeDiags_)) return false;

  parser_ = std::make_unique<parse::Parser>(grammar_);
  {
    static const metrics::Counter states = metrics::counter("parse.lalrStates");
    static const metrics::Counter conflicts =
        metrics::counter("parse.lalrConflicts");
    states.add(parser_->tables().stateCount());
    conflicts.add(parser_->tables().conflicts().size());
  }
  if (!parser_->tables().conflicts().empty()) {
    for (const auto& c : parser_->tables().conflicts())
      composeDiags_.error({}, "composition is not LALR(1): " + c.description);
    return false;
  }

  composed_ = true;
  return !composeDiags_.hasErrors();
}

std::string Translator::renderComposeDiagnostics() const {
  return composeDiags_.render(composeSm_);
}

TranslateResult Translator::translate(const std::string& name,
                                      const std::string& source) {
  TranslateResult res;
  if (!composed_) {
    res.diagnostics.push_back(
        {Severity::Error, {}, "translator was not composed", ""});
    return res;
  }
  res.sourceManager = std::make_shared<SourceManager>();
  SourceManager& sm = *res.sourceManager;
  DiagnosticEngine diags;
  FileId file = sm.add(name, source);

  {
    metrics::ScopedTimer parseTimer("parse");
    res.tree = parser_->parse(sm, file, diags);
  }
  if (!res.tree) {
    res.diagnostics = diags.take();
    return res;
  }

  // Fresh Sema per program (function tables are per-program) with the same
  // handler registrations: rebuild from the installed extension set.
  attr::Registry reg;
  cm::Sema sema(diags, reg);
  sema.fusionEnabled = opts_.fusion;
  sema.sliceEliminationEnabled = opts_.sliceElimination;
  sema.autoParallelEnabled = opts_.autoParallel;
  sema.warnShape = opts_.warnShape;
  sema.strictShape = opts_.strictShape;
  sema.warnTransform = opts_.warnTransform;
  sema.strictTransform = opts_.strictTransform;
  cm::installHostSemantics(sema);
  for (const auto& e : extensions_) e->installSemantics(sema);

  auto mod = std::make_unique<ir::Module>();
  bool ok = sema.translate(res.tree, *mod); // typecheck + lower phases
  ir::OptStats optStats;
  if (ok) {
    {
      // Whole-program optimizer (ISSUE 6): fusion / temp elimination /
      // in-place rewriting over the lowered IR, before parallel-safety
      // enforcement (fused nests get re-verified and demoted like any
      // other loop) and before shapecheck (the guard plan is keyed by
      // statement addresses of the final IR). At -O0 no pass is enabled
      // and optimizeModule only registers its counters.
      metrics::ScopedTimer wpoTimer("optimizer");
      ir::OptOptions oo;
      oo.fuse = opts_.optFuse;
      oo.elimTemp = opts_.optElimTemp;
      oo.inplace = opts_.optInplace;
      oo.autopar = opts_.optAutopar;
      optStats = ir::optimizeModule(*mod, oo);
    }
    // Post-lowering parallel-safety enforcement: loops the §III-C
    // auto-parallelizer or a `parallelize` clause marked parallel are
    // demoted to serial unless the race analysis proves them safe.
    {
      metrics::ScopedTimer optTimer("optimize");
      analysis::ParSafeOptions po;
      po.warnParallel = opts_.warnParallel;
      po.strictParallel = opts_.strictParallel;
      analysis::enforceParallelSafety(*mod, diags, po);
    }
    {
      // Symbolic shape & bounds verification over the final IR (after
      // transforms and demotions): fills the guard plan Auto-mode
      // backends consult and reports proven violations per -Wshape /
      // --strict-shape.
      metrics::ScopedTimer shapeTimer("shapecheck");
      auto plan = std::make_shared<ir::GuardPlan>();
      analysis::ShapeCheckOptions so;
      so.warnShape = opts_.warnShape;
      so.strictShape = opts_.strictShape;
      analysis::ShapeCheckStats st =
          analysis::checkShapes(*mod, *plan, diags, so);
      res.guardPlan = std::move(plan);
      static const metrics::Counter elided =
          metrics::counter("shapecheck.guards.elided");
      static const metrics::Counter kept =
          metrics::counter("shapecheck.guards.kept");
      static const metrics::Counter violations =
          metrics::counter("shapecheck.guards.violations");
      static const metrics::Counter pairs =
          metrics::counter("shapecheck.refcount.elidedPairs");
      static const metrics::Counter fullWrites =
          metrics::counter("shapecheck.genarray.fullyWritten");
      fullWrites.add(res.guardPlan->fullyWritten.size());
      elided.add(st.guardsSafe);
      kept.add(st.guardsKept());
      violations.add(st.guardsViolating);
      pairs.add(st.borrowedParams);
    }
    {
      // Whole-module dependence analysis: feeds the depend.* counters and
      // the --analyze report. Skipped when neither consumer is active.
      static const metrics::Counter cNests = metrics::counter("depend.nests");
      static const metrics::Counter cVectors =
          metrics::counter("depend.vectors");
      static const metrics::Counter cUnknown =
          metrics::counter("depend.unknown");
      if (opts_.analyze || metrics::enabled()) {
        metrics::ScopedTimer dependTimer("depend");
        analysis::Depend dep(*mod);
        analysis::DependStats ds;
        std::vector<analysis::NestDeps> nests = dep.analyzeModule(&ds);
        cNests.add(ds.nests);
        cVectors.add(ds.vectors);
        cUnknown.add(ds.unknown);
        if (opts_.analyze)
          res.analysisReport += analysis::renderDependReport(nests);
      }
    }
    if (opts_.analyze) {
      metrics::ScopedTimer analyzeTimer("analyze");
      analysis::ParSafe ps(*mod);
      res.analysisReport =
          analysis::renderAnalysis(*mod, ps.analyzeAll()) +
          res.analysisReport;
      res.analysisReport +=
          "optimizer: fused=" + std::to_string(optStats.fused) +
          " temps-eliminated=" + std::to_string(optStats.tempsEliminated) +
          " inplace=" + std::to_string(optStats.inplaceConverted) +
          " alias-blocked=" + std::to_string(optStats.aliasBlocked) +
          " autopar-promoted=" + std::to_string(optStats.autoparPromoted) +
          " autopar-blocked=" + std::to_string(optStats.autoparBlocked) +
          "\n";
      analysis::LintOptions lo;
      lo.deadMatrix = opts_.warnDeadMatrix;
      analysis::lintModule(*mod, diags, lo);
    }
  }
  res.diagnostics = diags.take();
  if (opts_.analyze) {
    // Analyze mode runs parsafe and the dependence verifier over the same
    // nests; identical findings (same pass, location, text) would render
    // twice. Stable-sort by (location, pass) and drop exact duplicates —
    // operating on groups (a warning/error plus its trailing notes) so
    // witness notes stay attached to the finding they explain.
    using Group = std::pair<size_t, size_t>; // [begin, end) indices
    std::vector<Group> groups;
    for (size_t i = 0; i < res.diagnostics.size();) {
      size_t j = i + 1;
      while (j < res.diagnostics.size() &&
             res.diagnostics[j].severity == Severity::Note)
        ++j;
      groups.push_back({i, j});
      i = j;
    }
    auto key = [&](const Group& g) {
      const Diagnostic& d = res.diagnostics[g.first];
      return std::make_tuple(d.range.begin.file, d.range.begin.offset,
                             d.extension);
    };
    std::stable_sort(groups.begin(), groups.end(),
                     [&](const Group& a, const Group& b) {
                       return key(a) < key(b);
                     });
    auto sameDiag = [](const Diagnostic& a, const Diagnostic& b) {
      return a.severity == b.severity &&
             a.range.begin.file == b.range.begin.file &&
             a.range.begin.offset == b.range.begin.offset &&
             a.range.end == b.range.end && a.message == b.message &&
             a.extension == b.extension;
    };
    std::vector<Diagnostic> out;
    for (size_t g = 0; g < groups.size(); ++g) {
      if (g > 0) {
        const Group& p = groups[g - 1];
        const Group& c = groups[g];
        if (c.second - c.first == p.second - p.first) {
          bool dup = true;
          for (size_t k = 0; dup && k < c.second - c.first; ++k)
            dup = sameDiag(res.diagnostics[p.first + k],
                           res.diagnostics[c.first + k]);
          if (dup) continue;
        }
      }
      for (size_t k = groups[g].first; k < groups[g].second; ++k)
        out.push_back(res.diagnostics[k]);
    }
    res.diagnostics = std::move(out);
  }
  res.boundsChecks = opts_.boundsChecks;
  if (!ok || res.hasErrors()) return res;
  res.ok = true;
  res.module = std::move(mod);
  return res;
}

} // namespace mmx::driver
