// Shared helper for language-level tests: translate an extended-C source
// with the full default extension set (matrix + refcount + transform) and
// optionally run it on the interpreter.
#pragma once

#include <gtest/gtest.h>

#include "driver/translator.hpp"
#include "ext_matrix/matrix_ext.hpp"
#include "ext_refcount/refcount_ext.hpp"
#include "ext_transform/transform_ext.hpp"
#include "interp/interp.hpp"

namespace mmx::test {

inline driver::Translator& sharedTranslator(driver::TranslateOptions opts = {}) {
  // Cache translators per option set: table construction is the slow part.
  struct Key {
    bool fusion, slice, par, warnPar, strictPar, analyze;
    bool warnShape, strictShape, warnTransform, strictTransform;
    bool optFuse, optElimTemp, optInplace, optAutopar, warnDeadMatrix;
    bool operator<(const Key& o) const {
      return std::tie(fusion, slice, par, warnPar, strictPar, analyze,
                      warnShape, strictShape, warnTransform, strictTransform,
                      optFuse, optElimTemp, optInplace, optAutopar,
                      warnDeadMatrix) <
             std::tie(o.fusion, o.slice, o.par, o.warnPar, o.strictPar,
                      o.analyze, o.warnShape, o.strictShape, o.warnTransform,
                      o.strictTransform, o.optFuse, o.optElimTemp,
                      o.optInplace, o.optAutopar, o.warnDeadMatrix);
    }
  };
  static std::map<Key, std::unique_ptr<driver::Translator>> cache;
  Key k{opts.fusion, opts.sliceElimination, opts.autoParallel,
        opts.warnParallel, opts.strictParallel, opts.analyze,
        opts.warnShape, opts.strictShape, opts.warnTransform,
        opts.strictTransform, opts.optFuse, opts.optElimTemp,
        opts.optInplace, opts.optAutopar, opts.warnDeadMatrix};
  auto it = cache.find(k);
  if (it == cache.end()) {
    auto t = std::make_unique<driver::Translator>();
    t->addExtension(ext_matrix::matrixExtension());
    t->addExtension(ext_refcount::refcountExtension());
    t->addExtension(ext_transform::transformExtension());
    EXPECT_TRUE(t->compose(opts)) << t->renderComposeDiagnostics();
    it = cache.emplace(k, std::move(t)).first;
  }
  return *it->second;
}

inline driver::TranslateResult translateXc(const std::string& src,
                                           driver::TranslateOptions opts = {}) {
  return sharedTranslator(opts).translate("test.xc", src);
}

struct RunOutcome {
  bool translated = false;
  bool ran = false;
  int exitCode = -1;
  std::string output;
  std::string diagnostics; // rendered, for assertion messages
  std::string runtimeError;
};

inline RunOutcome runXc(const std::string& src, unsigned threads = 1,
                        driver::TranslateOptions opts = {}) {
  RunOutcome out;
  auto res = translateXc(src, opts);
  out.diagnostics = res.renderDiagnostics();
  if (!res.ok) return out;
  out.translated = true;
  std::unique_ptr<rt::Executor> exec = rt::makeExecutor(
      threads > 1 ? rt::ExecutorKind::ForkJoin : rt::ExecutorKind::Serial,
      threads);
  interp::Machine vm(*res.module, *exec);
  try {
    out.exitCode = vm.runMain();
    out.ran = true;
  } catch (const std::exception& e) {
    out.runtimeError = e.what();
  }
  out.output = vm.output();
  return out;
}

/// Expects successful translation + run; returns the program output.
inline std::string runOk(const std::string& src, unsigned threads = 1,
                         driver::TranslateOptions opts = {}) {
  RunOutcome o = runXc(src, threads, opts);
  EXPECT_TRUE(o.translated) << o.diagnostics;
  EXPECT_TRUE(o.ran) << o.runtimeError;
  EXPECT_EQ(o.exitCode, 0) << o.output;
  return o.output;
}

/// The part of an emitted C file that the emitter generated for the
/// program: everything after the fixed runtime prelude. Assertions about
/// generated code search here, since the prelude contains every helper.
inline std::string emittedProgram(const std::string& c) {
  const std::string marker = "/* ---- forward declarations ---- */";
  size_t pos = c.find(marker);
  EXPECT_NE(pos, std::string::npos) << "no forward-declarations marker";
  return pos == std::string::npos ? std::string()
                                  : c.substr(pos + marker.size());
}

/// Expects a translation-time error mentioning `needle`.
inline void expectError(const std::string& src, const std::string& needle) {
  auto res = translateXc(src);
  EXPECT_FALSE(res.ok) << "program unexpectedly translated";
  std::string rendered = res.renderDiagnostics();
  EXPECT_NE(rendered.find(needle), std::string::npos)
      << "diagnostics were:\n" << rendered;
}

} // namespace mmx::test
