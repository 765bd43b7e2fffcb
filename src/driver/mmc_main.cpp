// mmc: the extended-C translator CLI. Run `mmc --help` for the full flag
// list — it is generated from the CompilerInvocation table, the single
// declaration of every option. Composes the host with the matrix,
// refcount, transform, and alt-tuple extensions, translates the program,
// and runs it on the interpreter.
//
// Observability: --time-report prints a phase/counters table to stderr;
// --stats-json <file> writes flat counters; --trace-json <file> writes
// Chrome trace-event JSON (open in about:tracing or Perfetto).
#include <atomic>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string_view>

#include "driver/invocation.hpp"
#include "driver/translator.hpp"
#include "ir/cemit.hpp"
#include "ext_matrix/matrix_ext.hpp"
#include "ext_refcount/refcount_ext.hpp"
#include "ext_transform/transform_ext.hpp"
#include "interp/interp.hpp"
#include "runtime/backend.hpp"
#include "runtime/memsys.hpp"
#include "support/crash.hpp"
#include "support/diag.hpp"
#include "support/metrics.hpp"
#include "support/perf.hpp"

namespace {

int usage(const std::string& problem) {
  if (!problem.empty()) std::cerr << "mmc: " << problem << "\n";
  std::cerr << mmx::driver::CompilerInvocation::helpText();
  return 2;
}

// Abnormal-exit flush state (ISSUE 10 satellite): every controlled path
// calls emitMetrics directly; the atexit/terminate hooks below catch the
// rest (exit() from a library, an unhandled exception, mmx_fail-style
// aborts) so --stats-json is not silently lost.
const mmx::driver::CompilerInvocation* g_flushInv = nullptr;
std::atomic<bool> g_metricsFlushed{false};

/// Writes the requested observability outputs; returns false (with a
/// message on stderr) when a file cannot be written.
bool emitMetrics(const mmx::driver::CompilerInvocation& inv) {
  mmx::metrics::stopIntervalExport(); // final JSONL delta before the dump
  if (!inv.metricsRequested()) return true;
  if (g_metricsFlushed.exchange(true)) return true; // already written
  // Under --analyze, include zero-valued counters: consumers of the
  // per-pass sections (opt.*, shapecheck.*) key off their presence.
  mmx::metrics::Snapshot snap = mmx::metrics::snapshot(inv.analyze);
  if (inv.timeReport) std::cerr << mmx::metrics::renderTimeReport(snap);
  auto writeFile = [](const std::string& path,
                      const std::string& body) -> bool {
    std::ofstream out(path);
    if (!out) {
      std::cerr << "mmc: cannot write " << path << "\n";
      return false;
    }
    out << body;
    return true;
  };
  if (!inv.statsJsonPath.empty() &&
      !writeFile(inv.statsJsonPath, mmx::metrics::renderStatsJson(snap)))
    return false;
  if (!inv.traceJsonPath.empty() &&
      !writeFile(inv.traceJsonPath, mmx::metrics::renderTraceJson(snap)))
    return false;
  return true;
}

void flushMetricsAtExit() {
  if (g_flushInv) emitMetrics(*g_flushInv);
}

/// Starts the continuous exporter (ISSUE 10 pillar 4) when
/// $MMX_STATS_INTERVAL_MS is a positive integer. The JSONL lands at
/// $MMX_STATS_JSONL (default mmx_stats.jsonl). Implies metrics.
bool maybeStartIntervalExport() {
  const char* ms = std::getenv("MMX_STATS_INTERVAL_MS");
  if (!ms || !*ms) return false;
  long interval = std::strtol(ms, nullptr, 10);
  if (interval <= 0) return false;
  const char* path = std::getenv("MMX_STATS_JSONL");
  mmx::metrics::enable(true);
  return mmx::metrics::startIntervalExport(
      path && *path ? path : "mmx_stats.jsonl",
      static_cast<unsigned>(interval));
}

/// Deliberate-fault hook for the crash-recorder fixtures: translating a
/// real program first gives the dump counters and spans to carry.
void maybeDebugCrash() {
  const char* mode = std::getenv("MMX_DEBUG_CRASH");
  if (!mode) return;
  if (std::string_view(mode) == "segv") {
    volatile int* p = nullptr;
    *p = 42; // SIGSEGV through the installed flight recorder
  } else if (std::string_view(mode) == "abort") {
    std::abort();
  }
}

} // namespace

int main(int argc, char** argv) {
  // Static: the atexit flush hook below reads it after main's frame is
  // gone (exit() runs handlers once locals are already destroyed).
  static mmx::driver::CompilerInvocation inv;
  auto parsed = inv.parseArgv(argc, argv);
  if (!parsed.ok) return usage(parsed.error);
  if (inv.showHelp) {
    std::cout << mmx::driver::CompilerInvocation::helpText();
    return 0;
  }

  // Flight recorder first (ISSUE 10 pillar 3): $MMX_CRASH_JSON arms the
  // SIGSEGV/SIGABRT/SIGFPE/SIGBUS dump before any real work runs.
  mmx::crash::installFromEnv();

  // Validate the kernel backend selection (--backend, falling back to
  // $MMX_BACKEND under auto) up front: an unknown or unavailable name is
  // a structured diagnostic, not a usage error, and it also gates
  // --emit-c (the emitted program selects the same backend at startup).
  if (std::string err = mmx::rt::backendSelectionError(inv.backend);
      !err.empty()) {
    mmx::Diagnostic d;
    d.severity = mmx::Severity::Error;
    d.message = err;
    d.extension = "backend";
    std::cerr << mmx::renderDiagnostic(d, nullptr);
    return 2;
  }
  // Same pre-flight for the matrix allocator (--alloc, falling back to
  // $MMX_ALLOC under auto): emitted programs select the same strategy at
  // startup, so an unknown name fails here for --emit-c too.
  if (std::string err = mmx::rt::allocatorSelectionError(inv.alloc);
      !err.empty()) {
    mmx::Diagnostic d;
    d.severity = mmx::Severity::Error;
    d.message = err;
    d.extension = "alloc";
    std::cerr << mmx::renderDiagnostic(d, nullptr);
    return 2;
  }

  std::ifstream in(inv.inputPath);
  if (!in) {
    std::cerr << "mmc: cannot open " << inv.inputPath << "\n";
    return 2;
  }
  std::stringstream buf;
  buf << in.rdbuf();

  if (inv.metricsRequested()) mmx::metrics::enable(true);
  if (inv.perfCounters) mmx::perf::setRequested(true);
  maybeStartIntervalExport();
  // Abnormal-exit insurance: whatever path leaves the process — a clean
  // return, exit() from a library, or an unhandled exception — the
  // requested stats files get written exactly once.
  g_flushInv = &inv;
  std::atexit(flushMetricsAtExit);
  std::set_terminate([] {
    flushMetricsAtExit();
    std::abort();
  });

  mmx::driver::Translator t;
  t.addExtension(mmx::ext_matrix::matrixExtension());
  t.addExtension(mmx::ext_refcount::refcountExtension());
  t.addExtension(mmx::ext_transform::transformExtension());
  if (!t.compose(inv.opts)) {
    std::cerr << t.renderComposeDiagnostics();
    emitMetrics(inv);
    return 1;
  }
  auto res = t.translate(inv.inputPath, buf.str());
  std::cerr << res.renderDiagnostics();
  maybeDebugCrash();
  // Under --strict-transform an illegal transformation clause is a compile
  // error with its own exit code (2, like usage/backend problems) so CI
  // can distinguish "clause proven illegal" from ordinary translation
  // failures.
  auto strictTransformFailure = [&res] {
    if (!inv.opts.strictTransform) return false;
    for (const auto& d : res.diagnostics)
      if (d.severity == mmx::Severity::Error && d.extension == "transform")
        return true;
    return false;
  };
  if (inv.analyze) {
    // The report (whatever was produced before translation stopped) still
    // prints, and the exit code reflects any error-severity diagnostic —
    // not just outright translation failure — so CI can gate on analysis.
    std::cout << res.analysisReport;
    if (!emitMetrics(inv)) return 2;
    if (res.ok && !res.hasErrors()) return 0;
    return strictTransformFailure() ? 2 : 1;
  }
  if (!res.ok) {
    emitMetrics(inv);
    return strictTransformFailure() ? 2 : 1;
  }
  if (inv.emitIr) {
    std::cout << mmx::ir::dump(*res.module);
    return emitMetrics(inv) ? 0 : 2;
  }
  if (inv.emitC) {
    std::string code;
    {
      mmx::metrics::ScopedTimer emitTimer("emit");
      mmx::ir::CEmitOptions eo;
      eo.boundsChecks = res.boundsChecks;
      eo.plan = res.guardPlan;
      eo.instrument = inv.instrument;
      eo.sourceManager = res.sourceManager;
      eo.backend = inv.backend;
      eo.alloc = inv.alloc;
      auto c = mmx::ir::emitC(*res.module, eo);
      if (!c.ok) {
        for (const auto& e : c.errors)
          std::cerr << "emit error: " << e << "\n";
        emitMetrics(inv);
        return 1;
      }
      code = std::move(c.code);
    }
    std::cout << code;
    return emitMetrics(inv) ? 0 : 2;
  }
  try {
    std::unique_ptr<mmx::rt::Executor> exec = inv.runtimeConfig().make();
    mmx::interp::Machine vm(*res.module, *exec);
    vm.setBoundsChecks(res.boundsChecks, res.guardPlan);
    int code;
    {
      mmx::metrics::ScopedTimer runTimer("run");
      code = vm.runMain();
    }
    std::cout << vm.output();
    if (!emitMetrics(inv)) return 2;
    return code;
  } catch (const std::exception& e) {
    std::cerr << "runtime error: " << e.what() << "\n";
    emitMetrics(inv);
    return 3;
  }
}
