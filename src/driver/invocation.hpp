// CompilerInvocation: one declarative description of an mmc run. A single
// flag table in invocation.cpp drives argv parsing, the --help text, and
// defaulting (previously TranslateOptions and ad-hoc mmc_main flag code
// duplicated each other). Tools embedding the pipeline (tests, benches)
// can fill the struct directly and skip argv entirely.
#pragma once

#include <memory>
#include <string>

#include "driver/translator.hpp"
#include "ir/cemit.hpp"
#include "runtime/backend.hpp"
#include "runtime/pool.hpp"

namespace mmx::driver {

struct CompilerInvocation {
  std::string inputPath;
  TranslateOptions opts;

  // Output selection.
  bool emitIr = false;
  bool emitC = false;
  bool analyze = false;
  bool showHelp = false;

  // Execution.
  unsigned threads = 1;
  rt::ExecutorKind executor = rt::ExecutorKind::ForkJoin;
  bool executorExplicit = false; // --executor given (else derived from threads)
  std::string backend = "auto";  // --backend: kernel backend name or "auto"
  std::string alloc = "auto";    // --alloc: matrix allocator name or "auto"

  // Observability (ISSUE 2, ISSUE 10).
  bool timeReport = false;       // --time-report: human table on stderr
  std::string statsJsonPath;     // --stats-json <file>: flat counters
  std::string traceJsonPath;     // --trace-json <file>: Chrome trace events
  bool perfCounters = false;     // --perf-counters: PMU sampling around
                                 //   kernel spans (perf_event_open)

  // Runtime profiling compiled into emitted C (ISSUE 5). Off leaves the
  // --emit-c output byte-identical to an uninstrumented build.
  ir::InstrumentMode instrument = ir::InstrumentMode::Off;

  /// True when any observability output was requested (the metrics
  /// registry is only enabled in that case — no-op otherwise).
  /// --perf-counters counts: its pmu.* rows land in the same registry.
  bool metricsRequested() const {
    return timeReport || !statsJsonPath.empty() || !traceJsonPath.empty() ||
           perfCounters;
  }

  /// The runtime configuration this invocation resolves to: --executor
  /// wins (otherwise serial for 1 thread, the enhanced fork-join pool
  /// beyond) plus the --backend kernel selection. runtimeConfig().make()
  /// is the one construction point for drivers (ISSUE 7).
  rt::RuntimeConfig runtimeConfig() const {
    rt::RuntimeConfig c;
    c.executor = executorExplicit
                     ? executor
                     : (threads > 1 ? rt::ExecutorKind::ForkJoin
                                    : rt::ExecutorKind::Serial);
    c.threads = threads;
    c.backend = backend;
    c.alloc = alloc;
    return c;
  }

  struct ParseResult {
    bool ok = true;
    std::string error; // set when !ok
  };

  /// Parses argv (argv[0] is skipped) into this invocation. Unknown
  /// options, missing/invalid values, and extra positionals fail with a
  /// message; defaults come from the member initializers above.
  ParseResult parseArgv(int argc, const char* const* argv);

  /// Usage text generated from the same flag table parseArgv() uses.
  static std::string helpText();
};

} // namespace mmx::driver
