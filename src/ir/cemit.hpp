// C emitter: prints a lowered module as one self-contained C file — the
// "plain (parallel) C code" the paper's translator produces for an
// ordinary C compiler. Parallel loops become `#pragma omp parallel for`
// with explicit privatization (Fig. 11); vectorized loops become SSE
// intrinsics over 4 x f32 / 4 x i32 lanes; matrices are refcounted structs
// managed by an emitted prelude (the §III-B cells, rendered in C). The
// prelude is one fixed text for every program; only the #define pins in
// front of it and --instrument vary per program.
//
// Builtin coverage: everything a file-driven program needs (readMatrix /
// writeMatrix / initMatrix / dimSize / print* / checkGenBounds /
// cloneMatrix / matToFloat / min / max / numThreads). Simulator-backed
// builtins (synthSsh, connComp, detectEddies) are interpreter-only;
// emitting a program that uses them is reported as an error.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ir/guards.hpp"
#include "ir/ir.hpp"
#include "support/source.hpp"

namespace mmx::ir {

struct CEmitResult {
  bool ok = false;
  std::string code;                 // valid when ok
  std::vector<std::string> errors;  // unsupported constructs
};

/// Bounds-check emission policy (ISSUE 3). Each guarded runtime helper
/// takes a trailing check flag. `On` passes 1 everywhere. `Off` passes 0
/// and inlines the unguarded form of dimSize and flat loads and stores.
/// `Auto` consults the shapecheck GuardPlan: sites the analysis proved
/// safe are emitted as under Off, everything else keeps its guard. Under
/// Auto the plan's borrowed parameters also drop their per-call
/// retain/release pair, and proven fully-written genarray results skip
/// zeroing their elements (mmx_allocv_u).
/// Runtime instrumentation compiled into the translated program (ISSUE 5).
/// `Off` strips every mmx_prof hook line from the prelude, so the output
/// is byte-identical to the uninstrumented emitter. `Counters` plants the
/// mmx_prof runtime: allocation/refcount traffic, per-thread OMP panel
/// busy time, and per-site aggregates (with-loops, matmul) dumped as flat
/// stats JSON to $MMX_PROF_JSON at exit. `Trace` additionally buffers one
/// Chrome trace event per span and dumps them to $MMX_PROF_TRACE — the
/// same schemas mmc's own --stats-json/--trace-json emit, so compile-time
/// and run-time land on one Perfetto timeline (the runtime uses pid 2,
/// the compiler pid 1).
enum class InstrumentMode { Off, Counters, Trace };

struct CEmitOptions {
  BoundsCheckMode boundsChecks = BoundsCheckMode::On;
  std::shared_ptr<const GuardPlan> plan; // consulted when Auto
  InstrumentMode instrument = InstrumentMode::Off;
  /// Source attribution for instrumented spans ("with-loop@file:line").
  /// Optional: without it, spans fall back to the enclosing function name.
  std::shared_ptr<const SourceManager> sourceManager;
  /// Kernel backend compiled into the program as MMX_BACKEND_DEFAULT: a
  /// registry name pins the emitted selection; "auto" (the default) lets
  /// the program consult $MMX_BACKEND at startup and otherwise pick the
  /// best core the host supports. The emitted main() calls
  /// mmx_backend_select() before xc_main(); see DESIGN.md "Kernel backend
  /// registry" for the prelude hook ABI.
  std::string backend = "auto";
  /// Matrix allocator compiled into the program (ISSUE 9). Every program
  /// carries the prelude's mmx_ms_* allocator with all three strategies:
  /// "auto" (the default) consults $MMX_ALLOC at startup and otherwise
  /// uses the cache strategy; an explicit name is baked in as
  /// MMX_ALLOC_DEFAULT, the only difference in the output. The mmx_ms_*
  /// policy constants mirror src/runtime/memsys.cpp verbatim (see its
  /// header comment) so the rt.alloc.cache.* counters match the
  /// interpreter exactly on single-threaded runs.
  std::string alloc = "auto";
};

/// Emits the module as a C99 translation unit. Compile with:
///   cc -O2 -msse4.2 -fopenmp out.c -o prog
CEmitResult emitC(const Module& m);
CEmitResult emitC(const Module& m, const CEmitOptions& opts);

} // namespace mmx::ir
