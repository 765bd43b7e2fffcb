// Multi-backend kernel registry (ISSUE 7, after ROADMAP's "Alpaka-style"
// item and the GNU-epsilon layered-implementations idea): the runtime's
// compute kernels sit behind a KernelBackend interface, and a process-wide
// registry picks the implementation at runtime — `scalar` (portable naive
// oracle), `sse` (the BLIS-style tiled engine), `avx` (tiled engine with
// the twin-strip AVX micro-kernel), `avx2fma` (8-wide FMA micro-tile).
//
// Selection policy, in precedence order:
//   1. an explicit selectBackend("<name>") — the driver's --backend flag;
//   2. the MMX_BACKEND environment variable (consulted under "auto");
//   3. auto: the highest-priority backend whose capability probe passes.
//
// Rounding contract: all backends share one element-wise and reduction
// accumulation order (the scalar backend emulates the SSE lane striping),
// and `scalar`/`sse`/`avx` GEMM are bit-identical per element whenever
// k <= KC. `avx2fma` fuses multiply-add (single rounding), so its f32/f64
// GEMM only bit-matches the others on exactly-representable data — the
// oracle suites pin that contract.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/kernels.hpp"
#include "runtime/matrix.hpp"
#include "runtime/pool.hpp"

namespace mmx::rt {

/// One kernel implementation. Instances are immortal (registered once,
/// never destroyed); the base class provides the shared SSE element-wise
/// and reduction strips so a backend only overrides what it changes.
class KernelBackend {
public:
  KernelBackend(std::string name, int priority);
  virtual ~KernelBackend() = default;

  KernelBackend(const KernelBackend&) = delete;
  KernelBackend& operator=(const KernelBackend&) = delete;

  std::string_view name() const { return name_; }
  /// Auto-selection rank: higher wins among available() backends.
  int priority() const { return priority_; }
  /// Capability probe (cpuid); an unavailable backend is never selected
  /// implicitly and selecting it explicitly is an error.
  virtual bool available() const = 0;

  // ---- GEMM over raw row-major buffers ---------------------------------
  // C has m*n elements, is caller-zeroed, and is accumulated into; A is
  // m*k, B is k*n. Small products may take a backend-internal naive path
  // (kMatmulTiledCutoff in gemm.hpp).
  virtual void gemmF32(Executor& exec, const float* A, const float* B,
                       float* C, int64_t m, int64_t k, int64_t n) const = 0;
  virtual void gemmI32(Executor& exec, const int32_t* A, const int32_t* B,
                       int32_t* C, int64_t m, int64_t k, int64_t n) const = 0;
  /// f64 is interface-complete for embedders (no f64 Matrix element kind
  /// yet); the base implementation is the naive mul-then-add loop.
  virtual void gemmF64(Executor& exec, const double* A, const double* B,
                       double* C, int64_t m, int64_t k, int64_t n) const;

  // ---- element-wise strips ---------------------------------------------
  // out[i] = a[i] (op) (b ? b[i] : s) for i in [lo, hi). Pure per-element
  // work: every backend must produce identical bits here.
  virtual void ewStripF32(BinOp op, const float* a, const float* b, float s,
                          float* out, int64_t lo, int64_t hi) const;
  virtual void ewStripI32(BinOp op, const int32_t* a, const int32_t* b,
                          int32_t s, int32_t* out, int64_t lo, int64_t hi) const;

  // ---- reduction strips ------------------------------------------------
  // Fold [lo, hi) into one partial starting from the operator's identity.
  // The accumulation order is part of the backend ABI: four lane-striped
  // partial sums over aligned 4-blocks combined pairwise, then the scalar
  // tail (the SSE hadd order) — so every backend reduces bit-identically.
  virtual float reduceStripF32(BinOp op, const float* d, int64_t lo,
                               int64_t hi) const;
  virtual int32_t reduceStripI32(BinOp op, const int32_t* d, int64_t lo,
                                 int64_t hi) const;

  /// "kernel.matmul.<name>": per-backend attribution timer fed by
  /// rt::matmul next to the backend-agnostic "kernel.matmul" site.
  const char* matmulTimerName() const { return matmulTimer_.c_str(); }
  /// "backend.selected.<name>": presence-only counter bumped on selection
  /// and on every matmul dispatch.
  const char* selectedCounterName() const { return selectedCounter_.c_str(); }
  /// "kernel.matmul.<name>.pmu." — rt::matmul appends cycles /
  /// instructions / cacheMisses / branchMisses under --perf-counters
  /// (ISSUE 10 pillar 2).
  const std::string& pmuCounterPrefix() const { return pmuPrefix_; }

private:
  std::string name_;
  int priority_;
  std::string matmulTimer_;
  std::string selectedCounter_;
  std::string pmuPrefix_;
};

// ---- registry -----------------------------------------------------------

/// Registers a backend (must outlive the process). The builtin four are
/// registered automatically; tests register extras to probe the policy.
void registerBackend(const KernelBackend* be);

/// Every registered backend, priority-descending (auto-selection order).
std::vector<const KernelBackend*> backends();

/// Registered names, priority-ascending ("scalar, sse, avx, avx2fma") —
/// the order --help and error messages list them in.
std::vector<std::string> backendNames();

/// nullptr when no backend has that name.
const KernelBackend* findBackend(std::string_view name);

/// Pins the process-wide backend. "auto" re-arms lazy resolution (the
/// MMX_BACKEND environment variable is consulted again at the next
/// activeBackend() call). Throws std::invalid_argument for an unknown
/// name or one whose capability probe fails.
void selectBackend(std::string_view nameOrAuto);

/// The backend every kernel entry point dispatches through. Resolves
/// lazily: explicit selection > $MMX_BACKEND > highest-priority available.
/// Throws std::runtime_error when $MMX_BACKEND names an unknown or
/// unavailable backend.
const KernelBackend& activeBackend();

/// Pre-flight check for drivers: resolves `requested` (a name or "auto")
/// exactly like selectBackend + activeBackend would, returning an empty
/// string on success or the would-be diagnostic message. Never changes
/// the selection.
std::string backendSelectionError(std::string_view requested);

/// RAII selection pin for tests and benches; restores the previous
/// request (including "auto") on destruction.
class BackendOverride {
public:
  explicit BackendOverride(std::string_view name);
  ~BackendOverride();
  BackendOverride(const BackendOverride&) = delete;
  BackendOverride& operator=(const BackendOverride&) = delete;

private:
  std::string prev_;
};

// ---- runtime configuration ---------------------------------------------

/// One configuration surface for "how does this process run kernels":
/// executor kind + thread count + kernel backend. Replaces the scattered
/// rt::makeExecutor / CompilerInvocation::makeExecutor call sites.
struct RuntimeConfig {
  ExecutorKind executor = ExecutorKind::Serial;
  unsigned threads = 1;
  std::string backend = "auto"; // registry name or "auto"
  std::string alloc = "auto";   // matrix allocator name or "auto" (memsys)

  /// Applies the backend and allocator selections process-wide (throws
  /// like selectBackend / selectAllocator) and builds the executor.
  std::unique_ptr<Executor> make() const;
};

// ---- templated element-wise entry point ---------------------------------

/// The one element-wise binary entry (ISSUE 7): Rhs is a same-shape
/// Matrix, a float broadcast, or an int32_t broadcast. Routes strips
/// through activeBackend(); `simd = false` forces the plain scalar loops
/// (the benches' ablation knob).
template <class Rhs>
void ew(Executor& exec, BinOp op, const Matrix& a, const Rhs& b, Matrix& out,
        bool simd = true);

extern template void ew<Matrix>(Executor&, BinOp, const Matrix&,
                                const Matrix&, Matrix&, bool);
extern template void ew<float>(Executor&, BinOp, const Matrix&, const float&,
                               Matrix&, bool);
extern template void ew<int32_t>(Executor&, BinOp, const Matrix&,
                                 const int32_t&, Matrix&, bool);

} // namespace mmx::rt
