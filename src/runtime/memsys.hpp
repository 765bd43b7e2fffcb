// Production memory subsystem (ISSUE 9, paper §III-C): the default
// backing store behind rcAlloc. Three interchangeable strategies sit
// behind one selection surface mirroring the kernel-backend registry
// (backend.hpp):
//
//   system — malloc / free per block (the historical default);
//   cache  — thread-caching size-class allocator: per-thread magazine
//            free-lists over 16-byte size classes with a bounded central
//            depot (the depot lock is touched only on refill/flush),
//            tcmalloc/Hoard-style as surveyed by the paper;
//   arena  — per-thread bump arenas, frees deferred (profile mode for
//            with-loop temporary churn; memory is reclaimed at trim()).
//
// Selection policy, in precedence order (same shape as backend.hpp):
//   1. an explicit selectAllocator("<name>") — the driver's --alloc flag;
//   2. the MMX_ALLOC environment variable (consulted under "auto");
//   3. auto: "cache".
//
// Every block carries a 16-byte header tagging which strategy produced it,
// so a block is always returned to its origin allocator even when the
// selection changes mid-process (AllocatorOverride in tests).
//
// The mechanism is one C source, runtime/c/memsys.c, that memsys.cpp
// compiles and every emitted program carries (the mmx_ms_* prelude text),
// so the rt.alloc.cache.{hits,misses,flushes} counters match the
// interpreter exactly on single-threaded runs of the same program.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mmx::rt {

enum class AllocKind { System, Cache, Arena };

/// Selectable names, selection order ("system, cache, arena") — the order
/// --help and error messages list them in.
std::vector<std::string> allocatorNames();

/// "system" / "cache" / "arena".
std::string_view allocatorName(AllocKind k);

/// Pins the process-wide allocator strategy. "auto" re-arms lazy
/// resolution (the MMX_ALLOC environment variable is consulted again at
/// the next activeAllocator() call). Throws std::invalid_argument for an
/// unknown name. Live blocks are unaffected: the per-block tag routes
/// each free to its origin strategy.
void selectAllocator(std::string_view nameOrAuto);

/// The strategy new blocks are carved from. Resolves lazily:
/// explicit selection > $MMX_ALLOC > cache. Throws std::runtime_error
/// when $MMX_ALLOC names an unknown strategy.
AllocKind activeAllocator();

/// Pre-flight check for drivers: resolves `requested` (a name or "auto")
/// exactly like selectAllocator + activeAllocator would, returning an
/// empty string on success or the would-be diagnostic message. Never
/// changes the selection.
std::string allocatorSelectionError(std::string_view requested);

/// Raw block interface behind the refcount cells. Payloads are 16-byte
/// aligned; msFree must receive a pointer from msAlloc (the hidden tag
/// routes it home).
void* msAlloc(std::size_t bytes);
void msFree(void* p) noexcept;

/// Quiescent-point hook: flushes every registered thread magazine and the
/// central depot back to the system, and releases retired arena chunks.
/// Call only while no other thread is allocating (between parallel
/// regions); bumps the rt.alloc.trims gauge.
void msTrim();

/// Machine-independent cache telemetry (also exposed as the
/// rt.alloc.cache.{hits,misses,flushes,cachedBytes} gauges): magazine
/// hits, magazine misses (depot refill or fresh block), magazine→depot
/// flush events, and bytes currently parked in magazines + depot.
struct MsCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t flushes = 0;
  uint64_t cachedBytes = 0;
};
MsCacheStats msCacheStats() noexcept;

/// RAII selection pin for tests and benches; restores the previous
/// request (including "auto") on destruction.
class AllocatorOverride {
public:
  explicit AllocatorOverride(std::string_view name);
  ~AllocatorOverride();
  AllocatorOverride(const AllocatorOverride&) = delete;
  AllocatorOverride& operator=(const AllocatorOverride&) = delete;

private:
  std::string prev_;
};

} // namespace mmx::rt
