// Thread-caching memory subsystem (ISSUE 9). The allocator mechanism itself
// (block header, size classes, magazines, depot, arena) is the plain C in
// runtime/c/memsys.c, which every emitted program also carries, so both
// backends run one allocator and single-threaded runs of the same program
// produce byte-equal hits/misses/flushes counters. This file adds what a
// host process needs on top of it:
//
//   - selection: selectAllocator, $MMX_ALLOC, AllocatorOverride;
//   - dispatch, classifying on bytes + 16 (the emitted mmx_ms_alloc uses
//     bytes + 32, for the refcount header this runtime keeps separately);
//   - a registry of each thread's __thread magazines and arena chunks, so
//     msTrim() can reclaim them and a thread flushes them when it exits;
//   - the rt.alloc.* gauges, the rt.alloc.magazine.size histogram, and
//     freed-payload poisoning (0xDD) in sanitizer builds, so stale reads
//     through recycled blocks surface as wrong values immediately.
//
// Immortality: the registry and selection state are heap objects that are
// deliberately never destroyed, so frees from late static destructors and
// exiting threads stay safe, and cached blocks remain reachable
// (LeakSanitizer-quiet) through them and through the depot.
#include "runtime/memsys.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <new>
#include <stdexcept>

#include "support/metrics.hpp"

#if !defined(MMX_MS_POISON)
#if defined(__SANITIZE_ADDRESS__)
#define MMX_MS_POISON 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MMX_MS_POISON 1
#endif
#endif
#endif
#ifndef MMX_MS_POISON
#define MMX_MS_POISON 0
#endif

namespace mmx::rt {

namespace {

[[noreturn]] void mmx_fail(const char*) { throw std::bad_alloc(); }

#include "runtime/c/memsys.c"

constexpr size_t kMaxCachedTotal = size_t{16} << (MMX_MS_CLASSES - 1);

// ---- telemetry ----------------------------------------------------------

std::atomic<uint64_t> g_trims{0};

uint64_t load(const unsigned long long& counter) {
  return __atomic_load_n(&counter, __ATOMIC_RELAXED);
}

struct GaugeRegistrar {
  GaugeRegistrar() {
    metrics::registerGauge("rt.alloc.cache.hits",
                           [] { return load(mmx_ms_stats.hits); });
    metrics::registerGauge("rt.alloc.cache.misses",
                           [] { return load(mmx_ms_stats.misses); });
    metrics::registerGauge("rt.alloc.cache.flushes",
                           [] { return load(mmx_ms_stats.flushes); });
    metrics::registerGauge("rt.alloc.cache.cachedBytes",
                           [] { return load(mmx_ms_stats.cached); });
    metrics::registerGauge("rt.alloc.trims", [] {
      return g_trims.load(std::memory_order_relaxed);
    });
  }
};
const GaugeRegistrar g_gaugeRegistrar;

// ---- per-thread registration --------------------------------------------

/// Where one live thread keeps its memsys.c state.
struct ThreadSlots {
  mmx_ms_hdr** magHead;
  unsigned* magCount;
  mmx_ms_chunk** chunks;
  char** cur;
  size_t* avail;
};

struct Registry {
  std::mutex mu;
  std::vector<ThreadSlots*> live;
  mmx_ms_chunk* orphans = nullptr; // arena chunks of exited threads
};

Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}

/// Pushes a list of arena chunks onto `to`.
void spliceChunks(mmx_ms_chunk* from, mmx_ms_chunk*& to) {
  while (from) {
    mmx_ms_chunk* c = from;
    from = c->next;
    c->next = to;
    to = c;
  }
}

/// Returns one class's free list to the system.
void releaseList(mmx_ms_hdr*& head, unsigned cls) {
  while (mmx_ms_hdr* h = head) {
    head = static_cast<mmx_ms_hdr*>(*mmx_ms_next(h));
    __atomic_sub_fetch(&mmx_ms_stats.cached, mmx_ms_cap(cls), __ATOMIC_RELAXED);
    free(h);
  }
}

enum ThreadState { kUnregistered, kRegistered, kExited };
thread_local ThreadState t_state = kUnregistered;

/// Registers this thread's magazines and arena chunks on construction;
/// at thread exit flushes the magazines to the depot and hands the chunks
/// to the registry, because the thread's storage dies with it.
struct ThreadHook {
  ThreadSlots slots{mmx_ms_mag_head, mmx_ms_mag_count, &mmx_ms_arena_chunks,
                    &mmx_ms_arena_cur, &mmx_ms_arena_avail};

  ThreadHook() {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.live.push_back(&slots);
  }
  ThreadHook(const ThreadHook&) = delete;
  ThreadHook& operator=(const ThreadHook&) = delete;

  ~ThreadHook() {
    t_state = kExited;
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    mmx_ms_lock();
    for (unsigned cls = 0; cls < MMX_MS_CLASSES; ++cls) {
      while (mmx_ms_hdr* h = mmx_ms_mag_head[cls]) {
        mmx_ms_mag_head[cls] = static_cast<mmx_ms_hdr*>(*mmx_ms_next(h));
        mmx_ms_depot_push(h);
      }
      mmx_ms_mag_count[cls] = 0;
    }
    mmx_ms_unlock();
    spliceChunks(mmx_ms_arena_chunks, r.orphans);
    mmx_ms_arena_chunks = nullptr;
    mmx_ms_arena_cur = nullptr;
    mmx_ms_arena_avail = 0;
    std::erase(r.live, &slots);
  }
};

/// True while this thread may use its magazines and arena; registers the
/// thread on first use. False once its exit hook ran.
bool threadUsable() {
  if (t_state == kRegistered) return true;
  if (t_state == kExited) return false;
  thread_local ThreadHook hook;
  t_state = kRegistered;
  return true;
}

// ---- selection ----------------------------------------------------------

struct Selection {
  std::mutex mu;
  std::string requested = "auto";
};

Selection& selection() {
  static Selection* s = new Selection;
  return *s;
}

/// -1 = unresolved; otherwise static_cast<int>(AllocKind).
std::atomic<int> g_active{-1};

bool lookupKind(std::string_view name, AllocKind& out, std::string& err) {
  if (name == "system") {
    out = AllocKind::System;
    return true;
  }
  if (name == "cache") {
    out = AllocKind::Cache;
    return true;
  }
  if (name == "arena") {
    out = AllocKind::Arena;
    return true;
  }
  err = "unknown allocator '" + std::string(name) +
        "' (available: system, cache, arena)";
  return false;
}

/// Resolves the full precedence chain (explicit > $MMX_ALLOC > cache)
/// without touching any state.
bool resolveKind(std::string_view requested, AllocKind& out,
                 std::string& err) {
  if (requested != "auto") return lookupKind(requested, out, err);
  const char* env = std::getenv("MMX_ALLOC");
  if (env && *env && std::strcmp(env, "auto") != 0) {
    if (lookupKind(env, out, err)) return true;
    err = "MMX_ALLOC: " + err;
    return false;
  }
  out = AllocKind::Cache;
  return true;
}

} // namespace

// ---- public API ---------------------------------------------------------

std::vector<std::string> allocatorNames() {
  return {"system", "cache", "arena"};
}

std::string_view allocatorName(AllocKind k) {
  switch (k) {
  case AllocKind::System: return "system";
  case AllocKind::Cache: return "cache";
  case AllocKind::Arena: return "arena";
  }
  return "?";
}

void selectAllocator(std::string_view nameOrAuto) {
  Selection& s = selection();
  std::lock_guard<std::mutex> lock(s.mu);
  if (nameOrAuto == "auto") {
    s.requested = "auto";
    g_active.store(-1, std::memory_order_release); // re-read env lazily
    return;
  }
  AllocKind k;
  std::string err;
  if (!lookupKind(nameOrAuto, k, err)) throw std::invalid_argument(err);
  s.requested = std::string(nameOrAuto);
  g_active.store(static_cast<int>(k), std::memory_order_release);
}

AllocKind activeAllocator() {
  int v = g_active.load(std::memory_order_acquire);
  if (v >= 0) return static_cast<AllocKind>(v);
  Selection& s = selection();
  std::lock_guard<std::mutex> lock(s.mu);
  v = g_active.load(std::memory_order_acquire);
  if (v >= 0) return static_cast<AllocKind>(v);
  AllocKind k;
  std::string err;
  if (!resolveKind(s.requested, k, err)) throw std::runtime_error(err);
  g_active.store(static_cast<int>(k), std::memory_order_release);
  return k;
}

std::string allocatorSelectionError(std::string_view requested) {
  Selection& s = selection();
  std::lock_guard<std::mutex> lock(s.mu);
  AllocKind k;
  std::string err;
  resolveKind(requested, k, err);
  return err;
}

void* msAlloc(size_t bytes) {
  // Requested-size distribution of the caching allocator specifically
  // (rt.alloc.size covers every allocator at the refcount layer): the
  // p95/p99 tail shows which size classes the magazine tiers actually
  // absorb versus punt to the system path.
  static const metrics::Histogram sizeHist =
      metrics::histogram("rt.alloc.magazine.size");
  sizeHist.record(bytes);
  size_t total = bytes + sizeof(mmx_ms_hdr);
  AllocKind k = activeAllocator();
  if (k == AllocKind::Cache && total <= kMaxCachedTotal && threadUsable())
    return mmx_ms_cache_alloc(bytes, total);
  if (k == AllocKind::Arena && threadUsable())
    return mmx_ms_arena_alloc(bytes, total);
  // The system strategy, cache-mode blocks too large to class, and late
  // allocations of a thread whose exit hook already ran.
  auto* h = static_cast<mmx_ms_hdr*>(malloc(total));
  if (!h) throw std::bad_alloc();
  h->kind = k == AllocKind::System ? MMX_MS_SYSTEM : MMX_MS_HUGE;
  h->cls = 0;
  h->bytes = bytes;
  return h + 1;
}

void msFree(void* p) noexcept {
  if (!p) return;
  mmx_ms_hdr* h = static_cast<mmx_ms_hdr*>(p) - 1;
#if MMX_MS_POISON
  if (h->kind == MMX_MS_CACHE || h->kind == MMX_MS_ARENA)
    std::memset(p, 0xDD, h->bytes);
#endif
  if (h->kind == MMX_MS_CACHE && t_state != kRegistered) {
    // No magazines on this thread (never allocated, or already exited):
    // park the block in the depot.
    __atomic_add_fetch(&mmx_ms_stats.cached, mmx_ms_cap(h->cls),
                       __ATOMIC_RELAXED);
    mmx_ms_lock();
    mmx_ms_depot_push(h);
    mmx_ms_unlock();
    return;
  }
  mmx_ms_free(p);
}

void msTrim() {
  // Quiescent contract: no concurrent allocation, so walking the other
  // threads' magazines and arena chunks is safe.
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  mmx_ms_lock();
  for (unsigned cls = 0; cls < MMX_MS_CLASSES; ++cls) {
    for (ThreadSlots* t : r.live) {
      releaseList(t->magHead[cls], cls);
      t->magCount[cls] = 0;
    }
    releaseList(mmx_ms_depot_head[cls], cls);
    __atomic_store_n(&mmx_ms_depot_count[cls], 0u, __ATOMIC_RELAXED);
  }
  mmx_ms_unlock();
  for (ThreadSlots* t : r.live) {
    spliceChunks(*t->chunks, r.orphans);
    *t->chunks = nullptr;
    *t->cur = nullptr;
    *t->avail = 0;
  }
  while (mmx_ms_chunk* c = r.orphans) {
    r.orphans = c->next;
    free(c);
  }
  g_trims.fetch_add(1, std::memory_order_relaxed);
}

MsCacheStats msCacheStats() noexcept {
  MsCacheStats s;
  s.hits = load(mmx_ms_stats.hits);
  s.misses = load(mmx_ms_stats.misses);
  s.flushes = load(mmx_ms_stats.flushes);
  s.cachedBytes = load(mmx_ms_stats.cached);
  return s;
}

namespace {
std::string currentAllocRequest() {
  Selection& s = selection();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.requested;
}
} // namespace

AllocatorOverride::AllocatorOverride(std::string_view name)
    : prev_(currentAllocRequest()) {
  selectAllocator(name);
}

AllocatorOverride::~AllocatorOverride() { selectAllocator(prev_); }

} // namespace mmx::rt
