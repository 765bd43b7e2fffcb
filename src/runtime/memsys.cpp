// Thread-caching memory subsystem (ISSUE 9). Mechanism notes:
//
//   - Every block is [MsHeader 16B][payload]; the header tags the strategy
//     that produced the block plus its size class, so msFree routes each
//     block to its origin even if the selection changed in between.
//   - Size classes are geometric: class c holds blocks whose total size
//     (header included) fits 16<<c bytes, c in [0, 24). Anything larger
//     than 16<<23 (128 MiB) bypasses the cache entirely.
//   - cache strategy: a per-thread magazine (singly-linked free list per
//     class, the link stored in the free payload) backed by a central
//     depot. The depot mutex is touched only when a magazine refills or
//     flushes; a thread frees into its *own* magazine, so cross-thread
//     frees migrate blocks between threads through the depot.
//   - All policy constants (magazine capacity, depot capacity, flush
//     half-emptying) are mirrored verbatim by the emitted-C mmx_ms_*
//     runtime in cemit_prelude.inc: single-threaded runs of the same program must
//     produce byte-equal hits/misses/flushes counters in both backends.
//     Touch one side only in lockstep with the other.
//   - In sanitizer builds freed payloads are poisoned with 0xDD so stale
//     reads through recycled blocks surface as wrong values immediately
//     rather than silently seeing the previous matrix's data.
//
// Immortality: the depot, registries, and selection state are heap
// objects that are deliberately never destroyed, so frees from late
// static destructors and exiting threads stay safe, and cached blocks
// remain reachable (LeakSanitizer-quiet) through them.
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

// ---- block header -------------------------------------------------------

enum : uint32_t {
  kKindSystem = 1,
  kKindCache = 2,
  kKindArena = 3,
  kKindHuge = 4, // cache-mode block too large to class; exact-sized
};

struct alignas(16) MsHeader {
  uint32_t kind;
  uint32_t cls;   // size class (cache blocks only)
  uint64_t bytes; // requested payload size (poison extent, debugging)
};
static_assert(sizeof(MsHeader) == 16);

// ---- size classes (mirrored by the emitted-C runtime) -------------------

constexpr uint32_t kNumClasses = 24;
constexpr size_t kMaxCachedTotal = size_t{16} << (kNumClasses - 1); // 128 MiB

constexpr size_t capOf(uint32_t cls) { return size_t{16} << cls; }

uint32_t classFor(size_t total) {
  uint32_t c = 0;
  while (capOf(c) < total) ++c;
  return c;
}

/// Magazine capacity: ~256 KiB of blocks per class, clamped to [4, 64].
uint32_t magCap(uint32_t cls) {
  size_t n = (size_t{256} << 10) / capOf(cls);
  if (n < 4) return 4;
  if (n > 64) return 64;
  return static_cast<uint32_t>(n);
}

uint32_t depotCap(uint32_t cls) { return 4 * magCap(cls); }

// ---- telemetry ----------------------------------------------------------

std::atomic<uint64_t> g_hits{0};
std::atomic<uint64_t> g_misses{0};
std::atomic<uint64_t> g_flushes{0};
std::atomic<uint64_t> g_cachedBytes{0};
std::atomic<uint64_t> g_trims{0};

struct GaugeRegistrar {
  GaugeRegistrar() {
    metrics::registerGauge("rt.alloc.cache.hits", [] {
      return g_hits.load(std::memory_order_relaxed);
    });
    metrics::registerGauge("rt.alloc.cache.misses", [] {
      return g_misses.load(std::memory_order_relaxed);
    });
    metrics::registerGauge("rt.alloc.cache.flushes", [] {
      return g_flushes.load(std::memory_order_relaxed);
    });
    metrics::registerGauge("rt.alloc.cache.cachedBytes", [] {
      return g_cachedBytes.load(std::memory_order_relaxed);
    });
    metrics::registerGauge("rt.alloc.trims", [] {
      return g_trims.load(std::memory_order_relaxed);
    });
  }
};
const GaugeRegistrar g_gaugeRegistrar;

// ---- raw system blocks --------------------------------------------------

void* sysNew(size_t bytes) { return ::operator new(bytes, std::align_val_t{16}); }
void sysDelete(void* p) noexcept {
  ::operator delete(p, std::align_val_t{16});
}

// Free-list link, stored in the first word of the (dead) payload.
void*& nextOf(MsHeader* h) { return *reinterpret_cast<void**>(h + 1); }

// ---- central depot ------------------------------------------------------

struct Depot {
  std::mutex mu;
  MsHeader* head[kNumClasses] = {};
  // Atomic so the miss path can peek emptiness without the lock; all
  // writes happen under mu.
  std::atomic<uint32_t> count[kNumClasses] = {};
};

Depot& depot() {
  static Depot* d = new Depot;
  return *d;
}

/// Caller holds depot().mu. Pushes one block; evicts to the system when
/// the class is over capacity.
void depotPushLocked(Depot& d, MsHeader* h) {
  uint32_t cls = h->cls;
  nextOf(h) = d.head[cls];
  d.head[cls] = h;
  uint32_t n = d.count[cls].fetch_add(1, std::memory_order_relaxed) + 1;
  while (n > depotCap(cls)) {
    MsHeader* evict = d.head[cls];
    d.head[cls] = static_cast<MsHeader*>(nextOf(evict));
    n = d.count[cls].fetch_sub(1, std::memory_order_relaxed) - 1;
    g_cachedBytes.fetch_sub(capOf(cls), std::memory_order_relaxed);
    sysDelete(evict);
  }
}

// ---- per-thread magazines -----------------------------------------------

struct ThreadCache {
  MsHeader* head[kNumClasses] = {};
  uint32_t count[kNumClasses] = {};

  ThreadCache();
  ~ThreadCache();
};

struct CacheRegistry {
  std::mutex mu;
  std::vector<ThreadCache*> list;
};

CacheRegistry& cacheRegistry() {
  static CacheRegistry* r = new CacheRegistry;
  return *r;
}

/// Null once the thread's cache has been destroyed (late frees during
/// thread/process teardown go straight to the depot).
thread_local ThreadCache* g_tc = nullptr;

ThreadCache::ThreadCache() {
  CacheRegistry& r = cacheRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.list.push_back(this);
  g_tc = this;
}

ThreadCache::~ThreadCache() {
  g_tc = nullptr;
  Depot& d = depot();
  CacheRegistry& r = cacheRegistry();
  std::scoped_lock lock(r.mu, d.mu);
  for (uint32_t cls = 0; cls < kNumClasses; ++cls) {
    while (head[cls]) {
      MsHeader* h = head[cls];
      head[cls] = static_cast<MsHeader*>(nextOf(h));
      depotPushLocked(d, h);
    }
    count[cls] = 0;
  }
  for (auto it = r.list.begin(); it != r.list.end(); ++it)
    if (*it == this) {
      r.list.erase(it);
      break;
    }
}

ThreadCache* threadCache() {
  thread_local ThreadCache tc;
  return g_tc; // null after ~ThreadCache ran for this thread
}

// ---- cache strategy -----------------------------------------------------

void* cacheAlloc(size_t bytes, size_t total) {
  uint32_t cls = classFor(total);
  size_t cap = capOf(cls);
  ThreadCache* tc = threadCache();
  MsHeader* h = nullptr;
  if (tc && tc->head[cls]) {
    g_hits.fetch_add(1, std::memory_order_relaxed);
    h = tc->head[cls];
    tc->head[cls] = static_cast<MsHeader*>(nextOf(h));
    --tc->count[cls];
    g_cachedBytes.fetch_sub(cap, std::memory_order_relaxed);
  } else {
    g_misses.fetch_add(1, std::memory_order_relaxed);
    Depot& d = depot();
    if (d.count[cls].load(std::memory_order_relaxed) > 0) {
      std::lock_guard<std::mutex> lock(d.mu);
      uint32_t want = tc ? magCap(cls) / 2 : 1;
      while (want > 0 && d.head[cls]) {
        MsHeader* b = d.head[cls];
        d.head[cls] = static_cast<MsHeader*>(nextOf(b));
        d.count[cls].fetch_sub(1, std::memory_order_relaxed);
        --want;
        if (!h) {
          h = b; // first refilled block services this allocation
          g_cachedBytes.fetch_sub(cap, std::memory_order_relaxed);
        } else {
          nextOf(b) = tc->head[cls];
          tc->head[cls] = b;
          ++tc->count[cls];
        }
      }
    }
    if (!h) h = static_cast<MsHeader*>(sysNew(cap));
  }
  h->kind = kKindCache;
  h->cls = cls;
  h->bytes = bytes;
  return h + 1;
}

void cacheFree(MsHeader* h) noexcept {
#if MMX_MS_POISON
  std::memset(h + 1, 0xDD, h->bytes);
#endif
  uint32_t cls = h->cls;
  size_t cap = capOf(cls);
  g_cachedBytes.fetch_add(cap, std::memory_order_relaxed);
  ThreadCache* tc = g_tc;
  if (!tc) {
    Depot& d = depot();
    std::lock_guard<std::mutex> lock(d.mu);
    depotPushLocked(d, h);
    return;
  }
  nextOf(h) = tc->head[cls];
  tc->head[cls] = h;
  ++tc->count[cls];
  uint32_t cap_n = magCap(cls);
  if (tc->count[cls] > cap_n) {
    // Flush the older half to the depot; one flush event per overflow.
    g_flushes.fetch_add(1, std::memory_order_relaxed);
    Depot& d = depot();
    std::lock_guard<std::mutex> lock(d.mu);
    while (tc->count[cls] > cap_n / 2) {
      MsHeader* b = tc->head[cls];
      tc->head[cls] = static_cast<MsHeader*>(nextOf(b));
      --tc->count[cls];
      depotPushLocked(d, b);
    }
  }
}

// ---- arena strategy -----------------------------------------------------

struct ArenaChunk {
  ArenaChunk* next;
  size_t cap; // payload capacity after this header
};
static_assert(sizeof(ArenaChunk) % 16 == 0);

struct ArenaState {
  ArenaChunk* chunks = nullptr;
  char* cur = nullptr;
  size_t avail = 0;
};

struct ArenaRegistry {
  std::mutex mu;
  std::vector<ArenaState*> list;
};

ArenaRegistry& arenaRegistry() {
  static ArenaRegistry* r = new ArenaRegistry;
  return *r;
}

constexpr size_t kArenaChunk = size_t{1} << 20;

thread_local ArenaState* g_arena = nullptr;

ArenaState* arenaState() {
  if (!g_arena) {
    // The state object is immortal (the registry keeps it reachable):
    // msTrim() reclaims the chunks, not the bookkeeping.
    g_arena = new ArenaState;
    ArenaRegistry& r = arenaRegistry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.list.push_back(g_arena);
  }
  return g_arena;
}

void* arenaAlloc(size_t bytes, size_t total) {
  total = (total + 15) & ~size_t{15};
  ArenaState* st = arenaState();
  if (st->avail < total) {
    size_t payload = total > kArenaChunk ? total : kArenaChunk;
    auto* c = static_cast<ArenaChunk*>(sysNew(sizeof(ArenaChunk) + payload));
    c->next = st->chunks;
    c->cap = payload;
    st->chunks = c;
    st->cur = reinterpret_cast<char*>(c + 1);
    st->avail = payload;
  }
  auto* h = reinterpret_cast<MsHeader*>(st->cur);
  st->cur += total;
  st->avail -= total;
  h->kind = kKindArena;
  h->cls = 0;
  h->bytes = bytes;
  return h + 1;
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
  size_t total = bytes + sizeof(MsHeader);
  AllocKind k = activeAllocator();
  if (k == AllocKind::Cache) {
    if (total <= kMaxCachedTotal) return cacheAlloc(bytes, total);
    auto* h = static_cast<MsHeader*>(sysNew(total));
    h->kind = kKindHuge;
    h->cls = 0;
    h->bytes = bytes;
    return h + 1;
  }
  if (k == AllocKind::Arena) return arenaAlloc(bytes, total);
  auto* h = static_cast<MsHeader*>(sysNew(total));
  h->kind = kKindSystem;
  h->cls = 0;
  h->bytes = bytes;
  return h + 1;
}

void msFree(void* p) noexcept {
  if (!p) return;
  MsHeader* h = static_cast<MsHeader*>(p) - 1;
  switch (h->kind) {
  case kKindCache:
    cacheFree(h);
    return;
  case kKindArena:
#if MMX_MS_POISON
    std::memset(h + 1, 0xDD, h->bytes);
#endif
    return; // reclaimed wholesale at msTrim()
  default:
    sysDelete(h);
    return;
  }
}

void msTrim() {
  {
    // Quiescent contract: no concurrent allocation, so walking the other
    // threads' magazines is safe.
    Depot& d = depot();
    CacheRegistry& r = cacheRegistry();
    std::scoped_lock lock(r.mu, d.mu);
    for (ThreadCache* tc : r.list)
      for (uint32_t cls = 0; cls < kNumClasses; ++cls) {
        while (tc->head[cls]) {
          MsHeader* h = tc->head[cls];
          tc->head[cls] = static_cast<MsHeader*>(nextOf(h));
          g_cachedBytes.fetch_sub(capOf(cls), std::memory_order_relaxed);
          sysDelete(h);
        }
        tc->count[cls] = 0;
      }
    for (uint32_t cls = 0; cls < kNumClasses; ++cls) {
      while (d.head[cls]) {
        MsHeader* h = d.head[cls];
        d.head[cls] = static_cast<MsHeader*>(nextOf(h));
        g_cachedBytes.fetch_sub(capOf(cls), std::memory_order_relaxed);
        sysDelete(h);
      }
      d.count[cls].store(0, std::memory_order_relaxed);
    }
  }
  {
    ArenaRegistry& r = arenaRegistry();
    std::lock_guard<std::mutex> lock(r.mu);
    for (ArenaState* st : r.list) {
      while (st->chunks) {
        ArenaChunk* c = st->chunks;
        st->chunks = c->next;
        sysDelete(c);
      }
      st->cur = nullptr;
      st->avail = 0;
    }
  }
  noteAllocTrim();
}

void noteAllocTrim() noexcept {
  g_trims.fetch_add(1, std::memory_order_relaxed);
}

MsCacheStats msCacheStats() noexcept {
  MsCacheStats s;
  s.hits = g_hits.load(std::memory_order_relaxed);
  s.misses = g_misses.load(std::memory_order_relaxed);
  s.flushes = g_flushes.load(std::memory_order_relaxed);
  s.cachedBytes = g_cachedBytes.load(std::memory_order_relaxed);
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
