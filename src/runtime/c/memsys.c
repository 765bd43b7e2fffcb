/* ---- mmx_ms: thread-caching matrix allocator (mmc --alloc) ------------ */
/* Shared with memsys.cpp; the includer supplies malloc, free and mmx_fail. */
enum {
  MMX_MS_CLASSES = 24,
  MMX_MS_SYSTEM = 1,
  MMX_MS_CACHE = 2,
  MMX_MS_ARENA = 3,
  MMX_MS_HUGE = 4
};
typedef struct {
  unsigned kind;
  unsigned cls;
  unsigned long long bytes;
} mmx_ms_hdr;

/* One cache line for the counters that every alloc and free bumps. */
static struct __attribute__((aligned(64))) {
  unsigned long long hits, misses, flushes, cached;
} mmx_ms_stats;

static size_t mmx_ms_cap(unsigned cls) { return (size_t)16 << cls; }
static unsigned mmx_ms_class(size_t total) {
  unsigned c = 0;
  while (mmx_ms_cap(c) < total) ++c;
  return c;
}
/* Magazine capacity: ~256 KiB of blocks per class, clamped to [4, 64]. */
static unsigned mmx_ms_magcap(unsigned cls) {
  size_t n = ((size_t)256 << 10) / mmx_ms_cap(cls);
  if (n < 4) return 4;
  if (n > 64) return 64;
  return (unsigned)n;
}
static unsigned mmx_ms_depotcap(unsigned cls) { return 4 * mmx_ms_magcap(cls); }

/* Free-list link, stored in the first word of the (dead) payload. */
static void** mmx_ms_next(mmx_ms_hdr* h) { return (void**)(h + 1); }

static int mmx_ms_depot_lock;
static mmx_ms_hdr* mmx_ms_depot_head[MMX_MS_CLASSES];
static unsigned mmx_ms_depot_count[MMX_MS_CLASSES];

static void mmx_ms_lock(void) {
  while (__atomic_exchange_n(&mmx_ms_depot_lock, 1, __ATOMIC_ACQUIRE))
    ;
}
static void mmx_ms_unlock(void) {
  __atomic_store_n(&mmx_ms_depot_lock, 0, __ATOMIC_RELEASE);
}

/* Caller holds the depot lock. Pushes one block; evicts to the system
 * when the class is over capacity. */
static void mmx_ms_depot_push(mmx_ms_hdr* h) {
  unsigned cls = h->cls;
  *mmx_ms_next(h) = (void*)mmx_ms_depot_head[cls];
  mmx_ms_depot_head[cls] = h;
  unsigned n = __atomic_add_fetch(&mmx_ms_depot_count[cls], 1, __ATOMIC_RELAXED);
  while (n > mmx_ms_depotcap(cls)) {
    mmx_ms_hdr* evict = mmx_ms_depot_head[cls];
    mmx_ms_depot_head[cls] = (mmx_ms_hdr*)*mmx_ms_next(evict);
    n = __atomic_sub_fetch(&mmx_ms_depot_count[cls], 1, __ATOMIC_RELAXED);
    __atomic_sub_fetch(&mmx_ms_stats.cached, mmx_ms_cap(cls), __ATOMIC_RELAXED);
    free(evict);
  }
}

static __thread mmx_ms_hdr* mmx_ms_mag_head[MMX_MS_CLASSES];
static __thread unsigned mmx_ms_mag_count[MMX_MS_CLASSES];

static void* mmx_ms_cache_alloc(size_t bytes, size_t total) {
  unsigned cls = mmx_ms_class(total);
  size_t cap = mmx_ms_cap(cls);
  mmx_ms_hdr* h = 0;
  if (mmx_ms_mag_head[cls]) {
    __atomic_add_fetch(&mmx_ms_stats.hits, 1, __ATOMIC_RELAXED);
    h = mmx_ms_mag_head[cls];
    mmx_ms_mag_head[cls] = (mmx_ms_hdr*)*mmx_ms_next(h);
    --mmx_ms_mag_count[cls];
    __atomic_sub_fetch(&mmx_ms_stats.cached, cap, __ATOMIC_RELAXED);
  } else {
    __atomic_add_fetch(&mmx_ms_stats.misses, 1, __ATOMIC_RELAXED);
    if (__atomic_load_n(&mmx_ms_depot_count[cls], __ATOMIC_RELAXED) > 0) {
      mmx_ms_lock();
      unsigned want = mmx_ms_magcap(cls) / 2;
      while (want > 0 && mmx_ms_depot_head[cls]) {
        mmx_ms_hdr* b = mmx_ms_depot_head[cls];
        mmx_ms_depot_head[cls] = (mmx_ms_hdr*)*mmx_ms_next(b);
        __atomic_sub_fetch(&mmx_ms_depot_count[cls], 1, __ATOMIC_RELAXED);
        --want;
        if (!h) {
          h = b; /* first refilled block services this allocation */
          __atomic_sub_fetch(&mmx_ms_stats.cached, cap, __ATOMIC_RELAXED);
        } else {
          *mmx_ms_next(b) = (void*)mmx_ms_mag_head[cls];
          mmx_ms_mag_head[cls] = b;
          ++mmx_ms_mag_count[cls];
        }
      }
      mmx_ms_unlock();
    }
    if (!h) h = (mmx_ms_hdr*)malloc(cap);
    if (!h) mmx_fail("out of memory");
  }
  h->kind = MMX_MS_CACHE;
  h->cls = cls;
  h->bytes = bytes;
  return h + 1;
}

static void mmx_ms_cache_free(mmx_ms_hdr* h) {
  unsigned cls = h->cls;
  size_t cap = mmx_ms_cap(cls);
  __atomic_add_fetch(&mmx_ms_stats.cached, cap, __ATOMIC_RELAXED);
  *mmx_ms_next(h) = (void*)mmx_ms_mag_head[cls];
  mmx_ms_mag_head[cls] = h;
  ++mmx_ms_mag_count[cls];
  unsigned cap_n = mmx_ms_magcap(cls);
  if (mmx_ms_mag_count[cls] > cap_n) {
    /* Flush the older half to the depot; one flush event per overflow. */
    __atomic_add_fetch(&mmx_ms_stats.flushes, 1, __ATOMIC_RELAXED);
    mmx_ms_lock();
    while (mmx_ms_mag_count[cls] > cap_n / 2) {
      mmx_ms_hdr* b = mmx_ms_mag_head[cls];
      mmx_ms_mag_head[cls] = (mmx_ms_hdr*)*mmx_ms_next(b);
      --mmx_ms_mag_count[cls];
      mmx_ms_depot_push(b);
    }
    mmx_ms_unlock();
  }
}

typedef struct mmx_ms_chunk {
  struct mmx_ms_chunk* next;
  size_t cap;
} mmx_ms_chunk;

static __thread mmx_ms_chunk* mmx_ms_arena_chunks;
static __thread char* mmx_ms_arena_cur;
static __thread size_t mmx_ms_arena_avail;

static void* mmx_ms_arena_alloc(size_t bytes, size_t total) {
  total = (total + 15) & ~(size_t)15;
  if (mmx_ms_arena_avail < total) {
    size_t payload = total > ((size_t)1 << 20) ? total : ((size_t)1 << 20);
    mmx_ms_chunk* c = (mmx_ms_chunk*)malloc(sizeof(mmx_ms_chunk) + payload);
    if (!c) mmx_fail("out of memory");
    c->next = mmx_ms_arena_chunks;
    c->cap = payload;
    mmx_ms_arena_chunks = c;
    mmx_ms_arena_cur = (char*)(c + 1);
    mmx_ms_arena_avail = payload;
  }
  mmx_ms_hdr* h = (mmx_ms_hdr*)mmx_ms_arena_cur;
  mmx_ms_arena_cur += total;
  mmx_ms_arena_avail -= total;
  h->kind = MMX_MS_ARENA;
  h->cls = 0;
  h->bytes = bytes;
  return h + 1;
}

static void mmx_ms_free(void* p) {
  mmx_ms_hdr* h = (mmx_ms_hdr*)p - 1;
  switch (h->kind) {
  case MMX_MS_CACHE:
    mmx_ms_cache_free(h);
    return;
  case MMX_MS_ARENA:
    return; /* arena blocks are reclaimed wholesale (exit, msTrim) */
  default:
    free(h);
    return;
  }
}
