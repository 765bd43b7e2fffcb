#include "ir/cemit.hpp"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <set>
#include <sstream>
#include <string_view>
#include <utility>

namespace mmx::ir {

namespace {

// The runtime every emitted program carries, one fixed text: the matrix
// cells and their operations, the kernel cores, and the mmx_ms_* matrix
// allocator. mmx_ms_* mirrors src/runtime/memsys.cpp (size classes,
// magazine and depot policy, counter bump points), so single-threaded runs
// of one program give byte-equal rt.alloc.cache.* counters in the
// interpreter and the emitted C; change both sides together.
const char* kPrelude =
#include "ir/cemit_prelude.inc"
    ;

// mmx_prof runtime (ISSUE 5), emitted BEFORE the prelude when
// --instrument != off so the MMX_PROF_* hook lines planted in the prelude
// expand to real code. When instrumentation is off those hook lines are
// stripped instead (see stripProfLines) and none of this text is emitted —
// the output is byte-identical to the uninstrumented emitter.
//
// The dump honors the same env-var contract as the compiler's
// MMX_STATS_JSON bench hook: $MMX_PROF_JSON gets the flat stats object
// (same key schema as --stats-json: counters verbatim, sites as
// <name>.count/.ns/.max_ns), $MMX_PROF_TRACE gets Chrome trace-event JSON
// (same shape as --trace-json, but pid 2 so a merged file shows compiler
// and runtime as two processes on one timeline).
const char* kProfRuntime = R"PROF(/* ---- mmx_prof: runtime instrumentation (mmc --instrument) ------------- */
#include <math.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>
#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <pthread.h>
#include <signal.h>
#include <unistd.h>
#endif
#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#endif
#if defined(__GLIBC__)
#include <execinfo.h>
#endif

typedef struct {
  const char* name; /* span label, e.g. "with-loop@prog.xc:12" */
  const char* cat;  /* trace category */
  unsigned long long count, total_ns, max_ns;
} mmx_prof_site;

static unsigned long long mmx_prof_t0;

static unsigned long long mmx_prof_raw_ns(void) {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (unsigned long long)ts.tv_sec * 1000000000ull +
         (unsigned long long)ts.tv_nsec;
}

static unsigned long long mmx_prof_now(void) {
  return mmx_prof_raw_ns() - mmx_prof_t0;
}

/* Global counters. The rt.* names match the interpreter runtime's metrics
 * registry, so an instrumented emitted-C run and an interp --stats-json
 * run of the same program produce directly comparable counter sets. */
static unsigned long long mmx_prof_allocs, mmx_prof_alloc_bytes,
    mmx_prof_live_bytes, mmx_prof_peak_bytes, mmx_prof_retains,
    mmx_prof_releases, mmx_prof_mm_tiles;

enum { MMX_PROF_MAX_THREADS = 256 };
static unsigned long long mmx_prof_thread_busy[MMX_PROF_MAX_THREADS];

static __thread int mmx_prof_tid_tls = -1;
static int mmx_prof_ntids;
static int mmx_prof_tid(void) {
  if (mmx_prof_tid_tls < 0)
    mmx_prof_tid_tls =
        (int)__atomic_fetch_add(&mmx_prof_ntids, 1, __ATOMIC_RELAXED);
  return mmx_prof_tid_tls;
}

#ifdef MMX_PROF_WANT_TRACE
enum { MMX_PROF_MAX_EVENTS = 1 << 16 };
typedef struct {
  const char* name;
  const char* cat;
  unsigned long long ts, dur;
  int tid;
} mmx_prof_ev;
static mmx_prof_ev mmx_prof_evs[MMX_PROF_MAX_EVENTS];
static unsigned long long mmx_prof_ev_n; /* may exceed the cap: dropped */
#endif

static void mmx_prof_ev_push(const char* name, const char* cat,
                             unsigned long long ts, unsigned long long dur) {
#ifdef MMX_PROF_WANT_TRACE
  unsigned long long k =
      __atomic_fetch_add(&mmx_prof_ev_n, 1, __ATOMIC_RELAXED);
  if (k < MMX_PROF_MAX_EVENTS) {
    mmx_prof_evs[k].name = name;
    mmx_prof_evs[k].cat = cat;
    mmx_prof_evs[k].ts = ts;
    mmx_prof_evs[k].dur = dur;
    mmx_prof_evs[k].tid = mmx_prof_tid();
  }
#else
  (void)name;
  (void)cat;
  (void)ts;
  (void)dur;
#endif
}

static void mmx_prof_u64_max(unsigned long long* slot, unsigned long long v) {
  unsigned long long prev = __atomic_load_n(slot, __ATOMIC_RELAXED);
  while (v > prev && !__atomic_compare_exchange_n(slot, &prev, v, 0,
                                                  __ATOMIC_RELAXED,
                                                  __ATOMIC_RELAXED)) {
  }
}

static void mmx_prof_site_hit(mmx_prof_site* s, unsigned long long t0) {
  unsigned long long dur = mmx_prof_now() - t0;
  __atomic_fetch_add(&s->count, 1, __ATOMIC_RELAXED);
  __atomic_fetch_add(&s->total_ns, dur, __ATOMIC_RELAXED);
  mmx_prof_u64_max(&s->max_ns, dur);
  mmx_prof_ev_push(s->name, s->cat, t0, dur);
}

/* Log2-bucketed distributions (ISSUE 10), bucket-compatible with the
 * interpreter registry's metrics::Histogram (bucket 0 holds zero, bucket
 * b holds [2^(b-1), 2^b)) so the dumped .count/.sum fields are directly
 * comparable across the two runtimes. */
enum { MMX_PROF_HIST_BUCKETS = 64 };
typedef struct {
  const char* name;
  unsigned long long count, sum, max;
  unsigned long long buckets[MMX_PROF_HIST_BUCKETS];
} mmx_prof_hist;

static mmx_prof_hist mmx_prof_hist_alloc = {"rt.alloc.size", 0, 0, 0, {0}};
static mmx_prof_hist mmx_prof_hist_matmul = {"kernel.matmul.latency_ns",
                                             0, 0, 0, {0}};
static mmx_prof_hist mmx_prof_hist_panel = {"omp.panel.latency_ns",
                                            0, 0, 0, {0}};

static void mmx_prof_hist_hit(mmx_prof_hist* h, unsigned long long v) {
  unsigned b = 0;
  unsigned long long x = v;
  while (x) {
    ++b;
    x >>= 1;
  }
  if (b >= MMX_PROF_HIST_BUCKETS) b = MMX_PROF_HIST_BUCKETS - 1;
  __atomic_fetch_add(&h->count, 1, __ATOMIC_RELAXED);
  __atomic_fetch_add(&h->sum, v, __ATOMIC_RELAXED);
  mmx_prof_u64_max(&h->max, v);
  __atomic_fetch_add(&h->buckets[b], 1, __ATOMIC_RELAXED);
}

/* Hardware PMU counters (ISSUE 10): opt-in via $MMX_PERF_COUNTERS, scoped
 * around the matmul kernel like mmc --perf-counters around rt::matmul.
 * Calling-thread scoped; a denied perf_event_open parks the group and
 * every skipped scope counts into the presence-only pmu.skipped row. */
static unsigned long long mmx_prof_pmu_vals[4];
static unsigned long long mmx_prof_pmu_skips;
static int mmx_prof_pmu_state; /* 0 untried, 1 open, -1 unavailable */
#if defined(__linux__)
static int mmx_prof_pmu_fds[4] = {-1, -1, -1, -1};
#endif

static int mmx_prof_pmu_wanted(void) {
  static int cached = -1;
  if (cached < 0) {
    const char* e = getenv("MMX_PERF_COUNTERS");
    cached = (e && *e && strcmp(e, "0") != 0) ? 1 : 0;
  }
  return cached;
}

static void mmx_prof_pmu_open(void) {
#if defined(__linux__)
  static const unsigned long long cfgs[4] = {
      PERF_COUNT_HW_CPU_CYCLES, PERF_COUNT_HW_INSTRUCTIONS,
      PERF_COUNT_HW_CACHE_MISSES, PERF_COUNT_HW_BRANCH_MISSES};
  int i, j;
  for (i = 0; i < 4; ++i) {
    struct perf_event_attr a;
    memset(&a, 0, sizeof(a));
    a.type = PERF_TYPE_HARDWARE;
    a.size = sizeof(a);
    a.config = cfgs[i];
    a.disabled = 1;
    a.exclude_kernel = 1;
    a.exclude_hv = 1;
    mmx_prof_pmu_fds[i] =
        (int)syscall(__NR_perf_event_open, &a, 0, -1, -1, 0);
    if (mmx_prof_pmu_fds[i] < 0) {
      for (j = 0; j < i; ++j) {
        close(mmx_prof_pmu_fds[j]);
        mmx_prof_pmu_fds[j] = -1;
      }
      mmx_prof_pmu_state = -1;
      return;
    }
  }
  mmx_prof_pmu_state = 1;
#else
  mmx_prof_pmu_state = -1;
#endif
}

static void mmx_prof_pmu_begin(void) {
  if (!mmx_prof_pmu_wanted()) return;
  if (mmx_prof_pmu_state == 0) mmx_prof_pmu_open();
  if (mmx_prof_pmu_state < 0) {
    __atomic_fetch_add(&mmx_prof_pmu_skips, 1, __ATOMIC_RELAXED);
    return;
  }
#if defined(__linux__)
  {
    int i;
    for (i = 0; i < 4; ++i) {
      ioctl(mmx_prof_pmu_fds[i], PERF_EVENT_IOC_RESET, 0);
      ioctl(mmx_prof_pmu_fds[i], PERF_EVENT_IOC_ENABLE, 0);
    }
  }
#endif
}

static void mmx_prof_pmu_end(void) {
  if (mmx_prof_pmu_state != 1) return;
#if defined(__linux__)
  {
    int i;
    for (i = 0; i < 4; ++i) {
      unsigned long long v = 0;
      ioctl(mmx_prof_pmu_fds[i], PERF_EVENT_IOC_DISABLE, 0);
      if (read(mmx_prof_pmu_fds[i], &v, sizeof(v)) == sizeof(v))
        __atomic_fetch_add(&mmx_prof_pmu_vals[i], v, __ATOMIC_RELAXED);
    }
  }
#endif
}

static void mmx_prof_alloc_hit(unsigned long long bytes) {
  __atomic_fetch_add(&mmx_prof_allocs, 1, __ATOMIC_RELAXED);
  __atomic_fetch_add(&mmx_prof_alloc_bytes, bytes, __ATOMIC_RELAXED);
  unsigned long long live =
      __atomic_add_fetch(&mmx_prof_live_bytes, bytes, __ATOMIC_RELAXED);
  mmx_prof_u64_max(&mmx_prof_peak_bytes, live);
  mmx_prof_hist_hit(&mmx_prof_hist_alloc, bytes);
}

static void mmx_prof_free_hit(unsigned long long bytes) {
  __atomic_fetch_sub(&mmx_prof_live_bytes, bytes, __ATOMIC_RELAXED);
}

/* Per-thread busy time of the OMP row-panel loops, indexed by the dense
 * mmx_prof thread id (0 = whichever thread hit the profiler first). */
static void mmx_prof_panel_end(unsigned long long t0,
                               unsigned long long tiles) {
  int tid = mmx_prof_tid();
  unsigned long long dur = mmx_prof_now() - t0;
  if (tid < MMX_PROF_MAX_THREADS)
    __atomic_fetch_add(&mmx_prof_thread_busy[tid], dur, __ATOMIC_RELAXED);
  __atomic_fetch_add(&mmx_prof_mm_tiles, tiles, __ATOMIC_RELAXED);
  mmx_prof_hist_hit(&mmx_prof_hist_panel, dur);
}

static mmx_prof_site mmx_prof_site_matmul = {"kernel.matmul", "kernel",
                                             0, 0, 0};

static void mmx_prof_kernel_end(unsigned long long t0) {
  mmx_prof_pmu_end();
  mmx_prof_hist_hit(&mmx_prof_hist_matmul, mmx_prof_now() - t0);
  mmx_prof_site_hit(&mmx_prof_site_matmul, t0);
}

/* Hooks the prelude's mmx_alloc / mmx_retain / mmx_release / matmul cores
 * expand. The release hook reads refcount==1 before the atomic decrement
 * to credit freed bytes; concurrent releases of one matrix can misattribute
 * the final free, so live_bytes is near-exact under contention. */
#define MMX_PROF_ALLOC(bytes) mmx_prof_alloc_hit((unsigned long long)(bytes))
#define MMX_PROF_RETAIN(m) \
  do { \
    if (m) __atomic_fetch_add(&mmx_prof_retains, 1, __ATOMIC_RELAXED); \
  } while (0)
#define MMX_PROF_RELEASE(m) \
  do { \
    if (m) { \
      __atomic_fetch_add(&mmx_prof_releases, 1, __ATOMIC_RELAXED); \
      if ((m)->refcount == 1) \
        mmx_prof_free_hit(sizeof(mmx_mat) + \
                          (unsigned long long)mmx_count(m) * \
                              mmx_esize((m)->elem)); \
    } \
  } while (0)
#define MMX_PROF_PANEL_BEGIN() unsigned long long __mmx_pt0 = mmx_prof_now()
#define MMX_PROF_PANEL_END(tiles) \
  mmx_prof_panel_end(__mmx_pt0, (unsigned long long)(tiles))
#define MMX_PROF_KERNEL_BEGIN() \
  unsigned long long __mmx_kt0 = (mmx_prof_pmu_begin(), mmx_prof_now())
#define MMX_PROF_KERNEL_END() mmx_prof_kernel_end(__mmx_kt0)

)PROF";

// Emitted after the site table (it iterates mmx_prof_sites, which lists
// every codegen site the emitter created plus the builtin matmul site).
const char* kProfDump = R"PROFDUMP(
static void mmx_prof_json_chars(FILE* f, const char* s) {
  for (; *s; ++s) {
    unsigned char c = (unsigned char)*s;
    if (c == '"' || c == '\\') {
      fputc('\\', f);
      fputc(c, f);
    } else if (c == '\n') {
      fputs("\\n", f);
    } else if (c == '\t') {
      fputs("\\t", f);
    } else if (c < 0x20) {
      fprintf(f, "\\u%04x", c);
    } else {
      fputc(c, f);
    }
  }
}

static void mmx_prof_json_key(FILE* f, const char* name, const char* suffix) {
  fputc('"', f);
  mmx_prof_json_chars(f, name);
  fputs(suffix, f);
  fputc('"', f);
}

/* Quantile estimation mirroring the interpreter registry exactly: rank =
 * ceil(q * count), linear interpolation within the owning bucket, clamped
 * to the observed max (bucket 63 uses the max as its upper edge). */
static unsigned long long mmx_prof_hist_quantile(const mmx_prof_hist* h,
                                                 double q) {
  unsigned long long count = h->count;
  if (!count) return 0;
  unsigned long long rank = (unsigned long long)ceil(q * (double)count);
  if (!rank) rank = 1;
  if (rank > count) rank = count;
  unsigned long long cum = 0;
  for (unsigned b = 0; b < MMX_PROF_HIST_BUCKETS; ++b) {
    unsigned long long n = h->buckets[b];
    if (!n) continue;
    if (cum + n >= rank) {
      unsigned long long lo = b == 0 ? 0 : (1ull << (b - 1));
      unsigned long long hi = b == 0 ? 1 : (b == 63 ? h->max : (1ull << b));
      double frac = (double)(rank - cum) / (double)n;
      unsigned long long v =
          lo + (unsigned long long)(frac * (double)(hi - lo));
      return v < h->max ? v : h->max;
    }
    cum += n;
  }
  return h->max;
}

static void mmx_prof_dump_hist(FILE* f, const mmx_prof_hist* h) {
  if (!h->count) return;
  fprintf(f, ",\n  \"%s.count\": %llu", h->name, h->count);
  fprintf(f, ",\n  \"%s.sum\": %llu", h->name, h->sum);
  fprintf(f, ",\n  \"%s.p50\": %llu", h->name,
          mmx_prof_hist_quantile(h, 0.50));
  fprintf(f, ",\n  \"%s.p95\": %llu", h->name,
          mmx_prof_hist_quantile(h, 0.95));
  fprintf(f, ",\n  \"%s.p99\": %llu", h->name,
          mmx_prof_hist_quantile(h, 0.99));
  fprintf(f, ",\n  \"%s.max\": %llu", h->name, h->max);
}

/* Continuous stats export (ISSUE 10 pillar 4): $MMX_STATS_INTERVAL_MS
 * spawns a sampler thread that appends one JSONL delta line per interval
 * to $MMX_STATS_JSONL (default mmx_stats.jsonl). Monotonic keys emit as
 * nonzero deltas; histogram max/p50/p95/p99 emit verbatim when nonzero,
 * matching the mmc exporter's schema. */
#if defined(__unix__) || defined(__APPLE__)
static FILE* mmx_prof_export_file;
static pthread_mutex_t mmx_prof_export_mu = PTHREAD_MUTEX_INITIALIZER;
static pthread_t mmx_prof_export_thread;
static int mmx_prof_export_running;
static unsigned mmx_prof_export_ms;
static unsigned long long mmx_prof_export_seq;

static void mmx_prof_export_delta(FILE* f, const char* name,
                                  const char* suffix,
                                  unsigned long long cur,
                                  unsigned long long* prev) {
  if (cur <= *prev) return;
  fputs(", ", f);
  mmx_prof_json_key(f, name, suffix);
  fprintf(f, ": %llu", cur - *prev);
  *prev = cur;
}

static void mmx_prof_export_instant(FILE* f, const char* name,
                                    const char* suffix,
                                    unsigned long long v) {
  if (!v) return;
  fputs(", ", f);
  mmx_prof_json_key(f, name, suffix);
  fprintf(f, ": %llu", v);
}

static void mmx_prof_export_line(void) {
  enum { MMX_PROF_EXPORT_MAX_SITES = 256 };
  static unsigned long long p_allocs, p_bytes, p_retains, p_releases,
      p_tiles;
  static unsigned long long p_sites[MMX_PROF_EXPORT_MAX_SITES][2];
  static unsigned long long p_hists[3][2];
  const mmx_prof_hist* hs[3] = {&mmx_prof_hist_alloc, &mmx_prof_hist_matmul,
                                &mmx_prof_hist_panel};
  FILE* f = mmx_prof_export_file;
  if (!f) return;
  pthread_mutex_lock(&mmx_prof_export_mu);
  fprintf(f, "{\"export.seq\": %llu, \"export.ts_ms\": %llu",
          mmx_prof_export_seq++,
          (unsigned long long)(mmx_prof_raw_ns() / 1000000ull));
  mmx_prof_export_delta(f, "rt.alloc.count", "", mmx_prof_allocs, &p_allocs);
  mmx_prof_export_delta(f, "rt.alloc.bytes", "", mmx_prof_alloc_bytes,
                        &p_bytes);
  mmx_prof_export_delta(f, "rt.rc.retains", "", mmx_prof_retains, &p_retains);
  mmx_prof_export_delta(f, "rt.rc.releases", "", mmx_prof_releases,
                        &p_releases);
  mmx_prof_export_delta(f, "kernel.matmul.tiles", "", mmx_prof_mm_tiles,
                        &p_tiles);
  for (int i = 0; mmx_prof_sites[i] && i < MMX_PROF_EXPORT_MAX_SITES; ++i) {
    mmx_prof_site* s = mmx_prof_sites[i];
    mmx_prof_export_delta(f, s->name, ".count", s->count, &p_sites[i][0]);
    mmx_prof_export_delta(f, s->name, ".ns", s->total_ns, &p_sites[i][1]);
  }
  for (int i = 0; i < 3; ++i) {
    mmx_prof_export_delta(f, hs[i]->name, ".count", hs[i]->count,
                          &p_hists[i][0]);
    mmx_prof_export_delta(f, hs[i]->name, ".sum", hs[i]->sum,
                          &p_hists[i][1]);
    mmx_prof_export_instant(f, hs[i]->name, ".max", hs[i]->max);
    mmx_prof_export_instant(f, hs[i]->name, ".p50",
                            mmx_prof_hist_quantile(hs[i], 0.50));
    mmx_prof_export_instant(f, hs[i]->name, ".p95",
                            mmx_prof_hist_quantile(hs[i], 0.95));
    mmx_prof_export_instant(f, hs[i]->name, ".p99",
                            mmx_prof_hist_quantile(hs[i], 0.99));
  }
  fputs("}\n", f);
  fflush(f);
  pthread_mutex_unlock(&mmx_prof_export_mu);
}

static void* mmx_prof_export_loop(void* arg) {
  (void)arg;
  while (__atomic_load_n(&mmx_prof_export_running, __ATOMIC_RELAXED)) {
    struct timespec ts;
    ts.tv_sec = mmx_prof_export_ms / 1000u;
    ts.tv_nsec = (long)(mmx_prof_export_ms % 1000u) * 1000000L;
    nanosleep(&ts, 0);
    mmx_prof_export_line();
  }
  return 0;
}

static void mmx_prof_export_start(void) {
  const char* ms = getenv("MMX_STATS_INTERVAL_MS");
  if (!ms || !*ms) return;
  long interval = strtol(ms, 0, 10);
  if (interval <= 0) return;
  const char* path = getenv("MMX_STATS_JSONL");
  mmx_prof_export_file =
      fopen(path && *path ? path : "mmx_stats.jsonl", "w");
  if (!mmx_prof_export_file) return;
  mmx_prof_export_ms = (unsigned)interval;
  mmx_prof_export_running = 1;
  mmx_prof_export_line(); /* sync first line: schema visible immediately */
  if (pthread_create(&mmx_prof_export_thread, 0, mmx_prof_export_loop, 0))
    mmx_prof_export_running = 0;
}

static void mmx_prof_export_stop(void) {
  if (!mmx_prof_export_file) return;
  if (mmx_prof_export_running) {
    __atomic_store_n(&mmx_prof_export_running, 0, __ATOMIC_RELAXED);
    pthread_join(mmx_prof_export_thread, 0);
  }
  mmx_prof_export_line(); /* final deltas since the last tick */
  fclose(mmx_prof_export_file);
  mmx_prof_export_file = 0;
}
#else
static void mmx_prof_export_start(void) {}
static void mmx_prof_export_stop(void) {}
#endif

/* Crash-safe flight recorder (ISSUE 10 pillar 3): $MMX_CRASH_JSON arms
 * SIGSEGV/SIGABRT/SIGFPE/SIGBUS handlers that dump the counter snapshot,
 * the tail of the trace ring, and a raw backtrace using only write(2) and
 * snprintf into stack buffers — no locks, no allocation, no stdio. */
#if defined(__unix__) || defined(__APPLE__)
static char mmx_prof_crash_path[1024];
static volatile sig_atomic_t mmx_prof_crash_busy;

static void mmx_prof_crash_put(int fd, const char* s, long n) {
  while (n > 0) {
    long w = (long)write(fd, s, (size_t)n);
    if (w <= 0) return;
    s += w;
    n -= w;
  }
}

static void mmx_prof_crash_str(int fd, const char* s) {
  mmx_prof_crash_put(fd, s, (long)strlen(s));
}

/* Flattens characters the signal-safe writer cannot escape to '_'. */
static void mmx_prof_crash_name(const char* s, char* out, int cap) {
  int j = 0;
  for (; *s && j < cap - 1; ++s) {
    unsigned char c = (unsigned char)*s;
    out[j++] = (c == '"' || c == '\\' || c < 0x20) ? '_' : (char)c;
  }
  out[j] = 0;
}

static void mmx_prof_crash_kv(int fd, const char* name, const char* suffix,
                              unsigned long long v, int* first) {
  char nb[128];
  char buf[224];
  mmx_prof_crash_name(name, nb, (int)sizeof(nb));
  int n = snprintf(buf, sizeof(buf), "%s    \"%s%s\": %llu",
                   *first ? "\n" : ",\n", nb, suffix, v);
  if (n > 0 && n < (int)sizeof(buf)) mmx_prof_crash_put(fd, buf, n);
  *first = 0;
}

static const char* mmx_prof_crash_signame(int sig) {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGABRT: return "SIGABRT";
    case SIGFPE: return "SIGFPE";
    case SIGBUS: return "SIGBUS";
    default: return "SIG?";
  }
}

static void mmx_prof_crash_handler(int sig) {
  char buf[320];
  int n, first = 1;
  if (mmx_prof_crash_busy) _exit(128 + sig);
  mmx_prof_crash_busy = 1;
  int fd = open(mmx_prof_crash_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd >= 0) {
    n = snprintf(buf, sizeof(buf),
                 "{\n  \"crash.signal\": %d,\n"
                 "  \"crash.signalName\": \"%s\",\n"
                 "  \"crash.ts_ns\": %llu,\n  \"counters\": {",
                 sig, mmx_prof_crash_signame(sig),
                 (unsigned long long)mmx_prof_raw_ns());
    if (n > 0 && n < (int)sizeof(buf)) mmx_prof_crash_put(fd, buf, n);
    mmx_prof_crash_kv(fd, "rt.alloc.count", "", mmx_prof_allocs, &first);
    mmx_prof_crash_kv(fd, "rt.alloc.bytes", "", mmx_prof_alloc_bytes,
                      &first);
    mmx_prof_crash_kv(fd, "rt.rc.retains", "", mmx_prof_retains, &first);
    mmx_prof_crash_kv(fd, "rt.rc.releases", "", mmx_prof_releases, &first);
    mmx_prof_crash_kv(fd, "kernel.matmul.tiles", "", mmx_prof_mm_tiles,
                      &first);
    for (int i = 0; mmx_prof_sites[i]; ++i) {
      mmx_prof_site* s = mmx_prof_sites[i];
      if (!s->count) continue;
      mmx_prof_crash_kv(fd, s->name, ".count", s->count, &first);
      mmx_prof_crash_kv(fd, s->name, ".ns", s->total_ns, &first);
    }
    {
      const mmx_prof_hist* hs[3] = {&mmx_prof_hist_alloc,
                                    &mmx_prof_hist_matmul,
                                    &mmx_prof_hist_panel};
      for (int i = 0; i < 3; ++i) {
        if (!hs[i]->count) continue;
        mmx_prof_crash_kv(fd, hs[i]->name, ".count", hs[i]->count, &first);
        mmx_prof_crash_kv(fd, hs[i]->name, ".sum", hs[i]->sum, &first);
      }
    }
    mmx_prof_crash_str(fd, "\n  },\n  \"events\": [");
    first = 1;
#ifdef MMX_PROF_WANT_TRACE
    {
      unsigned long long evn =
          __atomic_load_n(&mmx_prof_ev_n, __ATOMIC_RELAXED);
      if (evn > MMX_PROF_MAX_EVENTS) evn = MMX_PROF_MAX_EVENTS;
      unsigned long long k = evn > 64 ? evn - 64 : 0;
      for (; k < evn; ++k) {
        mmx_prof_ev* e = &mmx_prof_evs[k];
        char nb[96], cb[32];
        mmx_prof_crash_name(e->name, nb, (int)sizeof(nb));
        mmx_prof_crash_name(e->cat, cb, (int)sizeof(cb));
        n = snprintf(buf, sizeof(buf),
                     "%s\n    {\"name\": \"%s\", \"cat\": \"%s\", "
                     "\"ts_ns\": %llu, \"dur_ns\": %llu, \"tid\": %d}",
                     first ? "" : ",", nb, cb, e->ts, e->dur, e->tid);
        if (n > 0 && n < (int)sizeof(buf)) mmx_prof_crash_put(fd, buf, n);
        first = 0;
      }
    }
#endif
    mmx_prof_crash_str(fd, "\n  ],\n  \"backtrace\": [");
    first = 1;
#if defined(__GLIBC__)
    {
      void* frames[64];
      int nf = backtrace(frames, 64);
      for (int i = 0; i < nf; ++i) {
        n = snprintf(buf, sizeof(buf), "%s\"%p\"", first ? "" : ", ",
                     frames[i]);
        if (n > 0 && n < (int)sizeof(buf)) mmx_prof_crash_put(fd, buf, n);
        first = 0;
      }
    }
#endif
    mmx_prof_crash_str(fd, "]\n}\n");
    close(fd);
  }
  signal(sig, SIG_DFL);
  raise(sig);
}

static void mmx_prof_crash_install(void) {
  static char mmx_prof_crash_stack[64 * 1024];
  const char* path = getenv("MMX_CRASH_JSON");
  if (!path || !*path) return;
  snprintf(mmx_prof_crash_path, sizeof(mmx_prof_crash_path), "%s", path);
#if defined(__GLIBC__)
  {
    void* prime[2];
    backtrace(prime, 2); /* fault-free libgcc load before any crash */
  }
#endif
  stack_t st;
  st.ss_sp = mmx_prof_crash_stack;
  st.ss_size = sizeof(mmx_prof_crash_stack);
  st.ss_flags = 0;
  sigaltstack(&st, 0);
  struct sigaction sa;
  memset(&sa, 0, sizeof(sa));
  sa.sa_handler = mmx_prof_crash_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_ONSTACK;
  static const int sigs[4] = {SIGSEGV, SIGABRT, SIGFPE, SIGBUS};
  for (int i = 0; i < 4; ++i) sigaction(sigs[i], &sa, 0);
}
#else
static void mmx_prof_crash_install(void) {}
#endif

/* Deliberate-fault hook for the crash-recorder fixtures, mirroring mmc's
 * $MMX_DEBUG_CRASH. Firing at dump time (atexit) means the crash JSON
 * carries the full counter/span state of the finished program. */
static void mmx_prof_debug_crash(void) {
  const char* mode = getenv("MMX_DEBUG_CRASH");
  if (!mode) return;
  if (!strcmp(mode, "segv")) {
    volatile int* p = 0;
    *p = 42; /* SIGSEGV through the installed flight recorder */
  } else if (!strcmp(mode, "abort")) {
    abort();
  }
}

static void mmx_prof_dump(void) {
  mmx_prof_export_stop();
  mmx_prof_debug_crash();
  const char* path = getenv("MMX_PROF_JSON");
  if (path && *path) {
    FILE* f = fopen(path, "w");
    if (f) {
      fputs("{\n", f);
      fprintf(f, "  \"rt.alloc.count\": %llu,\n", mmx_prof_allocs);
      fprintf(f, "  \"rt.alloc.bytes\": %llu,\n", mmx_prof_alloc_bytes);
      fprintf(f, "  \"rt.alloc.cache.cachedBytes\": %llu,\n",
              __atomic_load_n(&mmx_ms_cached_bytes, __ATOMIC_RELAXED));
      fprintf(f, "  \"rt.alloc.cache.flushes\": %llu,\n",
              __atomic_load_n(&mmx_ms_flushes, __ATOMIC_RELAXED));
      fprintf(f, "  \"rt.alloc.cache.hits\": %llu,\n",
              __atomic_load_n(&mmx_ms_hits, __ATOMIC_RELAXED));
      fprintf(f, "  \"rt.alloc.cache.misses\": %llu,\n",
              __atomic_load_n(&mmx_ms_misses, __ATOMIC_RELAXED));
      fprintf(f, "  \"rt.alloc.liveBytes\": %llu,\n",
              __atomic_load_n(&mmx_prof_live_bytes, __ATOMIC_RELAXED));
      fprintf(f, "  \"rt.alloc.peakBytes\": %llu,\n", mmx_prof_peak_bytes);
      fprintf(f, "  \"rt.rc.retains\": %llu,\n", mmx_prof_retains);
      fprintf(f, "  \"rt.rc.releases\": %llu,\n", mmx_prof_releases);
      fprintf(f, "  \"kernel.matmul.tiles\": %llu", mmx_prof_mm_tiles);
      if (mmx_backend_name) {
        fprintf(f, ",\n  \"backend.selected.%s\": 1", mmx_backend_name);
        fprintf(f, ",\n  \"kernel.matmul.%s.count\": %llu", mmx_backend_name,
                mmx_prof_site_matmul.count);
        fprintf(f, ",\n  \"kernel.matmul.%s.ns\": %llu", mmx_backend_name,
                mmx_prof_site_matmul.total_ns);
        if (mmx_prof_pmu_state == 1) {
          fprintf(f, ",\n  \"kernel.matmul.%s.pmu.cycles\": %llu",
                  mmx_backend_name, mmx_prof_pmu_vals[0]);
          fprintf(f, ",\n  \"kernel.matmul.%s.pmu.instructions\": %llu",
                  mmx_backend_name, mmx_prof_pmu_vals[1]);
          fprintf(f, ",\n  \"kernel.matmul.%s.pmu.cacheMisses\": %llu",
                  mmx_backend_name, mmx_prof_pmu_vals[2]);
          fprintf(f, ",\n  \"kernel.matmul.%s.pmu.branchMisses\": %llu",
                  mmx_backend_name, mmx_prof_pmu_vals[3]);
        }
      }
      if (mmx_prof_pmu_skips)
        fprintf(f, ",\n  \"pmu.skipped\": %llu", mmx_prof_pmu_skips);
      mmx_prof_dump_hist(f, &mmx_prof_hist_alloc);
      mmx_prof_dump_hist(f, &mmx_prof_hist_matmul);
      mmx_prof_dump_hist(f, &mmx_prof_hist_panel);
#ifdef MMX_PROF_WANT_TRACE
      {
        unsigned long long evn =
            __atomic_load_n(&mmx_prof_ev_n, __ATOMIC_RELAXED);
        if (evn > MMX_PROF_MAX_EVENTS)
          fprintf(f, ",\n  \"trace.droppedEvents\": %llu",
                  evn - MMX_PROF_MAX_EVENTS);
      }
#endif
      for (int t = 0; t < mmx_prof_ntids && t < MMX_PROF_MAX_THREADS; ++t)
        if (mmx_prof_thread_busy[t])
          fprintf(f, ",\n  \"omp.t%d.busy_ns\": %llu", t,
                  mmx_prof_thread_busy[t]);
      for (int i = 0; mmx_prof_sites[i]; ++i) {
        mmx_prof_site* s = mmx_prof_sites[i];
        if (!s->count) continue;
        fputs(",\n  ", f);
        mmx_prof_json_key(f, s->name, ".count");
        fprintf(f, ": %llu,\n  ", s->count);
        mmx_prof_json_key(f, s->name, ".ns");
        fprintf(f, ": %llu,\n  ", s->total_ns);
        mmx_prof_json_key(f, s->name, ".max_ns");
        fprintf(f, ": %llu", s->max_ns);
      }
      fputs("\n}\n", f);
      fclose(f);
    }
  }
#ifdef MMX_PROF_WANT_TRACE
  path = getenv("MMX_PROF_TRACE");
  if (path && *path) {
    FILE* f = fopen(path, "w");
    if (f) {
      fputs("{\"traceEvents\":[", f);
      fputs("\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,"
            "\"args\":{\"name\":\"mmx runtime\"}}",
            f);
      unsigned long long n =
          __atomic_load_n(&mmx_prof_ev_n, __ATOMIC_RELAXED);
      if (n > MMX_PROF_MAX_EVENTS) n = MMX_PROF_MAX_EVENTS;
      for (unsigned long long k = 0; k < n; ++k) {
        mmx_prof_ev* e = &mmx_prof_evs[k];
        fputs(",\n{\"name\":", f);
        mmx_prof_json_key(f, e->name, "");
        fputs(",\"cat\":", f);
        mmx_prof_json_key(f, e->cat, "");
        fprintf(f,
                ",\"ph\":\"X\",\"ts\":%llu.%03llu,\"dur\":%llu.%03llu,"
                "\"pid\":2,\"tid\":%d}",
                e->ts / 1000, e->ts % 1000, e->dur / 1000, e->dur % 1000,
                e->tid);
      }
      fputs("\n],\"displayTimeUnit\":\"ms\"}\n", f);
      fclose(f);
    }
  }
#endif
}
)PROFDUMP";

/// Removes every line containing an MMX_PROF hook marker. Applied to the
/// prelude when instrumentation is off: hooks are planted as whole lines,
/// so the stripped prelude is plain C without any profiling code.
std::string stripProfLines(const char* text) {
  std::string out;
  const char* p = text;
  while (*p) {
    const char* nl = strchr(p, '\n');
    size_t len = nl ? static_cast<size_t>(nl - p) + 1 : strlen(p);
    if (std::string_view(p, len).find("MMX_PROF") == std::string_view::npos)
      out.append(p, len);
    p += len;
  }
  return out;
}

int ewOpCode(ArithOp op) {
  switch (op) {
    case ArithOp::Add: return 0;
    case ArithOp::Sub: return 1;
    case ArithOp::Mul:
    case ArithOp::EwMul: return 2;
    case ArithOp::Div: return 3;
    case ArithOp::Mod: return 4;
    case ArithOp::Min: return 5;
    case ArithOp::Max: return 6;
  }
  return 0;
}

int cmpOpCode(CmpKind op) {
  switch (op) {
    case CmpKind::Lt: return 0;
    case CmpKind::Le: return 1;
    case CmpKind::Gt: return 2;
    case CmpKind::Ge: return 3;
    case CmpKind::Eq: return 4;
    case CmpKind::Ne: return 5;
  }
  return 0;
}

std::string cTy(Ty t) {
  switch (t) {
    case Ty::Void: return "void";
    case Ty::I32: return "int";
    case Ty::F32: return "float";
    case Ty::Bool: return "int";
    case Ty::Mat: return "mmx_mat*";
    case Ty::Str: return "const char*";
  }
  return "void";
}

std::string escapeC(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

std::string floatLit(float f) {
  std::ostringstream o;
  o.precision(9);
  o << f;
  std::string s = o.str();
  if (s.find('.') == std::string::npos && s.find('e') == std::string::npos &&
      s.find("inf") == std::string::npos && s.find("nan") == std::string::npos)
    s += ".0";
  return s + "f";
}

/// Emits one function.
class FnEmitter {
public:
  FnEmitter(const Function& f, std::vector<std::string>& errors,
            BoundsCheckMode mode = BoundsCheckMode::On,
            const GuardPlan* plan = nullptr,
            InstrumentMode instr = InstrumentMode::Off,
            const SourceManager* sm = nullptr,
            std::vector<std::string>* siteDecls = nullptr,
            int* siteId = nullptr)
      : f_(f), errors_(errors), mode_(mode), plan_(plan), instr_(instr),
        sm_(sm), siteDecls_(siteDecls), siteId_(siteId) {
    names_.reserve(f.locals.size());
    for (size_t i = 0; i < f.locals.size(); ++i) {
      std::string n;
      for (char c : f.locals[i].name)
        n += (isalnum(static_cast<unsigned char>(c)) ? c : '_');
      if (n.empty() || isdigit(static_cast<unsigned char>(n[0]))) n = "v" + n;
      names_.push_back(n + "_" + std::to_string(i));
    }
  }

  static std::string signature(const Function& f,
                               const std::vector<std::string>* names) {
    std::ostringstream s;
    bool multi = f.rets.size() > 1;
    s << (f.rets.empty() || multi ? "void" : cTy(f.rets[0])) << " xc_"
      << f.name << "(";
    bool first = true;
    for (size_t i = 0; i < f.numParams; ++i) {
      if (!first) s << ", ";
      first = false;
      s << cTy(f.locals[i].ty) << ' '
        << (names ? (*names)[i] : "p" + std::to_string(i));
    }
    if (multi) {
      for (size_t r = 0; r < f.rets.size(); ++r) {
        if (!first) s << ", ";
        first = false;
        s << cTy(f.rets[r]) << "* __out" << r;
      }
    }
    if (first) s << "void";
    s << ")";
    return s.str();
  }

  std::string run() {
    // Borrowed parameters (shapecheck-proven never reassigned): their
    // per-call retain/release pair is elided whenever guard elision is
    // active — the caller's reference outlives the call.
    std::set<int32_t> borrowed;
    if (mode_ != BoundsCheckMode::On && plan_) {
      auto it = plan_->borrowedParams.find(&f_);
      if (it != plan_->borrowedParams.end()) borrowed = it->second;
    }
    // The body goes first, so that the matrix temporaries it creates
    // outside parallel loops are known; they lead the declarations and the
    // releases at cleanup.
    indent_ = 1;
    stmt(*f_.body);
    line() << "goto mmx_cleanup;\n";

    std::ostringstream fn;
    fn << signature(f_, &names_) << " {\n";
    for (const std::string& t : fnTemps_)
      fn << "  mmx_mat* " << t << " = NULL;\n";
    // Local declarations.
    for (size_t i = f_.numParams; i < f_.locals.size(); ++i) {
      Ty t = f_.locals[i].ty;
      if (t == Ty::Void) continue;
      fn << "  " << cTy(t) << ' ' << names_[i]
         << (t == Ty::Mat ? " = NULL" : t == Ty::Str ? " = \"\"" : " = 0")
         << ";\n";
    }
    if (f_.rets.size() == 1)
      fn << "  " << cTy(f_.rets[0]) << " __ret"
         << (f_.rets[0] == Ty::Mat ? " = NULL" : " = 0") << ";\n";
    // Own the matrix parameters for the function's duration.
    for (size_t i = 0; i < f_.numParams; ++i)
      if (f_.locals[i].ty == Ty::Mat && !borrowed.count((int32_t)i))
        fn << "  mmx_retain(" << names_[i] << ");\n";
    fn << body_.str();
    fn << "mmx_cleanup:;\n";
    for (const std::string& t : fnTemps_)
      fn << "  mmx_release(" << t << ");\n";
    for (size_t i = 0; i < f_.locals.size(); ++i)
      if (f_.locals[i].ty == Ty::Mat &&
          !(i < f_.numParams && borrowed.count((int32_t)i)))
        fn << "  mmx_release(" << names_[i] << ");\n";
    if (f_.rets.size() == 1) fn << "  return __ret;\n";
    fn << "}\n";
    return fn.str();
  }

private:
  std::ostream& line() {
    for (int i = 0; i < indent_; ++i) body_ << "  ";
    return body_;
  }

  void err(const std::string& m) { errors_.push_back(f_.name + ": " + m); }

  // --- instrumentation sites (ISSUE 5) -----------------------------------
  /// Span label with source attribution: "<kind>@file:line" when the
  /// originating statement has a resolvable location, "<kind>@fnname"
  /// otherwise (e.g. synthesized IR).
  std::string siteLabel(const char* kind) const {
    if (sm_ && curRange_.valid()) {
      auto lc = sm_->lineCol(curRange_.begin);
      return std::string(kind) + "@" + std::string(sm_->name(curRange_.begin.file)) +
             ":" + std::to_string(lc.line);
    }
    return std::string(kind) + "@" + f_.name;
  }

  /// Registers a per-site aggregate struct; returns its C variable name.
  /// Declarations are collected by the caller and emitted before the
  /// function bodies (they are static, taken by address in the hooks).
  std::string newSite(const char* kind, const char* cat) {
    int id = (*siteId_)++;
    std::string var = "mmx_prof_site_" + std::to_string(id);
    siteDecls_->push_back("static mmx_prof_site " + var + " = {\"" +
                          escapeC(siteLabel(kind)) + "\", \"" + cat +
                          "\", 0, 0, 0};");
    return var;
  }

  /// True when the guard at `site` (the IR node's address, the key the
  /// shapecheck pass used) should be dropped from the emitted code.
  bool skip(const void* site) const {
    if (mode_ == BoundsCheckMode::On) return false;
    if (mode_ == BoundsCheckMode::Off) return true;
    return plan_ && plan_->blessed(site);
  }

  /// The trailing `chk` argument of a guarded runtime helper.
  const char* chk(const void* site) const { return skip(site) ? ", 0" : ", 1"; }

  // --- scalar/matrix expression emission ---------------------------------
  std::string expr(const Expr& e) {
    switch (e.k) {
      case Expr::K::ConstI: return std::to_string(e.i);
      case Expr::K::ConstF: return floatLit(e.f);
      case Expr::K::ConstB: return e.i ? "1" : "0";
      case Expr::K::ConstS: return "\"" + escapeC(e.s) + "\"";
      case Expr::K::Var: return names_[e.slot];
      case Expr::K::Arith: return arith(e);
      case Expr::K::Cmp: return cmp(e);
      case Expr::K::Logic:
        return "(" + expr(*e.args[0]) +
               (e.lop == LogicOp::And ? " && " : " || ") + expr(*e.args[1]) +
               ")";
      case Expr::K::Not: return "(!" + expr(*e.args[0]) + ")";
      case Expr::K::Neg:
        if (e.ty == Ty::Mat) return matTemp("mmx_negm(" + matVal(*e.args[0]) + ")");
        return "(-" + expr(*e.args[0]) + ")";
      case Expr::K::Cast:
        if (e.ty == Ty::Bool) return "((" + expr(*e.args[0]) + ") != 0)";
        return "((" + std::string(e.ty == Ty::F32 ? "float" : "int") + ")(" +
               expr(*e.args[0]) + "))";
      case Expr::K::Call: return call(e);
      case Expr::K::DimSize:
        if (skip(&e))
          return "((int)" + matVal(*e.args[0]) + "->dims[" +
                 expr(*e.args[1]) + "])";
        return "((int)mmx_dim(" + matVal(*e.args[0]) + ", " +
               expr(*e.args[1]) + "))";
      case Expr::K::LoadFlat: {
        std::string m = matVal(*e.args[0]);
        std::string acc = e.ty == Ty::F32 ? "mmx_f" : e.ty == Ty::Bool
                                                          ? "mmx_b"
                                                          : "mmx_i";
        if (skip(&e))
          return acc + "(" + m + ")[" + expr(*e.args[1]) + "]";
        return acc + "(" + m + ")[mmx_flat(" + m + ", " + expr(*e.args[1]) +
               ")]";
      }
      case Expr::K::RangeLit:
        return matTemp("mmx_range(" + expr(*e.args[0]) + ", " +
                       expr(*e.args[1]) + ")");
      case Expr::K::Index: {
        std::string t = indexExpr(e);
        if (e.ty == Ty::Mat) return t;
        // Scalar result through the selector machinery: one-element matrix.
        std::string acc = e.ty == Ty::F32 ? "mmx_f" : e.ty == Ty::Bool
                                                          ? "mmx_b"
                                                          : "mmx_i";
        return acc + "(" + t + ")[0]";
      }
    }
    err("unsupported expression");
    return "0";
  }

  /// Expression that must be a valid mmx_mat* value (borrowed).
  std::string matVal(const Expr& e) {
    if (e.k == Expr::K::Var) return names_[e.slot];
    return expr(e); // constructor forms route through matTemp
  }

  /// Stores an owned constructor result into a fresh temp slot; returns
  /// the temp's name (borrowed from the temp, released at cleanup).
  std::string matTemp(const std::string& ownedCtor) {
    std::string t = newTemp();
    line() << "mmx_set_owned(&" << t << ", " << ownedCtor << ");\n";
    return t;
  }

  /// A new matrix temporary, declared and released by the scope that owns
  /// it: the function (see run), or the enclosing parallel iteration (see
  /// emitParallelFor).
  std::string newTemp() {
    std::string t = "__mt" + std::to_string(names_.size() + numTemps_++);
    temps_->push_back(t);
    return t;
  }

  std::string arith(const Expr& e) {
    bool aM = e.args[0]->ty == Ty::Mat, bM = e.args[1]->ty == Ty::Mat;
    if (e.ty == Ty::Mat) {
      if (aM && bM) {
        if (e.aop == ArithOp::Mul) {
          // Evaluate the operands first so nested constructor statements
          // don't land inside the matmul span.
          std::string a = matVal(*e.args[0]);
          std::string b = matVal(*e.args[1]);
          std::string ctor = "mmx_matmul(" + a + ", " + b + chk(&e) + ")";
          if (instr_ == InstrumentMode::Off) return matTemp(ctor);
          std::string site = newSite("matmul", "matmul");
          int id = tempId_++;
          line() << "unsigned long long __mmt" << id
                 << " = mmx_prof_now();\n";
          std::string t = matTemp(ctor);
          line() << "mmx_prof_site_hit(&" << site << ", __mmt" << id
                 << ");\n";
          return t;
        }
        return matTemp("mmx_ew(" + std::to_string(ewOpCode(e.aop)) + ", " +
                       matVal(*e.args[0]) + ", " + matVal(*e.args[1]) +
                       chk(&e) + ")");
      }
      const Expr& m = aM ? *e.args[0] : *e.args[1];
      const Expr& sc = aM ? *e.args[1] : *e.args[0];
      std::string fn = sc.ty == Ty::F32 ? "mmx_ew_sf" : "mmx_ew_si";
      return matTemp(fn + "(" + std::to_string(ewOpCode(e.aop)) + ", " +
                     matVal(m) + ", " + expr(sc) + ", " + (aM ? "0" : "1") +
                     ")");
    }
    std::string a = expr(*e.args[0]), b = expr(*e.args[1]);
    bool flt = e.ty == Ty::F32;
    switch (e.aop) {
      case ArithOp::Add: return "(" + a + " + " + b + ")";
      case ArithOp::Sub: return "(" + a + " - " + b + ")";
      case ArithOp::Mul:
      case ArithOp::EwMul: return "(" + a + " * " + b + ")";
      case ArithOp::Div:
        return flt ? "(" + a + " / " + b + ")"
                   : "mmx_opi(3, " + a + ", " + b + ")";
      case ArithOp::Mod:
        return flt ? "fmodf(" + a + ", " + b + ")"
                   : "mmx_opi(4, " + a + ", " + b + ")";
      case ArithOp::Min:
        return (flt ? "mmx_min_f(" : "mmx_min_i(") + a + ", " + b + ")";
      case ArithOp::Max:
        return (flt ? "mmx_max_f(" : "mmx_max_i(") + a + ", " + b + ")";
    }
    return "0";
  }

  std::string cmp(const Expr& e) {
    bool aM = e.args[0]->ty == Ty::Mat, bM = e.args[1]->ty == Ty::Mat;
    if (e.ty == Ty::Mat) {
      if (aM && bM)
        return matTemp("mmx_cmp(" + std::to_string(cmpOpCode(e.cop)) + ", " +
                       matVal(*e.args[0]) + ", " + matVal(*e.args[1]) +
                       chk(&e) + ")");
      const Expr& m = aM ? *e.args[0] : *e.args[1];
      const Expr& sc = aM ? *e.args[1] : *e.args[0];
      std::string fn = sc.ty == Ty::F32 ? "mmx_cmp_sf" : "mmx_cmp_si";
      return matTemp(fn + "(" + std::to_string(cmpOpCode(e.cop)) + ", " +
                     matVal(m) + ", " + expr(sc) + ", " + (aM ? "0" : "1") +
                     ")");
    }
    return "(" + expr(*e.args[0]) + " " + cmpName(e.cop) + " " +
           expr(*e.args[1]) + ")";
  }

  std::string call(const Expr& e) {
    auto arg = [&](size_t i) { return expr(*e.args[i]); };
    switch (e.builtin) {
      case Builtin::InitMatrix: {
        // Genarray results the shapecheck pass proved fully written take
        // the uninitialized-allocation path. Gated on the plan being active
        // (mode != On) like borrowedParams: a plan must not perturb On-mode
        // output.
        bool uninit = mode_ != BoundsCheckMode::On && plan_ &&
                      plan_->fullyWritten.count(&e);
        std::string s = (uninit ? "mmx_allocv_u(" : "mmx_allocv(") + arg(0) +
                        ", " + std::to_string(e.args.size() - 1) +
                        (uninit ? "" : chk(&e));
        for (size_t i = 1; i < e.args.size(); ++i)
          s += ", (long long)(" + arg(i) + ")";
        s += ")";
        return matTemp(s);
      }
      case Builtin::ReadMatrix: return matTemp("mmx_read(" + arg(0) + ")");
      case Builtin::WriteMatrix:
        return "mmx_write(" + arg(0) + ", " + matVal(*e.args[1]) + ")";
      case Builtin::CheckMatrixMeta:
        return matTemp("mmx_checked(" + matVal(*e.args[0]) + ", " + arg(1) +
                       ", " + arg(2) + chk(&e) + ")");
      case Builtin::CloneMatrix:
        return matTemp("mmx_clone(" + matVal(*e.args[0]) + ")");
      case Builtin::MatToFloat:
        return matTemp("mmx_to_float(" + matVal(*e.args[0]) + ")");
      case Builtin::CheckGenBounds:
        if (skip(&e)) // keep the operand evaluation, drop the comparison
          return "((void)(" + arg(0) + "), (void)(" + arg(1) + "))";
        return "mmx_check_gen_bounds(" + arg(0) + ", " + arg(1) + ")";
      case Builtin::PrintInt: return "printf(\"%d\\n\", " + arg(0) + ")";
      case Builtin::PrintFloat:
        return "printf(\"%g\\n\", (double)" + arg(0) + ")";
      case Builtin::PrintBool:
        return "printf(\"%s\\n\", (" + arg(0) + ") ? \"true\" : \"false\")";
      case Builtin::PrintStr: return "printf(\"%s\\n\", " + arg(0) + ")";
      case Builtin::PrintShape:
        // Shape printing is diagnostic-only; emit dims then the kind name.
        return "do { mmx_mat* __m = " + matVal(*e.args[0]) +
               "; for (int __d = 0; __d < __m->rank; ++__d) "
               "printf(\"%s%lld\", __d ? \"x\" : \"\", __m->dims[__d]); "
               "printf(\" %s\\n\", __m->elem == 0 ? \"int\" : __m->elem == 1 ? "
               "\"float\" : \"bool\"); } while (0)";
      case Builtin::NumThreads: return "mmx_num_threads()";
      case Builtin::RefCount:
        // Counts can differ from the interpreter by emitter temporaries.
        return "(" + matVal(*e.args[0]) + "->refcount)";
      case Builtin::ConnComp:
      case Builtin::DetectEddies:
      case Builtin::SynthSsh:
      case Builtin::RcLive:
        err("builtin '" + std::string(builtinInfo(e.builtin).name) +
            "' is interpreter-only (simulator-backed); emitted programs "
            "should read data with readMatrix instead");
        return "0";
    }
    return "0";
  }

  std::string indexExpr(const Expr& e) {
    std::string m = matVal(*e.args[0]);
    std::string t = newTemp();
    line() << "{ mmx_sel __s[" << e.dims.size() << "];\n";
    ++indent_;
    emitSelectors(e.dims, m);
    line() << "mmx_set_owned(&" << t << ", mmx_index(" << m << ", __s"
           << chk(&e) << "));\n";
    --indent_;
    line() << "}\n";
    return t;
  }

  void emitSelectors(const std::vector<IndexDim>& dims, const std::string&) {
    for (size_t d = 0; d < dims.size(); ++d) {
      std::string sd = "__s[" + std::to_string(d) + "]";
      line() << "memset(&" << sd << ", 0, sizeof(" << sd << "));\n";
      // Sub-expressions may emit temp-assignment lines of their own, so
      // they must be fully evaluated before this selector's line starts.
      switch (dims[d].kind) {
        case IndexDim::Kind::Scalar: {
          std::string a = expr(*dims[d].a);
          line() << sd << ".kind = 0; " << sd << ".a = " << a << ";\n";
          break;
        }
        case IndexDim::Kind::Range: {
          std::string a = expr(*dims[d].a);
          std::string b = expr(*dims[d].b);
          line() << sd << ".kind = 1; " << sd << ".a = " << a << "; " << sd
                 << ".b = " << b << ";\n";
          break;
        }
        case IndexDim::Kind::All:
          line() << sd << ".kind = 2;\n";
          break;
        case IndexDim::Kind::Mask: {
          std::string mv = matVal(*dims[d].a);
          line() << sd << ".kind = 3; " << sd << ".mask = " << mv << ";\n";
          break;
        }
      }
    }
  }

  // --- statements ---------------------------------------------------------
  void stmt(const Stmt& s) {
    if (s.range.valid()) curRange_ = s.range;
    switch (s.k) {
      case Stmt::K::Block:
        for (const auto& k : s.kids)
          if (k) stmt(*k);
        return;
      case Stmt::K::Assign: {
        const Expr& e = *s.exprs[0];
        if (f_.locals[s.slot].ty == Ty::Mat) {
          if (e.k == Expr::K::Var) {
            line() << "mmx_set(&" << names_[s.slot] << ", " << names_[e.slot]
                   << ");\n";
          } else {
            std::string v = expr(e); // routes through a temp slot
            line() << "mmx_set(&" << names_[s.slot] << ", " << v << ");\n";
          }
        } else {
          std::string v = expr(e);
          line() << names_[s.slot] << " = " << v << ";\n";
        }
        return;
      }
      case Stmt::K::StoreFlat: {
        std::string m = names_[s.slot];
        Ty et = s.exprs[1]->ty;
        std::string acc = et == Ty::F32 ? "mmx_f" : et == Ty::Bool
                                                        ? "mmx_b"
                                                        : "mmx_i";
        std::string idx = expr(*s.exprs[0]);
        std::string val = expr(*s.exprs[1]);
        if (skip(&s))
          line() << acc << "(" << m << ")[" << idx << "] = " << val << ";\n";
        else
          line() << acc << "(" << m << ")[mmx_flat(" << m << ", " << idx
                 << ")] = " << val << ";\n";
        return;
      }
      case Stmt::K::IndexStore: {
        std::string m = names_[s.slot];
        line() << "{ mmx_sel __s[" << s.dims.size() << "];\n";
        ++indent_;
        emitSelectors(s.dims, m);
        const Expr& v = *s.exprs[0];
        if (v.ty == Ty::Mat) {
          line() << "mmx_index_store(" << m << ", __s, " << matVal(v)
                 << chk(&s) << ");\n";
        } else {
          std::string fn = v.ty == Ty::F32 ? "mmx_index_store_f"
                           : v.ty == Ty::Bool ? "mmx_index_store_b"
                                              : "mmx_index_store_i";
          line() << fn << "(" << m << ", __s, " << expr(v) << chk(&s)
                 << ");\n";
        }
        --indent_;
        line() << "}\n";
        return;
      }
      case Stmt::K::For:
        emitFor(s);
        return;
      case Stmt::K::While: {
        line() << "for (;;) {\n";
        ++indent_;
        std::string cond = expr(*s.exprs[0]);
        line() << "if (!(" << cond << ")) break;\n";
        stmt(*s.kids[0]);
        --indent_;
        line() << "}\n";
        return;
      }
      case Stmt::K::If: {
        std::string cond = expr(*s.exprs[0]);
        line() << "if (" << cond << ") {\n";
        ++indent_;
        stmt(*s.kids[0]);
        --indent_;
        line() << "}";
        if (s.kids.size() > 1 && s.kids[1]) {
          body_ << " else {\n";
          ++indent_;
          stmt(*s.kids[1]);
          --indent_;
          line() << "}";
        }
        body_ << "\n";
        return;
      }
      case Stmt::K::Ret: {
        if (f_.rets.size() == 1) {
          if (f_.rets[0] == Ty::Mat)
            line() << "mmx_set(&__ret, " << matVal(*s.exprs[0]) << ");\n";
          else
            line() << "__ret = " << expr(*s.exprs[0]) << ";\n";
        } else if (f_.rets.size() > 1) {
          for (size_t r = 0; r < s.exprs.size(); ++r) {
            if (f_.rets[r] == Ty::Mat) {
              std::string v = matVal(*s.exprs[r]);
              line() << "mmx_retain(" << v << "); *__out" << r << " = " << v
                     << ";\n";
            } else {
              line() << "*__out" << r << " = " << expr(*s.exprs[r]) << ";\n";
            }
          }
        }
        line() << "goto mmx_cleanup;\n";
        return;
      }
      case Stmt::K::CallStmt: {
        std::string c = expr(*s.exprs[0]);
        line() << c << ";\n";
        return;
      }
      case Stmt::K::CallAssign:
        emitCallAssign(s);
        return;
      case Stmt::K::Break:
        line() << "break;\n";
        return;
      case Stmt::K::Continue:
        line() << "continue;\n";
        return;
    }
  }

  void emitCallAssign(const Stmt& s) {
    std::ostringstream args;
    for (size_t i = 0; i < s.exprs.size(); ++i) {
      if (i) args << ", ";
      args << (s.exprs[i]->ty == Ty::Mat ? matVal(*s.exprs[i])
                                         : expr(*s.exprs[i]));
    }
    if (s.dsts.empty()) {
      line() << "xc_" << s.callee << "(" << args.str() << ");\n";
      return;
    }
    if (s.dsts.size() == 1) {
      if (f_.locals[s.dsts[0]].ty == Ty::Mat)
        line() << "mmx_set_owned(&" << names_[s.dsts[0]] << ", xc_"
               << s.callee << "(" << args.str() << "));\n";
      else
        line() << names_[s.dsts[0]] << " = xc_" << s.callee << "("
               << args.str() << ");\n";
      return;
    }
    // Multi-value call: receive into locals, then move into slots.
    line() << "{\n";
    ++indent_;
    for (size_t r = 0; r < s.dsts.size(); ++r) {
      Ty t = f_.locals[s.dsts[r]].ty;
      line() << cTy(t) << " __r" << r << (t == Ty::Mat ? " = NULL" : " = 0")
             << ";\n";
    }
    line() << "xc_" << s.callee << "(" << args.str();
    for (size_t r = 0; r < s.dsts.size(); ++r) body_ << ", &__r" << r;
    body_ << ");\n";
    for (size_t r = 0; r < s.dsts.size(); ++r) {
      if (f_.locals[s.dsts[r]].ty == Ty::Mat)
        line() << "mmx_set_owned(&" << names_[s.dsts[r]] << ", __r" << r
               << ");\n";
      else
        line() << names_[s.dsts[r]] << " = __r" << r << ";\n";
    }
    --indent_;
    line() << "}\n";
  }

  // --- loops -----------------------------------------------------------
  void collectAssigned(const Stmt& s, std::set<int32_t>& out) const {
    switch (s.k) {
      case Stmt::K::Assign: out.insert(s.slot); break;
      case Stmt::K::CallAssign:
        for (int32_t d : s.dsts) out.insert(d);
        break;
      case Stmt::K::For: out.insert(s.slot); break;
      default: break;
    }
    for (const auto& k : s.kids)
      if (k) collectAssigned(*k, out);
  }

  /// Slots written by plain Assign only — inner serial loop variables stay
  /// scalar inside vectorized regions (the interpreter does the same).
  void collectVecAssigned(const Stmt& s, std::set<int32_t>& out) const {
    if (s.k == Stmt::K::Assign) out.insert(s.slot);
    for (const auto& k : s.kids)
      if (k) collectVecAssigned(*k, out);
  }

  void emitFor(const Stmt& s) {
    if (s.parallel) {
      emitParallelFor(s);
      return;
    }
    if (s.vecWidth == 4) {
      emitVectorFor(s);
      return;
    }
    std::string lo = expr(*s.exprs[0]);
    std::string hi = expr(*s.exprs[1]);
    std::string v = names_[s.slot];
    std::string hiv = "__h" + std::to_string(tempId_++);
    line() << "{ int " << hiv << " = " << hi << ";\n";
    ++indent_;
    line() << "for (" << v << " = " << lo << "; " << v << " < " << hiv
           << "; " << v << "++) {\n";
    ++indent_;
    stmt(*s.kids[0]);
    --indent_;
    line() << "}\n";
    --indent_;
    line() << "}\n";
  }

  void emitParallelFor(const Stmt& s) {
    std::set<int32_t> assigned;
    assigned.insert(s.slot);
    collectAssigned(*s.kids[0], assigned);

    // One span per dynamic execution of the with-loop, attributed to its
    // source line — the region the paper parallelizes is the unit a
    // profile needs to rank.
    std::string site;
    int siteTmp = 0;
    if (instr_ != InstrumentMode::Off) {
      site = newSite("with-loop", "withloop");
      siteTmp = tempId_++;
      line() << "{ unsigned long long __pf" << siteTmp
             << " = mmx_prof_now();\n";
      ++indent_;
    }

    std::string lo = expr(*s.exprs[0]);
    std::string hi = expr(*s.exprs[1]);
    line() << "{ long long __plo = " << lo << ", __phi = " << hi << ";\n";
    ++indent_;
    line() << "#pragma omp parallel for\n";
    line() << "for (long long __t = __plo; __t < __phi; __t++) {\n";
    ++indent_;
    // Per-iteration shadows of everything the body assigns: private by
    // construction, with or without OpenMP.
    for (int32_t slot : assigned) {
      Ty t = f_.locals[slot].ty;
      if (slot == s.slot) {
        line() << "int " << names_[slot] << " = (int)__t;\n";
      } else {
        line() << cTy(t) << ' ' << names_[slot]
               << (t == Ty::Mat ? " = NULL" : " = 0") << ";\n";
      }
    }
    // The temporaries the body creates are per-iteration too. The body is
    // emitted into a side stream so that their declarations can lead it.
    std::vector<std::string> iterTemps;
    std::vector<std::string>* outerTemps = std::exchange(temps_, &iterTemps);
    std::ostringstream outer = std::exchange(body_, std::ostringstream());
    stmt(*s.kids[0]);
    std::string iterBody = body_.str();
    body_ = std::move(outer);
    temps_ = outerTemps;
    for (const std::string& t : iterTemps)
      line() << "mmx_mat* " << t << " = NULL;\n";
    body_ << iterBody;
    for (int32_t slot : assigned)
      if (f_.locals[slot].ty == Ty::Mat)
        line() << "mmx_release(" << names_[slot] << ");\n";
    for (const std::string& t : iterTemps)
      line() << "mmx_release(" << t << ");\n";
    --indent_;
    line() << "}\n";
    --indent_;
    line() << "}\n";
    if (!site.empty()) {
      line() << "mmx_prof_site_hit(&" << site << ", __pf" << siteTmp
             << ");\n";
      --indent_;
      line() << "}\n";
    }
  }

  // --- vectorized loops (SSE, Fig. 11) -----------------------------------
  void emitVectorFor(const Stmt& s) {
    std::string lo = expr(*s.exprs[0]);
    std::string hi = expr(*s.exprs[1]);
    std::string v = names_[s.slot];

    vecAssigned_.clear();
    std::set<int32_t> assigned;
    collectVecAssigned(*s.kids[0], assigned);

    line() << "{ long long __vl = " << lo << ", __vh = " << hi
           << "; long long __vi = __vl;\n";
    ++indent_;
    line() << "for (; __vi + 4 <= __vh; __vi += 4) {\n";
    ++indent_;
    line() << "__m128i __vx = _mm_add_epi32(_mm_set1_epi32((int)__vi), "
              "_mm_setr_epi32(0, 1, 2, 3));\n";
    vecVar_ = s.slot;
    for (int32_t slot : assigned) {
      if (slot == s.slot) continue;
      Ty t = f_.locals[slot].ty;
      if (t == Ty::F32)
        line() << "__m128 __v_" << names_[slot] << " = _mm_setzero_ps();\n";
      else if (t == Ty::I32)
        line() << "__m128i __v_" << names_[slot]
               << " = _mm_setzero_si128();\n";
      else {
        err("vectorized loop assigns non-arithmetic local '" +
            f_.locals[slot].name + "'");
      }
      vecAssigned_.insert(slot);
    }
    vecStmt(*s.kids[0]);
    vecVar_ = -1;
    vecAssigned_.clear();
    --indent_;
    line() << "}\n";
    // Scalar remainder.
    line() << "for (; __vi < __vh; __vi++) {\n";
    ++indent_;
    line() << v << " = (int)__vi;\n";
    stmt(*s.kids[0]);
    --indent_;
    line() << "}\n";
    --indent_;
    line() << "}\n";
  }

  void vecStmt(const Stmt& s) {
    switch (s.k) {
      case Stmt::K::Block:
        for (const auto& k : s.kids)
          if (k) vecStmt(*k);
        return;
      case Stmt::K::Assign:
        line() << "__v_" << names_[s.slot] << " = " << vecExpr(*s.exprs[0])
               << ";\n";
        return;
      case Stmt::K::For: {
        // Serial inner loop; bounds must be lane-invariant.
        std::string lo = vecLane0Int(*s.exprs[0]);
        std::string hi = vecLane0Int(*s.exprs[1]);
        std::string v = names_[s.slot];
        std::string hiv = "__h" + std::to_string(tempId_++);
        line() << "{ int " << hiv << " = " << hi << ";\n";
        ++indent_;
        line() << "for (" << v << " = " << lo << "; " << v << " < " << hiv
               << "; " << v << "++) {\n";
        ++indent_;
        vecStmt(*s.kids[0]);
        --indent_;
        line() << "}\n";
        --indent_;
        line() << "}\n";
        return;
      }
      case Stmt::K::StoreFlat: {
        std::string m = names_[s.slot];
        std::string ix = vecExprI(*s.exprs[0]);
        Ty et = s.exprs[1]->ty;
        if (et == Ty::F32)
          line() << "mmx_vscatter_f(mmx_f(" << m << "), " << ix << ", "
                 << vecExprF(*s.exprs[1]) << ");\n";
        else
          line() << "mmx_vscatter_i(mmx_i(" << m << "), " << ix << ", "
                 << vecExprI(*s.exprs[1]) << ");\n";
        return;
      }
      default:
        err("statement inside a vectorized loop is not vectorizable");
    }
  }

  /// Lane-0 scalar value of an int expression inside a vector region.
  std::string vecLane0Int(const Expr& e) {
    if (e.k == Expr::K::Var && !vecAssigned_.count(e.slot) &&
        e.slot != vecVar_)
      return names_[e.slot];
    return "_mm_cvtsi128_si32(" + vecExprI(e) + ")";
  }

  std::string vecExpr(const Expr& e) {
    return e.ty == Ty::F32 ? vecExprF(e) : vecExprI(e);
  }

  std::string vecExprF(const Expr& e) {
    switch (e.k) {
      case Expr::K::ConstF: return "_mm_set1_ps(" + floatLit(e.f) + ")";
      case Expr::K::ConstI:
        return "_mm_set1_ps((float)" + std::to_string(e.i) + ")";
      case Expr::K::Var:
        if (vecAssigned_.count(e.slot)) return "__v_" + names_[e.slot];
        if (e.slot == vecVar_) return "_mm_cvtepi32_ps(__vx)";
        return "_mm_set1_ps(" + names_[e.slot] + ")";
      case Expr::K::Arith: {
        std::string a = vecExprF(*e.args[0]);
        std::string b = vecExprF(*e.args[1]);
        switch (e.aop) {
          case ArithOp::Add: return "_mm_add_ps(" + a + ", " + b + ")";
          case ArithOp::Sub: return "_mm_sub_ps(" + a + ", " + b + ")";
          case ArithOp::Mul:
          case ArithOp::EwMul: return "_mm_mul_ps(" + a + ", " + b + ")";
          case ArithOp::Div: return "_mm_div_ps(" + a + ", " + b + ")";
          case ArithOp::Min: return "_mm_min_ps(" + a + ", " + b + ")";
          case ArithOp::Max: return "_mm_max_ps(" + a + ", " + b + ")";
          case ArithOp::Mod: break;
        }
        err("operator has no SSE form in a vectorized loop");
        return "_mm_setzero_ps()";
      }
      case Expr::K::Neg:
        return "_mm_sub_ps(_mm_setzero_ps(), " + vecExprF(*e.args[0]) + ")";
      case Expr::K::Cast:
        return "_mm_cvtepi32_ps(" + vecExprI(*e.args[0]) + ")";
      case Expr::K::LoadFlat:
        return "mmx_vgather_f(mmx_f(" + names_[e.args[0]->slot] + "), " +
               vecExprI(*e.args[1]) + ")";
      default:
        err("expression is not vectorizable");
        return "_mm_setzero_ps()";
    }
  }

  std::string vecExprI(const Expr& e) {
    switch (e.k) {
      case Expr::K::ConstI:
        return "_mm_set1_epi32(" + std::to_string(e.i) + ")";
      case Expr::K::Var:
        if (e.slot == vecVar_) return "__vx";
        if (vecAssigned_.count(e.slot)) return "__v_" + names_[e.slot];
        return "_mm_set1_epi32(" + names_[e.slot] + ")";
      case Expr::K::Arith: {
        std::string a = vecExprI(*e.args[0]);
        std::string b = vecExprI(*e.args[1]);
        switch (e.aop) {
          case ArithOp::Add: return "_mm_add_epi32(" + a + ", " + b + ")";
          case ArithOp::Sub: return "_mm_sub_epi32(" + a + ", " + b + ")";
          case ArithOp::Mul:
          case ArithOp::EwMul: return "_mm_mullo_epi32(" + a + ", " + b + ")";
          case ArithOp::Min: return "_mm_min_epi32(" + a + ", " + b + ")";
          case ArithOp::Max: return "_mm_max_epi32(" + a + ", " + b + ")";
          case ArithOp::Div:
          case ArithOp::Mod:
            return "mmx_vopi(" + std::to_string(ewOpCode(e.aop)) + ", " + a +
                   ", " + b + ")";
        }
        return "_mm_setzero_si128()";
      }
      case Expr::K::Neg:
        return "_mm_sub_epi32(_mm_setzero_si128(), " +
               vecExprI(*e.args[0]) + ")";
      case Expr::K::Cast:
        return "_mm_cvttps_epi32(" + vecExprF(*e.args[0]) + ")";
      case Expr::K::DimSize:
        return "_mm_set1_epi32((int)mmx_dim(" + names_[e.args[0]->slot] +
               ", " + std::to_string(e.args[1]->i) + "))";
      case Expr::K::LoadFlat:
        return "mmx_vgather_i(mmx_i(" + names_[e.args[0]->slot] + "), " +
               vecExprI(*e.args[1]) + ")";
      default:
        err("expression is not vectorizable");
        return "_mm_setzero_si128()";
    }
  }

  const Function& f_;
  std::vector<std::string>& errors_;
  BoundsCheckMode mode_ = BoundsCheckMode::On;
  const GuardPlan* plan_ = nullptr;
  InstrumentMode instr_ = InstrumentMode::Off;
  const SourceManager* sm_ = nullptr;
  std::vector<std::string>* siteDecls_ = nullptr;
  int* siteId_ = nullptr;
  SourceRange curRange_; // source range of the statement being emitted
  std::ostringstream body_;
  std::vector<std::string> names_;
  std::vector<std::string> fnTemps_; // temporaries outside parallel loops
  std::vector<std::string>* temps_ = &fnTemps_; // where newTemp() declares
  int numTemps_ = 0;
  int indent_ = 0;
  int tempId_ = 0;
  int32_t vecVar_ = -1;
  std::set<int32_t> vecAssigned_;
};

} // namespace

CEmitResult emitC(const Module& m) { return emitC(m, CEmitOptions{}); }

CEmitResult emitC(const Module& m, const CEmitOptions& opts) {
  CEmitResult res;
  const bool instr = opts.instrument != InstrumentMode::Off;
  std::ostringstream out;
  // Pin the kernel backend and the matrix allocator the emitted program
  // selects at startup. Under "auto" (the default) nothing is emitted: the
  // prelude's #ifndef fallbacks keep the run-time $MMX_BACKEND and
  // $MMX_ALLOC lookups.
  auto pin = [&](const char* macro, const std::string& name,
                 const char* what) {
    if (name == "auto" || name.empty()) return true;
    for (char c : name)
      if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
            c == '-')) {
        res.errors.push_back(std::string("invalid ") + what + " name '" +
                             name + "'");
        return false;
      }
    out << "#define " << macro << " \"" << name << "\"\n";
    return true;
  };
  if (!pin("MMX_BACKEND_DEFAULT", opts.backend, "backend") ||
      !pin("MMX_ALLOC_DEFAULT", opts.alloc, "allocator"))
    return res;
  if (instr) {
    // The prof runtime precedes the prelude: its MMX_PROF_* macros expand
    // the hook lines the prelude carries. When instrumentation is off
    // those hook lines are stripped instead.
    if (opts.instrument == InstrumentMode::Trace)
      out << "#define MMX_PROF_WANT_TRACE 1\n";
    out << kProfRuntime << kPrelude;
  } else {
    out << stripProfLines(kPrelude);
  }
  out << "\n/* ---- forward declarations ---- */\n";
  for (const auto& f : m.functions)
    out << FnEmitter::signature(*f, nullptr) << ";\n";
  out << "\n";

  // Bodies build into a side stream so the per-site aggregate structs they
  // reference can be declared first.
  std::vector<std::string> siteDecls;
  int siteId = 0;
  std::ostringstream bodies;
  for (const auto& f : m.functions) {
    FnEmitter fe(*f, res.errors, opts.boundsChecks, opts.plan.get(),
                 opts.instrument, opts.sourceManager.get(),
                 instr ? &siteDecls : nullptr, instr ? &siteId : nullptr);
    bodies << fe.run() << "\n";
  }

  if (instr) {
    out << "/* ---- mmx_prof: codegen spans ---- */\n";
    for (const auto& d : siteDecls) out << d << "\n";
    out << "\n";
  }
  out << bodies.str();

  if (instr) {
    // Null-terminated site table the dump walks; the builtin matmul
    // kernel site leads so it sorts first in the stats object.
    out << "static mmx_prof_site* mmx_prof_sites[] = {\n"
        << "    &mmx_prof_site_matmul,\n";
    for (int i = 0; i < siteId; ++i)
      out << "    &mmx_prof_site_" << i << ",\n";
    out << "    0,\n};\n" << kProfDump << "\n";
  }

  out << "int main(void) {\n";
  out << "  mmx_backend_select();\n";
  // Resolve the allocator eagerly too, so an unknown $MMX_ALLOC fails at
  // startup (exit 3) rather than at the first allocation.
  out << "  mmx_ms_select();\n";
  if (instr)
    out << "  mmx_prof_t0 = mmx_prof_raw_ns();\n"
        << "  mmx_prof_crash_install();\n"
        << "  mmx_prof_export_start();\n"
        << "  atexit(mmx_prof_dump);\n";
  const Function* mainFn = m.find("main");
  if (mainFn && mainFn->rets.size() == 1 && mainFn->rets[0] == Ty::I32)
    out << "  return xc_main();\n";
  else
    out << "  xc_main();\n  return 0;\n";
  out << "}\n";

  res.ok = res.errors.empty();
  res.code = out.str();
  return res;
}

} // namespace mmx::ir
