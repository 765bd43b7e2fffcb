#include "runtime/refcount.hpp"

#include <cstdlib>
#include <new>

#include "runtime/memsys.hpp"
#include "support/metrics.hpp"

namespace mmx::rt {

namespace {

// 16-byte header keeps the payload SSE-aligned; the live 4 bytes are the
// counter, as in the paper ("we attach an extra 4 bytes to every piece of
// memory that gets allocated"). The spare bytes record the payload size so
// release can credit the allocator telemetry without a size map.
struct alignas(16) RcHeader {
  std::atomic<int32_t> count;
  uint32_t pad;
  uint64_t bytes;
};
static_assert(sizeof(RcHeader) == 16);

std::atomic<int64_t> g_live{0};
std::atomic<uint64_t> g_liveBytes{0};
std::atomic<uint64_t> g_peakBytes{0};

// Parity schema with the emitted-C mmx_prof runtime: instrumented binaries
// dump the same rt.alloc.* / rt.rc.* names, so a dual-backend run of one
// program yields directly comparable counter sets.
const metrics::Counter& allocCounter() {
  static const metrics::Counter c = metrics::counter("rt.alloc.count");
  return c;
}
const metrics::Counter& allocBytesCounter() {
  static const metrics::Counter c = metrics::counter("rt.alloc.bytes");
  return c;
}
// Size-class distribution (ISSUE 10): one record per allocation, whatever
// allocator serves it, so rt.alloc.size.count stays in exact parity with
// the emitted-C mmx_prof alloc hook on single-threaded runs.
const metrics::Histogram& allocSizeHistogram() {
  static const metrics::Histogram h = metrics::histogram("rt.alloc.size");
  return h;
}
const metrics::Counter& retainCounter() {
  static const metrics::Counter c = metrics::counter("rt.rc.retains");
  return c;
}
const metrics::Counter& releaseCounter() {
  static const metrics::Counter c = metrics::counter("rt.rc.releases");
  return c;
}

// Live/peak bytes are gauges: maintained unconditionally by the relaxed
// atomics above (two adds per allocation), polled at snapshot time.
struct GaugeRegistrar {
  GaugeRegistrar() {
    metrics::registerGauge("rt.alloc.liveBytes", [] {
      return g_liveBytes.load(std::memory_order_relaxed);
    });
    metrics::registerGauge("rt.alloc.peakBytes", [] {
      return g_peakBytes.load(std::memory_order_relaxed);
    });
  }
};
const GaugeRegistrar g_gaugeRegistrar;

RcHeader* headerOf(const void* payload) noexcept {
  return const_cast<RcHeader*>(reinterpret_cast<const RcHeader*>(payload) - 1);
}

} // namespace

void* rcAlloc(size_t bytes) {
  auto* h = static_cast<RcHeader*>(msAlloc(sizeof(RcHeader) + bytes));
  new (h) RcHeader{};
  h->count.store(1, std::memory_order_relaxed);
  h->bytes = bytes;
  g_live.fetch_add(1, std::memory_order_relaxed);
  uint64_t total = sizeof(RcHeader) + bytes;
  uint64_t live =
      g_liveBytes.fetch_add(total, std::memory_order_relaxed) + total;
  uint64_t peak = g_peakBytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peakBytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  allocCounter().add();
  allocBytesCounter().add(total);
  allocSizeHistogram().record(total);
  return h + 1;
}

void rcRetain(void* p) noexcept {
  headerOf(p)->count.fetch_add(1, std::memory_order_relaxed);
  retainCounter().add();
}

bool rcRelease(void* p) noexcept {
  if (!p) return false;
  releaseCounter().add();
  RcHeader* h = headerOf(p);
  // Release ordering so prior writes to the payload are visible to the
  // thread that performs the free; acquire on the final decrement.
  if (h->count.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    g_live.fetch_sub(1, std::memory_order_relaxed);
    g_liveBytes.fetch_sub(sizeof(RcHeader) + h->bytes,
                          std::memory_order_relaxed);
    h->~RcHeader();
    msFree(h);
    return true;
  }
  return false;
}

int32_t rcCount(const void* p) noexcept {
  return headerOf(p)->count.load(std::memory_order_relaxed);
}

int64_t rcLiveBlocks() noexcept {
  return g_live.load(std::memory_order_relaxed);
}

uint64_t rcLiveBytes() noexcept {
  return g_liveBytes.load(std::memory_order_relaxed);
}

uint64_t rcPeakBytes() noexcept {
  return g_peakBytes.load(std::memory_order_relaxed);
}

} // namespace mmx::rt
