// Experiment C4 (paper §III-C): memory-allocator behaviour under the
// matrix workload's allocation pattern. The paper observes that naive
// mutex-protected malloc scales poorly under parallel contention and that
// arena designs behave better. ISSUE 9 promotes that observation into the
// production memory subsystem (runtime/memsys.hpp): the rows below compare
// the three selectable strategies — system (per-block malloc/free), cache
// (thread-caching magazines over size classes), arena (per-thread bump
// chunks) — on raw parallel churn, on matrix churn through the refcount
// cells, and on an interpreted with-loop chain, plus one global mutex
// around malloc/free as the paper's contention strawman.
//
// Under MMX_STATS_JSON the run also lands the machine-independent
// rt.alloc.cache.{hits,misses,flushes} counters (bench_stats.hpp).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <mutex>

#include "bench_common.hpp"
#include "bench_stats.hpp"
#include "runtime/matrix.hpp"
#include "runtime/memsys.hpp"
#include "runtime/pool.hpp"

namespace mmx::bench {
namespace {

constexpr int kAllocsPerIter = 512;
constexpr size_t kBytes = 4096; // a small with-loop temporary

// --- raw strategy churn (the headline system-vs-cache comparison) -------

/// One churn burst: with-loop-temporary sizes through a small live
/// window, so magazines see both immediate reuse and depth. Runs on
/// google-benchmark's own threads (->Threads(n)) — spawn cost stays
/// outside the timed region, unlike hand-rolled std::thread fan-out.
void rawChurnBurst(unsigned t) {
  void* window[8] = {};
  for (int i = 0; i < kAllocsPerIter; ++i) {
    size_t bytes = 64 + static_cast<size_t>((t * 37 + i * 61) % 4096);
    void* p = rt::msAlloc(bytes);
    static_cast<char*>(p)[0] = static_cast<char>(i);
    benchmark::DoNotOptimize(p);
    void*& slot = window[i % 8];
    if (slot) rt::msFree(slot);
    slot = p;
  }
  for (void* p : window)
    if (p) rt::msFree(p);
}

/// Setup/Teardown run once per benchmark run, before the worker threads
/// start and after they join — the safe points to flip the process-wide
/// selection and return the cached pages.
void pinSystem(const benchmark::State&) { rt::selectAllocator("system"); }
void pinCache(const benchmark::State&) { rt::selectAllocator("cache"); }
void pinArena(const benchmark::State&) { rt::selectAllocator("arena"); }
void unpin(const benchmark::State&) {
  rt::msTrim();
  rt::selectAllocator("auto");
}

void memsysChurn(benchmark::State& state) {
  rt::MsCacheStats before = rt::msCacheStats();
  for (auto _ : state)
    rawChurnBurst(static_cast<unsigned>(state.thread_index()));
  rt::MsCacheStats after = rt::msCacheStats();
  uint64_t lookups = (after.hits - before.hits) +
                     (after.misses - before.misses);
  if (lookups) // cache only; system/arena never touch the magazines
    state.counters["cache.hitRate"] = benchmark::Counter(
        double(after.hits - before.hits) / double(lookups),
        benchmark::Counter::kAvgThreads);
}

void BM_MemsysChurn_System(benchmark::State& state) { memsysChurn(state); }
BENCHMARK(BM_MemsysChurn_System)
    ->Setup(pinSystem)->Teardown(unpin)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)
    ->Unit(benchmark::kMicrosecond)->UseRealTime();

void BM_MemsysChurn_Cache(benchmark::State& state) { memsysChurn(state); }
BENCHMARK(BM_MemsysChurn_Cache)
    ->Setup(pinCache)->Teardown(unpin)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)
    ->Unit(benchmark::kMicrosecond)->UseRealTime();

/// Arena frees are deferred, so an open-ended churn loop would only grow:
/// the arena row runs its intended phase pattern instead — one burst,
/// then the quiescent-point trim that recycles the chunks — and stays
/// single-threaded (trim requires no concurrent allocators).
void BM_MemsysChurn_ArenaPhase(benchmark::State& state) {
  for (auto _ : state) {
    rawChurnBurst(0);
    rt::msTrim();
  }
}
BENCHMARK(BM_MemsysChurn_ArenaPhase)
    ->Setup(pinArena)->Teardown(unpin)
    ->Unit(benchmark::kMicrosecond)->UseRealTime();

// --- the paper's strawman: one mutex around every alloc -----------------

std::mutex g_mallocMu;

void BM_MutexAllocator_Contended(benchmark::State& state) {
  for (auto _ : state) {
    for (int i = 0; i < kAllocsPerIter; ++i) {
      void* p;
      {
        std::lock_guard<std::mutex> lock(g_mallocMu);
        p = std::malloc(kBytes);
      }
      benchmark::DoNotOptimize(p);
      std::lock_guard<std::mutex> lock(g_mallocMu);
      std::free(p);
    }
  }
  if (state.thread_index() == 0) state.counters["locks/alloc"] = 2;
}
BENCHMARK(BM_MutexAllocator_Contended)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)
    ->Unit(benchmark::kMicrosecond)->UseRealTime();

// --- matrix churn through the refcount cells (rcAlloc backing store) ----

/// The actual §III-C scenario: with-loop temporaries allocated and
/// released inside a parallel region, through rcAlloc's default path.
void matrixChurn(rt::Executor& exec) {
  exec.run(0, 256, [](int64_t lo, int64_t hi, unsigned) {
    for (int64_t i = lo; i < hi; ++i) {
      rt::Matrix m = rt::Matrix::zeros(rt::Elem::F32, {32, 8});
      m.f32()[0] = static_cast<float>(i);
      benchmark::DoNotOptimize(m.f32());
    } // released here
  });
}

/// `trimEachIter` is the arena contract: between exec.run() calls the
/// pool workers are idle, so the quiescent-point trim that hands the
/// deferred chunks back is legal — and part of what the row measures.
void matrixChurnUnder(benchmark::State& state, const char* strategy,
                      bool trimEachIter = false) {
  rt::AllocatorOverride pin(strategy);
  rt::ForkJoinPool pool(4);
  for (auto _ : state) {
    matrixChurn(pool);
    if (trimEachIter) rt::msTrim();
  }
  rt::msTrim();
}

void BM_MatrixChurn_System(benchmark::State& state) {
  matrixChurnUnder(state, "system");
}
BENCHMARK(BM_MatrixChurn_System)->Unit(benchmark::kMicrosecond);

void BM_MatrixChurn_Cache(benchmark::State& state) {
  matrixChurnUnder(state, "cache");
}
BENCHMARK(BM_MatrixChurn_Cache)->Unit(benchmark::kMicrosecond);

void BM_MatrixChurn_Arena(benchmark::State& state) {
  matrixChurnUnder(state, "arena", /*trimEachIter=*/true);
}
BENCHMARK(BM_MatrixChurn_Arena)->Unit(benchmark::kMicrosecond);

// --- interpreted with-loop chain under each strategy --------------------

/// A file-free chain of with-loop temporaries: every iteration allocates
/// a fresh [n,n] genarray result and folds it away, so the interpreter's
/// alloc/free cycle dominates once the arithmetic is this cheap.
std::string withLoopChainProgram() {
  return R"(
int main() {
  int n = 96;
  Matrix float <2> a = init(Matrix float <2>, n, n);
  a = with ([0,0] <= [i,j] < [n,n]) genarray([n,n], i * 0.25 + j);
  float acc = 0.0;
  for (int rep = 0; rep < 24; rep = rep + 1) {
    Matrix float <2> t = init(Matrix float <2>, n, n);
    t = with ([0,0] <= [i,j] < [n,n])
        genarray([n,n], a[i, j] * 1.0001);
    acc = acc + with ([0,0] <= [i,j] < [n,n]) fold(+, 0.0, t[i, j]);
  }
  printFloat(acc);
  return 0;
}
)";
}

void withLoopChainUnder(benchmark::State& state, const char* strategy,
                        bool trimEachIter = false) {
  static auto mod = compile(withLoopChainProgram());
  rt::AllocatorOverride pin(strategy);
  rt::ForkJoinPool pool(4);
  for (auto _ : state) {
    runOn(*mod, pool);
    if (trimEachIter) rt::msTrim();
  }
  rt::msTrim();
}

void BM_WithLoopChain_System(benchmark::State& state) {
  withLoopChainUnder(state, "system");
}
BENCHMARK(BM_WithLoopChain_System)->Unit(benchmark::kMillisecond);

void BM_WithLoopChain_Cache(benchmark::State& state) {
  withLoopChainUnder(state, "cache");
}
BENCHMARK(BM_WithLoopChain_Cache)->Unit(benchmark::kMillisecond);

void BM_WithLoopChain_Arena(benchmark::State& state) {
  withLoopChainUnder(state, "arena", /*trimEachIter=*/true);
}
BENCHMARK(BM_WithLoopChain_Arena)->Unit(benchmark::kMillisecond);

} // namespace
} // namespace mmx::bench
