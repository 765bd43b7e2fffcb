// Memory-subsystem tests (ISSUE 9): selection policy, size-class /
// alignment contracts, magazine/depot behavior under single- and
// cross-thread churn, arena deferral, trim-at-quiescence, and the
// rcAlloc liveness invariants on top of a caching backing store.
#include "runtime/memsys.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runtime/matrix.hpp"
#include "runtime/refcount.hpp"

namespace mmx::rt {
namespace {

TEST(Memsys, NamesAndSelectionErrors) {
  EXPECT_EQ(allocatorNames(),
            (std::vector<std::string>{"system", "cache", "arena"}));
  for (const std::string& n : allocatorNames())
    EXPECT_EQ(allocatorSelectionError(n), "") << n;
  EXPECT_EQ(allocatorSelectionError("auto"), "");
  std::string err = allocatorSelectionError("bogus");
  EXPECT_NE(err.find("unknown allocator 'bogus'"), std::string::npos) << err;
  EXPECT_NE(err.find("system, cache, arena"), std::string::npos) << err;
}

TEST(Memsys, SelectRejectsUnknownName) {
  EXPECT_THROW(selectAllocator("quantum"), std::invalid_argument);
  // A failed selection must not clobber the active strategy.
  EXPECT_NO_THROW(activeAllocator());
}

TEST(Memsys, OverrideRestoresPreviousSelection) {
  AllocKind before = activeAllocator();
  {
    AllocatorOverride pin("arena");
    EXPECT_EQ(activeAllocator(), AllocKind::Arena);
    {
      AllocatorOverride inner("system");
      EXPECT_EQ(activeAllocator(), AllocKind::System);
    }
    EXPECT_EQ(activeAllocator(), AllocKind::Arena);
  }
  EXPECT_EQ(activeAllocator(), before);
}

TEST(Memsys, EnvDrivesAutoResolutionAndBadValueThrows) {
  ::setenv("MMX_ALLOC", "arena", 1);
  selectAllocator("auto"); // re-arm lazy resolution
  EXPECT_EQ(activeAllocator(), AllocKind::Arena);

  ::setenv("MMX_ALLOC", "auto", 1); // "auto" in the env counts as unset
  selectAllocator("auto");
  EXPECT_EQ(activeAllocator(), AllocKind::Cache);

  ::setenv("MMX_ALLOC", "bogus", 1);
  selectAllocator("auto");
  try {
    activeAllocator();
    FAIL() << "expected std::runtime_error for MMX_ALLOC=bogus";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("MMX_ALLOC: unknown allocator"),
              std::string::npos)
        << e.what();
  }
  ::unsetenv("MMX_ALLOC");
  selectAllocator("auto");
  EXPECT_EQ(activeAllocator(), AllocKind::Cache); // the auto default
}

TEST(Memsys, PayloadAlignedAcrossEveryClassAndStrategy) {
  for (const char* strategy : {"system", "cache", "arena"}) {
    AllocatorOverride pin(strategy);
    // One size per cache class (payload = class capacity minus the
    // header) plus odd sizes straddling the class boundaries.
    for (uint32_t cls = 0; cls < 24; ++cls) {
      size_t cap = size_t{16} << cls;
      for (size_t bytes : {cap - 16, cap - 15, cap / 2 + 1}) {
        if (bytes == 0 || bytes > (size_t{16} << 20)) continue;
        void* p = msAlloc(bytes);
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 16, 0u)
            << strategy << " class " << cls << " bytes " << bytes;
        // Touch both ends: the block must really own `bytes`.
        static_cast<char*>(p)[0] = 1;
        static_cast<char*>(p)[bytes - 1] = 2;
        msFree(p);
      }
    }
  }
  msTrim();
}

TEST(Memsys, CacheReusesFreedBlockAndCountsHit) {
  AllocatorOverride pin("cache");
  void* p = msAlloc(100);
  std::memset(p, 0xab, 100);
  msFree(p);
  MsCacheStats before = msCacheStats();
  void* q = msAlloc(100); // same class, LIFO magazine: the same block
  EXPECT_EQ(q, p);
  MsCacheStats after = msCacheStats();
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(after.misses, before.misses);
  msFree(q);
  msTrim();
}

TEST(Memsys, ClassBoundarySizesLandInDistinctClasses) {
  AllocatorOverride pin("cache");
  msTrim(); // start from empty magazines
  // total = bytes + 16; bytes = 48 → total 64 (class 2 exactly) while
  // bytes = 49 → total 65 (class 3). Freeing the first must not satisfy
  // the second from the magazine.
  void* small = msAlloc(48);
  msFree(small);
  MsCacheStats before = msCacheStats();
  void* big = msAlloc(49);
  MsCacheStats after = msCacheStats();
  EXPECT_NE(big, small);
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses + 1);
  msFree(big);
  msTrim();
}

TEST(Memsys, MagazineOverflowFlushesToDepot) {
  AllocatorOverride pin("cache");
  msTrim();
  // Class for 1 KiB blocks holds 256 magazines... magCap = 256KiB/1KiB =
  // 256 → clamped 64. Free 65+ blocks of one class to force a flush.
  constexpr size_t kBytes = 1024 - 16; // total exactly 1 KiB, one class
  constexpr int kBlocks = 70;
  std::vector<void*> blocks;
  for (int i = 0; i < kBlocks; ++i) blocks.push_back(msAlloc(kBytes));
  MsCacheStats before = msCacheStats();
  for (void* p : blocks) msFree(p);
  MsCacheStats after = msCacheStats();
  EXPECT_GE(after.flushes, before.flushes + 1);
  EXPECT_GT(after.cachedBytes, before.cachedBytes);
  msTrim();
}

TEST(Memsys, CrossThreadFreeMigratesThroughDepot) {
  AllocatorOverride pin("cache");
  msTrim();
  constexpr int kBlocks = 32;
  constexpr size_t kBytes = 496; // total 512, one class
  std::vector<void*> handoff(kBlocks);
  std::thread producer([&] {
    for (int i = 0; i < kBlocks; ++i) {
      handoff[i] = msAlloc(kBytes);
      std::memset(handoff[i], i & 0xff, kBytes);
    }
  });
  producer.join();
  std::thread consumer([&] {
    for (void* p : handoff) msFree(p); // frees land in the consumer's
  });                                  // magazine, not the producer's
  consumer.join();
  // The blocks are parked in caches; a trim hands every byte back.
  EXPECT_GT(msCacheStats().cachedBytes, 0u);
  msTrim();
  EXPECT_EQ(msCacheStats().cachedBytes, 0u);
}

TEST(Memsys, TortureParallelChurnWithCrossThreadHandoff) {
  AllocatorOverride pin("cache");
  constexpr int kThreads = 4, kIters = 1500;
  std::mutex mu;
  std::vector<std::pair<uint32_t*, uint32_t>> mailbox;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        size_t bytes = 16 + static_cast<size_t>((t * 37 + i * 61) % 3000);
        auto* p = static_cast<uint32_t*>(msAlloc(bytes));
        uint32_t tag = static_cast<uint32_t>(t * kIters + i);
        *p = tag;
        if (i % 3 == 0) {
          // Hand one third of the blocks to whichever thread drains the
          // mailbox next: cross-thread frees must route via the depot.
          std::lock_guard<std::mutex> lock(mu);
          mailbox.emplace_back(p, tag);
          if (mailbox.size() > 64) {
            auto [q, qtag] = mailbox.back();
            mailbox.pop_back();
            EXPECT_EQ(*q, qtag);
            msFree(q);
          }
        } else {
          EXPECT_EQ(*p, tag);
          msFree(p);
        }
      }
    });
  for (auto& t : ts) t.join();
  for (auto [p, tag] : mailbox) {
    EXPECT_EQ(*p, tag);
    msFree(p);
  }
  msTrim();
  EXPECT_EQ(msCacheStats().cachedBytes, 0u);
}

TEST(Memsys, ArenaDefersFreesUntilTrim) {
  AllocatorOverride pin("arena");
  char* p = static_cast<char*>(msAlloc(100));
  char* q = static_cast<char*>(msAlloc(100));
  EXPECT_NE(p, q); // bump allocation: no reuse before trim
  std::memset(p, 0x11, 100);
  std::memset(q, 0x22, 100);
  msFree(p); // deferred: q's bytes must survive p's free
  EXPECT_EQ(q[0], 0x22);
  EXPECT_EQ(q[99], 0x22);
  msFree(q);
  msTrim();
}

TEST(Memsys, ArenaBlocksOutliveTheirThreadUntilTrim) {
  AllocatorOverride pin("arena");
  char* p = nullptr;
  std::thread worker([&] {
    p = static_cast<char*>(msAlloc(100));
    std::memset(p, 0x33, 100);
  });
  worker.join();
  // The worker's thread-local arena state died with it; its chunk did not.
  EXPECT_EQ(p[0], 0x33);
  EXPECT_EQ(p[99], 0x33);
  msFree(p);
  msTrim(); // returns the exited thread's chunk (LeakSanitizer checks it)
}

TEST(Memsys, HeaderRoutesFreeToOriginAfterSelectionChange) {
  void* cacheBlock;
  {
    AllocatorOverride pin("cache");
    cacheBlock = msAlloc(200);
  }
  {
    AllocatorOverride pin("system");
    // Freed under a different active strategy: the block's header routes
    // it back to the cache, not to ::operator delete.
    MsCacheStats before = msCacheStats();
    msFree(cacheBlock);
    EXPECT_GT(msCacheStats().cachedBytes, before.cachedBytes);
  }
  msTrim();
}

TEST(Memsys, HugeAllocationsBypassTheCache) {
  AllocatorOverride pin("cache");
  MsCacheStats before = msCacheStats();
  constexpr size_t kHuge = (size_t{128} << 20) + 1; // past the last class
  void* p = msAlloc(kHuge);
  ASSERT_NE(p, nullptr);
  static_cast<char*>(p)[kHuge - 1] = 7;
  msFree(p);
  MsCacheStats after = msCacheStats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.cachedBytes, before.cachedBytes);
}

TEST(Memsys, RcLivenessInvariantsHoldUnderEveryStrategy) {
  for (const char* strategy : {"system", "cache", "arena"}) {
    AllocatorOverride pin(strategy);
    int64_t blocks0 = rcLiveBlocks();
    uint64_t bytes0 = rcLiveBytes();
    {
      std::vector<Matrix> live;
      for (int i = 1; i <= 8; ++i)
        live.push_back(Matrix::zeros(Elem::F32, {i * 7, i * 5}));
      EXPECT_EQ(rcLiveBlocks(), blocks0 + 8) << strategy;
      EXPECT_GT(rcLiveBytes(), bytes0) << strategy;
    }
    // Caching keeps the memory parked but the blocks are dead: the
    // liveness accounting must return to its baseline exactly.
    EXPECT_EQ(rcLiveBlocks(), blocks0) << strategy;
    EXPECT_EQ(rcLiveBytes(), bytes0) << strategy;
  }
  msTrim();
}

TEST(Memsys, TrimIsIdempotentAndSafeWhileBlocksLive) {
  AllocatorOverride pin("cache");
  void* live = msAlloc(333);
  std::memset(live, 0x5a, 333);
  msTrim(); // must not touch live blocks
  EXPECT_EQ(static_cast<unsigned char*>(live)[0], 0x5au);
  EXPECT_EQ(static_cast<unsigned char*>(live)[332], 0x5au);
  msTrim(); // idempotent on an empty cache
  EXPECT_EQ(msCacheStats().cachedBytes, 0u);
  msFree(live);
  msTrim();
}

} // namespace
} // namespace mmx::rt
