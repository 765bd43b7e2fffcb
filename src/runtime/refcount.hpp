// Reference-counting cells (paper §III-B): every allocation carries a
// 4-byte counter in front of the payload; retain/release manage lifetime
// and the block is freed when the count reaches zero. The matrix runtime is
// built on these cells (paper §III-C), and the refcount language extension
// lowers its pointer operations to exactly these calls.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace mmx::rt {

/// Allocates `bytes` of payload with a hidden counter initialized to 1,
/// from the memory subsystem (memsys.hpp). The payload is 16-byte aligned
/// (SSE loads on matrix data).
void* rcAlloc(size_t bytes);

/// Increments the counter. `p` must be a payload from rcAlloc.
void rcRetain(void* p) noexcept;

/// Decrements the counter; frees the block at zero. Returns true if freed.
/// Safe to call with nullptr (no-op).
bool rcRelease(void* p) noexcept;

/// Current count (for tests and the refcount-extension semantics).
int32_t rcCount(const void* p) noexcept;

/// Number of live rcAlloc blocks (test invariant: leak detection).
int64_t rcLiveBlocks() noexcept;

/// Bytes currently held by live rcAlloc blocks (headers included), and the
/// process-lifetime high-water mark. Also exposed as the
/// `rt.alloc.liveBytes` / `rt.alloc.peakBytes` metrics gauges.
uint64_t rcLiveBytes() noexcept;
uint64_t rcPeakBytes() noexcept;

/// Typed smart handle over an rcAlloc'd array of T (trivially destructible
/// types only — the runtime stores scalars). Copying retains, destruction
/// releases: the C++-side mirror of the refcount extension's pointers.
template <class T> class RcPtr {
  static_assert(std::is_trivially_destructible_v<T>);

public:
  RcPtr() = default;
  /// Allocates n elements (zero-initialized). T is a trivially-copyable
  /// scalar, so all-zero-bytes IS value initialization — one memset
  /// instead of the historical element-by-element `T{}` loop.
  static RcPtr allocate(size_t n) {
    RcPtr p = allocateUninit(n);
    std::memset(p.ptr_, 0, n * sizeof(T));
    return p;
  }

  /// Allocates n elements without touching the payload. For buffers the
  /// caller provably writes in full before any read (genarray results the
  /// shape analysis marks fullyWritten, pack buffers): skips the zeroing
  /// pass so first touch happens on the thread that computes each page.
  static RcPtr allocateUninit(size_t n) {
    RcPtr p;
    p.ptr_ = static_cast<T*>(rcAlloc(n * sizeof(T)));
    return p;
  }

  RcPtr(const RcPtr& o) noexcept : ptr_(o.ptr_) {
    if (ptr_) rcRetain(ptr_);
  }
  RcPtr(RcPtr&& o) noexcept : ptr_(o.ptr_) { o.ptr_ = nullptr; }
  RcPtr& operator=(const RcPtr& o) noexcept {
    if (this != &o) {
      if (o.ptr_) rcRetain(o.ptr_);
      if (ptr_) rcRelease(ptr_);
      ptr_ = o.ptr_;
    }
    return *this;
  }
  RcPtr& operator=(RcPtr&& o) noexcept {
    if (this != &o) {
      if (ptr_) rcRelease(ptr_);
      ptr_ = o.ptr_;
      o.ptr_ = nullptr;
    }
    return *this;
  }
  ~RcPtr() {
    if (ptr_) rcRelease(ptr_);
  }

  T* get() const noexcept { return ptr_; }
  T& operator[](size_t i) const noexcept { return ptr_[i]; }
  explicit operator bool() const noexcept { return ptr_ != nullptr; }
  int32_t useCount() const noexcept { return ptr_ ? rcCount(ptr_) : 0; }

private:
  T* ptr_ = nullptr;
};

} // namespace mmx::rt
