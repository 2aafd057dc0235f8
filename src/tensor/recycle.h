#ifndef AHNTP_TENSOR_RECYCLE_H_
#define AHNTP_TENSOR_RECYCLE_H_

#include <cstddef>

namespace ahntp::tensor {

/// RAII scope that recycles large Matrix buffers on the calling thread.
///
/// While one is alive, a freed buffer of at least kRecycleMinBytes goes to
/// a thread-local free list keyed by its exact byte size instead of back
/// to the heap, and the next allocation of that size takes it from there.
/// A loop that allocates the same shapes every iteration (a full-batch
/// training epoch rebuilds a tape of identical shapes) then runs on memory
/// the process already holds: no fresh pages, no kernel zero-fill. Values
/// never change: a recycled buffer is handed out exactly as a fresh one
/// would be, and its owner initialises it as before.
///
/// Scopes nest; the outermost one frees every cached buffer when it
/// closes, also when an exception unwinds it. Other threads are unaffected:
/// outside a scope, and for smaller buffers, Matrix storage is plain
/// `operator new` / `operator delete`, and a buffer freed on a thread with
/// no open scope is never cached. Buffers may cross threads: every cached
/// buffer came from `operator new`, so any thread may free it.
///
/// Under AddressSanitizer a cached buffer is poisoned until it is handed
/// out again, so a read through a stale pointer into one reports.
///
/// With metrics enabled, allocations made under a scope count as
/// `tensor.recycle.hits` (served from a free list) or
/// `tensor.recycle.misses` (fresh from the heap).
class RecycleScope {
 public:
  RecycleScope();
  ~RecycleScope();
  RecycleScope(const RecycleScope&) = delete;
  RecycleScope& operator=(const RecycleScope&) = delete;

  /// Whether a RecycleScope is alive on the calling thread.
  static bool active();
};

/// Smallest buffer the scope recycles (64 KiB). Smaller ones stay with
/// malloc's own bins, which already serve them without page faults.
inline constexpr size_t kRecycleMinBytes = size_t{64} << 10;

namespace internal {
/// Matrix storage allocation behind RecyclingAllocator.
void* AllocateBuffer(size_t bytes);
void FreeBuffer(void* ptr, size_t bytes) noexcept;
}  // namespace internal

/// Stateless standard allocator that routes through the recycling cache.
/// Every instance is interchangeable with every other.
template <typename T>
struct RecyclingAllocator {
  using value_type = T;

  RecyclingAllocator() = default;
  template <typename U>
  RecyclingAllocator(const RecyclingAllocator<U>&) noexcept {}

  T* allocate(size_t n) {
    return static_cast<T*>(internal::AllocateBuffer(n * sizeof(T)));
  }
  void deallocate(T* ptr, size_t n) noexcept {
    internal::FreeBuffer(ptr, n * sizeof(T));
  }

  template <typename U>
  bool operator==(const RecyclingAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace ahntp::tensor

#endif  // AHNTP_TENSOR_RECYCLE_H_
