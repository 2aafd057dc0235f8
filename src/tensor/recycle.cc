#include "tensor/recycle.h"

#include <new>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"

#if defined(__SANITIZE_ADDRESS__)
#define AHNTP_RECYCLE_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define AHNTP_RECYCLE_ASAN 1
#endif
#endif

#ifdef AHNTP_RECYCLE_ASAN
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace ahntp::tensor {

namespace {

/// The calling thread's scope depth. Checked before the free lists are
/// touched, so a thread that never opens a scope never builds them.
thread_local int t_depth = 0;

/// The calling thread's free lists, keyed by exact byte size. Empty
/// whenever t_depth is zero.
thread_local std::unordered_map<size_t, std::vector<void*>> t_free_lists;

void ReleaseFreeLists() {
  for (auto& [bytes, list] : t_free_lists) {
    for (void* ptr : list) {
      ASAN_UNPOISON_MEMORY_REGION(ptr, bytes);
      ::operator delete(ptr);
    }
  }
  t_free_lists.clear();
}

}  // namespace

RecycleScope::RecycleScope() { ++t_depth; }

RecycleScope::~RecycleScope() {
  if (--t_depth == 0) ReleaseFreeLists();
}

bool RecycleScope::active() { return t_depth > 0; }

namespace internal {

void* AllocateBuffer(size_t bytes) {
  if (bytes >= kRecycleMinBytes && t_depth > 0) {
    auto it = t_free_lists.find(bytes);
    if (it != t_free_lists.end() && !it->second.empty()) {
      void* ptr = it->second.back();
      it->second.pop_back();
      ASAN_UNPOISON_MEMORY_REGION(ptr, bytes);
      AHNTP_METRIC_COUNT("tensor.recycle.hits", 1);
      return ptr;
    }
    AHNTP_METRIC_COUNT("tensor.recycle.misses", 1);
  }
  return ::operator new(bytes);
}

void FreeBuffer(void* ptr, size_t bytes) noexcept {
  if (bytes >= kRecycleMinBytes && t_depth > 0) {
    try {
      t_free_lists[bytes].push_back(ptr);
      ASAN_POISON_MEMORY_REGION(ptr, bytes);
      return;
    } catch (const std::bad_alloc&) {
      // No room to record the buffer: hand it straight back instead.
    }
  }
  ::operator delete(ptr);
}

}  // namespace internal

}  // namespace ahntp::tensor
