// Global operator new/delete replacement for a test binary: while counting
// is switched on, every heap allocation (from any thread) bumps a count and
// a byte total, so a test can assert that a call allocates nothing, or that
// its footprint does not scale with an input. Include from exactly one
// translation unit of a test binary (it defines the global operators).
//
// Sanitizer builds own the allocator, so the hooks -- and the tests that
// need them, which must sit under `#if DEEPST_COUNT_ALLOCS` -- are compiled
// out there.
#ifndef DEEPST_TESTS_ALLOC_COUNTER_H_
#define DEEPST_TESTS_ALLOC_COUNTER_H_

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DEEPST_COUNT_ALLOCS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define DEEPST_COUNT_ALLOCS 0
#else
#define DEEPST_COUNT_ALLOCS 1
#endif
#else
#define DEEPST_COUNT_ALLOCS 1
#endif

#if DEEPST_COUNT_ALLOCS
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<long> g_alloc_count{0};
std::atomic<long> g_alloc_bytes{0};

void* CountedAlloc(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(static_cast<long>(size),
                            std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

// Heap allocations made by fn(), as {count, bytes}.
struct AllocTally {
  long count = 0;
  long bytes = 0;
};
template <typename Fn>
AllocTally CountAllocs(Fn&& fn) {
  g_alloc_count.store(0);
  g_alloc_bytes.store(0);
  g_count_allocs.store(true);
  fn();
  g_count_allocs.store(false);
  return {g_alloc_count.load(), g_alloc_bytes.load()};
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif  // DEEPST_COUNT_ALLOCS

#endif  // DEEPST_TESTS_ALLOC_COUNTER_H_
