// Global operator new/delete replacement for the benchmark binary only: every
// heap allocation bumps a counter, so a traced call into a layer can report
// how many allocations it made (the inference sessions' zero-allocation
// contract says a warm beam or scoring call makes none).
//
// Each thread bumps its own cache-line-sized counter, so the serving workers
// never contend on it; AllocationCount() sums every thread's counter.
// Counters are never freed: a thread's count stays in the sum after it exits.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

struct alignas(64) Counter {
  std::atomic<int64_t> n{0};
  Counter* next = nullptr;
};

std::atomic<Counter*> g_counters{nullptr};
thread_local Counter* t_counter = nullptr;

void Count() {
  if (t_counter == nullptr) {
    // malloc, not new: this runs inside operator new.
    void* mem = nullptr;
    if (posix_memalign(&mem, alignof(Counter), sizeof(Counter)) != 0) return;
    Counter* c = new (mem) Counter;
    c->next = g_counters.load(std::memory_order_relaxed);
    while (!g_counters.compare_exchange_weak(c->next, c,
                                             std::memory_order_release,
                                             std::memory_order_relaxed)) {
    }
    t_counter = c;
  }
  // Single writer per counter: a plain load + store, no read-modify-write.
  t_counter->n.store(t_counter->n.load(std::memory_order_relaxed) + 1,
                     std::memory_order_relaxed);
}

void* Allocate(std::size_t n) {
  Count();
  return std::malloc(n != 0 ? n : 1);
}

void* AllocateAligned(std::size_t n, std::align_val_t al) {
  Count();
  void* p = nullptr;
  const std::size_t align =
      std::max(static_cast<std::size_t>(al), sizeof(void*));
  if (posix_memalign(&p, align, n != 0 ? n : 1) != 0) return nullptr;
  return p;
}

}  // namespace

int64_t AllocationCount() {
  int64_t total = 0;
  for (Counter* c = g_counters.load(std::memory_order_acquire); c != nullptr;
       c = c->next) {
    total += c->n.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace perfbench

using perfbench::Allocate;
using perfbench::AllocateAligned;

void* operator new(std::size_t n) {
  if (void* p = Allocate(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = Allocate(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return Allocate(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return Allocate(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = AllocateAligned(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  if (void* p = AllocateAligned(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return AllocateAligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return AllocateAligned(n, al);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
