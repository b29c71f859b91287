#ifndef CSSIDX_TESTS_ALLOC_COUNTDOWN_H_
#define CSSIDX_TESTS_ALLOC_COUNTDOWN_H_

// Allocation countdown for fault-injection tests: while armed
// (g_allocs_left >= 0), the allocation that finds it at 0 throws
// std::bad_alloc and disarms it. Arm it only around a call that one
// thread makes: a fault test fails the k-th allocation of the call for
// k = 0, 1, ... until the call succeeds.
//
// This header replaces the global operator new, so include it from
// exactly one source file of a test binary. The counter is a relaxed
// atomic, so a binary that also runs threaded tests stays clean under
// TSan while the countdown is disarmed.

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

inline std::atomic<long> g_allocs_left{-1};

namespace {

void* CountedAlloc(std::size_t n) {
  const long left = g_allocs_left.load(std::memory_order_relaxed);
  if (left == 0) {
    g_allocs_left.store(-1, std::memory_order_relaxed);
    throw std::bad_alloc();
  }
  if (left > 0) g_allocs_left.store(left - 1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#endif  // CSSIDX_TESTS_ALLOC_COUNTDOWN_H_
