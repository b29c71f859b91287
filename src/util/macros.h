#ifndef CSSIDX_UTIL_MACROS_H_
#define CSSIDX_UTIL_MACROS_H_

#include <cstddef>
#include <cstdint>

// Project-wide function attributes and constants.
//
// The hot search paths in this library are small enough that inlining
// decisions materially change the generated code (the paper's "hard-coded"
// intra-node searches only pay off if the compiler actually flattens them),
// so we pin the attributes down here instead of hoping.

#if defined(__GNUC__) || defined(__clang__)
#define CSSIDX_ALWAYS_INLINE inline __attribute__((always_inline))
// For a lambda, after its parameter list: [&](int i) CSSIDX_INLINE_LAMBDA.
#define CSSIDX_INLINE_LAMBDA __attribute__((always_inline))
#define CSSIDX_NOINLINE __attribute__((noinline))
#define CSSIDX_LIKELY(x) __builtin_expect(!!(x), 1)
#define CSSIDX_UNLIKELY(x) __builtin_expect(!!(x), 0)
#define CSSIDX_PREFETCH(addr) __builtin_prefetch(addr)
#else
#define CSSIDX_ALWAYS_INLINE inline
#define CSSIDX_INLINE_LAMBDA
#define CSSIDX_NOINLINE
#define CSSIDX_LIKELY(x) (x)
#define CSSIDX_UNLIKELY(x) (x)
#define CSSIDX_PREFETCH(addr)
#endif

namespace cssidx {

// Cache line size assumed for node sizing defaults. All node sizes are
// runtime/compile-time configurable; this is only the default. 64 bytes
// matches every mainstream x86-64 and most AArch64 parts.
inline constexpr int kCacheLineBytes = 64;

/// Prefetches every cache line that [p, p + bytes) touches. A node or leaf
/// that starts off a line boundary spans one line more than its size
/// suggests (a 64-byte leaf 16 bytes into a line spans two), and a search
/// that reads the whole node stalls on whichever line was not prefetched.
CSSIDX_ALWAYS_INLINE void PrefetchLines(const void* p, size_t bytes) {
  const auto begin = reinterpret_cast<uintptr_t>(p);
  const uintptr_t end = begin + bytes;
  for (uintptr_t line = begin & ~uintptr_t{kCacheLineBytes - 1}; line < end;
       line += kCacheLineBytes) {
    CSSIDX_PREFETCH(reinterpret_cast<const void*>(line));
  }
}

}  // namespace cssidx

#endif  // CSSIDX_UTIL_MACROS_H_
