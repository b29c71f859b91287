#ifndef CSSIDX_CORE_NODE_SEARCH_H_
#define CSSIDX_CORE_NODE_SEARCH_H_

#include <cstddef>
#include <cstdint>
#include <functional>

#include "core/index.h"
#include "util/macros.h"

// Intra-node search, the paper's "hard-coded if-else tests" (§6.2).
//
// Every tree method spends its comparisons inside nodes. The paper found
// that replacing a generic binary-search loop with a fully unrolled,
// specialized search made lookups 20-45% faster. We get the same effect
// portably with compile-time recursion: UnrolledLowerBound<Count> flattens
// into exactly the if-else tree the authors wrote by hand, for any node
// size and for strided layouts (B+-tree nodes interleave pointers between
// keys, stride 2).
//
// Semantics everywhere: *lower bound* — smallest index i in [0, Count) with
// keys[i * Stride] >= k, or Count if none. On ties this picks the leftmost
// slot, which is what guarantees leftmost-match routing for duplicates
// (§4.1.2).

namespace cssidx {

namespace internal_node_search {

// Below this range length, a sequential scan beats halving (§6.2: "once the
// searching range is small enough, we simply perform the test sequentially
// ... better performance when there are less than 5 keys").
inline constexpr int kSequentialThreshold = 5;

template <int Lo, int Len, int Stride, typename KeyT>
CSSIDX_ALWAYS_INLINE int UnrolledStep(const KeyT* keys, KeyT k) {
  if constexpr (Len <= 0) {
    return Lo;
  } else if constexpr (Len < kSequentialThreshold) {
    for (int i = Lo; i < Lo + Len; ++i) {
      if (keys[i * Stride] >= k) return i;
    }
    return Lo + Len;
  } else {
    constexpr int kHalf = Len / 2;
    if (keys[(Lo + kHalf) * Stride] >= k) {
      return UnrolledStep<Lo, kHalf, Stride>(keys, k);
    }
    return UnrolledStep<Lo + kHalf + 1, Len - kHalf - 1, Stride>(keys, k);
  }
}

}  // namespace internal_node_search

/// Unrolled lower bound over a fixed-size node. `Stride` is in elements:
/// 1 for densely packed keys, 2 for B+-tree interleaved key/pointer slots.
/// Works for any unsigned integer key type (K is a model parameter in §5).
template <int Count, int Stride = 1, typename KeyT = Key>
CSSIDX_ALWAYS_INLINE int UnrolledLowerBound(const KeyT* keys, KeyT k) {
  static_assert(Count >= 0);
  return internal_node_search::UnrolledStep<0, Count, Stride>(keys, k);
}

/// Generic (runtime-length) in-node lower bound: the "generic code" the
/// paper measured 20-45% slower. Kept as the ablation baseline, for
/// partial trailing leaves whose length is only known at run time, and
/// for leaves of records, whose keys it reads through `key_of`.
template <typename T, typename KeyT, typename KeyOf = std::identity>
CSSIDX_ALWAYS_INLINE int GenericLowerBound(const T* elems, int count, KeyT k,
                                           int stride = 1, KeyOf key_of = {}) {
  int lo = 0;
  int len = count;
  while (len > 0) {
    int half = len / 2;
    if (key_of(elems[(lo + half) * stride]) >= k) {
      len = half;
    } else {
      lo += half + 1;
      len -= half + 1;
    }
  }
  return lo;
}

/// The same binary search with every compared key replayed into `tracer`
/// (the cache simulator's reference stream): one Touch per compare, so a
/// node larger than a line is read only where the search looks. Every
/// traced descent searches its nodes and leaves through this.
template <typename KeyT, typename Tracer>
size_t TracedLowerBound(const KeyT* keys, size_t count, KeyT k,
                        const Tracer& tracer, size_t stride = 1) {
  size_t lo = 0;
  size_t len = count;
  while (len > 0) {
    size_t half = len / 2;
    const KeyT* key = keys + (lo + half) * stride;
    tracer.Touch(key, sizeof(KeyT));
    if (*key >= k) {
      len = half;
    } else {
      lo += half + 1;
      len -= half + 1;
    }
  }
  return lo;
}

}  // namespace cssidx

#endif  // CSSIDX_CORE_NODE_SEARCH_H_
