#ifndef CSSIDX_BASELINES_BINARY_SEARCH_H_
#define CSSIDX_BASELINES_BINARY_SEARCH_H_

#include <cstdint>
#include <vector>

#include "core/index.h"
#include "core/node_search.h"
#include "util/macros.h"

// Array binary search (§3.2): the zero-space baseline. Tuned the way the
// paper tuned it (§6.2): shift-based halving and a sequential scan once the
// range is below five keys. Its problem is reference locality — the probe
// sequence jumps across the array, so nearly every comparison on a large
// array is a cache miss (up to log2 n misses per lookup).

namespace cssidx {

template <typename KeyT = Key>
class BasicBinarySearchIndex {
 public:
  BasicBinarySearchIndex(const KeyT* keys, size_t n) : a_(keys), n_(n) {}
  explicit BasicBinarySearchIndex(const std::vector<KeyT>& keys)
      : BasicBinarySearchIndex(keys.data(), keys.size()) {}

  size_t LowerBound(KeyT k) const {
    size_t lo = 0;
    size_t len = n_;
    while (len >= 5) {
      size_t half = len >> 1;
      if (a_[lo + half] >= k) {
        len = half;
      } else {
        lo += half + 1;
        len -= half + 1;
      }
    }
    // §6.2: sequential tail for short ranges.
    size_t end = lo + len;
    while (lo < end && a_[lo] < k) ++lo;
    return lo;
  }

  int64_t Find(KeyT k) const {
    size_t pos = LowerBound(k);
    if (pos < n_ && a_[pos] == k) return static_cast<int64_t>(pos);
    return kNotFound;
  }

  size_t CountEqual(KeyT k) const {
    return ::cssidx::CountEqual(*this, a_, n_, k);
  }

  template <typename Tracer>
  size_t LowerBoundTraced(KeyT k, const Tracer& tracer) const {
    return TracedLowerBound(a_, n_, k, tracer);
  }

  /// No space beyond the sorted array itself.
  size_t SpaceBytes() const { return 0; }
  size_t size() const { return n_; }

 private:
  const KeyT* a_;
  size_t n_;
};

using BinarySearchIndex = BasicBinarySearchIndex<Key>;

}  // namespace cssidx

#endif  // CSSIDX_BASELINES_BINARY_SEARCH_H_
