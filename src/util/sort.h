#ifndef CSSIDX_UTIL_SORT_H_
#define CSSIDX_UTIL_SORT_H_

#include <algorithm>
#include <functional>

// The bulk-load sort policy, in one place for every load path: one O(n)
// pass checks whether the input is already in order, and the sort runs
// only when that check fails. A CSS-tree is built bottom-up from a sorted
// array in one pass (§2.2, §4.1.1), so input that arrives in key order —
// time-ordered fact rows, sorted exports — loads in O(n) instead of
// paying an O(n log n) sort that moves nothing. Unordered input pays one
// extra read of the array, which stops at the first inversion.

namespace cssidx {

/// Sorts [first, last) under `less` unless it is already in order.
template <typename It, typename Less = std::less<>>
void SortUnlessOrdered(It first, It last, Less less = {}) {
  if (!std::is_sorted(first, last, less)) std::sort(first, last, less);
}

/// SortUnlessOrdered with std::stable_sort: equal elements keep their
/// relative order, so ordered input and the sort give the same result.
template <typename It, typename Less = std::less<>>
void StableSortUnlessOrdered(It first, It last, Less less = {}) {
  if (!std::is_sorted(first, last, less)) std::stable_sort(first, last, less);
}

}  // namespace cssidx

#endif  // CSSIDX_UTIL_SORT_H_
