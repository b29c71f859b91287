#ifndef CSSIDX_CORE_VISIT_INDEX_H_
#define CSSIDX_CORE_VISIT_INDEX_H_

#include <cstddef>
#include <type_traits>

#include "baselines/binary_search.h"
#include "baselines/binary_tree.h"
#include "baselines/bplus_tree.h"
#include "baselines/chained_hash.h"
#include "baselines/interpolation_search.h"
#include "baselines/t_tree.h"
#include "core/css_tree.h"
#include "core/index_spec.h"
#include "util/bits.h"

// The one place an IndexSpec becomes a concrete index template. Node sizes
// are template parameters (the paper specializes per node size, §6.2), so
// the dispatch covers a fixed menu of instantiations — NodeSizeMenu(), the
// sizes swept in Figures 12/13. BuildIndexT wraps the visited structure in
// an AnyIndex; timing benches call its members directly (a non-virtual
// Find, LowerBoundTraced under the cache simulator, LowerBoundGeneric).

namespace cssidx {

namespace visit_detail {

/// Calls `fn.template operator()<M>()` for the menu entry matching
/// `entries`; false when no entry matches.
template <typename Fn>
bool DispatchNodeSize(int entries, Fn&& fn) {
  switch (entries) {
    case 4:
      fn.template operator()<4>();
      return true;
    case 8:
      fn.template operator()<8>();
      return true;
    case 16:
      fn.template operator()<16>();
      return true;
    case 24:
      fn.template operator()<24>();
      return true;
    case 32:
      fn.template operator()<32>();
      return true;
    case 64:
      fn.template operator()<64>();
      return true;
    case 128:
      fn.template operator()<128>();
      return true;
    default:
      return false;
  }
}

}  // namespace visit_detail

/// Builds the structure `spec` names over keys[0..n) (sorted, must outlive
/// the structure) and calls `fn` once with it as an rvalue of its concrete
/// type. Returns false without calling `fn` when the spec is off the menu,
/// partitioned (a composite of visited structures, see
/// partitioned_index.h) or of the other key width. The "@tN" probe-thread
/// knob belongs to the call, not the structure, and is ignored here.
template <typename KeyT, typename Fn>
bool VisitIndex(const IndexSpec& spec, const KeyT* keys, size_t n, Fn&& fn) {
  if (!spec.OnMenu() || spec.partitioned()) return false;
  if (spec.key_width() != static_cast<int>(sizeof(KeyT))) return false;
  const int m = spec.node_entries();
  switch (spec.method()) {
    case Method::kBinarySearch:
      fn(BasicBinarySearchIndex<KeyT>(keys, n));
      return true;
    case Method::kTreeBinarySearch:
      fn(BasicBinaryTreeIndex<KeyT>(keys, n));
      return true;
    case Method::kInterpolation:
      fn(BasicInterpolationSearchIndex<KeyT>(keys, n));
      return true;
    case Method::kTTree:
      return visit_detail::DispatchNodeSize(
          m, [&]<int M>() { fn(TTreeIndex<M, KeyT>(keys, n)); });
    case Method::kBPlusTree:
      return visit_detail::DispatchNodeSize(
          m, [&]<int M>() { fn(BPlusTree<M, KeyT>(keys, n)); });
    case Method::kFullCss:
      return visit_detail::DispatchNodeSize(
          m, [&]<int M>() { fn(BasicCssTree<KeyT, M, M + 1>(keys, n)); });
    case Method::kLevelCss:
      // OnMenu keeps level trees to power-of-two node sizes.
      return visit_detail::DispatchNodeSize(m, [&]<int M>() {
        if constexpr (IsPowerOfTwo(M)) fn(BasicCssTree<KeyT, M, M>(keys, n));
      });
    case Method::kHash:
      // The chained-hash bucket layout is 4-byte only; OnMenu rejects
      // hash at width 8, so the 64-bit instantiation never reaches here.
      if constexpr (std::is_same_v<KeyT, Key>) {
        fn(ChainedHashIndex<kCacheLineBytes>(keys, n, spec.hash_dir_bits()));
        return true;
      }
      return false;
  }
  return false;
}

}  // namespace cssidx

#endif  // CSSIDX_CORE_VISIT_INDEX_H_
