#ifndef CSSIDX_CORE_CSS_TREE_H_
#define CSSIDX_CORE_CSS_TREE_H_

#include <cassert>
#include <cstdint>
#include <functional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/css_layout.h"
#include "core/index.h"
#include "core/lockstep.h"
#include "core/node_search.h"
#include "core/simd_node_search.h"
#include "util/aligned_buffer.h"
#include "util/macros.h"

// Cache-Sensitive Search Trees (§4), the paper's contribution.
//
// One engine implements both variants; they differ only in how many of a
// node's `Stride` key slots carry routing keys:
//
//   Full CSS-tree  (§4.1): Fanout = Stride + 1. All Stride slots are keys.
//   Level CSS-tree (§4.2): Fanout = Stride, Stride a power of two. Only
//     Stride - 1 slots are keys, so the intra-node search is a *perfect*
//     binary tree (log2(Stride) comparisons on every path). The spare slot
//     stores the largest key of the node's last branch, which turns the
//     build-time "descend the rightmost path to find a subtree's max" walk
//     into a single array read — exactly the trick in §4.2 that makes level
//     trees cheaper to build (Figure 9).
//
// In both cases internal nodes carry Fanout - 1 keys: key j is the largest
// key in the subtree of child j. Child j of node b is node b*Fanout + 1 + j
// — no pointers are stored anywhere (§4.1's offset arithmetic). Routing
// takes the *first* branch whose key is >= the probe, which lands on the
// leftmost match under duplicates (§4.1.2).
//
// `KeyT` is any unsigned integer type; the §5 model treats the key width K
// as a parameter, and wider keys simply mean fewer keys per cache line
// (pick Stride = line_bytes / sizeof(KeyT)).
//
// The sorted array may hold records rather than bare keys (§4.1; see
// core/record_css_tree.h): `Record` is the element type and `KeyOf`
// reads a record's key. Only the directory build's leaf maxima and the
// leaf search read through it; the directory itself is the same bytes.

namespace cssidx {

/// What a descent reads of one CSS-tree: its directory, the sorted array
/// its leaves are, and where that array starts in a larger one. A bare
/// tree's view has base 0; a part:K shard's view carries the shard's
/// global offset, so one group of probes can descend many shards' trees
/// at once (BasicCssTree::LowerBoundLanes). The view owns nothing: the
/// tree that made it keeps the directory, its caller the array.
template <typename KeyT, typename Record = KeyT>
struct CssTreeView {
  const KeyT* dir = nullptr;     // internal nodes, Stride slots each
  const Record* keys = nullptr;  // the sorted array, chopped into leaves
  size_t n = 0;                  // elements in the array
  uint64_t internal = 0;         // CssLayout::internal_nodes
  uint64_t mark = 0;             // CssLayout::mark: first deep-leaf number
  size_t base = 0;               // global position of keys[0]
};

template <typename KeyT, int Stride, int Fanout, typename Record = KeyT,
          typename KeyOf = std::identity>
class BasicCssTree {
  static_assert(Stride >= 2, "a node must hold at least two keys");
  static_assert(Fanout == Stride + 1 || Fanout == Stride,
                "full (Stride+1) or level (Stride) trees only");

 public:
  using key_type = KeyT;
  using View = CssTreeView<KeyT, Record>;
  static constexpr int kStride = Stride;
  static constexpr int kFanout = Fanout;
  static constexpr int kInternalKeys = Fanout - 1;
  static constexpr bool kHasSpareSlot = kInternalKeys < Stride;
  static constexpr size_t kNodeBytes = Stride * sizeof(KeyT);

  /// Builds the directory over `keys[0..n)`, which must be sorted and must
  /// outlive this object (the tree stores no copy of the data — that is the
  /// point of the structure).
  ///
  /// `misalign_offset` shifts the directory off its cache-line alignment by
  /// that many bytes. It exists only for the alignment ablation bench
  /// (reproducing the Figure 12 bump analysis); leave it 0.
  BasicCssTree(const Record* keys, size_t n, size_t misalign_offset = 0)
      : a_(keys), n_(n), misalign_offset_(misalign_offset) {
    Build();
  }
  explicit BasicCssTree(const std::vector<Record>& keys)
      : BasicCssTree(keys.data(), keys.size()) {}

  BasicCssTree(BasicCssTree&&) noexcept = default;
  BasicCssTree& operator=(BasicCssTree&&) noexcept = default;

  /// First position p with a_[p] >= k, or size() if none (oracle-equivalent
  /// to std::lower_bound on the array).
  size_t LowerBound(KeyT k) const { return LowerBoundIn(view(), k); }

  /// Position of the leftmost occurrence of `k`, or kNotFound.
  int64_t Find(KeyT k) const {
    size_t pos = LowerBound(k);
    if (pos < n_ && KeyOf{}(a_[pos]) == k) return static_cast<int64_t>(pos);
    return kNotFound;
  }

  /// §3.6: number of occurrences of `k` (leftmost match + rightward scan).
  size_t CountEqual(KeyT k) const {
    size_t pos = LowerBound(k);
    size_t count = 0;
    while (pos + count < n_ && KeyOf{}(a_[pos + count]) == k) ++count;
    return count;
  }

  /// Batched LowerBound: the group kernel (LowerBoundLanes) with every
  /// probe descending this one tree.
  void LowerBoundBatch(std::span<const KeyT> keys,
                       std::span<size_t> out) const {
    assert(out.size() >= keys.size());
    const View tree = view();
    LowerBoundLanes(
        keys, [&](size_t) -> const View& { return tree; },
        [&](size_t i, const View&, size_t pos) { out[i] = pos; });
  }

  /// The CSS step on LockstepDescend (core/lockstep.h), over
  /// per-probe tree views: probe i descends the tree `lane_of(i)` names,
  /// and `emit(i, view, pos)` receives its lower bound as a position in
  /// that view's array. A bare tree names itself for every probe; a
  /// part:K index names the shard each probe routes to, so one group
  /// descends many shards' directories in lockstep. `lane_of` is called
  /// at every level, so it must be a lookup, not a computation.
  ///
  /// A lane is its node number. As soon as a probe's next node or leaf
  /// is known every cache line it spans is prefetched, so the miss
  /// overlaps the intra-node searches of the other probes in the group.
  /// The leaf ranges need that most: a served `std::vector` key array
  /// sits 16 bytes off a line, so a full 16-key u32 leaf spans two
  /// lines, and the vector compare reads both (a leaf of records spans
  /// Stride records' bytes). On `bulk_cold` this kernel cut the index's
  /// cost per probe from 136 to 82 ns (width sweep: see kGroupProbes).
  /// Results are identical to scalar LowerBound.
  template <typename LaneOf, typename Emit>
  static void LowerBoundLanes(std::span<const KeyT> keys, LaneOf&& lane_of,
                              Emit&& emit) {
    LockstepDescend(
        keys, [](size_t) { return uint64_t{0}; },
        [&](size_t i, uint64_t& d, KeyT probe) CSSIDX_INLINE_LAMBDA {
          const View& tree = lane_of(i);
          if (d >= tree.internal) return false;
          const KeyT* node = tree.dir + d * Stride;
          int j = DispatchedLowerBound<kInternalKeys, 1, KeyT>(node, probe);
          d = d * Fanout + 1 + static_cast<uint64_t>(j);
          if (d < tree.internal) {
            PrefetchLines(tree.dir + d * Stride, kNodeBytes);
            return true;
          }
          auto [lo, hi] = LeafRange(tree, d);
          PrefetchLines(tree.keys + lo, (hi - lo) * sizeof(Record));
          return false;
        },
        [&](size_t i, uint64_t d, KeyT probe) CSSIDX_INLINE_LAMBDA {
          const View& tree = lane_of(i);
          emit(i, tree, SearchLeaf(tree, d, probe));
        },
        [&](size_t i, KeyT probe) {
          const View& tree = lane_of(i);
          emit(i, tree, LowerBoundIn(tree, probe));
        });
  }

  /// Batched Find over the same group-probing kernel.
  void FindBatch(std::span<const KeyT> keys, std::span<int64_t> out) const {
    assert(out.size() >= keys.size());
    FindBatchViaLowerBound(*this, a_, n_, keys, out, KeyOf{});
  }

  /// LowerBound with generic (runtime-loop) intra-node searches instead of
  /// the unrolled ones — the "generic code" §6.2 found 20-45% slower. Kept
  /// for the node-search ablation bench; results are identical.
  size_t LowerBoundGeneric(KeyT k) const {
    if (CSSIDX_UNLIKELY(n_ == 0)) return 0;
    uint64_t d = 0;
    const uint64_t internal = layout_.internal_nodes;
    const KeyT* dir = dir_keys_;
    while (d < internal) {
      const KeyT* node = dir + d * Stride;
      int j = GenericLowerBound(node, kInternalKeys, k);
      d = d * Fanout + 1 + static_cast<uint64_t>(j);
    }
    auto [lo, hi] = LeafRange(view(), d);
    int j = GenericLowerBound(a_ + lo, static_cast<int>(hi - lo), k, 1,
                              KeyOf{});
    return lo + static_cast<size_t>(j);
  }

  /// Replays the exact memory reference stream of LowerBound(k) into a
  /// tracer (used by the cache simulator benches). Touches each *compared*
  /// key, which reproduces the partial-node access pattern the §5 model
  /// assumes for nodes larger than a cache line.
  template <typename Tracer>
  size_t LowerBoundTraced(KeyT k, const Tracer& tracer) const {
    if (n_ == 0) return 0;
    uint64_t d = 0;
    const uint64_t internal = layout_.internal_nodes;
    while (d < internal) {
      const KeyT* node = dir_keys_ + d * Stride;
      d = d * Fanout + 1 + TracedLowerBound(node, kInternalKeys, k, tracer);
    }
    auto [lo, hi] = LeafRange(view(), d);
    return lo + TracedLowerBound(a_ + lo, hi - lo, k, tracer);
  }

  /// Directory bytes (the structure's only space cost beyond the array).
  size_t SpaceBytes() const {
    return layout_.DirectorySlots() * sizeof(KeyT);
  }

  size_t size() const { return n_; }
  const CssLayout& layout() const { return layout_; }
  const KeyT* directory() const { return dir_keys_; }
  /// This tree as a view whose keys start at global position `base`.
  View view(size_t base = 0) const {
    return View{dir_keys_, a_, n_, layout_.internal_nodes, layout_.mark,
                base};
  }

 private:
  void Build() {
    layout_ = CssLayout::Compute(n_, Stride, Fanout);
    const uint64_t internal = layout_.internal_nodes;
    if (internal == 0) return;
    dir_buf_ = AlignedBuffer(internal * Stride * sizeof(KeyT),
                             kCacheLineBytes, misalign_offset_);
    dir_keys_ = dir_buf_.as<KeyT>();
    // Fill right-to-left so that, for level trees, every child's spare slot
    // is complete before its parent reads it (children have larger node
    // numbers than their parent).
    for (int64_t i = static_cast<int64_t>(internal) * Stride - 1; i >= 0;
         --i) {
      auto d = static_cast<uint64_t>(i) / Stride;
      int slot = static_cast<int>(static_cast<uint64_t>(i) % Stride);
      // Entry `slot` routes child `slot`; the spare slot (level trees only)
      // caches the max of the *last* branch.
      int branch = (kHasSpareSlot && slot == Stride - 1) ? Fanout - 1 : slot;
      uint64_t child = d * Fanout + 1 + static_cast<uint64_t>(branch);
      dir_keys_[i] = SubtreeMax(child);
    }
  }

  /// Largest key in the subtree rooted at `node`, clamped for dangling
  /// subtrees (Algorithm 4.1's duplicate-fill of ancestors of the last
  /// deepest-level leaf).
  KeyT SubtreeMax(uint64_t node) const {
    const uint64_t internal = layout_.internal_nodes;
    if constexpr (kHasSpareSlot) {
      if (node < internal) return dir_keys_[node * Stride + Stride - 1];
    } else {
      while (node < internal) {
        node = node * Fanout + Fanout;  // rightmost branch (§4.1.1)
      }
    }
    return LeafMax(node);
  }

  KeyT LeafMax(uint64_t leaf) const {
    int64_t pos = layout_.LeafArrayPos(leaf);
    if (leaf >= layout_.mark) {
      // Deep leaf: front region of the array.
      auto deep_end = static_cast<int64_t>(layout_.deep_end);
      if (pos >= deep_end) return KeyOf{}(a_[deep_end - 1]);  // dangling
      int64_t end = pos + Stride < deep_end ? pos + Stride : deep_end;
      return KeyOf{}(a_[end - 1]);
    }
    // Shallow leaf: back region; always non-empty.
    auto limit = static_cast<int64_t>(n_);
    int64_t end = pos + Stride < limit ? pos + Stride : limit;
    return KeyOf{}(a_[end - 1]);
  }

  /// Scalar descent of one tree view.
  static size_t LowerBoundIn(const View& tree, KeyT k) {
    if (CSSIDX_UNLIKELY(tree.n == 0)) return 0;
    uint64_t d = 0;
    while (d < tree.internal) {
      const KeyT* node = tree.dir + d * Stride;
      int j = DispatchedLowerBound<kInternalKeys, 1, KeyT>(node, k);
      d = d * Fanout + 1 + static_cast<uint64_t>(j);
    }
    return SearchLeaf(tree, d, k);
  }

  /// [lo, hi) array range of a (possibly partial or dangling) leaf: the
  /// region switch of CssLayout::LeafArrayPos, clamped to the array.
  static std::pair<size_t, size_t> LeafRange(const View& tree,
                                             uint64_t leaf) {
    const int64_t diff =
        (static_cast<int64_t>(leaf) - static_cast<int64_t>(tree.mark)) *
        Stride;
    const auto limit = static_cast<int64_t>(tree.n);
    const int64_t pos = diff >= 0 ? diff : limit + diff;
    int64_t lo = pos < limit ? pos : limit;
    int64_t hi = pos + Stride < limit ? pos + Stride : limit;
    return {static_cast<size_t>(lo), static_cast<size_t>(hi)};
  }

  CSSIDX_ALWAYS_INLINE static size_t SearchLeaf(const View& tree,
                                                uint64_t leaf, KeyT k) {
    auto [lo, hi] = LeafRange(tree, leaf);
    int j;
    if constexpr (!std::is_same_v<Record, KeyT>) {
      // A leaf of records: the byte offsets scale with sizeof(Record),
      // exactly as §4.1 notes; no SIMD kernel reads strided keys.
      j = GenericLowerBound(tree.keys + lo, static_cast<int>(hi - lo), k, 1,
                            KeyOf{});
    } else if (CSSIDX_LIKELY(hi - lo == Stride)) {
      j = DispatchedLowerBound<Stride, 1, KeyT>(tree.keys + lo, k);
    } else {
      // Partial trailing leaf: runtime length, same dispatched contract.
      j = DispatchedLowerBoundN(tree.keys + lo, static_cast<int>(hi - lo), k);
    }
    return lo + static_cast<size_t>(j);
  }

  const Record* a_ = nullptr;
  size_t n_ = 0;
  size_t misalign_offset_ = 0;
  CssLayout layout_;
  AlignedBuffer dir_buf_;
  KeyT* dir_keys_ = nullptr;
};

/// True for the CSS-tree instantiations: both variants, both key widths.
template <typename T>
inline constexpr bool kIsCssTree = false;
template <typename KeyT, int Stride, int Fanout>
inline constexpr bool kIsCssTree<BasicCssTree<KeyT, Stride, Fanout>> = true;

/// The paper's configuration: 4-byte keys (domain IDs, §2.1).
template <int Stride, int Fanout>
using CssTree = BasicCssTree<Key, Stride, Fanout>;

}  // namespace cssidx

#endif  // CSSIDX_CORE_CSS_TREE_H_
