#ifndef CSSIDX_CORE_RECORD_CSS_TREE_H_
#define CSSIDX_CORE_RECORD_CSS_TREE_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/css_layout.h"
#include "core/index.h"
#include "core/node_search.h"
#include "core/simd_node_search.h"
#include "util/aligned_buffer.h"
#include "util/macros.h"

// CSS-tree over an array of *records* rather than bare keys.
//
// §4.1: "the array a could alternatively contain records of a table or
// packed domain clustered by column k. ... our techniques apply to sorted
// arrays having elements of size different from the size of a key. Offsets
// into the leaf array are independent of the record size within the array;
// the compiler will generate the appropriate byte offsets."
//
// The directory is identical to the plain CSS-tree's (4-byte keys, no
// pointers); only the leaf level dereferences records through a key
// extractor. Wide records dilute leaf-level cache locality — one line holds
// fewer keys — which bench/record_width measures; the directory's miss
// behaviour is unchanged, which is the point of the quote above.
//
// `KeyOf` must be a stateless callable: Key KeyOf()(const Record&).

namespace cssidx {

template <typename Record, typename KeyOf, int NodeKeys>
class RecordCssTree {
  static_assert(NodeKeys >= 2);

 public:
  static constexpr int kStride = NodeKeys;
  static constexpr int kFanout = NodeKeys + 1;  // full-CSS shape

  RecordCssTree(const Record* records, size_t n) : a_(records), n_(n) {
    Build();
  }
  explicit RecordCssTree(const std::vector<Record>& records)
      : RecordCssTree(records.data(), records.size()) {}

  /// First position p with KeyOf(a[p]) >= k.
  size_t LowerBound(Key k) const {
    if (CSSIDX_UNLIKELY(n_ == 0)) return 0;
    uint64_t d = 0;
    const uint64_t internal = layout_.internal_nodes;
    while (d < internal) {
      const Key* node = dir_keys_ + d * kStride;
      int j = DispatchedLowerBound<kStride>(node, k);
      d = d * kFanout + 1 + static_cast<uint64_t>(j);
    }
    return SearchLeaf(d, k);
  }

  /// Batched LowerBound: the same level-synchronous group-probing +
  /// prefetch kernel as the plain CSS-tree — the directory is identical
  /// (bare keys, no pointers); only the leaf search dereferences records,
  /// and every line of each probe's leaf records is prefetched as soon as
  /// its leaf is known. The last group may be partial and descends the
  /// same way; a whole batch of at most kScalarBatchMax probes runs the
  /// scalar descent. Results are identical to scalar LowerBound.
  void LowerBoundBatch(std::span<const Key> keys,
                       std::span<size_t> out) const {
    assert(out.size() >= keys.size());
    const size_t count = keys.size();
    if (count <= kScalarBatchMax) {
      for (size_t i = 0; i < count; ++i) out[i] = LowerBound(keys[i]);
      return;
    }
    if (CSSIDX_UNLIKELY(n_ == 0)) {
      for (size_t i = 0; i < count; ++i) out[i] = 0;
      return;
    }
    const uint64_t internal = layout_.internal_nodes;
    const Key* dir = dir_keys_;
    for (size_t i = 0; i < count; i += kGroupProbes) {
      const size_t width = std::min(count - i, kGroupProbes);
      const Key* probe = keys.data() + i;
      uint64_t d[kGroupProbes];
      std::fill_n(d, width, uint64_t{0});
      bool descending = internal > 0;
      while (descending) {
        descending = false;
        for (size_t g = 0; g < width; ++g) {
          if (d[g] >= internal) continue;
          const Key* node = dir + d[g] * kStride;
          int j = DispatchedLowerBound<kStride>(node, probe[g]);
          d[g] = d[g] * kFanout + 1 + static_cast<uint64_t>(j);
          if (d[g] < internal) {
            PrefetchLines(dir + d[g] * kStride, kStride * sizeof(Key));
            descending = true;
          } else {
            auto [lo, hi] = LeafRange(d[g]);
            PrefetchLines(a_ + lo, (hi - lo) * sizeof(Record));
          }
        }
      }
      for (size_t g = 0; g < width; ++g) {
        out[i + g] = SearchLeaf(d[g], probe[g]);
      }
    }
  }

  /// Position of the leftmost record whose key equals `k`, or kNotFound.
  int64_t Find(Key k) const {
    size_t pos = LowerBound(k);
    if (pos < n_ && KeyOf{}(a_[pos]) == k) return static_cast<int64_t>(pos);
    return kNotFound;
  }

  /// Batched Find over the group-probing kernel (hand-rolled rather than
  /// FindBatchViaLowerBound: the hit test reads keys through KeyOf, not a
  /// flat key array).
  void FindBatch(std::span<const Key> keys, std::span<int64_t> out) const {
    assert(out.size() >= keys.size());
    constexpr size_t kChunk = 256;
    size_t pos[kChunk];
    for (size_t i = 0; i < keys.size(); i += kChunk) {
      size_t len = std::min(keys.size() - i, kChunk);
      LowerBoundBatch(keys.subspan(i, len), std::span<size_t>(pos, len));
      for (size_t j = 0; j < len; ++j) {
        out[i + j] = pos[j] < n_ && KeyOf{}(a_[pos[j]]) == keys[i + j]
                         ? static_cast<int64_t>(pos[j])
                         : kNotFound;
      }
    }
  }

  /// Batched EqualRange/CountEqual: both run bounds through the batched
  /// descent, exactly as for the key-array trees (the shared kernel only
  /// needs LowerBoundBatch, so record indirection is invisible to it).
  void EqualRangeBatch(std::span<const Key> keys,
                       std::span<PositionRange> out) const {
    assert(out.size() >= keys.size());
    EqualRangeBatchViaLowerBound(*this, n_, keys, out);
  }
  void CountEqualBatch(std::span<const Key> keys,
                       std::span<size_t> out) const {
    assert(out.size() >= keys.size());
    CountEqualBatchViaEqualRange(*this, keys, out);
  }

  size_t CountEqual(Key k) const {
    size_t pos = LowerBound(k);
    size_t count = 0;
    while (pos + count < n_ && KeyOf{}(a_[pos + count]) == k) ++count;
    return count;
  }

  size_t SpaceBytes() const {
    return layout_.DirectorySlots() * sizeof(Key);
  }
  size_t size() const { return n_; }
  const CssLayout& layout() const { return layout_; }

 private:
  void Build() {
    layout_ = CssLayout::Compute(n_, kStride, kFanout);
    const uint64_t internal = layout_.internal_nodes;
    if (internal == 0) return;
    dir_buf_ =
        AlignedBuffer(internal * kStride * sizeof(Key), kCacheLineBytes);
    dir_keys_ = dir_buf_.as<Key>();
    for (int64_t i = static_cast<int64_t>(internal) * kStride - 1; i >= 0;
         --i) {
      auto d = static_cast<uint64_t>(i) / kStride;
      int branch = static_cast<int>(static_cast<uint64_t>(i) % kStride);
      uint64_t child = d * kFanout + 1 + static_cast<uint64_t>(branch);
      dir_keys_[i] = SubtreeMax(child);
    }
  }

  Key SubtreeMax(uint64_t node) const {
    const uint64_t internal = layout_.internal_nodes;
    while (node < internal) node = node * kFanout + kFanout;
    int64_t pos = layout_.LeafArrayPos(node);
    if (node >= layout_.mark) {
      auto deep_end = static_cast<int64_t>(layout_.deep_end);
      if (pos >= deep_end) return KeyOf{}(a_[deep_end - 1]);
      int64_t end = pos + kStride < deep_end ? pos + kStride : deep_end;
      return KeyOf{}(a_[end - 1]);
    }
    auto limit = static_cast<int64_t>(n_);
    int64_t end = pos + kStride < limit ? pos + kStride : limit;
    return KeyOf{}(a_[end - 1]);
  }

  std::pair<size_t, size_t> LeafRange(uint64_t leaf) const {
    int64_t pos = layout_.LeafArrayPos(leaf);
    auto limit = static_cast<int64_t>(n_);
    int64_t lo = pos < limit ? pos : limit;
    int64_t hi = pos + kStride < limit ? pos + kStride : limit;
    return {static_cast<size_t>(lo), static_cast<size_t>(hi)};
  }

  CSSIDX_ALWAYS_INLINE size_t SearchLeaf(uint64_t leaf, Key k) const {
    auto [lo, hi] = LeafRange(leaf);
    // Leaf search walks records; the byte offsets scale with
    // sizeof(Record) exactly as the paper notes.
    size_t len = hi - lo;
    size_t base = lo;
    while (len > 0) {
      size_t half = len / 2;
      if (KeyOf{}(a_[base + half]) >= k) {
        len = half;
      } else {
        base += half + 1;
        len -= half + 1;
      }
    }
    return base;
  }

  const Record* a_ = nullptr;
  size_t n_ = 0;
  CssLayout layout_;
  AlignedBuffer dir_buf_;
  Key* dir_keys_ = nullptr;
};

}  // namespace cssidx

#endif  // CSSIDX_CORE_RECORD_CSS_TREE_H_
