#ifndef CSSIDX_BASELINES_BPLUS_TREE_H_
#define CSSIDX_BASELINES_BPLUS_TREE_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/index.h"
#include "core/node_search.h"
#include "core/simd_node_search.h"
#include "util/aligned_buffer.h"
#include "util/macros.h"

// Bulk-loaded B+-tree (§3.4), the strongest baseline: like a CSS-tree it
// packs several keys per cache line, but it pays a child pointer per key,
// so a node of the same byte size holds half as many keys and the tree is
// one to two levels deeper.
//
// Implementation choices follow §6.2 exactly:
//   * each key and its child pointer are physically adjacent — a node is an
//     array of key-width slots [p0 k0 p1 k1 ... ] (4-byte for the paper's
//     K = 4, 8-byte for the css64 menu), so one line load serves the
//     comparison and the branch;
//   * with an even number of slots there is one more pointer than key
//     positions allow, so one slot is left empty;
//   * all slots are used (100% fill) and the tree is rebuilt on batch
//     updates — no update slack, per the OLAP assumption;
//   * the leaf level is the sorted array itself, chopped into chunks of
//     `Slots` keys, matching the paper's space model (Figure 7) where only
//     internal nodes cost extra memory.
//
// Routing keys are subtree maxima and ties go to the leftmost branch, so
// duplicate handling matches §3.6.

namespace cssidx {

template <int Slots, typename KeyT = Key>
class BPlusTree {
  static_assert(Slots >= 4, "a node needs at least two children");

 public:
  /// Children per internal node: slots hold `kFanout` pointers and
  /// `kFanout - 1` keys (one slot unused when Slots is even).
  static constexpr int kFanout = (Slots + 1) / 2;
  static constexpr int kRoutingKeys = kFanout - 1;
  static constexpr size_t kNodeBytes = Slots * sizeof(KeyT);

  BPlusTree(const KeyT* keys, size_t n) : a_(keys), n_(n) { Build(); }
  explicit BPlusTree(const std::vector<KeyT>& keys)
      : BPlusTree(keys.data(), keys.size()) {}

  size_t LowerBound(KeyT k) const {
    if (CSSIDX_UNLIKELY(n_ == 0)) return 0;
    uint32_t node = root_;
    for (int level = height_; level > 0; --level) {
      const KeyT* slots = arena_ptr_ + static_cast<size_t>(node) * Slots;
      // Keys sit at odd slot indices (stride 2 starting at slot 1); the
      // SIMD path compacts the even lanes of interleaved loads instead
      // of gathering (8-byte strided nodes take the scalar unroll).
      int j = DispatchedLowerBound<kRoutingKeys, 2, KeyT>(slots + 1, k);
      node = static_cast<uint32_t>(slots[2 * j]);
    }
    return SearchChunk(node, k);
  }

  int64_t Find(KeyT k) const {
    size_t pos = LowerBound(k);
    if (pos < n_ && a_[pos] == k) return static_cast<int64_t>(pos);
    return kNotFound;
  }

  size_t CountEqual(KeyT k) const {
    return ::cssidx::CountEqual(*this, a_, n_, k);
  }

  /// Batched LowerBound: group probing with software prefetch. Every probe
  /// descends the same number of levels (bulk-loaded tree), so the group
  /// walks down in lockstep; each level's node fetches, and then every line
  /// of each probe's leaf chunk, are prefetched one level ahead across the
  /// whole group. The last group may be partial and descends the same way;
  /// a whole batch of at most kScalarBatchMax probes runs the scalar
  /// descent (see the CSS-tree kernel).
  void LowerBoundBatch(std::span<const KeyT> keys,
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
    for (size_t i = 0; i < count; i += kGroupProbes) {
      const size_t width = std::min(count - i, kGroupProbes);
      const KeyT* probe = keys.data() + i;
      uint32_t node[kGroupProbes];
      std::fill_n(node, width, root_);
      for (int level = height_; level > 0; --level) {
        for (size_t g = 0; g < width; ++g) {
          const KeyT* slots =
              arena_ptr_ + static_cast<size_t>(node[g]) * Slots;
          int j = DispatchedLowerBound<kRoutingKeys, 2, KeyT>(slots + 1,
                                                              probe[g]);
          node[g] = static_cast<uint32_t>(slots[2 * j]);
          if (level > 1) {
            PrefetchLines(arena_ptr_ + static_cast<size_t>(node[g]) * Slots,
                          kNodeBytes);
          } else {
            auto [start, end] = ChunkRange(node[g]);
            PrefetchLines(a_ + start, (end - start) * sizeof(KeyT));
          }
        }
      }
      for (size_t g = 0; g < width; ++g) {
        out[i + g] = SearchChunk(node[g], probe[g]);
      }
    }
  }

  /// Batched Find over the same group-probing kernel.
  void FindBatch(std::span<const KeyT> keys, std::span<int64_t> out) const {
    assert(out.size() >= keys.size());
    FindBatchViaLowerBound(*this, a_, n_, keys, out);
  }

  /// Batched EqualRange: both run bounds through the group-probing
  /// LowerBound kernel (see EqualRangeBatchViaLowerBound).
  void EqualRangeBatch(std::span<const KeyT> keys,
                       std::span<PositionRange> out) const {
    assert(out.size() >= keys.size());
    EqualRangeBatchViaLowerBound(*this, n_, keys, out);
  }

  /// Batched CountEqual over the same range kernel.
  void CountEqualBatch(std::span<const KeyT> keys,
                       std::span<size_t> out) const {
    assert(out.size() >= keys.size());
    CountEqualBatchViaEqualRange(*this, keys, out);
  }

  template <typename Tracer>
  size_t LowerBoundTraced(KeyT k, const Tracer& tracer) const {
    if (n_ == 0) return 0;
    uint32_t node = root_;
    for (int level = height_; level > 0; --level) {
      const KeyT* slots = arena_ptr_ + static_cast<size_t>(node) * Slots;
      int lo = 0;
      int len = kRoutingKeys;
      while (len > 0) {
        int half = len / 2;
        tracer.Touch(slots + 1 + 2 * (lo + half), sizeof(KeyT));
        if (slots[1 + 2 * (lo + half)] >= k) {
          len = half;
        } else {
          lo += half + 1;
          len -= half + 1;
        }
      }
      tracer.Touch(slots + 2 * lo, sizeof(KeyT));
      node = static_cast<uint32_t>(slots[2 * lo]);
    }
    size_t start = static_cast<size_t>(node) * Slots;
    size_t end = start + Slots < n_ ? start + Slots : n_;
    int lo = 0;
    int len = static_cast<int>(end - start);
    while (len > 0) {
      int half = len / 2;
      tracer.Touch(a_ + start + lo + half, sizeof(KeyT));
      if (a_[start + lo + half] >= k) {
        len = half;
      } else {
        lo += half + 1;
        len -= half + 1;
      }
    }
    return start + static_cast<size_t>(lo);
  }

  /// Internal-node arena bytes (leaves are the array; cf. Figure 7).
  size_t SpaceBytes() const { return arena_bytes_; }
  size_t size() const { return n_; }
  int height() const { return height_; }

 private:
  void Build() {
    if (n_ == 0) return;
    size_t num_chunks = (n_ + Slots - 1) / Slots;
    // Max key per node of the level currently being grouped.
    std::vector<KeyT> maxes(num_chunks);
    for (size_t c = 0; c < num_chunks; ++c) {
      size_t end = (c + 1) * static_cast<size_t>(Slots);
      if (end > n_) end = n_;
      maxes[c] = a_[end - 1];
    }
    if (num_chunks == 1) return;  // the single chunk is the whole index

    // Count internal nodes level by level to size the arena once.
    size_t total_nodes = 0;
    for (size_t width = num_chunks; width > 1;
         width = (width + kFanout - 1) / kFanout) {
      total_nodes += (width + kFanout - 1) / kFanout;
    }
    arena_buf_ = AlignedBuffer(total_nodes * Slots * sizeof(KeyT),
                               kCacheLineBytes);
    arena_ptr_ = arena_buf_.template as<KeyT>();
    arena_bytes_ = total_nodes * Slots * sizeof(KeyT);

    // Children of level-1 nodes are chunk ids; higher levels point at node
    // ids within the arena. Build bottom-up.
    std::vector<uint32_t> child_ids(num_chunks);
    for (size_t c = 0; c < num_chunks; ++c) {
      child_ids[c] = static_cast<uint32_t>(c);
    }
    uint32_t next_node = 0;
    while (child_ids.size() > 1) {
      size_t parents = (child_ids.size() + kFanout - 1) / kFanout;
      std::vector<uint32_t> parent_ids(parents);
      std::vector<KeyT> parent_maxes(parents);
      for (size_t p = 0; p < parents; ++p) {
        uint32_t id = next_node++;
        parent_ids[p] = id;
        KeyT* slots = arena_ptr_ + static_cast<size_t>(id) * Slots;
        size_t first = p * kFanout;
        size_t count = child_ids.size() - first;
        if (count > static_cast<size_t>(kFanout)) count = kFanout;
        KeyT group_max = maxes[first + count - 1];
        for (int j = 0; j < kFanout; ++j) {
          size_t c = j < static_cast<int>(count) ? first + j
                                                 : first + count - 1;
          slots[2 * j] = child_ids[c];
          if (j < kRoutingKeys) {
            // Clamp keys of missing branches to the group max so ties
            // route into the last real child (Algorithm 4.1's trick).
            slots[2 * j + 1] =
                j < static_cast<int>(count) ? maxes[first + j] : group_max;
          }
        }
        if constexpr (Slots % 2 == 0) {
          slots[Slots - 1] = 0;  // the deliberately empty slot (§6.2)
        }
        parent_maxes[p] = group_max;
      }
      child_ids = std::move(parent_ids);
      maxes = std::move(parent_maxes);
      ++height_;
    }
    root_ = child_ids[0];
  }

  /// [start, end) array range of a (possibly partial trailing) leaf chunk.
  std::pair<size_t, size_t> ChunkRange(uint32_t chunk) const {
    size_t start = static_cast<size_t>(chunk) * Slots;
    return {start, start + Slots < n_ ? start + Slots : n_};
  }

  CSSIDX_ALWAYS_INLINE size_t SearchChunk(uint32_t chunk, KeyT k) const {
    auto [start, end] = ChunkRange(chunk);
    int j;
    if (CSSIDX_LIKELY(end - start == Slots)) {
      j = DispatchedLowerBound<Slots, 1, KeyT>(a_ + start, k);
    } else {
      // Partial trailing chunk: runtime length, same dispatched contract.
      j = DispatchedLowerBoundN(a_ + start, static_cast<int>(end - start), k);
    }
    return start + static_cast<size_t>(j);
  }

  const KeyT* a_;
  size_t n_;
  AlignedBuffer arena_buf_;
  KeyT* arena_ptr_ = nullptr;
  size_t arena_bytes_ = 0;
  uint32_t root_ = 0;
  int height_ = 0;  // number of internal levels above the leaf chunks
};

}  // namespace cssidx

#endif  // CSSIDX_BASELINES_BPLUS_TREE_H_
