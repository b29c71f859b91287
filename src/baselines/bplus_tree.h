#ifndef CSSIDX_BASELINES_BPLUS_TREE_H_
#define CSSIDX_BASELINES_BPLUS_TREE_H_

#include <cassert>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/index.h"
#include "core/lockstep.h"
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

  /// Batched LowerBound: the B+-tree step on LockstepDescend
  /// (core/lockstep.h). A lane is a node and the levels left above its
  /// leaf chunk; every probe descends the same number of levels
  /// (bulk-loaded tree). Each lane prefetches its next node, and then
  /// every line of its leaf chunk, as soon as it reads the child pointer.
  void LowerBoundBatch(std::span<const KeyT> keys,
                       std::span<size_t> out) const {
    assert(out.size() >= keys.size());
    struct Lane {
      uint32_t node;
      int level;
    };
    LockstepDescend(
        keys, [&](size_t) { return Lane{root_, height_}; },
        [&](size_t, Lane& lane, KeyT probe) CSSIDX_INLINE_LAMBDA {
          if (lane.level == 0) return false;
          const KeyT* slots =
              arena_ptr_ + static_cast<size_t>(lane.node) * Slots;
          int j = DispatchedLowerBound<kRoutingKeys, 2, KeyT>(slots + 1, probe);
          lane.node = static_cast<uint32_t>(slots[2 * j]);
          if (--lane.level > 0) {
            PrefetchLines(arena_ptr_ + static_cast<size_t>(lane.node) * Slots,
                          kNodeBytes);
            return true;
          }
          auto [start, end] = ChunkRange(lane.node);
          PrefetchLines(a_ + start, (end - start) * sizeof(KeyT));
          return false;
        },
        [&](size_t i, Lane lane, KeyT probe) CSSIDX_INLINE_LAMBDA {
          out[i] = SearchChunk(lane.node, probe);
        },
        [&](size_t i, KeyT probe) { out[i] = LowerBound(probe); });
  }

  /// Batched Find over the same group-probing kernel.
  void FindBatch(std::span<const KeyT> keys, std::span<int64_t> out) const {
    assert(out.size() >= keys.size());
    FindBatchViaLowerBound(*this, a_, n_, keys, out);
  }

  template <typename Tracer>
  size_t LowerBoundTraced(KeyT k, const Tracer& tracer) const {
    if (n_ == 0) return 0;
    uint32_t node = root_;
    for (int level = height_; level > 0; --level) {
      const KeyT* slots = arena_ptr_ + static_cast<size_t>(node) * Slots;
      size_t j = TracedLowerBound(slots + 1, kRoutingKeys, k, tracer, 2);
      tracer.Touch(slots + 2 * j, sizeof(KeyT));
      node = static_cast<uint32_t>(slots[2 * j]);
    }
    auto [start, end] = ChunkRange(node);
    return start + TracedLowerBound(a_ + start, end - start, k, tracer);
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
