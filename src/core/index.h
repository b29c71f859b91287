#ifndef CSSIDX_CORE_INDEX_H_
#define CSSIDX_CORE_INDEX_H_

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>

// Common vocabulary for every index in the suite.
//
// All structures index an immutable sorted array of 4-byte keys (§2.1: keys
// are domain IDs; §5: K = R = 4 bytes). The position of a key in the array
// *is* its RID: the paper's "list of record-identifiers sorted by the
// attribute" means position i of the index maps to RID list entry i.
// Indexes therefore return array positions. §5 also treats key width as a
// free parameter (a 64-byte node holds sc/K keys); Key64 is the 8-byte
// instantiation, reachable through the "css64"-style spec tokens.

namespace cssidx {

using Key = uint32_t;
using Key64 = uint64_t;

/// Returned by Find when the key is absent.
inline constexpr int64_t kNotFound = -1;

/// Probes every tree batch kernel (CSS, record CSS, B+-tree, T-tree)
/// descends in lockstep: the group width of LockstepDescend
/// (core/lockstep.h), the one loop those kernels are steps on. A part:K
/// batch over CSS shards fills its groups the same way, each lane
/// descending the tree of the shard its probe routes to, so a 64-key FIND
/// is two full groups, not one narrow sub-batch per shard. Each probe's
/// next node is prefetched as soon as it is known, so a group of G probes
/// keeps up to G misses in flight and the compares of the other G - 1
/// probes cover each one's latency. A DRAM miss needs more cover than 8
/// probes give. Width sweep on the end-to-end `bulk_cold` workload
/// (1024-key FINDs on 100M u32 keys, past the L3; a 4-vCPU Xeon VM, seeds
/// 11-13), statements/s against the previous 8-wide kernel: 8 -> -3..+6%,
/// 16 -> +8..+18%, 32 -> +24..+40%, 64 -> +30..+37%. `bench_batch_lookup`
/// (css:16, n = 10M, which fits that VM's L3) read 43-86 ns per probe at
/// batch 1024 across widths 8-64, one run each: spread, not a trend. 32 is
/// kept: 64 was not faster on `bulk_cold`.
inline constexpr size_t kGroupProbes = 32;

/// Batches of at most this many probes skip grouping and run the scalar
/// descent per probe. A group that narrow has too little to overlap, and
/// its bookkeeping is dearer than the out-of-order core's own overlap of
/// short independent scalar descents: on a 32M-key css:16 tree (a 4-vCPU
/// Xeon VM), a batch of one cost 510-540 ns per probe as a group against
/// 185-280 ns scalar, a batch of two 265-290 ns against 195-250 ns. From
/// three probes on the group is ahead. A scalar AnyIndex probe is a batch
/// of one, so this is every scalar probe's path.
inline constexpr size_t kScalarBatchMax = 2;

/// A half-open [begin, end) span of positions in the sorted key array —
/// the result type of every range probe. Duplicates are contiguous in a
/// sorted array, so a key's whole duplicate run is one such span:
/// {leftmost match, leftmost match + count}. An absent key yields an empty
/// span (begin == end) anchored at the key's insertion point for ordered
/// methods, or at size() for hash (which has no notion of position).
struct PositionRange {
  size_t begin = 0;  // first position in the range
  size_t end = 0;    // one past the last
  size_t size() const { return end - begin; }
  bool empty() const { return begin == end; }
  friend bool operator==(const PositionRange&, const PositionRange&) =
      default;
};

/// Every ordered index view satisfies this. The array outlives the index
/// (non-owning views, like std::string_view over the table's RID list).
template <typename T>
concept OrderedIndex = requires(const T& t, Key k) {
  { t.LowerBound(k) } -> std::same_as<size_t>;
  { t.Find(k) } -> std::same_as<int64_t>;
  { t.SpaceBytes() } -> std::same_as<size_t>;
  { t.size() } -> std::same_as<size_t>;
};

/// §3.6 duplicate handling, shared by all ordered methods: find the
/// leftmost match, then scan right. Runs against the underlying array.
template <typename IndexT, typename KeyT>
size_t CountEqual(const IndexT& index, const KeyT* keys, size_t n, KeyT k) {
  size_t pos = index.LowerBound(k);
  size_t count = 0;
  while (pos + count < n && keys[pos + count] == k) ++count;
  return count;
}

/// Shared FindBatch for tree structures whose Find is LowerBound + a
/// compare against the backing array `a[0..n)`: run the structure's
/// batched LowerBound kernel a chunk at a time (positions staged on the
/// stack), then translate hits/misses. `key_of` reads an element's key
/// (the identity for a key array, a field for an array of records).
template <typename IndexT, typename Element, typename KeyT,
          typename KeyOf = std::identity>
void FindBatchViaLowerBound(const IndexT& index, const Element* a, size_t n,
                            std::span<const KeyT> keys,
                            std::span<int64_t> out, KeyOf key_of = {}) {
  constexpr size_t kChunk = 256;
  size_t pos[kChunk];
  for (size_t i = 0; i < keys.size(); i += kChunk) {
    size_t len = std::min(keys.size() - i, kChunk);
    index.LowerBoundBatch(keys.subspan(i, len), std::span<size_t>(pos, len));
    for (size_t j = 0; j < len; ++j) {
      out[i + j] = pos[j] < n && key_of(a[pos[j]]) == keys[i + j]
                       ? static_cast<int64_t>(pos[j])
                       : kNotFound;
    }
  }
}

/// Shared EqualRangeBatch for ordered structures: both ends of every
/// probe's duplicate run come from the structure's own batched LowerBound
/// kernel, so range probes inherit its group probing and prefetch. For
/// integer keys lower_bound(k + 1) == upper_bound(k); the one key whose
/// successor would wrap, numeric_limits::max(), has upper bound n by
/// definition (no key exceeds it), so its end is pinned there instead.
template <typename IndexT, typename KeyT>
void EqualRangeBatchViaLowerBound(const IndexT& index, size_t n,
                                  std::span<const KeyT> keys,
                                  std::span<PositionRange> out) {
  constexpr KeyT kMax = std::numeric_limits<KeyT>::max();
  constexpr size_t kChunk = 256;
  KeyT succ[kChunk];
  size_t lo[kChunk];
  size_t hi[kChunk];
  for (size_t i = 0; i < keys.size(); i += kChunk) {
    size_t len = std::min(keys.size() - i, kChunk);
    index.LowerBoundBatch(keys.subspan(i, len), std::span<size_t>(lo, len));
    for (size_t j = 0; j < len; ++j) {
      succ[j] = keys[i + j] == kMax ? kMax : keys[i + j] + 1;
    }
    index.LowerBoundBatch(std::span<const KeyT>(succ, len),
                          std::span<size_t>(hi, len));
    for (size_t j = 0; j < len; ++j) {
      out[i + j] = PositionRange{lo[j], keys[i + j] == kMax ? n : hi[j]};
    }
  }
}

/// Shared CountEqualBatch over a structure's EqualRangeBatch kernel
/// (ranges staged on the stack, a chunk at a time).
template <typename IndexT, typename KeyT>
void CountEqualBatchViaEqualRange(const IndexT& index,
                                  std::span<const KeyT> keys,
                                  std::span<size_t> out) {
  constexpr size_t kChunk = 256;
  PositionRange ranges[kChunk];
  for (size_t i = 0; i < keys.size(); i += kChunk) {
    size_t len = std::min(keys.size() - i, kChunk);
    index.EqualRangeBatch(keys.subspan(i, len),
                          std::span<PositionRange>(ranges, len));
    for (size_t j = 0; j < len; ++j) out[i + j] = ranges[j].size();
  }
}

}  // namespace cssidx

#endif  // CSSIDX_CORE_INDEX_H_
