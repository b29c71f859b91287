#ifndef CSSIDX_WORKLOAD_BATCH_UPDATE_H_
#define CSSIDX_WORKLOAD_BATCH_UPDATE_H_

#include <cstdint>
#include <span>
#include <vector>

// OLAP batch maintenance (§2.2/§4.1.1): indexes are not updated in place;
// instead a batch of inserts and deletes is merged into the sorted key
// array and the directory is rebuilt from scratch. This module implements
// the merge; rebuild cost is what Figure 9 measures.

#include <algorithm>

namespace cssidx::workload {

/// One batch of inserts and deletes, templated on the key width — the
/// maintained-index lifecycle is identical for 4- and 8-byte keys.
template <typename KeyT>
struct BasicUpdateBatch {
  std::vector<KeyT> inserts;  // need not be sorted
  std::vector<KeyT> deletes;  // keys; every occurrence is removed
};

using UpdateBatch = BasicUpdateBatch<uint32_t>;
using UpdateBatch64 = BasicUpdateBatch<uint64_t>;

/// First element of [first, last) that fails `before` (a predicate true
/// on a prefix), searched from `first`: a short scan (an answer a few
/// elements on is the common case in a dense batch), then galloping —
/// O(log d) for an answer d elements on, so a pass of ascending searches
/// walks the range once.
template <typename KeyT, typename Before>
const KeyT* GallopPartitionPoint(const KeyT* first, const KeyT* last,
                                 Before before) {
  constexpr size_t kScan = 8;
  const size_t n = static_cast<size_t>(last - first);
  // Invariant: every element before index lo satisfies `before`.
  size_t lo = 0;
  for (const size_t scan = std::min(n, kScan); lo < scan; ++lo) {
    if (!before(first[lo])) return first + lo;
  }
  size_t hi = 2 * lo + 1;
  while (hi < n && before(first[hi])) {
    lo = hi + 1;
    hi = 2 * hi + 1;
  }
  return std::partition_point(first + lo, first + std::min(hi, n), before);
}

/// ApplyBatch for callers that already hold SORTED insert/delete lists
/// (a precondition, not checked): same semantics as ApplyBatch, no copies
/// and no re-sort. The shard-incremental refresh path routes one globally
/// sorted batch into per-shard sub-ranges and merges each through this.
/// An insert-only batch is one merge into the result, O(n + |inserts|).
/// With deletes, the pass visits each distinct batch value in order:
/// the keys below it copy as one block (found by galloping), its run of
/// old keys is dropped if it is deleted, and its inserts follow — one
/// write of the result, O(n + b log n) for a batch of b.
template <typename KeyT>
std::vector<KeyT> ApplySortedBatch(std::span<const KeyT> sorted_keys,
                                   std::span<const KeyT> inserts,
                                   std::span<const KeyT> deletes) {
  if (deletes.empty()) {
    std::vector<KeyT> result(sorted_keys.size() + inserts.size());
    std::merge(sorted_keys.begin(), sorted_keys.end(), inserts.begin(),
               inserts.end(), result.begin());
    return result;
  }
  const KeyT* const end = sorted_keys.data() + sorted_keys.size();
  // Sized exactly first: every deleted value's run leaves (one galloping
  // walk over the keys).
  size_t removed = 0;
  for (const KeyT* pos = sorted_keys.data(); const KeyT& v : deletes) {
    const KeyT* lo = GallopPartitionPoint(pos, end, [&v](const KeyT& k) {
      return k < v;
    });
    pos = GallopPartitionPoint(lo, end,
                               [&v](const KeyT& k) { return !(v < k); });
    removed += static_cast<size_t>(pos - lo);
  }
  std::vector<KeyT> result;
  result.reserve(sorted_keys.size() - removed + inserts.size());
  const KeyT* pos = sorted_keys.data();
  size_t i = 0, j = 0;
  while (i < inserts.size() || j < deletes.size()) {
    // The next distinct batch value.
    const KeyT& v = j == deletes.size() ||
                            (i < inserts.size() && inserts[i] < deletes[j])
                        ? inserts[i]
                        : deletes[j];
    const KeyT* lo = GallopPartitionPoint(pos, end, [&v](const KeyT& k) {
      return k < v;
    });
    const KeyT* hi = GallopPartitionPoint(lo, end, [&v](const KeyT& k) {
      return !(v < k);
    });
    result.insert(result.end(), pos, lo);
    bool deleted = false;
    for (; j < deletes.size() && deletes[j] == v; ++j) deleted = true;
    if (!deleted) result.insert(result.end(), lo, hi);
    for (; i < inserts.size() && inserts[i] == v; ++i) result.push_back(v);
    pos = hi;
  }
  result.insert(result.end(), pos, end);
  return result;
}

/// Non-template overload so existing callers keep deducing through
/// vector-to-span conversions.
inline std::vector<uint32_t> ApplySortedBatch(
    std::span<const uint32_t> sorted_keys, std::span<const uint32_t> inserts,
    std::span<const uint32_t> deletes) {
  return ApplySortedBatch<uint32_t>(sorted_keys, inserts, deletes);
}

/// Applies `batch` to `sorted_keys` and returns the new sorted array.
/// Deletes are applied first, then inserts (so inserting a deleted key
/// keeps it). Duplicate inserts are kept — the structures support
/// duplicates per §3.6. Sorting the batch adds O(|batch| log |batch|) to
/// ApplySortedBatch's merge.
template <typename KeyT>
std::vector<KeyT> ApplyBatch(const std::vector<KeyT>& sorted_keys,
                             const BasicUpdateBatch<KeyT>& batch) {
  std::vector<KeyT> deletes = batch.deletes;
  std::sort(deletes.begin(), deletes.end());
  std::vector<KeyT> inserts = batch.inserts;
  std::sort(inserts.begin(), inserts.end());
  return ApplySortedBatch<KeyT>(sorted_keys, inserts, deletes);
}

/// Non-template overload so existing callers keep deducing (braced
/// argument lists included).
inline std::vector<uint32_t> ApplyBatch(const std::vector<uint32_t>& sorted_keys,
                                        const UpdateBatch& batch) {
  return ApplyBatch<uint32_t>(sorted_keys, batch);
}

/// Generates a random batch touching roughly `fraction` of the keys:
/// half deletes of existing keys, half fresh inserts.
UpdateBatch RandomBatch(const std::vector<uint32_t>& sorted_keys,
                        double fraction, uint64_t seed);

/// RandomBatch confined to the key range [lo, hi): deletes drawn from the
/// existing keys inside the range (none if the range holds no keys),
/// inserts drawn uniformly inside it. `fraction` still sizes the batch
/// relative to the WHOLE array, so localized and scattered batches of the
/// same fraction are comparable. This is the maintenance bench's
/// workload: a batch whose key locality lets a "part:K/" index rebuild
/// only one or two shards.
UpdateBatch RandomBatchInRange(const std::vector<uint32_t>& sorted_keys,
                               double fraction, uint32_t lo, uint32_t hi,
                               uint64_t seed);

}  // namespace cssidx::workload

#endif  // CSSIDX_WORKLOAD_BATCH_UPDATE_H_
