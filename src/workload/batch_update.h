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

/// ApplyBatch for callers that already hold SORTED insert/delete lists
/// (a precondition, not checked): same semantics as ApplyBatch, no copies
/// and no re-sort. The shard-incremental refresh path routes one globally
/// sorted batch into per-shard sub-ranges and merges each through this.
/// An insert-only batch is one merge into the result, O(n + |inserts|);
/// with deletes, every key is first binary-searched in the delete list
/// and the survivors copied, O(n log |deletes| + |inserts|), so the
/// merge writes two n-sized arrays instead of one.
template <typename KeyT>
std::vector<KeyT> ApplySortedBatch(std::span<const KeyT> sorted_keys,
                                   std::span<const KeyT> inserts,
                                   std::span<const KeyT> deletes) {
  // Without deletes every key survives: merge straight from the input.
  std::span<const KeyT> kept = sorted_keys;
  std::vector<KeyT> survivors;
  if (!deletes.empty()) {
    survivors.reserve(sorted_keys.size());
    for (KeyT k : sorted_keys) {
      if (!std::binary_search(deletes.begin(), deletes.end(), k)) {
        survivors.push_back(k);
      }
    }
    kept = survivors;
  }
  std::vector<KeyT> result(kept.size() + inserts.size());
  std::merge(kept.begin(), kept.end(), inserts.begin(), inserts.end(),
             result.begin());
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
