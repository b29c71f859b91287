#include "core/maintained_index.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <utility>

#include "core/builder.h"

namespace cssidx {

namespace {

std::atomic<uint64_t> g_key_array_materializations{0};

}  // namespace

uint64_t KeyArrayMaterializations() {
  return g_key_array_materializations.load(std::memory_order_relaxed);
}

template <typename KeyT>
BasicMaintainedIndex<KeyT>::Version::Version(
    std::shared_ptr<const std::vector<KeyT>> keys,
    std::shared_ptr<const BasicPartitionedIndex<KeyT>> part,
    BasicAnyIndex<KeyT> index, uint64_t sequence,
    std::shared_ptr<const void> payload)
    : keys_(std::move(keys)), part_(std::move(part)),
      index_(std::move(index)), sequence_(sequence),
      payload_(std::move(payload)) {
  assert(keys_ != nullptr || part_ != nullptr);
  if (part_ != nullptr) {
    size_ = part_->size();
    segments_.reserve(part_->num_shards());
    for (size_t s = 0; s < part_->num_shards(); ++s) {
      segments_.push_back(part_->shard_keys(s));
    }
  } else {
    size_ = keys_->size();
    segments_.emplace_back(*keys_);
  }
}

template <typename KeyT>
const std::vector<KeyT>& BasicMaintainedIndex<KeyT>::Version::keys() const {
  if (keys_ != nullptr) return *keys_;
  std::call_once(materialize_once_, [this] {
    materialized_ = part_->ConcatenatedKeys();
    g_key_array_materializations.fetch_add(1, std::memory_order_relaxed);
  });
  return materialized_;
}

template <typename KeyT>
size_t BasicMaintainedIndex<KeyT>::Version::LowerBound(KeyT k) const {
  if (index_.SupportsOrderedAccess()) return index_.LowerBound(k);
  // Everything before the routed shard is below k and everything after
  // it at or above, so the answer lies inside it.
  const size_t s = part_ != nullptr ? part_->ShardOf(k) : 0;
  const std::span<const KeyT> segment = segments_[s];
  return (part_ != nullptr ? part_->ShardBase(s) : 0) +
         static_cast<size_t>(
             std::lower_bound(segment.begin(), segment.end(), k) -
             segment.begin());
}

template <typename KeyT>
std::shared_ptr<const typename BasicMaintainedIndex<KeyT>::Version>
BasicMaintainedIndex<KeyT>::MakeVersion(
    const IndexSpec& spec, std::shared_ptr<const std::vector<KeyT>> keys,
    uint64_t sequence, std::shared_ptr<const void> payload) const {
  std::shared_ptr<const BasicPartitionedIndex<KeyT>> part;
  BasicAnyIndex<KeyT> index;
  if (spec.partitioned() && spec.OnMenu() &&
      spec.key_width() == static_cast<int>(sizeof(KeyT))) {
    // Owned build: the shards alias the array, so a later
    // RefreshWithSortedBatch can reuse untouched shards by shared ownership.
    part = BasicPartitionedIndex<KeyT>::BuildOwned(spec, keys);
    if (part->ok()) {
      index = BasicAnyIndex<KeyT>(spec, part);
    } else {
      part = nullptr;
    }
  } else {
    index = BuildIndexT<KeyT>(spec, keys->data(), keys->size());
  }
  if (index) index.AttachStats(stats_collector_);
  return std::make_shared<const Version>(std::move(keys), std::move(part),
                                         std::move(index), sequence,
                                         std::move(payload));
}

template <typename KeyT>
BasicMaintainedIndex<KeyT>::BasicMaintainedIndex(
    const IndexSpec& spec, std::vector<KeyT> sorted_keys,
    std::shared_ptr<const void> payload)
    : spec_(spec) {
  assert(std::is_sorted(sorted_keys.begin(), sorted_keys.end()));
  Publish(MakeVersion(spec_,
                      std::make_shared<const std::vector<KeyT>>(
                          std::move(sorted_keys)),
                      1, std::move(payload)));
}

template <typename KeyT>
void BasicMaintainedIndex<KeyT>::ApplyBatch(
    const workload::BasicUpdateBatch<KeyT>& batch) {
  std::vector<KeyT> inserts = batch.inserts;
  std::sort(inserts.begin(), inserts.end());
  std::vector<KeyT> deletes = batch.deletes;
  std::sort(deletes.begin(), deletes.end());
  ApplySortedBatch(std::move(inserts), std::move(deletes));
}

template <typename KeyT>
void BasicMaintainedIndex<KeyT>::CommitBatch(
    KeyT min_key, KeyT max_key, const std::vector<KeyT>& sorted_inserts,
    const std::vector<KeyT>& sorted_deletes,
    std::shared_ptr<const Version> fresh) {
  ++stats_.batches;
  stats_.keys_inserted += sorted_inserts.size();
  stats_.keys_deleted += sorted_deletes.size();
  if (stats_collector_ &&
      (!sorted_inserts.empty() || !sorted_deletes.empty())) {
    // Batch key span over full key range — both lists are sorted, so the
    // extremes are at the ends. Feeds the advisor's part:K touched-shards
    // estimate (a narrow span touches few shards).
    double span_fraction = 0.0;
    if (max_key > min_key) {
      KeyT lo = !sorted_inserts.empty() ? sorted_inserts.front()
                                        : sorted_deletes.front();
      KeyT hi = !sorted_inserts.empty() ? sorted_inserts.back()
                                        : sorted_deletes.back();
      if (!sorted_deletes.empty()) {
        lo = std::min(lo, sorted_deletes.front());
        hi = std::max(hi, sorted_deletes.back());
      }
      span_fraction = static_cast<double>(hi - lo) /
                      static_cast<double>(max_key - min_key);
    }
    stats_collector_->RecordUpdate(sorted_inserts.size(),
                                   sorted_deletes.size(), span_fraction);
  }
  Publish(std::move(fresh));
}

template <typename KeyT>
void BasicMaintainedIndex<KeyT>::ApplySortedBatch(
    std::vector<KeyT> sorted_inserts, std::vector<KeyT> sorted_deletes) {
  assert(ok());
  assert(std::is_sorted(sorted_inserts.begin(), sorted_inserts.end()));
  assert(std::is_sorted(sorted_deletes.begin(), sorted_deletes.end()));
  if (sorted_inserts.empty() && sorted_deletes.empty()) {
    ++stats_.batches;  // counted, but there is nothing to publish
    return;
  }
  auto old = Snapshot();
  std::shared_ptr<const Version> fresh;
  if (const BasicPartitionedIndex<KeyT>* part = old->partitioned()) {
    typename BasicPartitionedIndex<KeyT>::Refreshed refreshed =
        part->RefreshWithSortedBatch(sorted_inserts, sorted_deletes);
    BasicAnyIndex<KeyT> facade(spec_, refreshed.index);
    facade.AttachStats(stats_collector_);
    fresh = std::make_shared<const Version>(refreshed.keys, refreshed.index,
                                            std::move(facade), sequence_ + 1,
                                            old->payload());
    if (refreshed.rebalanced) {
      ++stats_.full_rebuilds;
      ++stats_.rebalances;
    } else {
      ++stats_.incremental_refreshes;
    }
    stats_.shards_rebuilt += refreshed.shards_rebuilt;
  } else {
    fresh = MakeVersion(
        spec_,
        std::make_shared<const std::vector<KeyT>>(
            workload::ApplySortedBatch<KeyT>(*old->keys_ptr(), sorted_inserts,
                                             sorted_deletes)),
        sequence_ + 1, old->payload());
    ++stats_.full_rebuilds;
  }
  const bool empty = old->size() == 0;
  CommitBatch(empty ? KeyT{} : old->front(), empty ? KeyT{} : old->back(),
              sorted_inserts, sorted_deletes, std::move(fresh));
}

template <typename KeyT>
void BasicMaintainedIndex<KeyT>::Rebuild(std::vector<KeyT> sorted_keys) {
  assert(std::is_sorted(sorted_keys.begin(), sorted_keys.end()));
  auto fresh = MakeVersion(spec_,
                           std::make_shared<const std::vector<KeyT>>(
                               std::move(sorted_keys)),
                           sequence_ + 1, Snapshot()->payload());
  ++stats_.full_rebuilds;
  Publish(std::move(fresh));
}

template <typename KeyT>
void BasicMaintainedIndex<KeyT>::RebuildWithSortedBatch(
    std::vector<KeyT> sorted_base, std::vector<KeyT> sorted_inserts,
    std::vector<KeyT> sorted_deletes, std::shared_ptr<const void> payload) {
  assert(std::is_sorted(sorted_base.begin(), sorted_base.end()));
  assert(std::is_sorted(sorted_inserts.begin(), sorted_inserts.end()));
  assert(std::is_sorted(sorted_deletes.begin(), sorted_deletes.end()));
  auto fresh = MakeVersion(spec_,
                           std::make_shared<const std::vector<KeyT>>(
                               workload::ApplySortedBatch<KeyT>(
                                   sorted_base, sorted_inserts,
                                   sorted_deletes)),
                           sequence_ + 1, std::move(payload));
  const bool empty = sorted_base.empty();
  ++stats_.full_rebuilds;
  CommitBatch(empty ? KeyT{} : sorted_base.front(),
              empty ? KeyT{} : sorted_base.back(), sorted_inserts,
              sorted_deletes, std::move(fresh));
}

template <typename KeyT>
bool BasicMaintainedIndex<KeyT>::RebuildWithSpec(const IndexSpec& new_spec) {
  IndexSpec forced = new_spec.WithKeyWidth(static_cast<int>(sizeof(KeyT)));
  if (!forced.OnMenu()) return false;
  auto old = Snapshot();
  // A refreshed part:K version has no contiguous array: concatenate its
  // shards once, as any whole-structure rebuild reads every key anyway.
  std::shared_ptr<const std::vector<KeyT>> keys = old->keys_ptr();
  if (keys == nullptr) {
    keys = std::make_shared<const std::vector<KeyT>>(
        old->partitioned()->ConcatenatedKeys());
  }
  auto fresh =
      MakeVersion(forced, std::move(keys), sequence_ + 1, old->payload());
  if (!fresh->index()) return false;  // builder refused the spec
  spec_ = forced;
  ++stats_.full_rebuilds;
  ++stats_.spec_swaps;
  Publish(std::move(fresh));
  return true;
}

template <typename KeyT>
std::shared_ptr<ProbeStatsCollector> BasicMaintainedIndex<KeyT>::EnableStats() {
  if (stats_collector_) return stats_collector_;
  stats_collector_ = std::make_shared<ProbeStatsCollector>();
  // Republish the current version with the collector attached (same keys,
  // same structure, same sequence — this is the same logical version, now
  // observed). Snapshots taken before this call keep probing unrecorded.
  auto old = Snapshot();
  BasicAnyIndex<KeyT> facade = old->index();
  if (facade) facade.AttachStats(stats_collector_);
  std::shared_ptr<const BasicPartitionedIndex<KeyT>> part;
  if (old->partitioned() != nullptr) {
    // Alias on the old Version: it owns the composite, so the new
    // version's part_ keeps the whole old version alive — fine, they
    // share every expensive part anyway.
    part = std::shared_ptr<const BasicPartitionedIndex<KeyT>>(
        old, old->partitioned());
  }
  Publish(std::make_shared<const Version>(old->keys_ptr(), std::move(part),
                                          std::move(facade), old->sequence(),
                                          old->payload()));
  return stats_collector_;
}

template class BasicMaintainedIndex<Key>;
template class BasicMaintainedIndex<Key64>;

}  // namespace cssidx
