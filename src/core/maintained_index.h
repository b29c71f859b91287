#ifndef CSSIDX_CORE_MAINTAINED_INDEX_H_
#define CSSIDX_CORE_MAINTAINED_INDEX_H_

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/any_index.h"
#include "core/index.h"
#include "core/index_spec.h"
#include "core/partitioned_index.h"
#include "workload/batch_update.h"

// Live batch maintenance behind the facade.
//
// The paper's maintenance model (§2.2, §4.1.1) is: queries run against an
// immutable read-optimized index; update batches arrive occasionally; the
// index is rebuilt rather than updated in place. MaintainedIndex wraps
// that lifecycle around *any* IndexSpec on the menu — monolithic or
// "part:K/...", 4-byte or 8-byte keys — so a live system never blocks
// readers on maintenance:
//
//   - Readers take a snapshot with one pointer copy under a micro
//     critical section (the moral equivalent of an atomic shared_ptr
//     load: libstdc++'s std::atomic<shared_ptr> spin-locks a pointer
//     slot the same way, but releases the reader's lock with a relaxed
//     RMW — formally racy, and flagged by TSan — so this class carries
//     its own mutex with orderings TSan can verify). The snapshot is an
//     immutable (keys, index) pair that stays valid, and answers the
//     full batch-probe surface, for as long as the caller holds it,
//     regardless of writer activity. Old versions die with their last
//     reader.
//   - A SINGLE writer merges each batch via workload::ApplyBatch, builds
//     the fresh version entirely off to the side, and publishes it with
//     one pointer swap, then bumps the publish epoch (release). Concurrent
//     writers must be serialized externally. Readers never wait on a
//     rebuild — only on another pointer copy.
//   - A reader that probes often caches its snapshot and checks
//     PublishEpoch() (one acquire load, on a cache line of its own)
//     before each use, re-pinning only when it moved. Between publishes
//     such a reader takes no lock and writes nothing shared: neither the
//     mutex nor the version's reference count.
//   - A version may carry a payload the writer attaches and this class
//     never reads (a string table's dictionary, whose IDs are its keys).
//     It rides the same pointer swap as the keys, so a reader can never
//     pair it with another version's keys. Refreshes, spec swaps and
//     EnableStats carry the current payload forward; the constructor and
//     RebuildWithSortedBatch, whose keys may be relabelled, take a new one.
//   - Each publish is all-or-nothing: the fresh version is built before
//     any writer state changes, so a build that throws leaves the
//     current version, the sequence, the stats and the collector as
//     they were.
//
// For partitioned specs the full-rebuild cost is avoidable: the batch
// routes through the fence table exactly like probes do, so only the
// shards whose key range the batch touches are re-merged and rebuilt
// (PartitionedIndex::RefreshWithSortedBatch); every untouched shard's keys
// and inner index carry over to the new version by shared ownership. Fences
// stay fixed across refreshes until equi-depth skew exceeds
// kRebalanceSkew, which triggers one full rebuild with fresh cuts.
//
// Memory: a version holds its keys once. A version built from one
// contiguous array (the initial load, Rebuild, RebuildWithSortedBatch, a
// spec swap) holds that array, and a partitioned one's shards alias their
// slices of it. A refreshed part:K version holds only its shard slices:
// the touched shards' fresh buffers plus the untouched shards' slices,
// shared with the version before. A loaded array therefore lives until
// its last aliasing shard is refreshed away: a maintained part:K version
// holds at most the loaded array plus one buffer per refreshed shard,
// about twice the key bytes in the worst case — what every part:K
// version held when it also carried a contiguous merged copy — and one
// loaded array plus the few shards a local batch stream touches in the
// common case. A rebalanced refresh rebuilds over one concatenated array,
// and its version holds that array like a load's. Version::keys()
// concatenates an incrementally refreshed version's shards on demand,
// once; serving paths never ask.

namespace cssidx {

/// Writer-side maintenance counters (read them from the writer thread;
/// they are not synchronized with readers). One type for every key
/// width, so width-agnostic callers (the serving layer's introspection)
/// can hold a reference without caring which instantiation produced it.
struct MaintenanceStats {
  size_t batches = 0;               // ApplyBatch calls, empty included
  size_t full_rebuilds = 0;         // whole-structure rebuilds
  size_t incremental_refreshes = 0; // part:K refreshes that reused shards
  size_t shards_rebuilt = 0;        // inner rebuilds across all batches
  size_t rebalances = 0;            // skew-triggered fence recomputations
  size_t keys_inserted = 0;         // batch insert keys across all batches
  size_t keys_deleted = 0;          // batch delete keys across all batches
  size_t spec_swaps = 0;            // RebuildWithSpec publishes
};

template <typename KeyT>
class BasicMaintainedIndex {
 public:
  /// An immutable published version: the sorted keys plus the index
  /// built over them. The keys are read through Segments(): one span over
  /// the contiguous array the version was built from, or for partitioned
  /// specs one span per shard — a refreshed part:K version holds only its
  /// shards. partitioned() exposes the composite for structural
  /// inspection (shard identity, fences).
  class Version {
   public:
    /// `keys` is the contiguous sorted array the version was built from;
    /// it may be null only for a partitioned version, whose keys are
    /// then its shards'.
    Version(std::shared_ptr<const std::vector<KeyT>> keys,
            std::shared_ptr<const BasicPartitionedIndex<KeyT>> part,
            BasicAnyIndex<KeyT> index, uint64_t sequence = 0,
            std::shared_ptr<const void> payload = nullptr);
    Version(const Version&) = delete;
    Version& operator=(const Version&) = delete;

    const BasicAnyIndex<KeyT>& index() const { return index_; }
    size_t size() const { return size_; }
    /// The sorted keys as consecutive spans: global position i is the
    /// i-th key of their concatenation. Per shard for partitioned specs
    /// (empty shards included), one span otherwise. Loops over every key
    /// iterate these, not KeyAt.
    std::span<const std::span<const KeyT>> Segments() const {
      return segments_;
    }
    /// The key at position i (< size()).
    KeyT KeyAt(size_t i) const {
      return keys_ ? (*keys_)[i] : part_->KeyAt(i);
    }
    /// Smallest and largest key; the version must not be empty.
    KeyT front() const { return KeyAt(0); }
    KeyT back() const { return KeyAt(size_ - 1); }
    /// The keys as one contiguous array: the array the version was built
    /// from, or — for an incrementally refreshed part:K version — its
    /// shards concatenated on the first call (at most once per version,
    /// safe from any number of threads; KeyArrayMaterializations() counts
    /// these). For tools and tests; serving paths read Segments().
    const std::vector<KeyT>& keys() const;
    /// First position whose key is >= k, for every spec on the menu:
    /// ordered methods descend their structure; hash, which has no
    /// ordered access, binary-searches the one segment the key routes
    /// to (by fence for part:K/hash, the whole array otherwise).
    size_t LowerBound(KeyT k) const;
    /// Non-null only for partitioned specs.
    const BasicPartitionedIndex<KeyT>* partitioned() const {
      return part_.get();
    }
    /// Publish sequence number: 1 for the initial build, +1 per published
    /// refresh/rebuild. Two snapshots with equal sequence are the same
    /// version, so a reader can report which state its results are
    /// consistent-as-of — the serving layer's versioning contract.
    uint64_t sequence() const { return sequence_; }
    /// Shared ownership of the contiguous array the version was built
    /// from — lets a spec swap rebuild onto the same keys without copying
    /// them. Null for an incrementally refreshed part:K version.
    const std::shared_ptr<const std::vector<KeyT>>& keys_ptr() const {
      return keys_;
    }
    /// The writer's payload published with this version (see the header
    /// comment); null unless the writer set one.
    const std::shared_ptr<const void>& payload() const { return payload_; }

   private:
    std::shared_ptr<const std::vector<KeyT>> keys_;
    std::shared_ptr<const BasicPartitionedIndex<KeyT>> part_;
    BasicAnyIndex<KeyT> index_;
    uint64_t sequence_ = 0;
    std::shared_ptr<const void> payload_;
    size_t size_ = 0;
    std::vector<std::span<const KeyT>> segments_;
    /// keys() of a version without keys_: the shards, concatenated once.
    mutable std::once_flag materialize_once_;
    mutable std::vector<KeyT> materialized_;
  };

  /// Nested alias for the shared counters type, kept so existing
  /// `MaintainedIndex::MaintenanceStats` spellings stay valid.
  using MaintenanceStats = cssidx::MaintenanceStats;

  /// Builds the initial version over `sorted_keys`. An off-menu spec
  /// (including one whose key width disagrees with KeyT) yields
  /// ok() == false (probing then asserts, as for a falsy AnyIndex). The
  /// index owns its key array from here on; `payload` rides version 1.
  BasicMaintainedIndex(const IndexSpec& spec, std::vector<KeyT> sorted_keys,
                       std::shared_ptr<const void> payload = nullptr);

  BasicMaintainedIndex(const BasicMaintainedIndex&) = delete;
  BasicMaintainedIndex& operator=(const BasicMaintainedIndex&) = delete;

  bool ok() const { return static_cast<bool>(Snapshot()->index()); }

  /// Readers: one pointer copy; the snapshot stays valid (and immutable)
  /// for as long as the caller holds it, regardless of writer activity.
  std::shared_ptr<const Version> Snapshot() const {
    std::lock_guard<std::mutex> lock(current_mu_);
    return current_;
  }

  /// Publish epoch: +1 after every publish (version swap), so 1 once
  /// constructed. One acquire load, no write: a reader that cached a
  /// Snapshot() taken after seeing epoch e may keep using it for as long
  /// as the epoch still reads e, and re-pins only when it has moved. A
  /// Snapshot() taken after an acquire load that returned e is at least
  /// the version whose publish made the epoch e.
  uint64_t PublishEpoch() const {
    return publish_epoch_.load(std::memory_order_acquire);
  }

  /// Writer: merge the batch and publish the refreshed version —
  /// shard-incrementally for partitioned specs, full rebuild otherwise.
  /// An empty batch publishes nothing. Callers must serialize writers
  /// externally (single-writer model).
  void ApplyBatch(const workload::BasicUpdateBatch<KeyT>& batch);

  /// ApplyBatch for writers that already hold SORTED insert/delete lists
  /// (a precondition, asserted in debug): same semantics, skips the
  /// defensive copy + sort — the engine's append path stages its inserts
  /// in sorted order anyway.
  void ApplySortedBatch(std::vector<KeyT> sorted_inserts,
                        std::vector<KeyT> sorted_deletes);

  /// Writer: replace the dataset outright (bulk reload — the paper's
  /// §2.2 batch lifecycle with a batch of "everything"). Publishes one
  /// fresh version (sequence +1) even when the keys are unchanged.
  void Rebuild(std::vector<KeyT> sorted_keys);

  /// Writer: replace the dataset with `sorted_base` and apply one sorted
  /// batch on top, as one full rebuild and one publish carrying
  /// `payload`. For writers whose batch invalidates the current keys
  /// themselves — a growing string dictionary renumbers every ID, so the
  /// base is the current keys relabelled and the payload the grown
  /// dictionary. Counted (stats, probe-stats update rate) exactly like
  /// an ApplySortedBatch of the same lists.
  void RebuildWithSortedBatch(std::vector<KeyT> sorted_base,
                              std::vector<KeyT> sorted_inserts,
                              std::vector<KeyT> sorted_deletes,
                              std::shared_ptr<const void> payload);

  /// Writer: hot-swap the index onto a different spec — the advisor's
  /// apply path. Rebuilds the CURRENT keys (shared, no copy) under
  /// `new_spec` (key width forced to KeyT's) and publishes one fresh
  /// version; readers keep probing the old version until the single
  /// pointer swap, exactly like a data batch. Returns false (publishing
  /// nothing) if the spec is off-menu or fails to build.
  bool RebuildWithSpec(const IndexSpec& new_spec);

  /// Turns on workload observation: every version published from here on
  /// (and the current one, republished in place with an unchanged
  /// sequence) carries the collector on its facade, so probes against
  /// serve-layer snapshots are recorded too. Single-writer context, like
  /// the other maintenance entry points. Idempotent.
  std::shared_ptr<ProbeStatsCollector> EnableStats();
  /// The collector, or nullptr when stats were never enabled.
  const std::shared_ptr<ProbeStatsCollector>& stats_collector() const {
    return stats_collector_;
  }

  // The full batch-probe surface, each call against one fresh snapshot
  // (one atomic load per batch — amortized to nothing by the batch-first
  // contract). Callers needing several ops against ONE coherent version
  // hold a Snapshot() instead. The two-argument forms follow the spec's
  // "@tN" probe-thread policy, as on AnyIndex.
  void FindBatch(std::span<const KeyT> keys, std::span<int64_t> out) const {
    Snapshot()->index().FindBatch(keys, out);
  }
  void LowerBoundBatch(std::span<const KeyT> keys,
                       std::span<size_t> out) const {
    Snapshot()->index().LowerBoundBatch(keys, out);
  }
  void EqualRangeBatch(std::span<const KeyT> keys,
                       std::span<PositionRange> out) const {
    Snapshot()->index().EqualRangeBatch(keys, out);
  }
  void CountEqualBatch(std::span<const KeyT> keys,
                       std::span<size_t> out) const {
    Snapshot()->index().CountEqualBatch(keys, out);
  }
  void FindBatch(std::span<const KeyT> keys, std::span<int64_t> out,
                 const ProbeOptions& opts) const {
    Snapshot()->index().FindBatch(keys, out, opts);
  }
  void LowerBoundBatch(std::span<const KeyT> keys, std::span<size_t> out,
                       const ProbeOptions& opts) const {
    Snapshot()->index().LowerBoundBatch(keys, out, opts);
  }
  void EqualRangeBatch(std::span<const KeyT> keys,
                       std::span<PositionRange> out,
                       const ProbeOptions& opts) const {
    Snapshot()->index().EqualRangeBatch(keys, out, opts);
  }
  void CountEqualBatch(std::span<const KeyT> keys, std::span<size_t> out,
                       const ProbeOptions& opts) const {
    Snapshot()->index().CountEqualBatch(keys, out, opts);
  }

  /// Scalar probes: batches of one against the current version.
  int64_t Find(KeyT k) const { return Snapshot()->index().Find(k); }
  size_t LowerBound(KeyT k) const {
    return Snapshot()->index().LowerBound(k);
  }
  PositionRange EqualRange(KeyT k) const {
    return Snapshot()->index().EqualRange(k);
  }
  size_t CountEqual(KeyT k) const {
    return Snapshot()->index().CountEqual(k);
  }

  size_t size() const { return Snapshot()->size(); }
  bool SupportsOrderedAccess() const {
    return Snapshot()->index().SupportsOrderedAccess();
  }
  const IndexSpec& spec() const { return spec_; }
  const MaintenanceStats& stats() const { return stats_; }
  /// Sequence of the current version (one atomic snapshot load).
  uint64_t sequence() const { return Snapshot()->sequence(); }

 private:
  /// Non-static: stamps stats_collector_ onto the fresh version's facade.
  std::shared_ptr<const Version> MakeVersion(
      const IndexSpec& spec, std::shared_ptr<const std::vector<KeyT>> keys,
      uint64_t sequence, std::shared_ptr<const void> payload) const;

  /// Commits a batch whose version `fresh` (at sequence_ + 1) is built:
  /// counts it against [min_key, max_key] (the key range of the array it
  /// applied to; equal bounds when that array held fewer than two
  /// distinct keys) in stats_ and the probe-stats collector, then
  /// publishes. Throws nothing.
  void CommitBatch(KeyT min_key, KeyT max_key,
                   const std::vector<KeyT>& sorted_inserts,
                   const std::vector<KeyT>& sorted_deletes,
                   std::shared_ptr<const Version> fresh);

  /// Swaps `fresh` in as the current version (sequence_ follows it). The
  /// epoch moves under the same lock, so a thread whose Snapshot() saw
  /// `fresh` also sees the epoch it made: a Session cannot keep serving
  /// its older cached pin once the new version is visible.
  void Publish(std::shared_ptr<const Version> fresh) {
    sequence_ = fresh->sequence();
    std::lock_guard<std::mutex> lock(current_mu_);
    current_ = std::move(fresh);
    publish_epoch_.fetch_add(1, std::memory_order_release);
  }

  IndexSpec spec_;
  MaintenanceStats stats_;
  std::shared_ptr<ProbeStatsCollector> stats_collector_;
  /// The current version's sequence; a build for the next publish uses
  /// sequence_ + 1, and only Publish advances it. Writer-side state, like
  /// stats_: only the single writer (and the constructor) touch it.
  uint64_t sequence_ = 0;
  /// Guards only the current_ pointer itself (held for one copy/swap,
  /// never across a rebuild); Version contents are immutable.
  mutable std::mutex current_mu_;
  std::shared_ptr<const Version> current_;
  /// Bumped after every pointer swap; on its own cache line, so readers
  /// polling it share the line with nothing the writer or a re-pin writes.
  alignas(64) std::atomic<uint64_t> publish_epoch_{0};
};

/// Process-wide count of Version::keys() calls that concatenated a
/// version's shards (every key width). Serving and engine paths read
/// Segments(), so they never move it.
uint64_t KeyArrayMaterializations();

using MaintainedIndex = BasicMaintainedIndex<Key>;
using MaintainedIndex64 = BasicMaintainedIndex<Key64>;

}  // namespace cssidx

#endif  // CSSIDX_CORE_MAINTAINED_INDEX_H_
