#ifndef CSSIDX_CORE_PARTITIONED_INDEX_H_
#define CSSIDX_CORE_PARTITIONED_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/any_index.h"
#include "core/css_tree.h"
#include "core/index.h"
#include "core/index_spec.h"

// Range-partitioned composite index: the sorted key array is split into K
// contiguous key-range shards (equi-depth fences drawn from the sorted
// data, snapped to duplicate-run starts so no run ever straddles a
// boundary), and each shard holds an independent inner index of any spec
// on the menu. A shard is just a smaller instance of the paper's layout —
// rebuild-cheap and read-fast — which is what makes this the structural
// prerequisite for NUMA placement: shard s's keys, directory, and probes
// can all live on one node, with only the fence table shared.
//
// A batch over CSS shards (css or lcss inner, either key width) is one
// level-synchronous CSS descent whose first level is the fence table:
// each probe is routed once, by a branch-free count of the fences at or
// below it, and joins a group of kGroupProbes probes that descends the
// shards' directories in lockstep (BasicCssTree::LowerBoundLanes over
// one CssTreeView per shard, built with the version). Results come back
// as global positions (shard base + shard-local position); a Find is
// hit-tested against the shard's own keys. Other inner methods
// route through Route: the probes are bucketed per shard (a counting
// sort that remembers each probe's input slot), the inner kernels run
// shard-local, and results scatter back to input order as global
// positions. The facade contract is preserved exactly: a
// "part:K/css:16" index answers every probe with the same positions as a
// bare "css:16" over the whole array — enforced differentially by
// tests/partitioned_index_test.cc.
//
// Parallelism: ProbeOptions{threads} / the "@tN" spec suffix splits a
// batch over CSS shards into contiguous probe spans (ParallelProbe), each
// one lockstep descent, exactly as a bare tree's batch is split. Route
// instead dispatches whole shards to the ThreadPool (one task range over
// shard indexes): its shard tasks scatter to disjoint output slots. Either
// way there is no merge step and output is bit-identical at every thread
// count.
//
// Maintenance: the fence structure is also what makes the paper's
// rebuild-on-batch model cheap. An update batch routes through the same
// fence table as probes, so only the shards whose key range the batch
// touches need re-merging and rebuilding. Each shard reads its keys
// through a slice (an owner, a pointer and a length): a BuildOwned index
// holds the caller's sorted array and every shard aliases its part of
// it, and RefreshWithSortedBatch gives each touched shard a fresh buffer
// of its own while every untouched shard — slice and inner index — is
// shared with the refreshed successor. No version keeps a second,
// contiguous copy of its keys (see core/maintained_index.h for the
// snapshot lifecycle around this).

namespace cssidx {

/// Refresh keeps the fence table as-is until the largest shard exceeds
/// this multiple of the equi-depth target (n / K); then the whole
/// structure is rebuilt with fresh equi-depth fences. Keeping fences
/// stable is what lets a refresh reuse untouched shards; the gate bounds
/// how far a drifting workload can skew probe routing before paying one
/// full rebuild to restore balance.
inline constexpr size_t kRebalanceSkew = 4;

template <typename KeyT>
class BasicPartitionedIndex final : public BasicAnyIndex<KeyT>::Impl {
 public:
  /// Builds K equi-depth shards over keys[0..n) (sorted, must outlive the
  /// index), each holding an inner index built from spec.Inner(). Prefer
  /// BuildPartitionedIndex, which validates the spec and reports
  /// unbuildable configurations as a falsy AnyIndex.
  BasicPartitionedIndex(const IndexSpec& spec, const KeyT* keys, size_t n);

  /// Maintained-path factory: same structure as the non-owning
  /// constructor over keys->data(), but the index holds `keys`: every
  /// shard aliases its slice of the array, which is never copied and
  /// lives until the last shard aliasing it is refreshed away. Untouched
  /// shards — slice and inner index both — then pass to each
  /// RefreshWithSortedBatch successor by shared ownership.
  static std::shared_ptr<const BasicPartitionedIndex> BuildOwned(
      const IndexSpec& spec, std::shared_ptr<const std::vector<KeyT>> keys);

  /// One shard-incremental maintenance step (the paper's batch model on
  /// the fence structure), valid only for BuildOwned /
  /// RefreshWithSortedBatch products. The batch routes through the fence
  /// table exactly like probes do; only the shards whose key range the
  /// batch touches are re-merged (workload::ApplySortedBatch, shard-local)
  /// into fresh buffers and rebuilt, and every untouched shard is shared
  /// with the returned successor. Fences are kept as-is unless the
  /// refresh leaves the largest shard more than kRebalanceSkew times the
  /// equi-depth target, in which case the shards are concatenated once
  /// and the whole structure is rebuilt over that array (BuildOwned)
  /// with fresh equi-depth fences.
  struct Refreshed {
    std::shared_ptr<const BasicPartitionedIndex> index;
    size_t shards_rebuilt = 0;
    bool rebalanced = false;
    /// Rebalanced only: the concatenated array every shard aliases, so a
    /// version can hand it out without concatenating the shards again.
    std::shared_ptr<const std::vector<KeyT>> keys;
  };
  /// `inserts` and `deletes` must be SORTED (a precondition, not
  /// checked): the refresh neither copies nor re-sorts them.
  Refreshed RefreshWithSortedBatch(std::span<const KeyT> inserts,
                                   std::span<const KeyT> deletes) const;

  /// False if any inner shard failed to build (off-menu inner spec).
  bool ok() const;

  void LowerBoundBatch(std::span<const KeyT> keys,
                       std::span<size_t> out) const override;
  void FindBatch(std::span<const KeyT> keys,
                 std::span<int64_t> out) const override;
  void EqualRangeBatch(std::span<const KeyT> keys,
                       std::span<PositionRange> out) const override;
  void CountEqualBatch(std::span<const KeyT> keys,
                       std::span<size_t> out) const override;

  void LowerBoundBatch(std::span<const KeyT> keys, std::span<size_t> out,
                       const ProbeOptions& opts) const override;
  void FindBatch(std::span<const KeyT> keys, std::span<int64_t> out,
                 const ProbeOptions& opts) const override;
  void EqualRangeBatch(std::span<const KeyT> keys,
                       std::span<PositionRange> out,
                       const ProbeOptions& opts) const override;
  void CountEqualBatch(std::span<const KeyT> keys, std::span<size_t> out,
                       const ProbeOptions& opts) const override;

  /// The shard directories and routing tables, plus — when the index
  /// holds its keys (owns_shard_keys()) — each shard's slice length in
  /// key bytes. A shard aliasing a loaded array counts its own slice,
  /// never the whole array.
  size_t SpaceBytes() const override;
  size_t size() const override { return n_; }
  bool SupportsOrderedAccess() const override { return ordered_; }

  /// Introspection for tests and placement tooling.
  size_t num_shards() const { return shards_.size(); }
  /// Shard s covers global positions [ShardBase(s), ShardBase(s + 1)).
  size_t ShardBase(size_t s) const { return bases_[s]; }
  /// The shard whose key range contains `key`.
  size_t ShardOf(KeyT key) const;
  /// Shard s's inner index (compare AnyIndex::impl() identities across a
  /// refresh to see which shards were reused vs rebuilt).
  const BasicAnyIndex<KeyT>& shard(size_t s) const { return shards_[s]; }
  /// The fence values, in key width. Truncated representation: fence s
  /// (the lowest key of shard s + 1) is stored only while shard s + 1
  /// starts before the end of the array, so trailing empty shards —
  /// always a suffix, since shard bases are nondecreasing — simply have
  /// no fence entry and can never win the upper_bound routing, at ANY key
  /// width. (The old single-width scheme fenced them at 2^32, a sentinel
  /// no uint32 probe could reach but every 64-bit key above 2^32 could.)
  std::span<const KeyT> fences() const { return fences_; }
  /// Shard s's keys: global positions [ShardBase(s), ShardBase(s + 1)).
  std::span<const KeyT> shard_keys(size_t s) const { return slices_[s].keys(); }
  /// The key at global position i (< size()): one search of the shard
  /// bases, then a load from that shard's slice.
  KeyT KeyAt(size_t i) const;
  /// Every shard's keys, concatenated into one sorted array.
  std::vector<KeyT> ConcatenatedKeys() const;
  /// True for BuildOwned/RefreshWithSortedBatch products (the refreshable
  /// kind).
  bool owns_shard_keys() const { return slices_.front().owner != nullptr; }

 private:
  using View = CssTreeView<KeyT>;
  /// A lockstep batch over the CSS shards, writing lower bounds
  /// (Out = size_t) or finds (Out = int64_t).
  template <typename Out>
  using LockstepFn = void (*)(const BasicPartitionedIndex&,
                              std::span<const KeyT>, std::span<Out>);

  /// A shard's keys: `len` keys at `data`, kept alive by `owner` — the
  /// loaded array a shard aliases, or the buffer a refresh merged for it.
  /// The owner is null when the index does not hold its keys (the
  /// non-owning constructor).
  struct Slice {
    std::shared_ptr<const void> owner;
    const KeyT* data = nullptr;
    size_t len = 0;
    std::span<const KeyT> keys() const { return {data, len}; }
  };

  /// The keys of `slices` (n in total), one after the other.
  static std::vector<KeyT> Concatenate(std::span<const Slice> slices,
                                       size_t n);
  /// Uninitialized shell for the factory/refresh paths.
  BasicPartitionedIndex() = default;
  /// The one setup sequence behind both build modes: equi-depth cuts plus
  /// per-shard inner builds over keys[0..n), every shard's slice aliasing
  /// it under `owner` (null for the non-owning constructor).
  void Init(const IndexSpec& spec, const KeyT* keys, size_t n,
            const std::shared_ptr<const void>& owner);
  /// The router for inners without a lockstep path: bucket `keys` per
  /// shard, run `probe(s, in, out)` shard-local, scatter `map(s, result)`
  /// back to input order. Dispatches whole shards to the pool per `opts`.
  template <typename Out, typename ProbeFn, typename MapFn>
  void Route(std::span<const KeyT> keys, std::span<Out> out,
             const ProbeOptions& opts, ProbeFn&& probe, MapFn&& map) const;
  /// Builds one shard's inner index over keys[0..n). A CSS inner is built
  /// through VisitIndex, so its tree view goes to `*view` and the
  /// lockstep kernels for its node size are picked here, once per
  /// version, never per batch.
  BasicAnyIndex<KeyT> BuildShard(const IndexSpec& inner, const KeyT* keys,
                                 size_t n, View* view);
  /// True when batches take the lockstep path (CSS shards), at every
  /// thread count; every other inner goes through Route.
  bool Lockstep() const { return lockstep_find_ != nullptr; }
  template <typename Tree, typename Out>
  static void LockstepBatch(const BasicPartitionedIndex& index,
                            std::span<const KeyT> keys, std::span<Out> out);

  size_t n_ = 0;
  bool ordered_ = true;
  IndexSpec spec_{};
  /// At most K - 1 entries; see fences().
  std::vector<KeyT> fences_;
  std::vector<size_t> bases_;  // K + 1 entries, bases_[K] == n
  std::vector<BasicAnyIndex<KeyT>> shards_;  // K entries, maybe empty
  /// K entries: shard s's inner index points into slices_[s], so a
  /// refresh passes both to the successor, and a buffer or loaded array
  /// dies with the last slice that aliases it.
  std::vector<Slice> slices_;
  /// CSS inners only (empty otherwise): shard s's tree view, based at
  /// bases_[s]. It points into shards_[s]'s directory and shard s's keys,
  /// which this version holds, so it lives exactly as long as they do.
  std::vector<View> views_;
  LockstepFn<size_t> lockstep_lower_bound_ = nullptr;
  LockstepFn<int64_t> lockstep_find_ = nullptr;
};

using PartitionedIndex = BasicPartitionedIndex<Key>;
using PartitionedIndex64 = BasicPartitionedIndex<Key64>;

/// Wraps a partitioned spec ("part:K/<inner>") into the facade. Returns a
/// falsy handle when the spec is off the menu or not partitioned.
template <typename KeyT>
BasicAnyIndex<KeyT> BuildPartitionedIndexT(const IndexSpec& spec,
                                           const KeyT* keys, size_t n);

AnyIndex BuildPartitionedIndex(const IndexSpec& spec, const Key* keys,
                               size_t n);

}  // namespace cssidx

#endif  // CSSIDX_CORE_PARTITIONED_INDEX_H_
