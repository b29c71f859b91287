#ifndef CSSIDX_CORE_ANY_INDEX_H_
#define CSSIDX_CORE_ANY_INDEX_H_

#include <algorithm>
#include <cassert>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>

#include "core/index.h"
#include "core/index_spec.h"
#include "core/probe_stats.h"
#include "util/thread_pool.h"

// AnyIndex: value-semantics type erasure over the index templates, for all
// code that selects a method at run time (the engine, the examples, space
// sweeps, the index advisor).
//
// The contract is batch-first. The paper's whole argument is that lookup
// cost is dominated by cache misses; a virtual call per probe both taxes
// the hot path and makes miss-amortizing techniques impossible to express.
// So the virtual boundary is the batch probes — FindBatch/LowerBoundBatch
// for point lookups, EqualRangeBatch/CountEqualBatch for duplicate runs
// (§3.6) — one call per batch of probes, which (a) amortizes dispatch to
// nothing and (b) lets each structure overlap the misses of neighboring
// probes with group probing and software prefetch (see the batch kernels
// in css_tree.h, bplus_tree.h, chained_hash.h). Scalar Find/LowerBound/
// EqualRange/CountEqual are convenience wrappers over a batch of one.
// Timing benches that need the structure without the virtual hop get the
// concrete template from the same spec through VisitIndex (visit_index.h).
//
// One probe funnel. A structure supplies LowerBound and Find kernels (the
// hash, which has no lower bound, an EqualRange kernel instead). The
// adapters below are the only code that derives one probe verb from
// another: EqualRange is two LowerBounds, CountEqual the size of an
// EqualRange. This facade is the only code that reads ProbeOptions: its
// explicit-policy methods are the one place a batch is split across
// threads, each span one call of the plain batch virtual.
//
// Beneath every batch kernel, the intra-node search itself is
// SIMD-dispatched (simd_node_search.h: SSE2/AVX2 compare+count with the
// scalar unrolled search of §6.2 as fallback). That layer is invisible
// here by design: the count-of-keys-less-than-k formulation makes every
// dispatch path return the identical leftmost position, so nothing in
// this contract — nor in any result a caller can observe — depends on
// which path executed.

namespace cssidx {

/// Probe spans below this size never shard across threads: a dispatch
/// costs a few microseconds of wakeup/claim synchronization, which needs
/// thousands of ~100ns probes per shard to amortize — and a shard much
/// smaller than this can't amortize its own group-probing misses either.
inline constexpr size_t kParallelProbeMinShard = 4096;

/// Execution policy for one batched probe call. The structure probed is
/// immutable and shared; parallelism is purely a property of the call, so
/// it rides on the call, not the index. threads == 1 (the default) is the
/// exact pre-pool inline path; 0 means one executor per hardware thread.
/// Each shard is a contiguous probe sub-span whose results land in place —
/// no post-merge — so output is bit-identical for every thread count.
struct ProbeOptions {
  int threads = 1;
  /// Pool to shard on; nullptr = ThreadPool::Shared(). Benches and tests
  /// pass their own pool to get real threads even when the machine is
  /// narrower than the requested width.
  ThreadPool* pool = nullptr;
};

/// Shards body(begin, end) over [0, n) according to `opts`, in spans of at
/// least kParallelProbeMinShard probes. The inline fast path (threads == 1
/// or a span of at most kParallelProbeMinShard) never touches the pool —
/// scalar probes stay free of std::function and lock traffic.
template <typename Fn>
void ParallelProbe(const ProbeOptions& opts, size_t n, Fn&& body) {
  if (opts.threads == 1 || n <= kParallelProbeMinShard) {
    body(size_t{0}, n);
    return;
  }
  ThreadPool& pool = opts.pool != nullptr ? *opts.pool : ThreadPool::Shared();
  pool.ParallelFor(n, kParallelProbeMinShard, opts.threads, body);
}

/// An index type that provides its own group-probing LowerBound kernel.
template <typename T, typename KeyT = Key>
concept HasLowerBoundBatch =
    requires(const T& t, std::span<const KeyT> in, std::span<size_t> out) {
      t.LowerBoundBatch(in, out);
    };

/// An index type that provides its own group-probing Find kernel.
template <typename T, typename KeyT = Key>
concept HasFindBatch =
    requires(const T& t, std::span<const KeyT> in, std::span<int64_t> out) {
      t.FindBatch(in, out);
    };

/// Runtime facade over any index in the suite. Copyable and cheap to pass
/// by value (the underlying structure is shared, immutable, and built once
/// — the OLAP rebuild-on-batch lifecycle replaces whole objects).
/// Templated on the key type — the spec's key-width dimension selects
/// BasicAnyIndex<Key> (4-byte, the default everywhere) or
/// BasicAnyIndex<Key64> ("css64" and friends). The two facades are
/// distinct types on purpose: key width changes what gets built, so it is
/// pinned at build time like the method itself.
template <typename KeyT>
class BasicAnyIndex {
 public:
  /// The virtual boundary. Implementations are batch-oriented; everything
  /// scalar is derived.
  class Impl {
   public:
    virtual ~Impl() = default;
    /// out[i] = first position >= keys[i] (size() for unordered methods).
    /// "First" is load-bearing: duplicate routing (§4.1.2) directs an
    /// equal key to the LEFTMOST matching position, so a duplicate run can
    /// be enumerated from its lower bound.
    virtual void LowerBoundBatch(std::span<const KeyT> keys,
                                 std::span<size_t> out) const = 0;
    /// out[i] = leftmost position of keys[i] or kNotFound. Results are
    /// independent of batch boundaries and thread policy: probing one key
    /// in a batch of 4096 equals probing it alone.
    virtual void FindBatch(std::span<const KeyT> keys,
                           std::span<int64_t> out) const = 0;
    /// out[i] = the half-open positional span of keys[i]'s duplicate run
    /// (§3.6): {leftmost match, leftmost match + count}. Absent keys yield
    /// an empty span anchored at the insertion point (ordered methods) or
    /// at size() (hash).
    virtual void EqualRangeBatch(std::span<const KeyT> keys,
                                 std::span<PositionRange> out) const = 0;
    /// out[i] = number of occurrences of keys[i] (§3.6).
    virtual void CountEqualBatch(std::span<const KeyT> keys,
                                 std::span<size_t> out) const = 0;

    /// Extra bytes beyond the sorted array.
    virtual size_t SpaceBytes() const = 0;
    virtual size_t size() const = 0;
    /// False for hash (Figure 7's "RID-Ordered Access" column).
    virtual bool SupportsOrderedAccess() const = 0;
  };

  /// Empty handle; falsy. BuildIndex returns this for off-menu specs.
  BasicAnyIndex() = default;
  BasicAnyIndex(IndexSpec spec, std::shared_ptr<const Impl> impl)
      : spec_(spec), name_(spec.DisplayName()), impl_(std::move(impl)) {}

  explicit operator bool() const { return impl_ != nullptr; }

  // Probing an empty handle is a caller bug (check the handle after
  // BuildIndex); assert so it fails loudly rather than as a null deref.
  //
  // The two-argument forms use the spec's probe-thread policy (the "@tN"
  // suffix, default 1 = inline), so a spec like "css:16@t8" parallelizes
  // every large batch probed through the facade with no caller changes.
  void FindBatch(std::span<const KeyT> keys, std::span<int64_t> out) const {
    FindBatch(keys, out, ProbeOptions{.threads = spec_.probe_threads()});
  }
  void LowerBoundBatch(std::span<const KeyT> keys,
                       std::span<size_t> out) const {
    LowerBoundBatch(keys, out, ProbeOptions{.threads = spec_.probe_threads()});
  }
  void EqualRangeBatch(std::span<const KeyT> keys,
                       std::span<PositionRange> out) const {
    EqualRangeBatch(keys, out, ProbeOptions{.threads = spec_.probe_threads()});
  }
  void CountEqualBatch(std::span<const KeyT> keys,
                       std::span<size_t> out) const {
    CountEqualBatch(keys, out, ProbeOptions{.threads = spec_.probe_threads()});
  }

  /// Explicit-policy probes: the one place a batch is split across
  /// threads. ParallelProbe cuts `keys` into contiguous spans, and each
  /// span is one call of the structure's plain batch kernel, whose results
  /// land in place in `out`. Stats are recorded once per batch.
  void FindBatch(std::span<const KeyT> keys, std::span<int64_t> out,
                 const ProbeOptions& opts) const {
    Split(opts, keys, out, &Impl::FindBatch);
    if (stats_) {
      size_t missed = 0;
      for (size_t i = 0; i < keys.size(); ++i) missed += out[i] == kNotFound;
      stats_->RecordFind(keys.size(), missed);
    }
  }
  void LowerBoundBatch(std::span<const KeyT> keys, std::span<size_t> out,
                       const ProbeOptions& opts) const {
    Split(opts, keys, out, &Impl::LowerBoundBatch);
    if (stats_) stats_->RecordLowerBound(keys.size());
  }
  void EqualRangeBatch(std::span<const KeyT> keys, std::span<PositionRange> out,
                       const ProbeOptions& opts) const {
    Split(opts, keys, out, &Impl::EqualRangeBatch);
    if (stats_) {
      size_t missed = 0;
      for (size_t i = 0; i < keys.size(); ++i) {
        missed += out[i].begin == out[i].end;
      }
      stats_->RecordRange(keys.size(), missed);
    }
  }
  void CountEqualBatch(std::span<const KeyT> keys, std::span<size_t> out,
                       const ProbeOptions& opts) const {
    Split(opts, keys, out, &Impl::CountEqualBatch);
    if (stats_) {
      size_t missed = 0;
      for (size_t i = 0; i < keys.size(); ++i) missed += out[i] == 0;
      stats_->RecordRange(keys.size(), missed);
    }
  }

  /// Scalar probes: batches of one.
  int64_t Find(KeyT k) const {
    int64_t out;
    FindBatch({&k, 1}, {&out, 1});
    return out;
  }
  size_t LowerBound(KeyT k) const {
    size_t out;
    LowerBoundBatch({&k, 1}, {&out, 1});
    return out;
  }
  PositionRange EqualRange(KeyT k) const {
    PositionRange out;
    EqualRangeBatch({&k, 1}, {&out, 1});
    return out;
  }
  size_t CountEqual(KeyT k) const {
    size_t out;
    CountEqualBatch({&k, 1}, {&out, 1});
    return out;
  }
  size_t SpaceBytes() const {
    assert(impl_ != nullptr);
    return impl_->SpaceBytes();
  }
  size_t size() const {
    assert(impl_ != nullptr);
    return impl_->size();
  }
  bool SupportsOrderedAccess() const {
    assert(impl_ != nullptr);
    return impl_->SupportsOrderedAccess();
  }
  const std::string& Name() const { return name_; }
  const IndexSpec& spec() const { return spec_; }
  /// Identity of the shared structure, for structural inspection (e.g.
  /// asserting that a maintenance refresh reused rather than rebuilt a
  /// shard). Never probe through this — the batch methods above are the
  /// contract.
  const Impl* impl() const { return impl_.get(); }

  /// Opt-in workload observation. Every copy of this facade (including the
  /// immutable snapshots MaintainedIndex publishes) shares the collector,
  /// so stats keep accumulating across version swaps and spec changes.
  /// Detach by attaching nullptr. Not synchronized with concurrent probes
  /// through *this same facade value* — attach before sharing, as
  /// MaintainedIndex does at version-build time.
  void AttachStats(std::shared_ptr<ProbeStatsCollector> stats) {
    stats_ = std::move(stats);
  }
  const std::shared_ptr<ProbeStatsCollector>& stats() const { return stats_; }

 private:
  /// Runs the plain batch kernel `verb` over `keys`, one call per span
  /// ParallelProbe cuts under `opts`.
  template <typename Out>
  void Split(const ProbeOptions& opts, std::span<const KeyT> keys,
             std::span<Out> out,
             void (Impl::*verb)(std::span<const KeyT>, std::span<Out>)
                 const) const {
    assert(impl_ != nullptr);
    ParallelProbe(opts, keys.size(), [&](size_t begin, size_t end) {
      (impl_.get()->*verb)(keys.subspan(begin, end - begin),
                           out.subspan(begin, end - begin));
    });
  }

  IndexSpec spec_{};
  std::string name_;
  std::shared_ptr<const Impl> impl_;
  std::shared_ptr<ProbeStatsCollector> stats_;
};

/// The 4-byte-key facade every existing caller names, and its 8-byte twin.
using AnyIndex = BasicAnyIndex<Key>;
using AnyIndex64 = BasicAnyIndex<Key64>;

/// Adapter for OrderedIndex templates. Uses the structure's own batch
/// kernels when it has them; otherwise falls back to a plain probe loop
/// (group probing without prefetch — dispatch still amortized). The range
/// probes are derived here, once, for every ordered method: both ends of
/// a duplicate run (§3.6) are LowerBounds through this adapter's batch
/// kernel, and a count is the run's size.
template <typename IndexT, typename KeyT = Key>
class OrderedBatchImpl final : public BasicAnyIndex<KeyT>::Impl {
 public:
  explicit OrderedBatchImpl(IndexT index) : index_(std::move(index)) {}

  void LowerBoundBatch(std::span<const KeyT> keys,
                       std::span<size_t> out) const override {
    if constexpr (HasLowerBoundBatch<IndexT, KeyT>) {
      index_.LowerBoundBatch(keys, out);
    } else {
      for (size_t i = 0; i < keys.size(); ++i) {
        out[i] = index_.LowerBound(keys[i]);
      }
    }
  }

  void FindBatch(std::span<const KeyT> keys,
                 std::span<int64_t> out) const override {
    if constexpr (HasFindBatch<IndexT, KeyT>) {
      index_.FindBatch(keys, out);
    } else {
      for (size_t i = 0; i < keys.size(); ++i) {
        out[i] = index_.Find(keys[i]);
      }
    }
  }

  void EqualRangeBatch(std::span<const KeyT> keys,
                       std::span<PositionRange> out) const override {
    EqualRangeBatchViaLowerBound(*this, index_.size(), keys, out);
  }

  void CountEqualBatch(std::span<const KeyT> keys,
                       std::span<size_t> out) const override {
    CountEqualBatchViaEqualRange(*this, keys, out);
  }

  size_t SpaceBytes() const override { return index_.SpaceBytes(); }
  size_t size() const override { return index_.size(); }
  bool SupportsOrderedAccess() const override { return true; }

  /// The wrapped structure, for a builder that keeps a view of it.
  const IndexT& index() const { return index_; }

 private:
  IndexT index_;
};

/// Adapter for hash indexes (no ordered access): LowerBound degenerates to
/// size(), Find still returns the leftmost array position — and so do the
/// range probes: the hash stores array positions, duplicates are adjacent
/// in the sorted array, so {leftmost, leftmost + count} is a real span.
/// Absent keys anchor their empty span at size() (no insertion point
/// without ordered access). The hash's own EqualRange kernel scans each
/// chain once; a count is that run's size.
template <typename HashT, typename KeyT = Key>
class UnorderedBatchImpl final : public BasicAnyIndex<KeyT>::Impl {
 public:
  explicit UnorderedBatchImpl(HashT index) : index_(std::move(index)) {}

  void LowerBoundBatch(std::span<const KeyT> keys,
                       std::span<size_t> out) const override {
    for (size_t i = 0; i < keys.size(); ++i) out[i] = index_.size();
  }

  void FindBatch(std::span<const KeyT> keys,
                 std::span<int64_t> out) const override {
    index_.FindBatch(keys, out);
  }

  void EqualRangeBatch(std::span<const KeyT> keys,
                       std::span<PositionRange> out) const override {
    index_.EqualRangeBatch(keys, out);
  }

  void CountEqualBatch(std::span<const KeyT> keys,
                       std::span<size_t> out) const override {
    CountEqualBatchViaEqualRange(index_, keys, out);
  }

  size_t SpaceBytes() const override { return index_.SpaceBytes(); }
  size_t size() const override { return index_.size(); }
  bool SupportsOrderedAccess() const override { return false; }

 private:
  HashT index_;
};

/// Probes `keys` through FindBatch in blocks of at most `batch` probes,
/// writing every result into `out` — the shared front-end loop for callers
/// that stream a large probe set at a fixed batch size (joins, benches,
/// the advisor). Works for AnyIndex and for any template with a span-based
/// FindBatch. KeyT is non-deduced (defaults to Key): 8-byte callers write
/// FindBlocked<Key64>(index64, ...).
template <typename KeyT = Key, typename IndexT>
void FindBlocked(const IndexT& index,
                 std::type_identity_t<std::span<const KeyT>> keys,
                 size_t batch, std::span<int64_t> out) {
  batch = std::max<size_t>(batch, 1);  // batch == 0 must not loop forever
  for (size_t i = 0; i < keys.size(); i += batch) {
    size_t len = std::min(keys.size() - i, batch);
    index.FindBatch(keys.subspan(i, len), out.subspan(i, len));
  }
}

/// As above with an explicit execution policy per block — the front-end
/// for callers sweeping thread counts at a fixed block size.
template <typename KeyT = Key, typename IndexT>
void FindBlocked(const IndexT& index,
                 std::type_identity_t<std::span<const KeyT>> keys,
                 size_t batch, std::span<int64_t> out,
                 const ProbeOptions& opts) {
  batch = std::max<size_t>(batch, 1);
  for (size_t i = 0; i < keys.size(); i += batch) {
    size_t len = std::min(keys.size() - i, batch);
    index.FindBatch(keys.subspan(i, len), out.subspan(i, len), opts);
  }
}

/// Blocked front-end for range probes: EqualRangeBatch in blocks of at
/// most `batch` probes (the range twin of FindBlocked).
template <typename KeyT = Key, typename IndexT>
void EqualRangeBlocked(const IndexT& index,
                       std::type_identity_t<std::span<const KeyT>> keys,
                       size_t batch, std::span<PositionRange> out) {
  batch = std::max<size_t>(batch, 1);
  for (size_t i = 0; i < keys.size(); i += batch) {
    size_t len = std::min(keys.size() - i, batch);
    index.EqualRangeBatch(keys.subspan(i, len), out.subspan(i, len));
  }
}

/// Wraps a concrete ordered index template instance into the facade.
/// Pass KeyT explicitly for the 8-byte facade:
/// MakeOrderedAnyIndexFor<Key64>(spec, FullCssTree64<16>(...)).
template <typename KeyT, typename IndexT>
BasicAnyIndex<KeyT> MakeOrderedAnyIndexFor(IndexSpec spec, IndexT index) {
  return BasicAnyIndex<KeyT>(
      spec,
      std::make_shared<OrderedBatchImpl<IndexT, KeyT>>(std::move(index)));
}

template <typename IndexT>
AnyIndex MakeOrderedAnyIndex(IndexSpec spec, IndexT index) {
  return MakeOrderedAnyIndexFor<Key>(spec, std::move(index));
}

/// Wraps a concrete hash index instance into the facade.
template <typename HashT>
AnyIndex MakeUnorderedAnyIndex(IndexSpec spec, HashT index) {
  return AnyIndex(
      spec, std::make_shared<UnorderedBatchImpl<HashT>>(std::move(index)));
}

}  // namespace cssidx

#endif  // CSSIDX_CORE_ANY_INDEX_H_
