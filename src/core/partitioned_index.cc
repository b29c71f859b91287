#include "core/partitioned_index.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <type_traits>

#include "core/builder.h"
#include "core/visit_index.h"
#include "workload/batch_update.h"

namespace cssidx {

namespace {

/// Equi-depth cuts at s * n / K, each snapped LEFT to the start of the
/// duplicate run containing it: a run that straddled a fence would make
/// EqualRange/CountEqual see only the shard-local part of it. Snapping
/// can collapse neighboring cuts (heavy duplicates, or K > distinct
/// keys), leaving empty shards — harmless, their fences coincide and
/// routing never selects them.
///
/// Fences use the truncated representation (see fences() in the header):
/// fence s is emitted only while shard s + 1 starts inside the array.
/// Trailing empty shards — always a suffix, bases are nondecreasing —
/// get no entry at all, so no sentinel "above every key" is ever needed
/// and the scheme is key-width independent. (The previous uint64 fence
/// table pinned them at 2^32: unreachable for uint32 probes, but any
/// 64-bit key >= 2^32 would have routed PAST the last real shard into an
/// empty one and probed nothing.)
template <typename KeyT>
void ComputeCuts(const KeyT* keys, size_t n, size_t k,
                 std::vector<size_t>& bases, std::vector<KeyT>& fences) {
  bases.assign(k + 1, 0);
  bases[k] = n;
  for (size_t s = 1; s < k; ++s) {
    size_t tentative = n * s / k;
    size_t cut =
        tentative >= n
            ? n
            : static_cast<size_t>(
                  std::lower_bound(keys, keys + n, keys[tentative]) - keys);
    bases[s] = std::max(cut, bases[s - 1]);
  }
  fences.clear();
  fences.reserve(k - 1);
  for (size_t s = 1; s < k && bases[s] < n; ++s) {
    fences.push_back(keys[bases[s]]);
  }
}

/// The fence level of a part:K descent: the number of fences at or below
/// `key`, which is std::upper_bound's index and so the shard the key
/// routes to (see ShardOf). Branch-free: the loop runs a fixed
/// ceil(log2(count)) steps whatever the key, each a conditional move.
template <typename KeyT>
CSSIDX_ALWAYS_INLINE size_t FencesAtOrBelow(const KeyT* fences, size_t count,
                                            KeyT key) {
  if (count == 0) return 0;
  const KeyT* base = fences;
  while (count > 1) {
    const size_t half = count / 2;
    base = base[half] <= key ? base + half : base;
    count -= half;
  }
  return static_cast<size_t>(base - fences) + (*base <= key);
}

bool CssInner(const IndexSpec& inner) {
  return inner.method() == Method::kFullCss ||
         inner.method() == Method::kLevelCss;
}

}  // namespace

template <typename KeyT>
BasicAnyIndex<KeyT> BasicPartitionedIndex<KeyT>::BuildShard(
    const IndexSpec& inner, const KeyT* keys, size_t n, View* view) {
  if (!CssInner(inner)) return BuildIndexT<KeyT>(inner, keys, n);
  BasicAnyIndex<KeyT> shard;
  VisitIndex<KeyT>(inner, keys, n, [&]<typename IndexT>(IndexT&& built) {
    if constexpr (kIsCssTree<IndexT>) {
      auto impl = std::make_shared<const OrderedBatchImpl<IndexT, KeyT>>(
          std::move(built));
      *view = impl->index().view();
      lockstep_lower_bound_ = &LockstepBatch<IndexT, size_t>;
      lockstep_find_ = &LockstepBatch<IndexT, int64_t>;
      shard = BasicAnyIndex<KeyT>(inner, std::move(impl));
    }
  });
  return shard;
}

template <typename KeyT>
template <typename Tree, typename Out>
void BasicPartitionedIndex<KeyT>::LockstepBatch(
    const BasicPartitionedIndex& index, std::span<const KeyT> keys,
    std::span<Out> out) {
  const View* views = index.views_.data();
  const KeyT* fences = index.fences_.data();
  const size_t num_fences = index.fences_.size();
  // Route a chunk of probes (the fence level), then descend it: a whole
  // number of groups, routed on the stack.
  constexpr size_t kChunk = 8 * kGroupProbes;
  for (size_t begin = 0; begin < keys.size(); begin += kChunk) {
    const std::span<const KeyT> chunk =
        keys.subspan(begin, std::min(kChunk, keys.size() - begin));
    uint32_t shard[kChunk];
    for (size_t j = 0; j < chunk.size(); ++j) {
      shard[j] = static_cast<uint32_t>(
          FencesAtOrBelow(fences, num_fences, chunk[j]));
    }
    Tree::LowerBoundLanes(
        chunk, [&](size_t j) -> const View& { return views[shard[j]]; },
        // Routing puts the global lower bound inside the shard (everything
        // before it is below the probe's fence range), so base + local
        // position is exact, insertion points included.
        [&](size_t j, const View& tree, size_t pos) {
          if constexpr (std::is_same_v<Out, int64_t>) {
            out[begin + j] = pos < tree.n && tree.keys[pos] == chunk[j]
                                 ? static_cast<int64_t>(tree.base + pos)
                                 : kNotFound;
          } else {
            out[begin + j] = tree.base + pos;
          }
        });
  }
}

template <typename KeyT>
void BasicPartitionedIndex<KeyT>::Init(
    const IndexSpec& spec, const KeyT* keys, size_t n,
    const std::shared_ptr<const void>& owner) {
  n_ = n;
  spec_ = spec;
  const size_t k = static_cast<size_t>(std::max(spec.partitions(), 1));
  const IndexSpec inner = spec.Inner();
  ordered_ = inner.ordered();
  ComputeCuts(keys, n, k, bases_, fences_);
  shards_.reserve(k);
  slices_.reserve(k);
  if (CssInner(inner)) views_.reserve(k);
  for (size_t s = 0; s < k; ++s) {
    const Slice& slice = slices_.emplace_back(
        Slice{owner, keys + bases_[s], bases_[s + 1] - bases_[s]});
    View view;
    shards_.push_back(BuildShard(inner, slice.data, slice.len, &view));
    if (lockstep_find_ != nullptr) {
      view.base = bases_[s];
      views_.push_back(view);
    }
  }
}

template <typename KeyT>
BasicPartitionedIndex<KeyT>::BasicPartitionedIndex(const IndexSpec& spec,
                                                   const KeyT* keys,
                                                   size_t n) {
  Init(spec, keys, n, /*owner=*/nullptr);
}

template <typename KeyT>
std::shared_ptr<const BasicPartitionedIndex<KeyT>>
BasicPartitionedIndex<KeyT>::BuildOwned(
    const IndexSpec& spec, std::shared_ptr<const std::vector<KeyT>> keys) {
  auto built =
      std::shared_ptr<BasicPartitionedIndex>(new BasicPartitionedIndex());
  built->Init(spec, keys->data(), keys->size(), keys);
  return built;
}

template <typename KeyT>
typename BasicPartitionedIndex<KeyT>::Refreshed
BasicPartitionedIndex<KeyT>::RefreshWithSortedBatch(
    std::span<const KeyT> inserts, std::span<const KeyT> deletes) const {
  assert(owns_shard_keys() &&
         "RefreshWithSortedBatch requires a BuildOwned-produced index");
  const size_t k = shards_.size();

  // Split both sorted lists at the fences — the list-side mirror of
  // ShardOf's upper_bound, so slice s holds exactly the keys a probe for
  // them would route to shard s (empty shards get empty slices; shards
  // past the last real fence get everything-above, which is slice
  // fences_.size() — the same shard ShardOf routes those keys to). Keys
  // in shard s stay within [fences[s-1], fences[s]) after the merge,
  // which is the invariant that keeps probe routing exact across
  // refreshes.
  auto split = [&](std::span<const KeyT> list) {
    std::vector<size_t> cut(k + 1, list.size());
    cut[0] = 0;
    for (size_t s = 1; s < k; ++s) {
      cut[s] = s - 1 < fences_.size()
                   ? static_cast<size_t>(
                         std::lower_bound(list.begin(), list.end(),
                                          fences_[s - 1]) -
                         list.begin())
                   : list.size();
    }
    return cut;
  };
  const std::vector<size_t> ins_cut = split(inserts);
  const std::vector<size_t> del_cut = split(deletes);

  // Only a touched shard gets a buffer of its own; every other slice
  // (and whatever array it aliases) is shared with the successor.
  Refreshed out;
  std::vector<Slice> slices = slices_;
  std::vector<bool> touched(k, false);
  for (size_t s = 0; s < k; ++s) {
    touched[s] = ins_cut[s + 1] > ins_cut[s] || del_cut[s + 1] > del_cut[s];
    if (!touched[s]) continue;
    auto buffer = std::make_shared<const std::vector<KeyT>>(
        workload::ApplySortedBatch<KeyT>(
            slices_[s].keys(),
            inserts.subspan(ins_cut[s], ins_cut[s + 1] - ins_cut[s]),
            deletes.subspan(del_cut[s], del_cut[s + 1] - del_cut[s])));
    slices[s] = Slice{buffer, buffer->data(), buffer->size()};
    ++out.shards_rebuilt;
  }

  std::vector<size_t> bases(k + 1, 0);
  size_t max_len = 0;
  for (size_t s = 0; s < k; ++s) {
    bases[s + 1] = bases[s] + slices[s].len;
    max_len = std::max(max_len, slices[s].len);
  }
  const size_t total = bases[k];

  // Equi-depth skew gate: a drifting workload (e.g. append-heavy inserts
  // all landing in one shard) eventually concentrates the array behind a
  // few fences; rebuild with fresh cuts before routing degenerates.
  if (total > 0 && max_len * k > kRebalanceSkew * total) {
    out.keys = std::make_shared<const std::vector<KeyT>>(
        Concatenate(slices, total));
    out.index = BuildOwned(spec_, out.keys);
    out.shards_rebuilt = k;
    out.rebalanced = true;
    return out;
  }

  auto fresh =
      std::shared_ptr<BasicPartitionedIndex>(new BasicPartitionedIndex());
  fresh->n_ = total;
  fresh->ordered_ = ordered_;
  fresh->spec_ = spec_;
  fresh->fences_ = fences_;  // unchanged: what makes shard reuse sound
  fresh->bases_ = std::move(bases);
  // An untouched shard keeps its view (its directory and keys are shared
  // with the successor); every view is rebased on the new bases.
  fresh->views_ = views_;
  fresh->lockstep_lower_bound_ = lockstep_lower_bound_;
  fresh->lockstep_find_ = lockstep_find_;
  const IndexSpec inner = spec_.Inner();
  fresh->shards_.reserve(k);
  for (size_t s = 0; s < k; ++s) {
    if (!touched[s]) {
      fresh->shards_.push_back(shards_[s]);
      continue;
    }
    View view;
    fresh->shards_.push_back(
        fresh->BuildShard(inner, slices[s].data, slices[s].len, &view));
    if (!fresh->views_.empty()) fresh->views_[s] = view;
  }
  for (size_t s = 0; s < fresh->views_.size(); ++s) {
    fresh->views_[s].base = fresh->bases_[s];
  }
  fresh->slices_ = std::move(slices);
  out.index = std::move(fresh);
  return out;
}

template <typename KeyT>
KeyT BasicPartitionedIndex<KeyT>::KeyAt(size_t i) const {
  assert(i < n_);
  // The last shard starting at or before i; empty shards share their
  // base with the next one, so this lands on the shard holding i.
  const size_t s = static_cast<size_t>(
      std::upper_bound(bases_.begin() + 1, bases_.end() - 1, i) -
      (bases_.begin() + 1));
  return slices_[s].data[i - bases_[s]];
}

template <typename KeyT>
std::vector<KeyT> BasicPartitionedIndex<KeyT>::Concatenate(
    std::span<const Slice> slices, size_t n) {
  std::vector<KeyT> keys;
  keys.reserve(n);
  for (const Slice& slice : slices) {
    keys.insert(keys.end(), slice.data, slice.data + slice.len);
  }
  return keys;
}

template <typename KeyT>
std::vector<KeyT> BasicPartitionedIndex<KeyT>::ConcatenatedKeys() const {
  return Concatenate(slices_, n_);
}

template <typename KeyT>
bool BasicPartitionedIndex<KeyT>::ok() const {
  for (const BasicAnyIndex<KeyT>& shard : shards_) {
    if (!shard) return false;
  }
  return true;
}

template <typename KeyT>
size_t BasicPartitionedIndex<KeyT>::ShardOf(KeyT key) const {
  // First shard whose fence exceeds the probe; equal fences (empty
  // shards) are skipped as a group, landing on the shard that actually
  // starts with that key. A key at or above the last REAL fence lands on
  // shard fences_.size() — the last nonempty shard — because trailing
  // empty shards have no fence entry to route past (see fences()).
  return FencesAtOrBelow(fences_.data(), fences_.size(), key);
}

template <typename KeyT>
template <typename Out, typename ProbeFn, typename MapFn>
void BasicPartitionedIndex<KeyT>::Route(std::span<const KeyT> keys,
                                        std::span<Out> out, ProbeFn&& probe,
                                        MapFn&& map) const {
  const size_t n_probes = keys.size();
  if (n_probes == 0) return;
  const size_t k = shards_.size();
  if (k == 1) {
    probe(0, keys, out);
    for (size_t i = 0; i < n_probes; ++i) out[i] = map(size_t{0}, out[i]);
    return;
  }
  if (n_probes == 1) {
    // Scalar probes are batches of one through this hop; route the one
    // key directly instead of paying the counting sort's allocations.
    size_t s = ShardOf(keys[0]);
    probe(s, keys, out);
    out[0] = map(s, out[0]);
    return;
  }

  // Counting sort by shard: one routing pass, then bucket the probes into
  // per-shard contiguous sub-spans, remembering each probe's input slot.
  std::vector<uint32_t> shard_of(n_probes);
  std::vector<size_t> seg(k + 1, 0);
  for (size_t i = 0; i < n_probes; ++i) {
    uint32_t s = static_cast<uint32_t>(ShardOf(keys[i]));
    shard_of[i] = s;
    ++seg[s + 1];
  }
  for (size_t s = 0; s < k; ++s) seg[s + 1] += seg[s];
  std::vector<KeyT> routed(n_probes);
  std::vector<size_t> origin(n_probes);
  {
    std::vector<size_t> cursor(seg.begin(), seg.end() - 1);
    for (size_t i = 0; i < n_probes; ++i) {
      size_t at = cursor[shard_of[i]]++;
      routed[at] = keys[i];
      origin[at] = i;
    }
  }

  // Run the inner group-probe kernel shard-local, then scatter back to
  // input order with global positions. Every input slot appears in
  // exactly one shard's bucket.
  std::vector<Out> local(n_probes);
  for (size_t s = 0; s < k; ++s) {
    size_t len = seg[s + 1] - seg[s];
    if (len == 0) continue;
    probe(s, std::span<const KeyT>(routed.data() + seg[s], len),
          std::span<Out>(local.data() + seg[s], len));
    for (size_t j = 0; j < len; ++j) {
      out[origin[seg[s] + j]] = map(s, local[seg[s] + j]);
    }
  }
}

template <typename KeyT>
void BasicPartitionedIndex<KeyT>::LowerBoundBatch(
    std::span<const KeyT> keys, std::span<size_t> out) const {
  if (!ordered_) {
    // Bare hash answers every LowerBound with size(); shard-local sizes
    // plus bases would fake positions the contract says do not exist.
    for (size_t i = 0; i < keys.size(); ++i) out[i] = n_;
    return;
  }
  if (Lockstep()) return lockstep_lower_bound_(*this, keys, out);
  Route(
      keys, out,
      [&](size_t s, std::span<const KeyT> in, std::span<size_t> local) {
        shards_[s].impl()->LowerBoundBatch(in, local);
      },
      // Routing guarantees the global lower bound lies inside shard s
      // (everything before it is strictly below the probe's shard range),
      // so base + local position is exact — insertion points included.
      [&](size_t s, size_t pos) { return pos + bases_[s]; });
}

template <typename KeyT>
void BasicPartitionedIndex<KeyT>::FindBatch(std::span<const KeyT> keys,
                                            std::span<int64_t> out) const {
  if (Lockstep()) return lockstep_find_(*this, keys, out);
  Route(
      keys, out,
      [&](size_t s, std::span<const KeyT> in, std::span<int64_t> local) {
        shards_[s].impl()->FindBatch(in, local);
      },
      [&](size_t s, int64_t pos) {
        return pos == kNotFound ? kNotFound
                                : pos + static_cast<int64_t>(bases_[s]);
      });
}

template <typename KeyT>
void BasicPartitionedIndex<KeyT>::EqualRangeBatch(
    std::span<const KeyT> keys, std::span<PositionRange> out) const {
  // Two lockstep LowerBound passes: a run never straddles a fence, and a
  // probe's successor routes to whichever shard holds the run's end.
  if (Lockstep()) return EqualRangeBatchViaLowerBound(*this, n_, keys, out);
  Route(
      keys, out,
      [&](size_t s, std::span<const KeyT> in,
          std::span<PositionRange> local) {
        shards_[s].impl()->EqualRangeBatch(in, local);
      },
      // Runs never straddle fences, so the shard-local span is the whole
      // run. Hash anchors absent keys at size(), which must stay the
      // GLOBAL size, not base + shard size.
      [&](size_t s, PositionRange r) {
        if (!ordered_ && r.empty()) return PositionRange{n_, n_};
        return PositionRange{r.begin + bases_[s], r.end + bases_[s]};
      });
}

template <typename KeyT>
void BasicPartitionedIndex<KeyT>::CountEqualBatch(
    std::span<const KeyT> keys, std::span<size_t> out) const {
  if (Lockstep()) return CountEqualBatchViaEqualRange(*this, keys, out);
  Route(
      keys, out,
      [&](size_t s, std::span<const KeyT> in, std::span<size_t> local) {
        shards_[s].impl()->CountEqualBatch(in, local);
      },
      [](size_t, size_t count) { return count; });
}

template <typename KeyT>
size_t BasicPartitionedIndex<KeyT>::SpaceBytes() const {
  size_t total = fences_.capacity() * sizeof(KeyT) +
                 bases_.capacity() * sizeof(size_t) +
                 shards_.capacity() * sizeof(BasicAnyIndex<KeyT>) +
                 views_.capacity() * sizeof(View);
  for (const BasicAnyIndex<KeyT>& shard : shards_) {
    total += shard.SpaceBytes();
  }
  if (owns_shard_keys()) {
    for (const Slice& slice : slices_) total += slice.len * sizeof(KeyT);
  }
  return total;
}

template class BasicPartitionedIndex<Key>;
template class BasicPartitionedIndex<Key64>;

template <typename KeyT>
BasicAnyIndex<KeyT> BuildPartitionedIndexT(const IndexSpec& spec,
                                           const KeyT* keys, size_t n) {
  if (!spec.partitioned() || !spec.OnMenu()) return {};
  if (spec.key_width() != static_cast<int>(sizeof(KeyT))) return {};
  auto impl = std::make_shared<BasicPartitionedIndex<KeyT>>(spec, keys, n);
  if (!impl->ok()) return {};
  return BasicAnyIndex<KeyT>(spec, std::move(impl));
}

template AnyIndex BuildPartitionedIndexT<Key>(const IndexSpec&, const Key*,
                                              size_t);
template AnyIndex64 BuildPartitionedIndexT<Key64>(const IndexSpec&,
                                                  const Key64*, size_t);

AnyIndex BuildPartitionedIndex(const IndexSpec& spec, const Key* keys,
                               size_t n) {
  return BuildPartitionedIndexT<Key>(spec, keys, n);
}

}  // namespace cssidx
