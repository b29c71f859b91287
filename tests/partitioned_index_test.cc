// Partition-boundary differential suite: every "part:K/<inner>" spec must
// be result-identical to the bare inner spec across the full batch-op
// surface — FindBatch / LowerBoundBatch / EqualRangeBatch /
// CountEqualBatch — whatever the fence table, probe bucketing, and
// shard-local kernels do underneath. The inputs are chosen to be
// adversarial for a range-partitioned composite specifically: probes
// exactly on fence boundaries, every probe landing in one shard, K larger
// than the number of distinct keys (empty shards), heavy duplicates whose
// runs must never straddle a fence, UINT32_MAX (whose fence comparison
// would wrap a 32-bit sentinel), empty batches, and thread counts
// straddling the shard-dispatch threshold.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/builder.h"
#include "core/partitioned_index.h"
#include "core/range.h"
#include "gtest/gtest.h"
#include "spec_menu.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/batch_update.h"
#include "workload/key_gen.h"
#include "workload/lookup_gen.h"

namespace cssidx {
namespace {

/// Asserts that `part` answers exactly like `bare` on every batch op.
/// `opts` applies to the partitioned side only — the bare side always
/// probes inline, so any thread count must reproduce the inline answers.
template <typename KeyT>
void ExpectSameAnswers(const BasicAnyIndex<KeyT>& part,
                       const BasicAnyIndex<KeyT>& bare,
                       const std::vector<KeyT>& probes,
                       const ProbeOptions& opts = ProbeOptions{},
                       const std::string& label = "") {
  const size_t n = probes.size();
  std::vector<int64_t> part_find(n, -2), bare_find(n, -3);
  std::vector<size_t> part_lower(n, ~size_t{0}), bare_lower(n, ~size_t{1});
  std::vector<PositionRange> part_range(n, PositionRange{~size_t{0}, 0});
  std::vector<PositionRange> bare_range(n);
  std::vector<size_t> part_count(n, ~size_t{0}), bare_count(n);
  part.FindBatch(probes, part_find, opts);
  part.LowerBoundBatch(probes, part_lower, opts);
  part.EqualRangeBatch(probes, part_range, opts);
  part.CountEqualBatch(probes, part_count, opts);
  bare.FindBatch(probes, bare_find);
  bare.LowerBoundBatch(probes, bare_lower);
  bare.EqualRangeBatch(probes, bare_range);
  bare.CountEqualBatch(probes, bare_count);
  ASSERT_EQ(part_find, bare_find) << part.Name() << " " << label;
  ASSERT_EQ(part_lower, bare_lower) << part.Name() << " " << label;
  ASSERT_EQ(part_range, bare_range) << part.Name() << " " << label;
  ASSERT_EQ(part_count, bare_count) << part.Name() << " " << label;
}

/// Probes that hug every equi-depth fence of a K-way split: the key at
/// each tentative cut position plus its value-neighbors (one of which is
/// usually absent, exercising insertion-point anchoring at the boundary).
std::vector<Key> FenceBoundaryProbes(const std::vector<Key>& keys, int k) {
  std::vector<Key> probes;
  for (int s = 1; s < k; ++s) {
    size_t cut = keys.size() * static_cast<size_t>(s) /
                 static_cast<size_t>(k);
    if (cut >= keys.size()) continue;
    Key at = keys[cut];
    probes.push_back(at);
    if (at > 0) probes.push_back(at - 1);
    if (at < 0xffffffffu) probes.push_back(at + 1);
    if (cut > 0) probes.push_back(keys[cut - 1]);
  }
  return probes;
}

/// Every partitioned spec in the shared menu, paired with its inner.
struct SpecPair {
  IndexSpec part;
  IndexSpec inner;
};

std::vector<SpecPair> PartitionedMenu(int node_entries, int hash_dir_bits) {
  std::vector<SpecPair> pairs;
  for (const IndexSpec& spec :
       test_menu::DefaultSpecs(node_entries, hash_dir_bits)) {
    if (!spec.partitioned()) continue;
    pairs.push_back({spec, spec.Inner()});
  }
  // Shard counts beyond the shared menu's {1, 4, 16}: odd, and the menu
  // ceiling.
  pairs.push_back({*IndexSpec::Parse("part:7/css:16"),
                   *IndexSpec::Parse("css:16")});
  pairs.push_back({*IndexSpec::Parse("part:256/btree:32"),
                   *IndexSpec::Parse("btree:32")});
  return pairs;
}

TEST(PartitionedIndex, MatchesBareInnerAcrossTheFullOpSurface) {
  // Heavy duplicates: fences must snap to run starts, so most cuts move.
  auto keys = workload::KeysWithDuplicates(6000, 40, /*seed=*/3);
  auto probes = workload::MatchingLookups(keys, 400, /*seed=*/5);
  auto missing = workload::MissingLookups(keys, 150, /*seed=*/7);
  probes.insert(probes.end(), missing.begin(), missing.end());
  probes.push_back(0);
  probes.push_back(0xffffffffu);
  for (const SpecPair& p : PartitionedMenu(16, 8)) {
    AnyIndex part = BuildIndex(p.part, keys);
    AnyIndex bare = BuildIndex(p.inner, keys);
    ASSERT_TRUE(part) << p.part.ToString();
    ASSERT_TRUE(bare) << p.inner.ToString();
    EXPECT_EQ(part.size(), bare.size());
    EXPECT_EQ(part.SupportsOrderedAccess(), bare.SupportsOrderedAccess());
    auto with_fences = probes;
    auto boundary = FenceBoundaryProbes(keys, p.part.partitions());
    with_fences.insert(with_fences.end(), boundary.begin(), boundary.end());
    ExpectSameAnswers(part, bare, with_fences, ProbeOptions{}, "heavy-dup");
  }
}

TEST(PartitionedIndex, KeysExactlyOnFenceBoundaries) {
  // Distinct keys, so every equi-depth cut IS a fence key: the first key
  // of shard s+1. Probing it, its absent predecessor, and its absent
  // successor hits the routing comparison on all three sides of every
  // fence.
  auto keys = workload::DistinctSortedKeys(5000, /*seed=*/11, /*mean_gap=*/16);
  for (int k : {2, 3, 8, 16, 64}) {
    IndexSpec part_spec = IndexSpec().WithPartitions(k);  // part:K/css:16
    AnyIndex part = BuildIndex(part_spec, keys);
    AnyIndex bare = BuildIndex(part_spec.Inner(), keys);
    ASSERT_TRUE(part) << part_spec.ToString();
    auto probes = FenceBoundaryProbes(keys, k);
    ASSERT_FALSE(probes.empty());
    ExpectSameAnswers(part, bare, probes, ProbeOptions{},
                      "fences k=" + std::to_string(k));
  }
}

TEST(PartitionedIndex, AllProbesLandInOneShard) {
  // The bucketing degenerates: one shard gets the whole batch, every
  // other shard gets zero probes — both extreme ends of the array.
  auto keys = workload::KeysWithDuplicates(8000, 200, /*seed=*/13);
  AnyIndex part = BuildIndex(*IndexSpec::Parse("part:8/css:16"), keys);
  AnyIndex bare = BuildIndex(*IndexSpec::Parse("css:16"), keys);
  ASSERT_TRUE(part);
  for (Key target : {keys.front(), keys.back()}) {
    std::vector<Key> probes(3000, target);
    ExpectSameAnswers(part, bare, probes, ProbeOptions{}, "one-shard");
  }
}

TEST(PartitionedIndex, MoreShardsThanDistinctKeys) {
  // Three distinct values across 16 requested shards: run-start snapping
  // collapses most cuts, leaving empty shards whose fences coincide.
  std::vector<Key> keys;
  for (Key v : {Key{10}, Key{20}, Key{30}}) {
    keys.insert(keys.end(), 100, v);
  }
  std::vector<Key> probes{0, 9, 10, 11, 19, 20, 21, 29, 30, 31, 1000,
                          0xffffffffu};
  for (const SpecPair& p : PartitionedMenu(8, 4)) {
    AnyIndex part = BuildIndex(p.part, keys);
    AnyIndex bare = BuildIndex(p.inner, keys);
    ASSERT_TRUE(part) << p.part.ToString();
    ExpectSameAnswers(part, bare, probes, ProbeOptions{}, "few-distinct");
  }
  // The degenerate limit: every key equal, K = 16 — one live shard.
  std::vector<Key> all_equal(500, 42);
  AnyIndex part = BuildIndex(*IndexSpec::Parse("part:16/btree:32"), all_equal);
  AnyIndex bare = BuildIndex(*IndexSpec::Parse("btree:32"), all_equal);
  ASSERT_TRUE(part);
  ExpectSameAnswers(part, bare, {41, 42, 43, 0, 0xffffffffu}, ProbeOptions{},
                    "all-equal");
}

TEST(PartitionedIndex, ExtremeKeysIncludingMax) {
  // UINT32_MAX keys: the fence table is uint64 precisely so a probe of
  // MAX still routes to the shard holding its run instead of falling off
  // the end (a 32-bit "no fence" sentinel could not sit above MAX).
  std::vector<Key> keys{0,          0,          1,          5,
                        0x7fffffffu, 0x80000000u, 0xfffffffeu,
                        0xffffffffu, 0xffffffffu, 0xffffffffu};
  std::vector<Key> probes{0, 1, 2, 5, 0x7fffffffu, 0x80000000u,
                          0xfffffffeu, 0xffffffffu};
  for (const SpecPair& p : PartitionedMenu(4, 3)) {
    AnyIndex part = BuildIndex(p.part, keys);
    AnyIndex bare = BuildIndex(p.inner, keys);
    ASSERT_TRUE(part) << p.part.ToString();
    ExpectSameAnswers(part, bare, probes, ProbeOptions{}, "extreme");
  }
}

TEST(PartitionedIndex, EmptyBatchAndEmptyIndex) {
  auto keys = workload::KeysWithDuplicates(300, 30, /*seed=*/17);
  std::vector<Key> none;
  std::vector<int64_t> no_find;
  std::vector<size_t> no_sizes;
  std::vector<PositionRange> no_ranges;
  for (const SpecPair& p : PartitionedMenu(8, 4)) {
    AnyIndex part = BuildIndex(p.part, keys);
    ASSERT_TRUE(part) << p.part.ToString();
    // Empty batch: a no-op, not a crash (the router must not touch the
    // fence table).
    part.FindBatch(none, no_find);
    part.LowerBoundBatch(none, no_sizes);
    part.EqualRangeBatch(none, no_ranges);
    part.CountEqualBatch(none, no_sizes);

    // Empty index: K shards over zero keys; all answers match the bare
    // inner over zero keys.
    AnyIndex empty_part = BuildIndex(p.part, std::vector<Key>{});
    AnyIndex empty_bare = BuildIndex(p.inner, std::vector<Key>{});
    ASSERT_TRUE(empty_part) << p.part.ToString();
    ExpectSameAnswers(empty_part, empty_bare, {0, 7, 0xffffffffu},
                      ProbeOptions{}, "empty-index");
  }
}

TEST(PartitionedIndex, ThreadCountsStraddleTheShardDispatchThreshold) {
  // Below min_shard every batch runs inline; above it, a batch over CSS
  // shards splits its probe span across the pool (one lockstep descent
  // per span) and the router dispatches the other inners' whole shards.
  // Both sides of the threshold, at thread counts {0, 1, 2, 8}, must
  // reproduce the bare inner's answers bit-for-bit.
  ThreadPool pool(3);  // real workers even on a 1-core CI machine
  auto keys = workload::KeysWithDuplicates(30000, 500, /*seed=*/19);
  const std::vector<size_t> probe_counts{
      100, kParallelProbeMinShard - 1, kParallelProbeMinShard,
      kParallelProbeMinShard + 1, 3 * kParallelProbeMinShard};
  for (const char* text : {"part:4/css:16", "part:16/ttree:16",
                           "part:3/hash:10", "part:8/bin"}) {
    IndexSpec spec = *IndexSpec::Parse(text);
    AnyIndex part = BuildIndex(spec, keys);
    AnyIndex bare = BuildIndex(spec.Inner(), keys);
    ASSERT_TRUE(part) << text;
    for (size_t count : probe_counts) {
      auto probes = workload::MatchingLookups(keys, count, /*seed=*/count);
      auto missing = workload::MissingLookups(keys, count / 4,
                                              /*seed=*/count + 1);
      probes.insert(probes.end(), missing.begin(), missing.end());
      for (int threads : {0, 1, 2, 8}) {
        ProbeOptions opts{.threads = threads, .pool = &pool};
        ExpectSameAnswers(part, bare, probes, opts,
                          "probes=" + std::to_string(count) +
                              " threads=" + std::to_string(threads));
      }
    }
  }
}

TEST(PartitionedIndex, SpecSuffixDrivesShardDispatchThroughTheFacade) {
  // "@tN" on a partitioned spec parallelizes the two-argument facade
  // calls with no caller changes — and changes nothing about the answers.
  auto keys = workload::KeysWithDuplicates(20000, 300, /*seed=*/23);
  auto probes = workload::MatchingLookups(keys, 10000, /*seed=*/29);
  AnyIndex parallel_part =
      BuildIndex(*IndexSpec::Parse("part:8/css:16@t3"), keys);
  AnyIndex bare = BuildIndex(*IndexSpec::Parse("css:16"), keys);
  ASSERT_TRUE(parallel_part);
  EXPECT_EQ(parallel_part.spec().probe_threads(), 3);
  EXPECT_EQ(parallel_part.spec().partitions(), 8);
  std::vector<int64_t> got(probes.size()), want(probes.size());
  parallel_part.FindBatch(probes, got);  // spec-driven shard dispatch
  bare.FindBatch(probes, want);
  EXPECT_EQ(got, want);
}

TEST(PartitionedIndex, RepeatedParallelRunsAreDeterministic) {
  // The TSan lane leans on this: repeated identical shard dispatches give
  // any racy scatter a window to corrupt a neighboring probe's slot.
  ThreadPool pool(3);
  auto keys = workload::KeysWithDuplicates(40000, 800, /*seed=*/31);
  AnyIndex part = BuildIndex(*IndexSpec::Parse("part:8/css:16"), keys);
  ASSERT_TRUE(part);
  auto probes = workload::MatchingLookups(keys, 30000, /*seed=*/37);
  ProbeOptions opts{.threads = 4, .min_shard = 1024, .pool = &pool};
  std::vector<PositionRange> first(probes.size());
  part.EqualRangeBatch(probes, first, opts);
  for (int run = 0; run < 10; ++run) {
    std::vector<PositionRange> again(probes.size());
    part.EqualRangeBatch(probes, again, opts);
    ASSERT_EQ(again, first) << "run " << run;
  }
}

TEST(PartitionedIndex, StructuralInvariants) {
  auto keys = workload::KeysWithDuplicates(10000, 100, /*seed=*/41);
  IndexSpec spec = *IndexSpec::Parse("part:8/css:16");
  PartitionedIndex part(spec, keys.data(), keys.size());
  ASSERT_TRUE(part.ok());
  EXPECT_EQ(part.num_shards(), 8u);
  EXPECT_EQ(part.size(), keys.size());
  EXPECT_TRUE(part.SupportsOrderedAccess());
  EXPECT_GT(part.SpaceBytes(), 0u);
  // Shard bases are monotone, cover [0, n), and sit on duplicate-run
  // starts: the key before a base differs from the key at it.
  EXPECT_EQ(part.ShardBase(0), 0u);
  EXPECT_EQ(part.ShardBase(part.num_shards()), keys.size());
  for (size_t s = 1; s <= part.num_shards(); ++s) {
    ASSERT_GE(part.ShardBase(s), part.ShardBase(s - 1));
    size_t base = part.ShardBase(s);
    if (base > 0 && base < keys.size()) {
      ASSERT_NE(keys[base - 1], keys[base]) << "run straddles fence at " << s;
    }
  }
  // Routing sends each shard's first key to that shard (skipping empties,
  // which receive no keys by construction).
  for (size_t s = 0; s < part.num_shards(); ++s) {
    if (part.ShardBase(s) == part.ShardBase(s + 1)) continue;
    EXPECT_EQ(part.ShardOf(keys[part.ShardBase(s)]), s) << "shard " << s;
  }
}

TEST(PartitionedIndex, BuilderRejectsOffMenuPartitionedSpecs) {
  auto keys = workload::DistinctSortedKeys(100, /*seed=*/43, /*mean_gap=*/4);
  // Shard counts off the menu.
  EXPECT_FALSE(BuildIndex(IndexSpec().WithPartitions(257), keys));
  EXPECT_FALSE(BuildIndex(IndexSpec().WithPartitions(-1), keys));
  // Off-menu inner under a valid shard count.
  EXPECT_FALSE(
      BuildIndex(IndexSpec().WithNodeEntries(12).WithPartitions(4), keys));
  // A valid partitioned spec still builds.
  EXPECT_TRUE(BuildIndex(IndexSpec().WithPartitions(4), keys));
}

// ------------------------------------------------------------------------
// The lockstep CSS path: a part:K/<css or lcss> batch is one group descent
// whose lanes name different shards' trees. Its hazards are a lane reading
// the wrong shard (routing), a shard-local position mapped with the wrong
// base, a Find hit-tested against the wrong buffer, and a view outliving
// the directory or keys it points into (refresh).

/// Every CSS spec on the node-size menu, both variants, at `width` bytes.
std::vector<IndexSpec> CssMenu(int width) {
  std::vector<IndexSpec> specs;
  for (Method method : {Method::kFullCss, Method::kLevelCss}) {
    for (int entries : NodeSizeMenu()) {
      IndexSpec spec =
          IndexSpec(method).WithNodeEntries(entries).WithKeyWidth(width);
      if (spec.OnMenu()) specs.push_back(spec);
    }
  }
  return specs;
}

/// `keys` mapped order-preservingly into KeyT; the 8-byte image sits past
/// 2^32 so no key or probe fits in 32 bits.
template <typename KeyT>
std::vector<KeyT> Widen(const std::vector<Key>& keys) {
  std::vector<KeyT> wide(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    wide[i] = sizeof(KeyT) == 4
                  ? static_cast<KeyT>(keys[i])
                  : static_cast<KeyT>((uint64_t{keys[i]} << 8) | (1ull << 40));
  }
  return wide;
}

/// Every key, its two neighbors, and the type's extremes.
template <typename KeyT>
std::vector<KeyT> NeighborProbes(const std::vector<KeyT>& keys) {
  constexpr KeyT kMax = std::numeric_limits<KeyT>::max();
  std::vector<KeyT> probes{0, 1, kMax - 1, kMax};
  for (KeyT k : keys) {
    probes.push_back(k);
    if (k > 0) probes.push_back(k - 1);
    if (k < kMax) probes.push_back(k + 1);
  }
  return probes;
}

/// The same answers as `bare` for the whole probe set and for batches cut
/// at 1, 2 and 3 probes (the scalar descents), 33 (a full group plus one)
/// and 64.
template <typename KeyT>
void ExpectSameAnswersAtEveryBatch(const BasicAnyIndex<KeyT>& part,
                                   const BasicAnyIndex<KeyT>& bare,
                                   const std::vector<KeyT>& probes,
                                   const std::string& label) {
  ExpectSameAnswers(part, bare, probes, ProbeOptions{}, label + " whole");
  for (size_t batch : {size_t{1}, size_t{2}, size_t{3}, size_t{33},
                       size_t{64}}) {
    for (size_t i = 0; i < probes.size(); i += batch) {
      std::vector<KeyT> slice(
          probes.begin() + static_cast<std::ptrdiff_t>(i),
          probes.begin() +
              static_cast<std::ptrdiff_t>(std::min(probes.size(), i + batch)));
      ExpectSameAnswers(part, bare, slice, ProbeOptions{},
                        label + " batch=" + std::to_string(batch));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

template <typename KeyT>
void LockstepMatchesBareOnTheCssMenu() {
  constexpr KeyT kMax = std::numeric_limits<KeyT>::max();
  // Duplicates (fences snap to run starts) plus a run of the maximum key.
  auto keys = Widen<KeyT>(workload::KeysWithDuplicates(1200, 150, 47));
  keys.insert(keys.end(), 5, kMax);
  auto probes = NeighborProbes(keys);
  for (const IndexSpec& inner : CssMenu(sizeof(KeyT))) {
    const BasicAnyIndex<KeyT> bare =
        BuildIndexT<KeyT>(inner, keys.data(), keys.size());
    ASSERT_TRUE(bare) << inner.ToString();
    for (int k : {1, 3, 16, 256}) {
      const IndexSpec spec = inner.WithPartitions(k);
      const BasicAnyIndex<KeyT> part =
          BuildIndexT<KeyT>(spec, keys.data(), keys.size());
      ASSERT_TRUE(part) << spec.ToString();
      ExpectSameAnswers(part, bare, probes, ProbeOptions{}, spec.ToString());
      // Small batches take the scalar descent; a few slices suffice.
      for (size_t batch : {size_t{1}, size_t{2}, size_t{3}, size_t{33}}) {
        std::vector<KeyT> slice(probes.end() - static_cast<long>(batch),
                                probes.end());
        ExpectSameAnswers(part, bare, slice, ProbeOptions{},
                          spec.ToString() + " tail batch");
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(PartitionedLockstep, EveryCssSpecOnTheMenuAtBothKeyWidths) {
  LockstepMatchesBareOnTheCssMenu<Key>();
  LockstepMatchesBareOnTheCssMenu<Key64>();
}

/// The shards' key segments, concatenated in shard order.
template <typename KeyT>
std::vector<KeyT> ConcatenatedSegments(
    const BasicPartitionedIndex<KeyT>& index) {
  std::vector<KeyT> keys;
  for (size_t s = 0; s < index.num_shards(); ++s) {
    const std::span<const KeyT> shard = index.shard_keys(s);
    keys.insert(keys.end(), shard.begin(), shard.end());
  }
  return keys;
}

/// A maintained part:16 version whose shard 5 (middle) and shard 15
/// (last) lost every key to a refresh: their fences stay, so probes in
/// their ranges route to empty shards.
template <typename KeyT>
std::shared_ptr<const BasicPartitionedIndex<KeyT>> WithEmptiedShards(
    const IndexSpec& spec, const std::vector<KeyT>& keys,
    std::vector<KeyT>* merged) {
  auto index = BasicPartitionedIndex<KeyT>::BuildOwned(
      spec, std::make_shared<const std::vector<KeyT>>(keys));
  std::vector<KeyT> deletes;
  for (size_t s : {size_t{5}, size_t{15}}) {
    deletes.insert(deletes.end(),
                   keys.begin() + static_cast<long>(index->ShardBase(s)),
                   keys.begin() + static_cast<long>(index->ShardBase(s + 1)));
  }
  auto refreshed = index->RefreshWithSortedBatch({}, deletes);
  EXPECT_FALSE(refreshed.rebalanced);
  *merged = workload::ApplySortedBatch<KeyT>(keys, {}, deletes);
  EXPECT_EQ(ConcatenatedSegments(*refreshed.index), *merged);
  return refreshed.index;
}

TEST(PartitionedLockstep, OneGroupSpansEveryShardEmptyOnesIncluded) {
  // 16 shards of 40 distinct keys. Two probes per shard make exactly one
  // 32-probe group: the shard's first key, and a key absent from it.
  auto keys = workload::DistinctSortedKeys(640, /*seed=*/53, /*mean_gap=*/8);
  for (const char* text : {"part:16/css:16", "part:16/lcss:16"}) {
    const IndexSpec spec = *IndexSpec::Parse(text);
    std::vector<Key> merged;
    auto index = WithEmptiedShards<Key>(spec, keys, &merged);
    ASSERT_EQ(index->ShardBase(6) - index->ShardBase(5), 0u);
    ASSERT_EQ(index->ShardBase(16) - index->ShardBase(15), 0u);
    std::vector<Key> probes;
    for (size_t s = 0; s < 16; ++s) {
      // Shard s's key range starts at fence s - 1 (or 0).
      const Key low = s == 0 ? 0 : index->fences()[s - 1];
      probes.push_back(low);
      probes.push_back(low + 1);
    }
    ASSERT_EQ(probes.size(), kGroupProbes);
    for (size_t s = 0; s < 16; ++s) {
      ASSERT_EQ(index->ShardOf(probes[2 * s]), s) << text;
    }
    const AnyIndex part(spec, index);
    const AnyIndex bare = BuildIndex(spec.Inner(), merged);
    ExpectSameAnswers(part, bare, probes, ProbeOptions{}, text);
    ExpectSameAnswersAtEveryBatch(part, bare, NeighborProbes(merged), text);
  }
}

TEST(PartitionedLockstep, LeadingEmptyShardsTakeProbesBelowTheFirstKey) {
  // Three keys over 16 shards: the first cuts snap to position 0, so the
  // leading shards are empty and a probe below every key routes to one.
  const std::vector<Key> keys{100, 200, 300};
  for (const char* text : {"part:16/css:4", "part:16/lcss:8"}) {
    const IndexSpec spec = *IndexSpec::Parse(text);
    const AnyIndex part = BuildIndex(spec, keys);
    const AnyIndex bare = BuildIndex(spec.Inner(), keys);
    ASSERT_TRUE(part) << text;
    ExpectSameAnswersAtEveryBatch(part, bare, NeighborProbes(keys), text);
  }
}

template <typename KeyT>
void ProbesAtTheMaximumKey() {
  constexpr KeyT kMax = std::numeric_limits<KeyT>::max();
  // The maximum as a probe, absent and then present as a duplicate run
  // that the last fence sits on.
  std::vector<KeyT> keys = Widen<KeyT>(
      workload::DistinctSortedKeys(300, /*seed=*/59, /*mean_gap=*/4));
  const std::vector<KeyT> probes(40, kMax);
  for (int copies : {0, 1, 200}) {
    std::vector<KeyT> with_max = keys;
    with_max.insert(with_max.end(), static_cast<size_t>(copies), kMax);
    for (const char* inner : {"css:16", "lcss:8"}) {
      IndexSpec spec =
          IndexSpec::Parse(inner)->WithKeyWidth(sizeof(KeyT)).WithPartitions(
              4);
      const BasicAnyIndex<KeyT> part =
          BuildIndexT<KeyT>(spec, with_max.data(), with_max.size());
      const BasicAnyIndex<KeyT> bare =
          BuildIndexT<KeyT>(spec.Inner(), with_max.data(), with_max.size());
      ASSERT_TRUE(part) << spec.ToString();
      ExpectSameAnswers(part, bare, probes, ProbeOptions{},
                        spec.ToString() + " copies=" + std::to_string(copies));
      std::vector<size_t> counts(probes.size());
      part.CountEqualBatch(probes, counts);
      EXPECT_EQ(counts.front(), static_cast<size_t>(copies));
    }
  }
}

TEST(PartitionedLockstep, ProbeAtTheKeyTypesMaximum) {
  ProbesAtTheMaximumKey<Key>();
  ProbesAtTheMaximumKey<Key64>();
}

TEST(PartitionedLockstep, RefreshedSuccessorOutlivesItsPredecessor) {
  // The successor shares its untouched shards with the predecessor and
  // rebuilt the touched ones. Once the predecessor and every handle to its
  // shards are gone, a lane view still pointing at a directory or key
  // buffer only the predecessor owned is a use-after-free under ASan.
  auto keys = workload::DistinctSortedKeys(4000, /*seed=*/61, /*mean_gap=*/8);
  for (const char* text : {"part:16/css:16", "part:8/lcss:32"}) {
    const IndexSpec spec = *IndexSpec::Parse(text);
    auto current = PartitionedIndex::BuildOwned(
        spec, std::make_shared<const std::vector<Key>>(keys));
    std::vector<Key> merged = keys;
    for (int round = 0; round < 3; ++round) {
      // Touch the first shard and one in the middle: insert the absent
      // successor of each one's first key, delete a key of the middle one.
      const size_t mid = current->num_shards() / 2;
      std::vector<Key> inserts;
      for (size_t s : {size_t{0}, mid}) {
        Key candidate = merged[current->ShardBase(s)] + 1;
        if (!std::binary_search(merged.begin(), merged.end(), candidate)) {
          inserts.push_back(candidate);
        }
      }
      std::sort(inserts.begin(), inserts.end());
      const std::vector<Key> deletes{merged[current->ShardBase(mid) + 1]};
      auto refreshed = current->RefreshWithSortedBatch(inserts, deletes);
      ASSERT_FALSE(refreshed.rebalanced);
      ASSERT_GE(refreshed.shards_rebuilt, 1u);
      merged = workload::ApplySortedBatch(merged, inserts, deletes);
      ASSERT_EQ(ConcatenatedSegments(*refreshed.index), merged);
      current = refreshed.index;  // drops the predecessor and its shards
      const AnyIndex part(spec, current);
      const AnyIndex bare = BuildIndex(spec.Inner(), merged);
      ExpectSameAnswersAtEveryBatch(part, bare, NeighborProbes(merged),
                                    std::string(text) + " round " +
                                        std::to_string(round));
    }
  }
}

}  // namespace
}  // namespace cssidx
