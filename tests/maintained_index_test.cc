// Live batch maintenance behind the facade: snapshot-versioned rebuilds
// for every spec on the menu, shard-incremental part:K refresh, and the
// single-writer/many-readers concurrency contract.
//
// The differential core: drive random UpdateBatch cycles through
// MaintainedIndex across the full spec menu and diff every op — scalar,
// batched, and thread-sharded — against the sorted-array oracle (an STL
// multiset flattened) after each cycle. The concurrency tests run under
// the TSan CI lane: readers snapshot while the writer merges, rebuilds,
// and publishes, and every probe batch must observe exactly one coherent
// version — no torn keys, no torn directory. A fault test fails each
// allocation of a batch in turn: a failed publish must change nothing.

#include "core/maintained_index.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <new>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "alloc_countdown.h"
#include "core/builder.h"
#include "core/partitioned_index.h"
#include "domain/domain.h"
#include "gtest/gtest.h"
#include "spec_menu.h"
#include "util/rng.h"
#include "workload/batch_update.h"
#include "workload/key_gen.h"

namespace cssidx {
namespace {

/// Diffs every op of the current version's facade against the sorted
/// model: Find/LowerBound/EqualRange/CountEqual, scalar + batch +
/// pool-sharded (threads=2 over the probes repeated past
/// kParallelProbeMinShard, so the batch really dispatches).
void ExpectAllOpsMatchOracle(const MaintainedIndex& maintained,
                             const std::vector<Key>& model,
                             const std::vector<Key>& probes,
                             const std::string& ctx) {
  const auto version = maintained.Snapshot();
  const AnyIndex& index = version->index();
  ASSERT_EQ(version->keys(), model) << ctx;
  ASSERT_EQ(maintained.size(), model.size()) << ctx;

  const size_t m = probes.size();
  std::vector<int64_t> found(m);
  std::vector<size_t> lower(m);
  std::vector<PositionRange> ranges(m);
  std::vector<size_t> counts(m);
  index.FindBatch(probes, found);
  index.LowerBoundBatch(probes, lower);
  index.EqualRangeBatch(probes, ranges);
  index.CountEqualBatch(probes, counts);

  for (size_t p = 0; p < m; ++p) {
    const Key k = probes[p];
    auto lo = std::lower_bound(model.begin(), model.end(), k);
    auto hi = std::upper_bound(model.begin(), model.end(), k);
    auto want_lower = static_cast<size_t>(lo - model.begin());
    auto want_count = static_cast<size_t>(hi - lo);
    int64_t want_find =
        want_count > 0 ? static_cast<int64_t>(want_lower) : kNotFound;
    size_t want_begin = index.SupportsOrderedAccess() || want_count > 0
                            ? want_lower
                            : model.size();
    PositionRange want_range{want_begin, want_begin + want_count};

    ASSERT_EQ(found[p], want_find) << ctx << " k=" << k;
    ASSERT_EQ(index.Find(k), want_find) << ctx << " k=" << k << " scalar";
    ASSERT_EQ(counts[p], want_count) << ctx << " k=" << k;
    ASSERT_EQ(index.CountEqual(k), want_count) << ctx << " k=" << k
                                               << " scalar";
    ASSERT_EQ(ranges[p], want_range) << ctx << " k=" << k;
    ASSERT_EQ(index.EqualRange(k), want_range) << ctx << " k=" << k
                                               << " scalar";
    if (index.SupportsOrderedAccess()) {
      ASSERT_EQ(lower[p], want_lower) << ctx << " k=" << k;
      ASSERT_EQ(index.LowerBound(k), want_lower) << ctx << " k=" << k
                                                 << " scalar";
    }
  }

  if (m == 0) return;
  std::vector<Key> wide;
  while (wide.size() <= kParallelProbeMinShard) {
    wide.insert(wide.end(), probes.begin(), probes.end());
  }
  const size_t w = wide.size();
  std::vector<int64_t> found_mt(w);
  std::vector<size_t> lower_mt(w);
  std::vector<PositionRange> ranges_mt(w);
  std::vector<size_t> counts_mt(w);
  const ProbeOptions sharded{.threads = 2};
  index.FindBatch(wide, found_mt, sharded);
  index.LowerBoundBatch(wide, lower_mt, sharded);
  index.EqualRangeBatch(wide, ranges_mt, sharded);
  index.CountEqualBatch(wide, counts_mt, sharded);
  for (size_t i = 0; i < w; ++i) {
    const size_t p = i % m;
    ASSERT_EQ(found_mt[i], found[p]) << ctx << " k=" << wide[i] << " @t2";
    ASSERT_EQ(counts_mt[i], counts[p]) << ctx << " k=" << wide[i] << " @t2";
    ASSERT_EQ(ranges_mt[i], ranges[p]) << ctx << " k=" << wide[i] << " @t2";
    if (index.SupportsOrderedAccess()) {
      ASSERT_EQ(lower_mt[i], lower[p]) << ctx << " k=" << wide[i] << " @t2";
    }
  }
}

/// Probe set hugging everything interesting: model keys, their
/// neighbors, 0, and UINT32_MAX.
std::vector<Key> MakeProbes(Pcg32& rng, const std::vector<Key>& model,
                            size_t count) {
  std::vector<Key> probes{0, UINT32_MAX};
  uint32_t ceiling = model.empty() ? 100 : model.back() + 3;
  while (probes.size() < count) {
    if (!model.empty() && rng.Below(2) == 0) {
      Key k = model[rng.Below(static_cast<uint32_t>(model.size()))];
      probes.push_back(k);
      probes.push_back(k + 1);
    } else {
      probes.push_back(rng.Below(ceiling));
    }
  }
  return probes;
}

/// One batch per edge-case class, cycling: empty batch, delete
/// everything, insert-only growth, duplicate inserts (fresh and of an
/// existing key), UINT32_MAX lifecycle, and plain mixed churn.
workload::UpdateBatch EdgeCaseBatch(Pcg32& rng, const std::vector<Key>& model,
                                    int round) {
  workload::UpdateBatch batch;
  switch (round % 6) {
    case 0:  // empty batch
      break;
    case 1: {  // delete everything
      batch.deletes = model;
      break;
    }
    case 2: {  // insert-only growth (from empty after round 1)
      uint32_t ins = 20 + rng.Below(200);
      for (uint32_t i = 0; i < ins; ++i) {
        batch.inserts.push_back(rng.Below(1u << 14));
      }
      break;
    }
    case 3: {  // duplicate inserts: the same fresh key many times, plus
               // repeats of an existing key
      Key fresh = rng.Below(1u << 14);
      for (int i = 0; i < 5; ++i) batch.inserts.push_back(fresh);
      if (!model.empty()) {
        Key existing = model[rng.Below(static_cast<uint32_t>(model.size()))];
        for (int i = 0; i < 3; ++i) batch.inserts.push_back(existing);
      }
      break;
    }
    case 4: {  // UINT32_MAX lifecycle: insert it (twice), delete it next
               // time around via the mixed case's deletes-from-model
      batch.inserts.push_back(UINT32_MAX);
      batch.inserts.push_back(UINT32_MAX);
      batch.inserts.push_back(0);
      break;
    }
    default: {  // mixed churn
      uint32_t dels = rng.Below(30);
      for (uint32_t i = 0; i < dels && !model.empty(); ++i) {
        batch.deletes.push_back(
            model[rng.Below(static_cast<uint32_t>(model.size()))]);
      }
      uint32_t ins = rng.Below(30);
      for (uint32_t i = 0; i < ins; ++i) {
        batch.inserts.push_back(rng.Below(1u << 14));
      }
      break;
    }
  }
  return batch;
}

TEST(MaintainedIndex, UpdateCyclesMatchOracleAcrossSpecMenu) {
  Pcg32 rng(0x11aa22bb);
  for (const IndexSpec& spec : test_menu::DefaultSpecs(16, 8)) {
    std::vector<Key> model =
        workload::KeysWithDuplicates(400 + rng.Below(1200),
                                     1 + rng.Below(200), rng.Next());
    MaintainedIndex index(spec, model);
    ASSERT_TRUE(index.ok()) << spec.ToString();
    for (int round = 0; round < 12; ++round) {
      workload::UpdateBatch batch = EdgeCaseBatch(rng, model, round);
      model = workload::ApplyBatch(model, batch);
      index.ApplyBatch(batch);
      ExpectAllOpsMatchOracle(
          index, model, MakeProbes(rng, model, 120),
          spec.ToString() + " round=" + std::to_string(round));
    }
  }
}

TEST(MaintainedIndex, InsertOnlyGrowthFromEmptyIndex) {
  Pcg32 rng(0x9e0);
  for (const char* spec_text :
       {"css:16", "part:16/css:16", "part:4/hash:8", "btree:16"}) {
    IndexSpec spec = *IndexSpec::Parse(spec_text);
    std::vector<Key> model;
    MaintainedIndex index(spec, {});
    ASSERT_TRUE(index.ok()) << spec_text;
    ASSERT_EQ(index.size(), 0u);
    ASSERT_EQ(index.Snapshot()->index().Find(7), kNotFound) << spec_text;
    for (int round = 0; round < 8; ++round) {
      workload::UpdateBatch batch;
      uint32_t ins = 50 + rng.Below(300);
      for (uint32_t i = 0; i < ins; ++i) {
        batch.inserts.push_back(rng.Below(1u << 16));
      }
      model = workload::ApplyBatch(model, batch);
      index.ApplyBatch(batch);
      ExpectAllOpsMatchOracle(
          index, model, MakeProbes(rng, model, 80),
          std::string(spec_text) + " growth round=" + std::to_string(round));
    }
  }
}

TEST(MaintainedIndex, DeleteEverythingThenRegrow) {
  Pcg32 rng(0xde11);
  for (const char* spec_text : {"css:16", "part:8/css:16", "hash:8"}) {
    IndexSpec spec = *IndexSpec::Parse(spec_text);
    std::vector<Key> model = workload::DistinctSortedKeys(2'000, 5, 3);
    MaintainedIndex index(spec, model);
    workload::UpdateBatch wipe;
    wipe.deletes = model;
    model.clear();
    index.ApplyBatch(wipe);
    ExpectAllOpsMatchOracle(index, model, MakeProbes(rng, model, 40),
                            std::string(spec_text) + " wiped");
    // Regrow on the emptied structure (for part:K, through whatever
    // fences survived the wipe).
    workload::UpdateBatch regrow;
    for (int i = 0; i < 500; ++i) regrow.inserts.push_back(rng.Below(10'000));
    model = workload::ApplyBatch(model, regrow);
    index.ApplyBatch(regrow);
    ExpectAllOpsMatchOracle(index, model, MakeProbes(rng, model, 80),
                            std::string(spec_text) + " regrown");
  }
}

TEST(MaintainedIndex, EmptyBatchPublishesNothing) {
  MaintainedIndex index(*IndexSpec::Parse("part:4/css:16"),
                        workload::DistinctSortedKeys(1'000, 3, 4));
  auto before = index.Snapshot();
  index.ApplyBatch({});
  // Same version object: an empty batch must not pay a rebuild (or even
  // a copy) for a no-op.
  EXPECT_EQ(index.Snapshot().get(), before.get());
  EXPECT_EQ(index.stats().batches, 1u);
  EXPECT_EQ(index.stats().shards_rebuilt, 0u);
}

TEST(MaintainedIndex, SnapshotSurvivesWriterChurn) {
  auto keys = workload::DistinctSortedKeys(1'000, 3, 4);
  MaintainedIndex index(*IndexSpec::Parse("part:4/css:16"), keys);
  auto snapshot = index.Snapshot();
  Key original_first = keys[0];
  for (int round = 0; round < 5; ++round) {
    workload::UpdateBatch batch;
    batch.deletes = {original_first};
    batch.inserts = {keys.back() + 100 + static_cast<Key>(round)};
    index.ApplyBatch(batch);
  }
  // The old snapshot still sees the pre-update world; the live index
  // does not.
  EXPECT_EQ(snapshot->index().Find(original_first), 0);
  EXPECT_EQ(index.Snapshot()->index().Find(original_first), kNotFound);
  EXPECT_EQ(snapshot->keys().size(), keys.size());
}

TEST(MaintainedIndex, RebuildReplacesDataset) {
  MaintainedIndex index(IndexSpec(), workload::DistinctSortedKeys(100, 1, 4));
  auto fresh = workload::DistinctSortedKeys(200, 2, 4);
  index.Rebuild(fresh);
  EXPECT_EQ(index.size(), 200u);
  EXPECT_EQ(index.Snapshot()->index().Find(fresh[50]), 50);
}

TEST(MaintainedIndex, RebuildWithSortedBatchCountsLikeApplySortedBatch) {
  // Rebasing onto relabelled keys plus a batch is one full rebuild and
  // one publish, counted as one batch in the stats and the probe-stats
  // collector — the same counts the plain batch path produces.
  for (bool rebase : {false, true}) {
    SCOPED_TRACE(rebase);
    MaintainedIndex index(*IndexSpec::Parse("part:4/css:16"),
                          {10, 20, 30, 40});
    index.EnableStats();
    const uint64_t before = index.sequence();
    if (rebase) {
      index.RebuildWithSortedBatch({11, 21, 31, 41}, {15, 25}, {21}, nullptr);
      EXPECT_EQ(index.Snapshot()->keys(),
                (std::vector<Key>{11, 15, 25, 31, 41}));
      EXPECT_EQ(index.stats().full_rebuilds, 1u);
    } else {
      index.ApplySortedBatch({15, 25}, {20});
      EXPECT_EQ(index.Snapshot()->keys(),
                (std::vector<Key>{10, 15, 25, 30, 40}));
    }
    EXPECT_EQ(index.sequence(), before + 1);
    EXPECT_EQ(index.stats().batches, 1u);
    EXPECT_EQ(index.stats().keys_inserted, 2u);
    EXPECT_EQ(index.stats().keys_deleted, 1u);
    const WorkloadProfile profile = index.stats_collector()->Profile();
    EXPECT_EQ(profile.update_batches, 1u);
    EXPECT_EQ(profile.keys_inserted, 2u);
    EXPECT_EQ(profile.keys_deleted, 1u);
  }
}

TEST(MaintainedIndex, PayloadRidesEveryPublish) {
  // The writer's payload (a string table's dictionary) is published in
  // the same swap as the keys: refreshes, spec swaps, EnableStats and
  // Rebuild carry it forward; RebuildWithSortedBatch replaces it.
  const auto first = std::make_shared<const int>(1);
  const auto second = std::make_shared<const int>(2);
  MaintainedIndex index(*IndexSpec::Parse("part:4/css:16"),
                        {10, 20, 30, 40}, first);
  EXPECT_EQ(index.Snapshot()->payload(), first);
  index.ApplySortedBatch({15}, {});
  index.EnableStats();
  ASSERT_TRUE(index.RebuildWithSpec(*IndexSpec::Parse("css:16")));
  index.ApplySortedBatch({25}, {10});
  EXPECT_EQ(index.Snapshot()->payload(), first);
  index.RebuildWithSortedBatch({11, 21}, {16}, {}, second);
  EXPECT_EQ(index.Snapshot()->payload(), second);
  index.Rebuild({1, 2});
  EXPECT_EQ(index.Snapshot()->payload(), second);
  EXPECT_EQ(index.sequence(), 6u);
}

TEST(MaintainedIndex, FailedPublishBurnsNoSequenceAndCountsNoBatch) {
  // Fails the k-th allocation of one batch for k = 0, 1, ... until the
  // call succeeds. Every failed call must leave the current version, the
  // sequence, the stats and the probe-stats collector as they were, so
  // the one call that succeeds publishes sequence 2 and counts 1 batch.
  const std::vector<Key> base = workload::DistinctSortedKeys(1'000, 3, 4);
  const auto payload = std::make_shared<const int>(1);
  const auto grown = std::make_shared<const int>(2);
  std::vector<Key> expected = base;
  expected.insert(expected.end(), {7, 999});
  std::sort(expected.begin(), expected.end());
  for (const char* spec_text : {"css:16", "part:4/css:16"}) {
    for (bool rebase : {false, true}) {
      SCOPED_TRACE(std::string(spec_text) +
                   (rebase ? " RebuildWithSortedBatch" : " ApplySortedBatch"));
      MaintainedIndex index(*IndexSpec::Parse(spec_text), base, payload);
      index.EnableStats();
      const auto before = index.Snapshot();
      int failures = 0;
      for (long k = 0;; ++k) {
        std::vector<Key> inserts = {7, 999}, rebased = base;
        bool threw = false;
        g_allocs_left = k;
        try {
          if (rebase) {
            index.RebuildWithSortedBatch(std::move(rebased),
                                         std::move(inserts), {}, grown);
          } else {
            index.ApplySortedBatch(std::move(inserts), {});
          }
        } catch (const std::bad_alloc&) {
          threw = true;
        }
        g_allocs_left = -1;
        if (!threw) break;
        ++failures;
        ASSERT_EQ(index.Snapshot(), before) << "allocation " << k;
        ASSERT_EQ(index.sequence(), 1u) << "allocation " << k;
        ASSERT_EQ(index.stats().batches, 0u) << "allocation " << k;
        ASSERT_EQ(index.stats().keys_inserted, 0u) << "allocation " << k;
        ASSERT_EQ(index.stats().full_rebuilds, 0u) << "allocation " << k;
        ASSERT_EQ(index.stats().incremental_refreshes, 0u)
            << "allocation " << k;
        ASSERT_EQ(index.stats_collector()->Profile().update_batches, 0u)
            << "allocation " << k;
      }
      EXPECT_GT(failures, 0);
      EXPECT_EQ(index.sequence(), 2u);
      EXPECT_EQ(index.stats().batches, 1u);
      EXPECT_EQ(index.stats().keys_inserted, 2u);
      EXPECT_EQ(index.stats_collector()->Profile().update_batches, 1u);
      EXPECT_EQ(index.Snapshot()->keys(), expected);
      EXPECT_EQ(index.Snapshot()->payload(), rebase ? grown : payload);
    }
  }
}

// ---------------------------------------------------------------------
// Shard-reuse property: an incremental part:K refresh rebuilds only the
// shards whose fence range intersects the batch, and the published
// version is bit-identical — keys and every probe — to a from-scratch
// build over the same merged array.

TEST(MaintainedIndex, ServedProbeBatchesAndTokenEncodingAllocateNothing) {
  // A served FIND or COUNT encodes its tokens and probes a part:16/css:16
  // version: the lockstep path and EncodeBatch run off the stack, so with
  // the countdown armed at 0 (the first allocation throws) every call
  // returns. Probed on a refreshed version too, whose shard views the
  // refresh rebuilt.
  auto keys = workload::KeysWithDuplicates(20000, 4000, /*seed=*/67);
  MaintainedIndex index(*IndexSpec::Parse("part:16/css:16"), keys);
  const AnyIndex bare = BuildIndex(*IndexSpec::Parse("css:16"), keys);
  std::vector<Key> probes(64);
  Pcg32 rng(71);
  for (Key& probe : probes) probe = rng.Below(keys.back() + 2);
  std::vector<std::string> values;
  for (int i = 0; i < 1000; ++i) values.push_back(std::to_string(i * 3));
  const auto dictionary = domain::StringDomain::FromValues(values);
  std::vector<std::string_view> tokens;
  for (int i = 0; i < 16; ++i) tokens.push_back(values[i * 37 % 1000]);
  tokens[3] = "1";  // absent
  std::vector<int64_t> found(64), want_found(64);
  std::vector<size_t> lower(64), counts(64);
  std::vector<PositionRange> ranges(64);
  std::vector<uint32_t> ids(16);
  bare.FindBatch(probes, want_found);
  for (int version = 0; version < 2; ++version) {
    SCOPED_TRACE("version " + std::to_string(version));
    const auto snapshot = index.Snapshot();
    const AnyIndex& served = snapshot->index();
    g_allocs_left = 0;
    EXPECT_NO_THROW({
      served.FindBatch(probes, found);
      served.LowerBoundBatch(probes, lower);
      served.EqualRangeBatch(probes, ranges);
      served.CountEqualBatch(probes, counts);
      dictionary.EncodeBatch(tokens, ids);
    });
    g_allocs_left = -1;
    if (version == 0) EXPECT_EQ(found, want_found);
    EXPECT_EQ(ids[0], 0u);
    EXPECT_EQ(ids[3], domain::kAbsentId);
    index.ApplySortedBatch({keys.back() + 1}, {keys.front()});
  }
}

TEST(MaintainedIndex, ShardIncrementalRefreshRebuildsOnlyTouchedShards) {
  Pcg32 rng(0x5a4d);
  auto keys = workload::DistinctSortedKeys(16'384, 7, 4);
  IndexSpec spec = *IndexSpec::Parse("part:16/css:16");
  MaintainedIndex index(spec, keys);
  auto before = index.Snapshot();
  const PartitionedIndex* old_part = before->partitioned();
  ASSERT_NE(old_part, nullptr);
  ASSERT_EQ(old_part->num_shards(), 16u);

  // Batch confined to the key range of shards 3 and 4.
  Key lo = keys[old_part->ShardBase(3)];
  Key hi = keys[old_part->ShardBase(5)];
  workload::UpdateBatch batch;
  for (int i = 0; i < 200; ++i) {
    batch.inserts.push_back(lo + rng.Below(hi - lo));
    batch.deletes.push_back(
        keys[old_part->ShardBase(3) +
             rng.Below(static_cast<uint32_t>(old_part->ShardBase(5) -
                                             old_part->ShardBase(3)))]);
  }
  std::set<size_t> touched;
  for (Key k : batch.inserts) touched.insert(old_part->ShardOf(k));
  for (Key k : batch.deletes) touched.insert(old_part->ShardOf(k));
  ASSERT_LE(touched.size(), 2u);

  index.ApplyBatch(batch);
  EXPECT_EQ(index.stats().incremental_refreshes, 1u);
  EXPECT_EQ(index.stats().full_rebuilds, 0u);
  EXPECT_EQ(index.stats().shards_rebuilt, touched.size());

  auto after = index.Snapshot();
  const PartitionedIndex* new_part = after->partitioned();
  ASSERT_NE(new_part, nullptr);
  for (size_t s = 0; s < 16; ++s) {
    if (touched.count(s) != 0) {
      EXPECT_NE(new_part->shard(s).impl(), old_part->shard(s).impl())
          << "shard " << s << " should have been rebuilt";
    } else {
      EXPECT_EQ(new_part->shard(s).impl(), old_part->shard(s).impl())
          << "shard " << s << " should have been reused";
    }
  }
  // Fences unchanged (no rebalance), so routing is stable across reuse.
  ASSERT_TRUE(std::equal(new_part->fences().begin(),
                         new_part->fences().end(),
                         old_part->fences().begin()));

  // Bit-identical to a from-scratch rebuild of the same merged array:
  // same keys, and the same answer for every op over a dense probe set.
  std::vector<Key> merged = workload::ApplyBatch(keys, batch);
  ASSERT_EQ(after->keys(), merged);
  ExpectAllOpsMatchOracle(index, merged, MakeProbes(rng, merged, 400),
                          "incremental vs from-scratch");
  AnyIndex fresh = BuildIndex(spec, merged);
  std::vector<Key> probes = MakeProbes(rng, merged, 400);
  std::vector<int64_t> got(probes.size()), want(probes.size());
  index.Snapshot()->index().FindBatch(probes, got);
  fresh.FindBatch(probes, want);
  ASSERT_EQ(got, want);
  std::vector<PositionRange> got_r(probes.size()), want_r(probes.size());
  index.Snapshot()->index().EqualRangeBatch(probes, got_r);
  fresh.EqualRangeBatch(probes, want_r);
  ASSERT_EQ(got_r, want_r);
}

TEST(MaintainedIndex, SkewTriggersRebalanceWithFreshFences) {
  auto keys = workload::DistinctSortedKeys(4'000, 11, 4);
  IndexSpec spec = *IndexSpec::Parse("part:8/css:16");
  MaintainedIndex index(spec, keys);
  auto before = index.Snapshot();
  Key first_fence_key = keys[before->partitioned()->ShardBase(1)];

  // Hammer 4000 inserts into shard 0's key range: its ~500 keys balloon
  // past kRebalanceSkew times the equi-depth target.
  Pcg32 rng(0xba1a);
  workload::UpdateBatch flood;
  for (int i = 0; i < 4'000; ++i) {
    flood.inserts.push_back(rng.Below(first_fence_key));
  }
  std::vector<Key> model = workload::ApplyBatch(keys, flood);
  index.ApplyBatch(flood);

  EXPECT_GE(index.stats().rebalances, 1u);
  EXPECT_GE(index.stats().full_rebuilds, 1u);
  auto after = index.Snapshot();
  const PartitionedIndex* part = after->partitioned();
  size_t max_len = 0;
  for (size_t s = 0; s < part->num_shards(); ++s) {
    max_len = std::max(max_len, part->ShardBase(s + 1) - part->ShardBase(s));
  }
  // Fresh equi-depth cuts: every shard near n / K again (distinct keys,
  // so run snapping cannot inflate a shard much).
  EXPECT_LE(max_len * part->num_shards(), 2 * model.size());
  ExpectAllOpsMatchOracle(index, model, MakeProbes(rng, model, 200),
                          "post-rebalance");
}

// ---------------------------------------------------------------------
// Readers during rebuild (the TSan lane's target): N reader threads probe
// snapshots while the single writer applies batches and publishes. The
// writer alternates two marker sets so that every published version
// contains exactly one complete set — a reader's probe batch against one
// snapshot must see all of one set and none of the other. A torn (keys,
// directory) pair or a half-applied batch shows up as a mixed answer.

TEST(MaintainedIndexConcurrency, ReadersSeeOneCoherentVersionPerProbeBatch) {
  for (const char* spec_text : {"css:16", "part:8/css:16"}) {
    IndexSpec spec = *IndexSpec::Parse(spec_text);
    constexpr size_t kBase = 20'000;
    constexpr uint32_t kMarkers = 16;
    // Base keys are multiples of 8; markers are odd, spread across the
    // whole key space so part:K batches straddle many shards (reused and
    // rebuilt shards coexist in every published version).
    std::vector<Key> initial(kBase);
    for (size_t i = 0; i < kBase; ++i) initial[i] = static_cast<Key>(8 * i);
    auto marker = [&](int parity, uint32_t j) {
      return static_cast<Key>(8 * (j * (kBase / kMarkers)) + 1 +
                              2 * static_cast<uint32_t>(parity));
    };
    std::vector<Key> probes;  // set 0 then set 1
    for (int parity = 0; parity < 2; ++parity) {
      for (uint32_t j = 0; j < kMarkers; ++j) {
        probes.push_back(marker(parity, j));
      }
    }
    // The pool-sharded batch repeats both sets past
    // kParallelProbeMinShard, so the facade really splits it.
    std::vector<Key> wide;
    while (wide.size() <= kParallelProbeMinShard) {
      wide.insert(wide.end(), probes.begin(), probes.end());
    }
    std::vector<Key> sorted = initial;
    for (uint32_t j = 0; j < kMarkers; ++j) sorted.push_back(marker(0, j));
    std::sort(sorted.begin(), sorted.end());
    MaintainedIndex index(spec, std::move(sorted));

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> incoherent{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t) {
      readers.emplace_back([&, t] {
        Pcg32 rng(0xace0 + static_cast<uint64_t>(t));
        std::vector<int64_t> found(wide.size());
        while (!stop.load(std::memory_order_relaxed)) {
          auto snap = index.Snapshot();
          size_t probed = probes.size();
          if (rng.Below(16) == 0) {
            // Occasionally shard the probe batch across the pool, so the
            // dispatch path also runs against a version mid-publish.
            snap->index().FindBatch(wide, found, ProbeOptions{.threads = 2});
            probed = wide.size();
          } else {
            snap->index().FindBatch(probes,
                                    std::span<int64_t>(found).first(probed));
          }
          // Entry j probes set (j / kMarkers) % 2; every copy of a set
          // must be all found or all absent, and the other set the
          // opposite.
          const size_t copies = probed / probes.size();
          size_t seen0 = 0, seen1 = 0;
          for (size_t j = 0; j < probed; ++j) {
            if (found[j] == kNotFound) continue;
            ++((j / kMarkers) % 2 == 0 ? seen0 : seen1);
          }
          bool coherent = (seen0 == copies * kMarkers && seen1 == 0) ||
                          (seen1 == copies * kMarkers && seen0 == 0);
          if (!coherent || snap->keys().size() != kBase + kMarkers) {
            incoherent.fetch_add(1);
          }
          // A stable base key must exist in every version.
          Key base_probe = static_cast<Key>(
              8 * rng.Below(static_cast<uint32_t>(kBase)));
          if (snap->index().Find(base_probe) == kNotFound) {
            incoherent.fetch_add(1);
          }
        }
      });
    }

    // Writer: swap the live marker set back and forth. Each ApplyBatch
    // deletes the old set and inserts the new one; a version with a
    // partial set can only exist if publication is torn.
    const int rounds = 120;
    for (int r = 1; r <= rounds; ++r) {
      workload::UpdateBatch batch;
      for (uint32_t j = 0; j < kMarkers; ++j) {
        batch.inserts.push_back(marker(r % 2, j));
        batch.deletes.push_back(marker((r - 1) % 2, j));
      }
      index.ApplyBatch(batch);
    }
    stop.store(true);
    for (auto& t : readers) t.join();
    EXPECT_EQ(incoherent.load(), 0u) << spec_text;
    EXPECT_EQ(index.stats().batches, static_cast<size_t>(rounds))
        << spec_text;
  }
}

TEST(MaintainedIndexConcurrency, RacingFirstKeysCallsConcatenateOnce) {
  // Two readers ask a refreshed part:16 version for its contiguous keys at
  // the same moment: one concatenates the shards, the other waits for it,
  // and both get the same array (the TSan lane checks the handoff).
  auto keys = workload::DistinctSortedKeys(50'000, /*seed=*/103, 4);
  MaintainedIndex index(*IndexSpec::Parse("part:16/css:16"), keys);
  const std::vector<Key> inserts{keys.back() + 1}, deletes{keys.front()};
  index.ApplySortedBatch(inserts, deletes);
  const std::vector<Key> model =
      workload::ApplySortedBatch(keys, inserts, deletes);
  const auto version = index.Snapshot();
  ASSERT_EQ(version->keys_ptr(), nullptr);  // shard-native
  const uint64_t before = KeyArrayMaterializations();
  std::atomic<int> ready{0};
  const std::vector<Key>* seen[2] = {nullptr, nullptr};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < 2) std::this_thread::yield();
      seen[t] = &version->keys();
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(seen[0], seen[1]);
  EXPECT_EQ(*seen[0], model);
  EXPECT_EQ(KeyArrayMaterializations(), before + 1);
}

}  // namespace
}  // namespace cssidx
