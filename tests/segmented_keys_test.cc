// Shard-native versions: a maintained part:K version holds only its
// shards, and readers see its keys through Version's segmented accessor
// (size, Segments, KeyAt, front/back).
//
// The differential drives every part:K inner on the menu, at both key
// widths and K in {1, 3, 16}, through a load, refreshes that touch the
// first, last and middle shards, a refresh that empties a shard, a
// rebalance, a spec swap and a relabelling rebuild, and checks the
// segments against the sorted-array oracle after each step. A load must
// alias the caller's array rather than copy it. A process-wide counter
// proves that no serving or engine path concatenates a version's shards:
// every statement verb and every SortIndex path runs over refreshed
// part:K versions and leaves KeyArrayMaterializations() unchanged.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/maintained_index.h"
#include "core/partitioned_index.h"
#include "engine/query.h"
#include "engine/table.h"
#include "gtest/gtest.h"
#include "serve/server.h"
#include "spec_menu.h"
#include "util/rng.h"
#include "workload/batch_update.h"
#include "workload/key_gen.h"

namespace cssidx {
namespace {

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

template <typename KeyT>
std::vector<KeyT> Concatenated(
    std::span<const std::span<const KeyT>> segments) {
  std::vector<KeyT> keys;
  for (std::span<const KeyT> segment : segments) {
    keys.insert(keys.end(), segment.begin(), segment.end());
  }
  return keys;
}

/// The segmented accessor against the oracle: size, the concatenated
/// segments, every KeyAt, front/back, and LowerBound at every key and its
/// neighbors. Reads nothing through keys().
template <typename KeyT>
void ExpectSegmentsMatch(
    const typename BasicMaintainedIndex<KeyT>::Version& version,
    const std::vector<KeyT>& oracle, const std::string& ctx) {
  ASSERT_EQ(version.size(), oracle.size()) << ctx;
  ASSERT_EQ(Concatenated<KeyT>(version.Segments()), oracle) << ctx;
  if (const auto* part = version.partitioned()) {
    ASSERT_EQ(version.Segments().size(), part->num_shards()) << ctx;
  } else {
    ASSERT_EQ(version.Segments().size(), 1u) << ctx;
  }
  for (size_t i = 0; i < oracle.size(); ++i) {
    ASSERT_EQ(version.KeyAt(i), oracle[i]) << ctx << " i=" << i;
  }
  if (!oracle.empty()) {
    EXPECT_EQ(version.front(), oracle.front()) << ctx;
    EXPECT_EQ(version.back(), oracle.back()) << ctx;
  }
  std::vector<KeyT> probes{0, std::numeric_limits<KeyT>::max()};
  for (size_t i = 0; i < oracle.size(); i += 7) {
    probes.push_back(oracle[i]);
    probes.push_back(oracle[i] + 1);
    probes.push_back(oracle[i] - 1);
  }
  for (KeyT k : probes) {
    const auto want = static_cast<size_t>(
        std::lower_bound(oracle.begin(), oracle.end(), k) - oracle.begin());
    ASSERT_EQ(version.LowerBound(k), want) << ctx << " k=" << k;
  }
}

/// The distinct keys of shard s of the current version.
template <typename KeyT>
std::vector<KeyT> ShardKeys(const BasicMaintainedIndex<KeyT>& index,
                            size_t s) {
  const std::span<const KeyT> shard =
      index.Snapshot()->partitioned()->shard_keys(s);
  std::vector<KeyT> keys(shard.begin(), shard.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

template <typename KeyT>
void DriveLifecycle(const IndexSpec& spec) {
  const std::string name = spec.ToString();
  SCOPED_TRACE(name);
  std::vector<KeyT> oracle =
      Widen<KeyT>(workload::KeysWithDuplicates(1500, 400, /*seed=*/83));
  BasicMaintainedIndex<KeyT> index(spec, oracle);
  ASSERT_TRUE(index.ok());
  const size_t k = index.Snapshot()->partitioned()->num_shards();
  ExpectSegmentsMatch<KeyT>(*index.Snapshot(), oracle, "load");

  const auto apply = [&](std::vector<KeyT> inserts, std::vector<KeyT> deletes,
                         const std::string& step) {
    std::sort(inserts.begin(), inserts.end());
    std::sort(deletes.begin(), deletes.end());
    oracle = workload::ApplySortedBatch<KeyT>(oracle, inserts, deletes);
    index.ApplySortedBatch(std::move(inserts), std::move(deletes));
    ExpectSegmentsMatch<KeyT>(*index.Snapshot(), oracle, step);
  };
  // The first, last and middle shards, each touched alone.
  for (size_t s : {size_t{0}, k - 1, k / 2}) {
    const std::vector<KeyT> shard = ShardKeys(index, s);
    if (shard.size() < 2) continue;
    apply({shard.front(), static_cast<KeyT>(shard.back() - 1)}, {shard[1]},
          "touch shard " + std::to_string(s));
  }
  // Every key of the middle shard deleted: the shard goes empty, and a
  // later insert into its range fills it again.
  const std::vector<KeyT> emptied = ShardKeys(index, k / 2);
  apply({}, emptied, "empty shard " + std::to_string(k / 2));
  if (!emptied.empty()) {
    apply({emptied.front()}, {}, "refill shard " + std::to_string(k / 2));
  }

  // A flood of shard 0's smallest key: shard 0 outgrows kRebalanceSkew
  // times the equi-depth target and the refresh rebuilds with fresh cuts
  // (no shard of K <= kRebalanceSkew can).
  if (k > kRebalanceSkew) {
    const std::vector<KeyT> flood(oracle.size(), oracle.front());
    const size_t rebalances = index.stats().rebalances;
    apply(flood, {}, "rebalance");
    EXPECT_EQ(index.stats().rebalances, rebalances + 1);
    apply({}, {oracle.front()}, "refresh after rebalance");
  }

  // A spec swap of a refreshed (shard-native) version, then a refresh of
  // the swapped one.
  const IndexSpec swapped = spec.WithPartitions(k == 16 ? 3 : 16);
  ASSERT_TRUE(index.RebuildWithSpec(swapped));
  ExpectSegmentsMatch<KeyT>(*index.Snapshot(), oracle, "spec swap");
  apply({oracle.back()}, {}, "refresh after spec swap");

  // A relabelling rebuild (a string table's grown dictionary): every key
  // doubled, one inserted, and the result refreshed again.
  std::vector<KeyT> relabelled;
  for (std::span<const KeyT> segment : index.Snapshot()->Segments()) {
    for (KeyT key : segment) relabelled.push_back(2 * key);
  }
  oracle = workload::ApplySortedBatch<KeyT>(relabelled, std::vector<KeyT>{1},
                                            {});
  index.RebuildWithSortedBatch(relabelled, {1}, {}, nullptr);
  ExpectSegmentsMatch<KeyT>(*index.Snapshot(), oracle, "relabel");
  apply({3}, {oracle.back()}, "refresh after relabel");

  // keys() concatenates the shards once and agrees with the segments.
  const auto version = index.Snapshot();
  const uint64_t before = KeyArrayMaterializations();
  EXPECT_EQ(version->keys(), oracle);
  EXPECT_EQ(&version->keys(), &version->keys());
  EXPECT_EQ(KeyArrayMaterializations(),
            before + (version->keys_ptr() == nullptr ? 1 : 0));
}

/// Every partitioned spec of the width's default menu, at each K.
std::vector<IndexSpec> PartitionedMenu(const std::vector<IndexSpec>& menu) {
  std::set<std::string> seen;
  std::vector<IndexSpec> specs;
  for (const IndexSpec& spec : menu) {
    if (!spec.partitioned()) continue;
    for (int k : {1, 3, 16}) {
      const IndexSpec sized = spec.WithPartitions(k);
      if (sized.OnMenu() && seen.insert(sized.ToString()).second) {
        specs.push_back(sized);
      }
    }
  }
  return specs;
}

TEST(SegmentedKeys, EveryPartitionedInnerThroughTheWholeLifecycle) {
  for (const IndexSpec& spec :
       PartitionedMenu(test_menu::DefaultSpecs(16, 8))) {
    DriveLifecycle<Key>(spec);
    if (::testing::Test::HasFatalFailure()) return;
  }
  for (const IndexSpec& spec :
       PartitionedMenu(test_menu::DefaultSpecs64(16, 8))) {
    DriveLifecycle<Key64>(spec);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(SegmentedKeys, UnpartitionedVersionIsOneSegmentOverItsArray) {
  const std::vector<Key> keys{2, 4, 4, 9};
  MaintainedIndex index(*IndexSpec::Parse("css:16"), keys);
  const auto version = index.Snapshot();
  ExpectSegmentsMatch<Key>(*version, keys, "css:16");
  EXPECT_EQ(version->Segments()[0].data(), version->keys_ptr()->data());
  index.ApplySortedBatch({}, {2, 4, 9});
  ExpectSegmentsMatch<Key>(*index.Snapshot(), {}, "emptied");
}

template <typename KeyT>
void LoadAliasesTheArray() {
  const std::vector<KeyT> keys =
      Widen<KeyT>(workload::DistinctSortedKeys(5000, /*seed=*/89, 4));
  IndexSpec spec = IndexSpec::Parse("part:16/css:16")->WithKeyWidth(
      static_cast<int>(sizeof(KeyT)));
  const uint64_t materialized = KeyArrayMaterializations();
  BasicMaintainedIndex<KeyT> index(spec, keys);
  const auto loaded = index.Snapshot();
  const std::vector<KeyT>& array = *loaded->keys_ptr();
  const auto* part = loaded->partitioned();
  ASSERT_NE(part, nullptr);
  for (size_t s = 0; s < part->num_shards(); ++s) {
    const KeyT* data = part->shard_keys(s).data();
    EXPECT_EQ(data, array.data() + part->ShardBase(s)) << "shard " << s;
  }
  // keys() is the loaded array itself.
  EXPECT_EQ(&loaded->keys(), &array);
  EXPECT_EQ(KeyArrayMaterializations(), materialized);
  // The key bytes counted are the shards' slices: a non-owning build over
  // the same keys plus n keys.
  const BasicAnyIndex<KeyT> borrowed =
      BuildPartitionedIndexT<KeyT>(spec, keys.data(), keys.size());
  EXPECT_EQ(loaded->index().SpaceBytes(),
            borrowed.SpaceBytes() + keys.size() * sizeof(KeyT));

  // A refresh of the last shard gives it a buffer of its own; every other
  // shard still aliases the loaded array, which the refreshed version
  // keeps alive after the loaded one is gone.
  const size_t last = part->num_shards() - 1;
  const KeyT* first_shard = part->shard_keys(0).data();
  const std::weak_ptr<const std::vector<KeyT>> weak_array = loaded->keys_ptr();
  index.ApplySortedBatch({static_cast<KeyT>(keys.back() + 1)}, {});
  const auto refreshed = index.Snapshot();
  const auto* fresh = refreshed->partitioned();
  EXPECT_EQ(refreshed->keys_ptr(), nullptr);
  EXPECT_EQ(fresh->shard_keys(0).data(), first_shard);
  EXPECT_NE(fresh->shard_keys(last).data(),
            array.data() + part->ShardBase(last));
  EXPECT_EQ(fresh->shard_keys(last).size(),
            part->shard_keys(last).size() + 1);
  EXPECT_EQ(refreshed->index().SpaceBytes() -
                loaded->index().SpaceBytes(),
            fresh->shard(last).SpaceBytes() - part->shard(last).SpaceBytes() +
                sizeof(KeyT));
  EXPECT_FALSE(weak_array.expired());
}

TEST(SegmentedKeys, LoadAliasesTheCallersArrayAtBothWidths) {
  LoadAliasesTheArray<Key>();
  LoadAliasesTheArray<Key64>();
}

/// A rebalanced refresh rebuilds over one concatenated array; its version
/// holds that array, so keys() and a spec swap read it instead of
/// concatenating the shards a second time.
template <typename KeyT>
void RebalanceKeepsItsArray() {
  const std::vector<KeyT> keys =
      Widen<KeyT>(workload::DistinctSortedKeys(4000, 5, 4));
  const IndexSpec spec = IndexSpec::Parse("part:16/css:16")->WithKeyWidth(
      static_cast<int>(sizeof(KeyT)));
  BasicMaintainedIndex<KeyT> index(spec, keys);
  // A flood of the smallest key: shard 0 outgrows kRebalanceSkew times
  // the equi-depth target.
  const std::vector<KeyT> flood(keys.size(), keys.front());
  index.ApplySortedBatch(flood, {});
  ASSERT_EQ(index.stats().rebalances, 1u);
  const auto version = index.Snapshot();
  ASSERT_NE(version->keys_ptr(), nullptr);
  const std::vector<KeyT>& array = *version->keys_ptr();
  const auto* part = version->partitioned();
  ASSERT_NE(part, nullptr);
  for (size_t s = 0; s < part->num_shards(); ++s) {
    EXPECT_EQ(part->shard_keys(s).data(), array.data() + part->ShardBase(s))
        << "shard " << s;
  }
  const uint64_t materialized = KeyArrayMaterializations();
  EXPECT_EQ(&version->keys(), &array);
  EXPECT_EQ(version->keys(),
            workload::ApplySortedBatch<KeyT>(keys, flood, {}));
  EXPECT_EQ(KeyArrayMaterializations(), materialized);
  // A spec swap builds over the same array.
  ASSERT_TRUE(index.RebuildWithSpec(IndexSpec::Parse("css:16")->WithKeyWidth(
      static_cast<int>(sizeof(KeyT)))));
  EXPECT_EQ(index.Snapshot()->keys_ptr().get(), &array);
}

TEST(SegmentedKeys, RebalancedVersionHoldsTheArrayItsShardsAlias) {
  RebalanceKeepsItsArray<Key>();
  RebalanceKeepsItsArray<Key64>();
}

// ------------------------------------------------ materialization counter

/// Spins until the writer has applied (and published) `batches` batches.
void WaitUntilApplied(const serve::Server& server, size_t batches) {
  while (server.writer_stats().batches_applied < batches) {
    std::this_thread::yield();
  }
}

TEST(KeyArrayMaterializations, NoStatementConcatenatesAVersionsShards) {
  serve::Server::Options options;
  options.collect_stats = true;
  serve::Server server(options);
  const IndexSpec part16 = *IndexSpec::Parse("part:16/css:16");
  const IndexSpec part3 = *IndexSpec::Parse("part:3/btree:16");
  std::vector<uint32_t> u_keys = workload::KeysWithDuplicates(4000, 900, 97);
  std::vector<uint64_t> w_keys = Widen<uint64_t>(u_keys);
  std::vector<std::string> values, values2;
  for (uint32_t k : u_keys) values.push_back("v" + std::to_string(k));
  for (size_t i = 0; i < u_keys.size(); i += 2) values2.push_back(values[i]);
  server.CreateTable("u", u_keys, part16);
  server.CreateTable("u2", std::vector<uint32_t>(u_keys.begin(),
                                                 u_keys.begin() + 1000),
                     part3);
  server.CreateTable64("w", w_keys, part3);
  server.CreateTable64("w2", w_keys, part16);
  server.CreateStringTable("s", values, part16);
  server.CreateStringTable("s2", values2, part3);
  server.Start();
  serve::Session session = server.OpenSession();
  const uint64_t before = KeyArrayMaterializations();

  // Two rounds of writes: the first refreshes the loaded versions (a
  // string insert of a new value relabels its table), the second runs on
  // the refreshed versions. The last string batch holds known values
  // only, so every table ends on a shard-native version.
  const std::string wide = std::to_string(w_keys.back() + 1);
  const std::vector<std::vector<std::string>> rounds = {
      {"INSERT u 5 4000000", "DELETE u " + std::to_string(u_keys[9]),
       "INSERT u2 7", "INSERT w 5 " + wide,
       "DELETE w " + std::to_string(w_keys[3]), "INSERT w2 9",
       "INSERT s brandnew " + values[7], "DELETE s " + values[100],
       "INSERT s2 " + values[3]},
      {"INSERT u 6", "DELETE u 4000000", "INSERT u2 8", "DELETE w " + wide,
       "INSERT w2 10", "INSERT s " + values[8], "DELETE s brandnew",
       "DELETE s2 " + values[3]}};
  size_t enqueued = 0;
  for (const auto& round : rounds) {
    for (const std::string& statement : round) {
      ASSERT_TRUE(session.Execute(statement).ok()) << statement;
    }
    enqueued += round.size();
    WaitUntilApplied(server, enqueued);
  }
  for (const char* t : {"u", "u2", "s", "s2"}) {
    ASSERT_EQ(server.TableSnapshot(t)->keys_ptr(), nullptr) << t;
  }
  for (const char* t : {"w", "w2"}) {
    ASSERT_EQ(server.TableSnapshot64(t)->keys_ptr(), nullptr) << t;
  }

  const std::vector<std::string> reads = {
      "FIND u 6 " + std::to_string(u_keys[20]), "COUNT u 5 6 7",
      "RANGE u 100 5000", "RANGE u 0 4294967296", "JOIN u u2", "JOIN u2 u",
      "ADVISE u", "FIND w 5 " + std::to_string(w_keys[30]), "COUNT w 5",
      "RANGE w 0 18446744073709551615", "JOIN w w2", "ADVISE w2",
      "FIND s " + values[8], "COUNT s " + values[7], "RANGE s v1 v5",
      "JOIN s s2", "JOIN s2 s", "JOIN s s", "ADVISE s"};
  for (const std::string& statement : reads) {
    const serve::StatementResult result = session.Execute(statement);
    EXPECT_TRUE(result.ok()) << statement << ": " << result.error;
  }
  server.Stop();
  EXPECT_EQ(KeyArrayMaterializations(), before);

  // The counter sees a concatenation when one happens.
  EXPECT_EQ(server.TableSnapshot("u")->keys().size(),
            server.TableSnapshot("u")->size());
  EXPECT_EQ(KeyArrayMaterializations(), before + 1);
}

TEST(KeyArrayMaterializations, NoSortIndexPathConcatenatesShards) {
  // Every SortIndex path over a refreshed part:16 index, diffed against a
  // css:16 index over the same column.
  Pcg32 rng(101);
  std::vector<uint32_t> column(6000), values(6000);
  for (uint32_t& v : column) v = rng.Below(4000);
  for (uint32_t& v : values) v = rng.Below(1000);
  const IndexSpec part = *IndexSpec::Parse("part:16/css:16");
  const IndexSpec bare = *IndexSpec::Parse("css:16");
  engine::Table t, reference;
  for (engine::Table* table : {&t, &reference}) {
    table->AddColumn("k", column);
    table->AddColumn("v", values);
  }
  t.BuildSortIndex("k", part);
  reference.BuildSortIndex("k", bare);
  const uint64_t before = KeyArrayMaterializations();

  const auto check = [&](const std::string& step) {
    SCOPED_TRACE(step);
    const engine::SortIndex& got = t.GetSortIndex("k");
    const engine::SortIndex& want = reference.GetSortIndex("k");
    ASSERT_EQ(Concatenated<uint32_t>(got.KeySegments()),
              Concatenated<uint32_t>(want.KeySegments()));
    ASSERT_EQ(got.rids(), want.rids());
    for (uint32_t v : {0u, 17u, 2000u, 3999u, 4000u}) {
      EXPECT_EQ(got.Equal(v), want.Equal(v)) << v;
    }
    EXPECT_EQ(got.Range(100, 900), want.Range(100, 900));
    // Key and RID list bytes: everything but the directory.
    const auto list_bytes = [](const engine::SortIndex& index) {
      return index.SpaceBytes() -
             index.maintained().Snapshot()->index().SpaceBytes();
    };
    EXPECT_EQ(list_bytes(got), list_bytes(want));
    const auto groups = engine::GroupBy(t, "k", "v", 600);
    const auto want_groups = engine::GroupBy(reference, "k", "v", 600);
    ASSERT_EQ(groups.size(), want_groups.size());
    for (size_t g = 0; g < groups.size(); ++g) {
      EXPECT_EQ(groups[g].count, want_groups[g].count) << g;
      EXPECT_EQ(groups[g].sum, want_groups[g].sum) << g;
    }
  };
  for (int round = 0; round < 3; ++round) {
    std::vector<uint32_t> keys(40), vals(40);
    for (uint32_t& v : keys) v = rng.Below(4100);
    for (uint32_t& v : vals) v = rng.Below(1000);
    for (engine::Table* table : {&t, &reference}) {
      table->AppendRows({{"k", keys}, {"v", vals}});
    }
    check("append " + std::to_string(round));
    const std::vector<uint32_t> gone{keys[0], column[round], 250};
    std::vector<uint32_t> k2{keys[1], 123}, v2{1, 2};
    for (engine::Table* table : {&t, &reference}) {
      table->ApplyUpdate("k", gone, {{"k", k2}, {"v", v2}});
    }
    check("update " + std::to_string(round));
  }
  EXPECT_EQ(t.GetSortIndex("k").maintained().Snapshot()->keys_ptr(), nullptr);
  EXPECT_EQ(KeyArrayMaterializations(), before);
}

}  // namespace
}  // namespace cssidx
