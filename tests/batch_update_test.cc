#include "workload/batch_update.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "util/rng.h"
#include "workload/key_gen.h"

namespace cssidx::workload {
namespace {

TEST(BatchUpdate, InsertOnly) {
  std::vector<uint32_t> keys{10, 20, 30};
  UpdateBatch batch;
  batch.inserts = {25, 5, 35};
  auto result = ApplyBatch(keys, batch);
  EXPECT_EQ(result, (std::vector<uint32_t>{5, 10, 20, 25, 30, 35}));
}

TEST(BatchUpdate, DeleteOnly) {
  std::vector<uint32_t> keys{10, 20, 30, 40};
  UpdateBatch batch;
  batch.deletes = {20, 40};
  auto result = ApplyBatch(keys, batch);
  EXPECT_EQ(result, (std::vector<uint32_t>{10, 30}));
}

TEST(BatchUpdate, DeleteRemovesAllOccurrences) {
  std::vector<uint32_t> keys{10, 20, 20, 20, 30};
  UpdateBatch batch;
  batch.deletes = {20};
  auto result = ApplyBatch(keys, batch);
  EXPECT_EQ(result, (std::vector<uint32_t>{10, 30}));
}

TEST(BatchUpdate, InsertAfterDeleteKeepsKey) {
  std::vector<uint32_t> keys{10, 20, 30};
  UpdateBatch batch;
  batch.deletes = {20};
  batch.inserts = {20};
  auto result = ApplyBatch(keys, batch);
  EXPECT_EQ(result, (std::vector<uint32_t>{10, 20, 30}));
}

TEST(BatchUpdate, DuplicateInsertsKept) {
  std::vector<uint32_t> keys{10};
  UpdateBatch batch;
  batch.inserts = {10, 10};
  auto result = ApplyBatch(keys, batch);
  EXPECT_EQ(result, (std::vector<uint32_t>{10, 10, 10}));
}

TEST(BatchUpdate, DeleteAbsentKeyIsNoop) {
  std::vector<uint32_t> keys{10, 30};
  UpdateBatch batch;
  batch.deletes = {20};
  EXPECT_EQ(ApplyBatch(keys, batch), keys);
}

TEST(BatchUpdate, EmptyEverything) {
  EXPECT_TRUE(ApplyBatch({}, {}).empty());
  std::vector<uint32_t> keys{1, 2};
  EXPECT_EQ(ApplyBatch(keys, {}), keys);
}

TEST(BatchUpdate, ResultAlwaysSorted) {
  auto keys = DistinctSortedKeys(5000, 3, 4);
  UpdateBatch batch = RandomBatch(keys, 0.2, 99);
  auto result = ApplyBatch(keys, batch);
  EXPECT_TRUE(std::is_sorted(result.begin(), result.end()));
}

TEST(BatchUpdate, RandomBatchTouchesRequestedFraction) {
  auto keys = DistinctSortedKeys(10000, 3, 4);
  UpdateBatch batch = RandomBatch(keys, 0.1, 7);
  EXPECT_EQ(batch.deletes.size() + batch.inserts.size(), 1000u);
}

TEST(BatchUpdate, SizeAccounting) {
  auto keys = DistinctSortedKeys(2000, 3, 4);
  UpdateBatch batch;
  batch.inserts = {keys.back() + 1, keys.back() + 2};
  batch.deletes = {keys[0], keys[1], keys[2]};
  auto result = ApplyBatch(keys, batch);
  EXPECT_EQ(result.size(), keys.size() - 3 + 2);
}

TEST(BatchUpdate, RandomBatchInRangeStaysInRangeAndSizesLikeRandomBatch) {
  auto keys = DistinctSortedKeys(10000, 3, 4);
  uint32_t lo = keys[1000];
  uint32_t hi = keys[2000];
  UpdateBatch batch = RandomBatchInRange(keys, 0.05, lo, hi, 7);
  // Sized against the WHOLE array, like RandomBatch, so localized and
  // scattered batches of one fraction are comparable.
  EXPECT_EQ(batch.deletes.size() + batch.inserts.size(), 500u);
  for (uint32_t k : batch.inserts) {
    EXPECT_GE(k, lo);
    EXPECT_LT(k, hi);
  }
  for (uint32_t k : batch.deletes) {
    EXPECT_GE(k, lo);
    EXPECT_LT(k, hi);
    EXPECT_TRUE(std::binary_search(keys.begin(), keys.end(), k));
  }
}

TEST(BatchUpdate, RandomBatchInRangeWithNoExistingKeysIsInsertOnly) {
  auto keys = DistinctSortedKeys(1000, 5, 4);
  uint32_t beyond = keys.back() + 10;
  UpdateBatch batch = RandomBatchInRange(keys, 0.1, beyond, beyond + 50, 11);
  EXPECT_TRUE(batch.deletes.empty());  // nothing in range to delete
  EXPECT_EQ(batch.inserts.size(), 50u);
}

// The insert-only path merges straight into the result; it must equal
// the survivors-then-merge algorithm the delete path runs, written out
// here as an independent reference. Duplicate inserts equal to existing
// keys land after them (std::merge is stable), as before.
TEST(BatchUpdate, InsertOnlyMergeEqualsSurvivorsThenMerge) {
  auto reference = [](const std::vector<uint32_t>& keys,
                      const std::vector<uint32_t>& inserts) {
    std::vector<uint32_t> survivors(keys.begin(), keys.end());
    std::vector<uint32_t> out(survivors.size() + inserts.size());
    std::merge(survivors.begin(), survivors.end(), inserts.begin(),
               inserts.end(), out.begin());
    return out;
  };
  const std::vector<uint32_t> no_deletes;
  // A delete key that is in neither list: the delete path removes nothing.
  const std::vector<uint32_t> absent{UINT32_MAX};
  std::vector<std::pair<std::vector<uint32_t>, std::vector<uint32_t>>> cases{
      {{}, {}},
      {{}, {1, 1, 2}},
      {{3, 5, 5, 9}, {}},
      {{3, 5, 5, 9}, {5, 5, 5}},
      {{3, 5, 5, 9}, {0, 3, 5, 9, 9, 10}},
      {{10, 10, 10}, {10}},
      {{1, 2, 3}, {100, 200}},
      {{100, 200}, {1, 2, 3}},
  };
  auto keys = DistinctSortedKeys(3000, 3, 4);
  std::vector<uint32_t> dup_inserts;
  for (size_t i = 0; i < keys.size(); i += 7) dup_inserts.push_back(keys[i]);
  dup_inserts.push_back(0);
  dup_inserts.push_back(keys.back() + 1);
  std::sort(dup_inserts.begin(), dup_inserts.end());
  cases.emplace_back(keys, dup_inserts);
  for (const auto& [base, inserts] : cases) {
    ASSERT_TRUE(base.empty() || base.back() < UINT32_MAX);
    ASSERT_TRUE(inserts.empty() || inserts.back() < UINT32_MAX);
    const std::vector<uint32_t> want = reference(base, inserts);
    EXPECT_EQ(ApplySortedBatch(base, inserts, no_deletes), want);
    EXPECT_EQ(ApplySortedBatch(base, inserts, absent), want);
  }
}

/// The batch language on a multiset: every occurrence of a delete key
/// leaves, then every insert lands.
template <typename KeyT>
std::vector<KeyT> MultisetReplay(const std::vector<KeyT>& keys,
                                 const std::vector<KeyT>& inserts,
                                 const std::vector<KeyT>& deletes) {
  std::multiset<KeyT> bag(keys.begin(), keys.end());
  for (KeyT k : deletes) bag.erase(k);
  bag.insert(inserts.begin(), inserts.end());
  return std::vector<KeyT>(bag.begin(), bag.end());
}

template <typename KeyT>
void DeleteMergeMatchesMultisetReplay() {
  // Random duplicate-heavy keys and batches over a small value range, so
  // deletes and inserts hit runs, each other, absent values, both ends
  // of the array, and the type's extremes.
  constexpr KeyT kMax = std::numeric_limits<KeyT>::max();
  Pcg32 rng(113);
  for (int trial = 0; trial < 300; ++trial) {
    const uint32_t range = 2 + rng.Below(60);
    const auto value = [&] {
      const uint32_t r = rng.Below(range + 2);
      return r == range ? KeyT{0} : r == range + 1 ? kMax : KeyT{r};
    };
    std::vector<KeyT> keys(rng.Below(200)), inserts(rng.Below(12)),
        deletes(1 + rng.Below(12));
    for (KeyT& k : keys) k = value();
    for (KeyT& k : inserts) k = value();
    for (KeyT& k : deletes) k = value();
    std::sort(keys.begin(), keys.end());
    std::sort(inserts.begin(), inserts.end());
    std::sort(deletes.begin(), deletes.end());
    const std::vector<KeyT> got =
        ApplySortedBatch<KeyT>(keys, inserts, deletes);
    ASSERT_EQ(got, MultisetReplay(keys, inserts, deletes)) << trial;
    ASSERT_EQ(got.capacity(), got.size()) << trial;  // sized exactly
  }
}

TEST(BatchUpdate, DeleteMergeMatchesMultisetReplayAtBothWidths) {
  DeleteMergeMatchesMultisetReplay<uint32_t>();
  DeleteMergeMatchesMultisetReplay<uint64_t>();
}

}  // namespace
}  // namespace cssidx::workload
