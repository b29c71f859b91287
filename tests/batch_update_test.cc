#include "workload/batch_update.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
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

}  // namespace
}  // namespace cssidx::workload
