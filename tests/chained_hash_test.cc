#include "baselines/chained_hash.h"

#include <algorithm>
#include <vector>

#include "gtest/gtest.h"
#include "workload/key_gen.h"

namespace cssidx {
namespace {

TEST(ChainedHash, FindsEveryKey) {
  auto keys = workload::DistinctSortedKeys(10'000, 3, 4);
  ChainedHashIndex<64> index(keys, /*dir_bits=*/10);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(index.Find(keys[i]), static_cast<int64_t>(i));
  }
}

TEST(ChainedHash, MissingKeysNotFound) {
  auto keys = workload::DistinctSortedKeys(1000, 3, 4);
  ChainedHashIndex<64> index(keys, 8);
  for (Key k : keys) {
    // Gaps >= 1 guarantee k-... may exist; probe keys outside the set.
    if (!std::binary_search(keys.begin(), keys.end(), k + 1)) {
      ASSERT_EQ(index.Find(k + 1), kNotFound);
    }
  }
  EXPECT_EQ(index.Find(0), kNotFound);
}

TEST(ChainedHash, DirectoryOfOneBucketStillCorrect) {
  // Failure injection: everything chains off a single directory slot.
  auto keys = workload::DistinctSortedKeys(500, 7, 4);
  ChainedHashIndex<64> index(keys, 0);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(index.Find(keys[i]), static_cast<int64_t>(i));
  }
  EXPECT_GE(index.MaxChainBuckets(), 500u / 7);
}

TEST(ChainedHash, DuplicatesReturnLeftmostAndCountAll) {
  auto keys = workload::KeysWithDuplicates(2000, 60, 5);
  ChainedHashIndex<64> index(keys, 8);
  for (Key k : keys) {
    auto [lo, hi] = std::equal_range(keys.begin(), keys.end(), k);
    EXPECT_EQ(index.Find(k), lo - keys.begin());
    EXPECT_EQ(index.CountEqual(k), static_cast<size_t>(hi - lo));
  }
}

TEST(ChainedHash, BucketIsExactlyOneCacheLine) {
  EXPECT_EQ(sizeof(ChainedHashIndex<64>::Bucket), 64u);
  EXPECT_EQ(sizeof(ChainedHashIndex<32>::Bucket), 32u);
  EXPECT_EQ(ChainedHashIndex<64>::kPairsPerBucket, 7);
  EXPECT_EQ(ChainedHashIndex<32>::kPairsPerBucket, 3);
}

TEST(ChainedHash, SpaceIsDirectoryPlusOverflow) {
  auto keys = workload::DistinctSortedKeys(1000, 3, 4);
  ChainedHashIndex<64> small_dir(keys, 4);   // 16 buckets + many overflows
  ChainedHashIndex<64> big_dir(keys, 12);    // 4096 buckets, few overflows
  EXPECT_GE(small_dir.SpaceBytes(), (1000 / 7) * 64u);
  EXPECT_GE(big_dir.SpaceBytes(), 4096u * 64);
  EXPECT_GT(big_dir.SpaceBytes(), small_dir.SpaceBytes());
}

TEST(ChainedHash, ArenaHoldsExactlyTheBucketsInUse) {
  // No spare arena capacity: a slot's chain is max(1, ceil(keys in slot /
  // kPairsPerBucket)) lines, and SpaceBytes is their sum at every load.
  auto keys = workload::KeysWithDuplicates(20'000, 60, 5);
  for (int bits : {0, 4, 10, 14}) {
    std::vector<size_t> in_slot(size_t{1} << bits, 0);
    for (Key k : keys) ++in_slot[k & ((1u << bits) - 1)];
    auto buckets_in_use = [&](size_t pairs_per_bucket) {
      size_t buckets = 0;
      for (size_t c : in_slot) {
        buckets += std::max<size_t>(
            1, (c + pairs_per_bucket - 1) / pairs_per_bucket);
      }
      return buckets;
    };
    EXPECT_EQ(ChainedHashIndex<64>(keys, bits).SpaceBytes(),
              buckets_in_use(ChainedHashIndex<64>::kPairsPerBucket) * 64)
        << "dir_bits=" << bits;
    EXPECT_EQ(ChainedHashIndex<32>(keys, bits).SpaceBytes(),
              buckets_in_use(ChainedHashIndex<32>::kPairsPerBucket) * 32)
        << "dir_bits=" << bits;
  }
}

TEST(ChainedHash, SkewedKeysDegradeChains) {
  // Low-order-bit hashing on stride-64 keys wastes most of the directory:
  // the paper's skew warning (§3.5).
  std::vector<Key> strided;
  for (Key i = 0; i < 1000; ++i) strided.push_back(i * 64);
  ChainedHashIndex<64> skewed(strided, 10);  // only 16 of 1024 slots used

  auto uniform = workload::DistinctSortedKeys(1000, 3, 4);
  ChainedHashIndex<64> good(uniform, 10);

  EXPECT_GT(skewed.MaxChainBuckets(), 4 * good.MaxChainBuckets());
  // Still correct, just slow.
  for (size_t i = 0; i < strided.size(); ++i) {
    ASSERT_EQ(skewed.Find(strided[i]), static_cast<int64_t>(i));
  }
}

TEST(ChainedHash, MultiplicativeHashFindsEveryKey) {
  auto keys = workload::DistinctSortedKeys(5'000, 3, 4);
  ChainedHashIndex<64> index(keys.data(), keys.size(), 9,
                             HashFunction::kMultiplicative);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(index.Find(keys[i]), static_cast<int64_t>(i));
  }
  EXPECT_EQ(index.Find(keys.back() + 1), kNotFound);
}

TEST(ChainedHash, MultiplicativeHashResistsLowBitSkew) {
  // §3.5's "sophisticated hash function" point: stride-64 keys collapse
  // low-order-bit hashing onto 1/16 of the directory; multiplicative
  // hashing spreads them.
  std::vector<Key> strided;
  for (Key i = 0; i < 2000; ++i) strided.push_back(i * 64);
  ChainedHashIndex<64> low(strided.data(), strided.size(), 10,
                           HashFunction::kLowOrderBits);
  ChainedHashIndex<64> mult(strided.data(), strided.size(), 10,
                            HashFunction::kMultiplicative);
  EXPECT_GT(low.MaxChainBuckets(), 6 * mult.MaxChainBuckets());
  for (size_t i = 0; i < strided.size(); i += 71) {
    ASSERT_EQ(mult.Find(strided[i]), static_cast<int64_t>(i));
  }
}

TEST(ChainedHash, MultiplicativeDegenerateDirectories) {
  auto keys = workload::DistinctSortedKeys(100, 3, 4);
  for (int bits : {0, 1, 2}) {
    ChainedHashIndex<64> index(keys.data(), keys.size(), bits,
                               HashFunction::kMultiplicative);
    for (size_t i = 0; i < keys.size(); ++i) {
      ASSERT_EQ(index.Find(keys[i]), static_cast<int64_t>(i)) << bits;
    }
  }
}

TEST(ChainedHash, EmptyTable) {
  std::vector<Key> empty;
  ChainedHashIndex<64> index(empty, 4);
  EXPECT_EQ(index.Find(1), kNotFound);
  EXPECT_EQ(index.CountEqual(1), 0u);
}

}  // namespace
}  // namespace cssidx
