#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/builder.h"
#include "core/index.h"
#include "core/maintained_index.h"
#include "core/simd_node_search.h"
#include "gtest/gtest.h"
#include "spec_menu.h"
#include "util/rng.h"
#include "workload/batch_update.h"

// The 64-bit differential suite: every wide-key spec on the menu
// (including part:K composites and @tN probe sharding), probed with a key
// distribution built to trip 32-bit leftovers — values straddling 2^32,
// values with the sign bit set (the AVX2 uint64 kernel compares through a
// 2^63 XOR bias), and the exact top of the key space — checked
// bit-identically against the STL oracle on every node-search path the
// machine has, scalar included.

namespace cssidx {
namespace {

constexpr uint64_t kMax64 = std::numeric_limits<uint64_t>::max();

/// Sorted keys (duplicates kept) mixing four adversarial bands: small
/// dup-heavy values, a band straddling 2^32, full-range values, and
/// values with bit 63 set. The exact sentinels 0, 2^32-1, 2^32, and
/// 2^64-1 are always present.
std::vector<uint64_t> WideKeys(size_t n, uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<uint64_t> keys(n);
  for (auto& k : keys) {
    switch (rng.Below(4)) {
      case 0:
        k = rng.Below(500);
        break;
      case 1:
        k = (uint64_t{1} << 32) - 250 + rng.Below(500);
        break;
      case 2:
        k = rng.Next64() >> 1;  // bit 63 clear
        break;
      default:
        k = (uint64_t{1} << 63) | rng.Next64();
        break;
    }
  }
  keys.push_back(0);
  keys.push_back((uint64_t{1} << 32) - 1);
  keys.push_back(uint64_t{1} << 32);
  keys.push_back(kMax64);
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// Probe mix: present keys, their off-by-one neighbors (absent more often
/// than not), and the sentinels again.
std::vector<uint64_t> WideProbes(const std::vector<uint64_t>& keys,
                                 size_t n, uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<uint64_t> probes(n);
  for (auto& p : probes) {
    const uint64_t k = keys[rng.Below(static_cast<uint32_t>(keys.size()))];
    switch (rng.Below(4)) {
      case 0:
        p = k;
        break;
      case 1:
        p = k == kMax64 ? k : k + 1;
        break;
      case 2:
        p = k == 0 ? k : k - 1;
        break;
      default:
        p = rng.Next64();
        break;
    }
  }
  probes.push_back(kMax64);
  probes.push_back(0);
  probes.push_back(uint64_t{1} << 32);
  return probes;
}

size_t OracleLowerBound(const std::vector<uint64_t>& keys, uint64_t k) {
  return static_cast<size_t>(
      std::lower_bound(keys.begin(), keys.end(), k) - keys.begin());
}

size_t OracleCount(const std::vector<uint64_t>& keys, uint64_t k) {
  return static_cast<size_t>(
      std::upper_bound(keys.begin(), keys.end(), k) -
      std::lower_bound(keys.begin(), keys.end(), k));
}

/// Node-search paths this machine can actually run, scalar first — so
/// one test run covers SIMD-vs-forced-scalar agreement in process.
std::vector<NodeSearchPath> AvailablePaths() {
  std::vector<NodeSearchPath> paths;
  for (NodeSearchPath p : {NodeSearchPath::kScalar, NodeSearchPath::kSse2,
                           NodeSearchPath::kAvx2}) {
    if (SetNodeSearchPath(p) == p) paths.push_back(p);
  }
  SetNodeSearchPath(DetectedNodeSearchPath());
  return paths;
}

TEST(KeyWidth64, EveryWideSpecMatchesTheStlOracleOnEveryPath) {
  const std::vector<uint64_t> keys = WideKeys(4'000, 0x64a);
  const std::vector<uint64_t> probes = WideProbes(keys, 2'000, 0x64b);
  for (NodeSearchPath path : AvailablePaths()) {
    SetNodeSearchPath(path);
    for (const IndexSpec& spec : test_menu::DefaultSpecs64(16, 10)) {
      SCOPED_TRACE(std::string(NodeSearchPathName(path)) + " " +
                   spec.ToString());
      AnyIndex64 index = BuildIndex64(spec, keys);
      ASSERT_TRUE(static_cast<bool>(index));

      std::vector<int64_t> found(probes.size());
      std::vector<size_t> lbs(probes.size());
      std::vector<size_t> counts(probes.size());
      std::vector<PositionRange> runs(probes.size());
      index.FindBatch(probes, found);
      index.LowerBoundBatch(probes, lbs);
      index.CountEqualBatch(probes, counts);
      index.EqualRangeBatch(probes, runs);
      for (size_t i = 0; i < probes.size(); ++i) {
        const size_t lb = OracleLowerBound(keys, probes[i]);
        const size_t count = OracleCount(keys, probes[i]);
        ASSERT_EQ(lbs[i], lb) << "probe " << probes[i];
        ASSERT_EQ(counts[i], count) << "probe " << probes[i];
        ASSERT_EQ(found[i], count > 0 ? static_cast<int64_t>(lb) : -1)
            << "probe " << probes[i];
        ASSERT_EQ(runs[i].begin, count > 0 ? lb : runs[i].end)
            << "probe " << probes[i];
        ASSERT_EQ(runs[i].end - runs[i].begin, count)
            << "probe " << probes[i];
      }

      // The "@tN" sharded probe path must agree with the inline path.
      std::vector<size_t> sharded(probes.size());
      index.LowerBoundBatch(probes, sharded, ProbeOptions{.threads = 2});
      ASSERT_EQ(sharded, lbs);
    }
  }
  SetNodeSearchPath(DetectedNodeSearchPath());
}

TEST(KeyWidth64, WidthMismatchedBuildsAreFalsy) {
  // Key width is a spec dimension: an entry point only accepts specs of
  // its own width, so "css:16" through BuildIndex64 (and "css64:16"
  // through BuildIndex) is off the menu, not a silent reinterpretation.
  const std::vector<uint64_t> wide{1, 2, 3};
  const std::vector<uint32_t> narrow{1, 2, 3};
  const IndexSpec spec32 = *IndexSpec::Parse("css:16");
  const IndexSpec spec64 = *IndexSpec::Parse("css64:16");
  EXPECT_FALSE(static_cast<bool>(BuildIndex64(spec32, wide)));
  EXPECT_FALSE(static_cast<bool>(BuildIndex(spec64, narrow)));
  EXPECT_TRUE(static_cast<bool>(BuildIndex64(spec64, wide)));
  EXPECT_TRUE(static_cast<bool>(BuildIndex(spec32, narrow)));
  EXPECT_FALSE(MaintainedIndex64(spec32, {1, 2, 3}).ok());
  EXPECT_TRUE(MaintainedIndex64(spec64, {1, 2, 3}).ok());
  // No 64-bit hash build exists to mismatch against.
  EXPECT_FALSE(IndexSpec::Parse("hash64:10").has_value());
}

TEST(KeyWidth64, MaintainedCyclesMatchTheOracleAtEveryVersion) {
  // The serving-layer lifecycle at width 8: batches of inserts/deletes
  // (max-key churn included) applied through BasicMaintainedIndex
  // <uint64_t>, each published version compared key-for-key against the
  // serial workload::ApplyBatch oracle, plus probes at the top of the
  // key space — where a 32-bit sentinel or fence would fold.
  for (const IndexSpec& spec : test_menu::DefaultSpecs64(16, 10)) {
    SCOPED_TRACE(spec.ToString());
    std::vector<uint64_t> oracle = WideKeys(600, 0x64c);
    MaintainedIndex64 maintained(spec, oracle);
    ASSERT_TRUE(maintained.ok());
    Pcg32 rng(0x64d);
    for (int cycle = 0; cycle < 5; ++cycle) {
      workload::UpdateBatch64 batch;
      batch.inserts.resize(20);
      for (auto& k : batch.inserts) {
        k = rng.Below(2) ? rng.Next64() : kMax64 - rng.Below(3);
      }
      batch.deletes.resize(15);
      for (auto& k : batch.deletes) {
        k = oracle.empty()
                ? rng.Next64()
                : oracle[rng.Below(static_cast<uint32_t>(oracle.size()))];
      }
      maintained.ApplyBatch(batch);
      oracle = workload::ApplyBatch(oracle, batch);
      auto snap = maintained.Snapshot();
      ASSERT_EQ(snap->keys(), oracle) << "cycle " << cycle;
      for (uint64_t probe : {kMax64, kMax64 - 1, uint64_t{1} << 32}) {
        ASSERT_EQ(snap->index().CountEqual(probe), OracleCount(oracle, probe))
            << "cycle " << cycle << " probe " << probe;
        ASSERT_EQ(snap->index().LowerBound(probe),
                  OracleLowerBound(oracle, probe))
            << "cycle " << cycle << " probe " << probe;
      }
    }
  }
}

TEST(KeyWidth64, EmptyTrailingShardsNeverCaptureMaxKeyProbes) {
  // The fence regression, probed at the max key of BOTH widths: with
  // more shards than distinct keys, trailing shards are empty, and the
  // old all-ones fence sentinel (1<<32 as uint64) made an empty shard
  // compare above every 32-bit key — at width 8 the same trick has no
  // representable sentinel at all. The truncated-fence representation
  // stores no fence for trailing empty shards, so the max key must
  // route to the last NON-empty shard at either width.
  const std::vector<uint32_t> narrow{1, 2, 3, std::numeric_limits<uint32_t>::max()};
  const std::vector<uint64_t> wide{1, 2, 3, kMax64};
  for (int shards : {2, 8, 16}) {
    SCOPED_TRACE(shards);
    const IndexSpec spec32 =
        IndexSpec::Parse("css:16")->WithPartitions(shards);
    const IndexSpec spec64 =
        IndexSpec::Parse("css64:16")->WithPartitions(shards);
    AnyIndex index32 = BuildIndex(spec32, narrow);
    AnyIndex64 index64 = BuildIndex64(spec64, wide);
    ASSERT_TRUE(static_cast<bool>(index32));
    ASSERT_TRUE(static_cast<bool>(index64));
    EXPECT_EQ(index32.Find(narrow.back()), 3);
    EXPECT_EQ(index32.CountEqual(narrow.back()), 1u);
    EXPECT_EQ(index32.LowerBound(narrow.back() - 1), 3u);
    EXPECT_EQ(index64.Find(kMax64), 3);
    EXPECT_EQ(index64.CountEqual(kMax64), 1u);
    EXPECT_EQ(index64.LowerBound(kMax64 - 1), 3u);
  }
}

}  // namespace
}  // namespace cssidx
