// Differential suite for the batched range probes (EqualRangeBatch /
// CountEqualBatch): every spec on the IndexSpec menu must agree with the
// scalar EqualRange/CountEqual probes (batches of one through the same
// virtual hop) and with the STL equal_range oracle — whatever group
// probing, prefetching, or chain-scan tricks a kernel plays underneath.
// Range semantics are where differential bugs hide, so the inputs lean on
// heavy duplicates, all-equal arrays, absent keys, empty batches, and
// probe spans straddling the parallel-probe shard threshold.

#include <algorithm>
#include <string>
#include <vector>

#include "core/builder.h"
#include "core/range.h"
#include "gtest/gtest.h"
#include "spec_menu.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/key_gen.h"
#include "workload/lookup_gen.h"

namespace cssidx {
namespace {

/// The contract's expected span: {lower_bound, upper_bound} for ordered
/// methods; hash anchors absent keys' empty spans at size() instead of the
/// insertion point (it has no notion of one).
PositionRange OracleRange(const std::vector<Key>& keys, Key k, bool ordered) {
  auto lo = std::lower_bound(keys.begin(), keys.end(), k);
  auto hi = std::upper_bound(keys.begin(), keys.end(), k);
  auto begin = static_cast<size_t>(lo - keys.begin());
  auto end = static_cast<size_t>(hi - keys.begin());
  if (!ordered && begin == end) return {keys.size(), keys.size()};
  return {begin, end};
}

std::vector<Key> ProbesFor(const std::vector<Key>& keys, size_t count,
                           uint64_t seed) {
  // Matching, absent, and boundary keys: the three regimes of a run probe.
  auto probes = workload::MatchingLookups(keys, count - count / 4, seed);
  auto missing = workload::MissingLookups(keys, count / 4, seed + 1);
  probes.insert(probes.end(), missing.begin(), missing.end());
  if (!keys.empty()) {
    probes.push_back(keys.front());
    probes.push_back(keys.back());
    probes.push_back(keys.back() + 1);
  }
  probes.push_back(0);
  return probes;
}

void CheckRangeProbes(const AnyIndex& index, const std::vector<Key>& keys,
                      const std::vector<Key>& probes,
                      const std::string& label) {
  std::vector<PositionRange> ranges(probes.size());
  std::vector<size_t> counts(probes.size());
  index.EqualRangeBatch(probes, ranges);
  index.CountEqualBatch(probes, counts);
  for (size_t i = 0; i < probes.size(); ++i) {
    PositionRange want =
        OracleRange(keys, probes[i], index.SupportsOrderedAccess());
    ASSERT_EQ(ranges[i], want)
        << label << " " << index.Name() << " i=" << i << " k=" << probes[i];
    ASSERT_EQ(counts[i], want.size())
        << label << " " << index.Name() << " i=" << i << " k=" << probes[i];
    // Scalar probes are batches of one through the same virtual hop; they
    // must reproduce the batch kernel's results exactly.
    ASSERT_EQ(index.EqualRange(probes[i]), want)
        << label << " " << index.Name() << " k=" << probes[i];
    ASSERT_EQ(index.CountEqual(probes[i]), want.size())
        << label << " " << index.Name() << " k=" << probes[i];
  }
}

TEST(RangeProbe, HeavyDuplicatesAcrossEverySpecOnTheMenu) {
  // Few distinct values over many rows: most probes return wide runs, and
  // the k+1 trick's end bound frequently lands on another run's begin.
  auto keys = workload::KeysWithDuplicates(6000, 40, /*seed=*/3);
  auto probes = ProbesFor(keys, 600, /*seed=*/5);
  for (const IndexSpec& spec : test_menu::MenuSpecs(16, 8)) {
    AnyIndex index = BuildIndex(spec, keys);
    ASSERT_TRUE(index) << spec.ToString();
    CheckRangeProbes(index, keys, probes, "heavy-dup");
  }
}

TEST(RangeProbe, AllEqualArray) {
  // One giant duplicate run: begin = 0, end = n for the one live key;
  // probes below and above it exercise both empty-span anchors.
  std::vector<Key> keys(3000, 777);
  std::vector<Key> probes{776, 777, 778, 0, 0xffffffffu};
  for (const IndexSpec& spec : test_menu::DefaultSpecs(16, 6)) {
    AnyIndex index = BuildIndex(spec, keys);
    ASSERT_TRUE(index) << spec.ToString();
    CheckRangeProbes(index, keys, probes, "all-equal");
  }
}

TEST(RangeProbe, AbsentKeysOnly) {
  auto keys = workload::DistinctSortedKeys(5000, /*seed=*/9, /*mean_gap=*/8);
  auto probes = workload::MissingLookups(keys, 500, /*seed=*/11);
  for (const IndexSpec& spec : test_menu::DefaultSpecs(16, 8)) {
    AnyIndex index = BuildIndex(spec, keys);
    ASSERT_TRUE(index) << spec.ToString();
    CheckRangeProbes(index, keys, probes, "absent");
  }
}

TEST(RangeProbe, ExtremeKeysIncludingMax) {
  // UINT32_MAX is the one key whose successor probe would wrap; its run
  // must still end at n.
  std::vector<Key> keys{0, 0, 5, 5, 5, 0xfffffffeu, 0xffffffffu, 0xffffffffu};
  std::vector<Key> probes{0, 1, 5, 0xfffffffeu, 0xffffffffu, 7};
  for (const IndexSpec& spec : test_menu::DefaultSpecs(4, 3)) {
    AnyIndex index = BuildIndex(spec, keys);
    ASSERT_TRUE(index) << spec.ToString();
    CheckRangeProbes(index, keys, probes, "extreme");
  }
}

TEST(RangeProbe, EmptyBatchAndEmptyIndex) {
  auto keys = workload::KeysWithDuplicates(200, 20, /*seed=*/13);
  std::vector<Key> none;
  std::vector<PositionRange> no_ranges;
  std::vector<size_t> no_counts;
  for (const IndexSpec& spec : test_menu::DefaultSpecs(8, 4)) {
    AnyIndex index = BuildIndex(spec, keys);
    ASSERT_TRUE(index) << spec.ToString();
    // Empty batch: must be a no-op, not a crash.
    index.EqualRangeBatch(none, no_ranges);
    index.CountEqualBatch(none, no_counts);

    // Empty index: every probe is an empty span anchored at 0 (== size()).
    AnyIndex empty = BuildIndex(spec, std::vector<Key>{});
    ASSERT_TRUE(empty) << spec.ToString();
    std::vector<Key> probes{0, 7, 0xffffffffu};
    CheckRangeProbes(empty, {}, probes, "empty-index");
  }
}

TEST(RangeProbe, ThreadCountsStraddleTheShardThreshold) {
  // Probe spans below, at, and above kParallelProbeMinShard with the
  // default shard grain: the inline path, the exact boundary, and real
  // multi-shard dispatches must all reproduce the scalar results in place.
  ThreadPool pool(3);  // real workers even on a 1-core CI machine
  auto keys = workload::KeysWithDuplicates(30000, 500, /*seed=*/17);
  const std::vector<size_t> probe_counts{
      100, kParallelProbeMinShard - 1, kParallelProbeMinShard,
      kParallelProbeMinShard + 1, 3 * kParallelProbeMinShard};
  for (const IndexSpec& spec : test_menu::DefaultSpecs(16, 10)) {
    AnyIndex index = BuildIndex(spec, keys);
    ASSERT_TRUE(index) << spec.ToString();
    for (size_t count : probe_counts) {
      auto probes = ProbesFor(keys, count, /*seed=*/count);
      std::vector<PositionRange> expected_ranges(probes.size());
      std::vector<size_t> expected_counts(probes.size());
      for (size_t i = 0; i < probes.size(); ++i) {
        expected_ranges[i] = index.EqualRange(probes[i]);
        expected_counts[i] = index.CountEqual(probes[i]);
      }
      for (int threads : {1, 8, 0}) {
        ProbeOptions opts{.threads = threads, .pool = &pool};
        std::vector<PositionRange> ranges(probes.size(),
                                          PositionRange{~size_t{0}, 0});
        std::vector<size_t> counts(probes.size(), ~size_t{0});
        index.EqualRangeBatch(probes, ranges, opts);
        index.CountEqualBatch(probes, counts, opts);
        ASSERT_EQ(ranges, expected_ranges)
            << spec.ToString() << " probes=" << count
            << " threads=" << threads;
        ASSERT_EQ(counts, expected_counts)
            << spec.ToString() << " probes=" << count
            << " threads=" << threads;
      }
    }
  }
}

TEST(RangeProbe, SpecSuffixDrivesRangeParallelismThroughTheFacade) {
  auto keys = workload::KeysWithDuplicates(20000, 300, /*seed=*/19);
  auto probes = ProbesFor(keys, 10000, /*seed=*/23);
  AnyIndex scalar_index = BuildIndex(*IndexSpec::Parse("css:16"), keys);
  AnyIndex parallel_index = BuildIndex(*IndexSpec::Parse("css:16@t3"), keys);
  std::vector<PositionRange> expected(probes.size());
  std::vector<PositionRange> got(probes.size());
  scalar_index.EqualRangeBatch(probes, expected);
  parallel_index.EqualRangeBatch(probes, got);  // spec-driven sharding
  EXPECT_EQ(got, expected);
}

TEST(RangeProbe, RepeatedParallelRunsAreDeterministic) {
  // The TSan lane leans on this: repeated identical dispatches give any
  // racy shard claim a window to corrupt a neighbor's span.
  ThreadPool pool(3);
  auto keys = workload::KeysWithDuplicates(40000, 800, /*seed=*/29);
  AnyIndex index = BuildIndex(*IndexSpec::Parse("css:16"), keys);
  ASSERT_TRUE(index);
  auto probes = ProbesFor(keys, 30000, /*seed=*/31);
  ProbeOptions opts{.threads = 4, .pool = &pool};

  std::vector<PositionRange> first(probes.size());
  index.EqualRangeBatch(probes, first, opts);
  for (int run = 0; run < 10; ++run) {
    std::vector<PositionRange> again(probes.size());
    index.EqualRangeBatch(probes, again, opts);
    ASSERT_EQ(again, first) << "run " << run;
  }
}

}  // namespace
}  // namespace cssidx
