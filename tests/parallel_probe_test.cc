// Parallel batch probes: FindBatch/LowerBoundBatch with any thread count
// must equal the scalar probe loop bit-for-bit — sharding splits the probe
// span into contiguous chunks whose results land in place, so there is no
// merge step to get wrong — across every spec, batch sizes straddling the
// shard threshold, and repeated runs (the determinism test is what the
// TSan CI lane leans on to surface racy shard claims).

#include <algorithm>
#include <string>
#include <vector>

#include "core/builder.h"
#include "engine/query.h"
#include "engine/table.h"
#include "gtest/gtest.h"
#include "spec_menu.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/key_gen.h"
#include "workload/lookup_gen.h"

namespace cssidx {
namespace {

std::vector<Key> TestKeys(size_t n, uint64_t seed) {
  // Duplicates included so leftmost-match semantics are exercised.
  return workload::KeysWithDuplicates(n, std::max<size_t>(1, n / 4), seed);
}

std::vector<Key> TestProbes(const std::vector<Key>& keys, size_t count,
                            uint64_t seed) {
  auto probes = workload::MatchingLookups(keys, count - count / 4, seed);
  auto missing = workload::MissingLookups(keys, count / 4, seed + 1);
  probes.insert(probes.end(), missing.begin(), missing.end());
  return probes;
}

TEST(ParallelProbe, MatchesScalarLoopAcrossSpecsAndThreadCounts) {
  ThreadPool pool(3);  // real workers even on a 1-core CI machine
  auto keys = TestKeys(20000, /*seed=*/11);
  // Probe-span sizes straddling the kParallelProbeMinShard threshold: the
  // inline path, the exact boundary, one past it, and several shards.
  const std::vector<size_t> probe_counts{1,    100,
                                         kParallelProbeMinShard - 1,
                                         kParallelProbeMinShard,
                                         kParallelProbeMinShard + 1,
                                         3 * kParallelProbeMinShard,
                                         50000};
  for (const std::string& text : test_menu::SpecStrings()) {
    IndexSpec spec = *IndexSpec::Parse(text);
    AnyIndex index = BuildIndex(spec, keys);
    ASSERT_TRUE(index) << text;
    for (size_t count : probe_counts) {
      auto probes = TestProbes(keys, count, /*seed=*/count);
      std::vector<int64_t> expected_find(probes.size());
      std::vector<size_t> expected_lower(probes.size());
      for (size_t i = 0; i < probes.size(); ++i) {
        expected_find[i] = index.Find(probes[i]);
        expected_lower[i] = index.LowerBound(probes[i]);
      }
      for (int threads : {1, 2, 3, 8, 0}) {
        ProbeOptions opts{.threads = threads, .pool = &pool};
        std::vector<int64_t> got_find(probes.size(), -2);
        std::vector<size_t> got_lower(probes.size(), ~size_t{0});
        index.FindBatch(probes, got_find, opts);
        index.LowerBoundBatch(probes, got_lower, opts);
        ASSERT_EQ(got_find, expected_find)
            << text << " probes=" << count << " threads=" << threads;
        ASSERT_EQ(got_lower, expected_lower)
            << text << " probes=" << count << " threads=" << threads;
      }
    }
  }
}

TEST(ParallelProbe, SpecSuffixDrivesParallelismThroughTheFacade) {
  auto spec = IndexSpec::Parse("css:16@t4");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->probe_threads(), 4);
  auto keys = TestKeys(30000, /*seed=*/5);
  AnyIndex parallel_index = BuildIndex(*spec, keys);
  AnyIndex scalar_index = BuildIndex(*IndexSpec::Parse("css:16"), keys);
  ASSERT_TRUE(parallel_index);
  // Same tree underneath: the suffix is an execution policy only.
  EXPECT_EQ(parallel_index.SpaceBytes(), scalar_index.SpaceBytes());

  auto probes = TestProbes(keys, 20000, /*seed=*/6);
  std::vector<int64_t> expected(probes.size());
  std::vector<int64_t> got(probes.size());
  scalar_index.FindBatch(probes, expected);
  parallel_index.FindBatch(probes, got);  // spec-driven sharding
  EXPECT_EQ(got, expected);
}

TEST(ParallelProbe, RepeatedRunsAreDeterministic) {
  // Shard claim order races on purpose (atomic counter); results must not.
  // Repeated identical dispatches give TSan a window to catch any write
  // outside a shard's own sub-span.
  ThreadPool pool(3);
  auto keys = TestKeys(40000, /*seed=*/23);
  AnyIndex index = BuildIndex(*IndexSpec::Parse("css:16"), keys);
  ASSERT_TRUE(index);
  auto probes = TestProbes(keys, 30000, /*seed=*/29);
  ProbeOptions opts{.threads = 4, .pool = &pool};

  std::vector<int64_t> first(probes.size());
  index.FindBatch(probes, first, opts);
  for (int run = 0; run < 10; ++run) {
    std::vector<int64_t> again(probes.size(), -2);
    index.FindBatch(probes, again, opts);
    ASSERT_EQ(again, first) << "run " << run;
  }
}

TEST(ParallelProbe, FindBlockedWithOptionsCoversEveryBlock) {
  ThreadPool pool(2);
  auto keys = TestKeys(10000, /*seed=*/41);
  AnyIndex index = BuildIndex(*IndexSpec::Parse("btree:32"), keys);
  auto probes = TestProbes(keys, 9000, /*seed=*/43);
  std::vector<int64_t> expected(probes.size());
  index.FindBatch(probes, expected);
  // Block size below and above the shard grain.
  for (size_t block : {512, 2048, 9000}) {
    std::vector<int64_t> got(probes.size(), -2);
    FindBlocked(index, probes, block,
                std::span<int64_t>(got),
                ProbeOptions{.threads = 2, .pool = &pool});
    ASSERT_EQ(got, expected) << "block=" << block;
  }
}

TEST(ParallelProbe, EngineJoinIsIdenticalUnderParallelSpecs) {
  // IndexedJoin auto-shards its probe span (threads = 0); a join against a
  // "@t3" inner index must produce exactly the sequential pair list.
  using engine::Table;
  Pcg32 rng(7);
  std::vector<uint32_t> inner_col(20000), outer_col(30000);
  for (auto& v : inner_col) v = rng.Below(5000);
  for (auto& v : outer_col) v = rng.Below(6000);

  Table inner_seq, inner_par, outer;
  inner_seq.AddColumn("k", inner_col);
  inner_par.AddColumn("k", inner_col);
  outer.AddColumn("k", outer_col);
  inner_seq.BuildSortIndex("k", *IndexSpec::Parse("css:16"));
  inner_par.BuildSortIndex("k", *IndexSpec::Parse("css:16@t3"));

  auto expected = engine::IndexedJoin(outer, "k", inner_seq, "k");
  auto got = engine::IndexedJoin(outer, "k", inner_par, "k");
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].outer, expected[i].outer) << i;
    ASSERT_EQ(got[i].inner, expected[i].inner) << i;
  }
}

}  // namespace
}  // namespace cssidx
