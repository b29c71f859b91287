// Quickstart: build a CSS-tree over a sorted array and run point lookups,
// range queries, and a batch update + rebuild — the whole OLAP lifecycle
// from the paper in ~60 lines.
//
//   $ ./quickstart [--n=1000000] [--spec=lcss:16]

#include <cstdio>

#include "core/builder.h"
#include "core/full_css_tree.h"
#include "core/level_css_tree.h"
#include "core/maintained_index.h"
#include "util/cli.h"
#include "util/timer.h"
#include "workload/batch_update.h"
#include "workload/key_gen.h"
#include "workload/lookup_gen.h"

int main(int argc, char** argv) {
  using namespace cssidx;
  CliArgs args(argc, argv);
  size_t n = static_cast<size_t>(args.GetInt("n", 1'000'000));

  // 1. The data: a sorted array of distinct keys. In a main-memory DBMS
  //    this is the RID list sorted by some attribute (§2.2); position i in
  //    the array is the record identifier.
  std::vector<Key> keys = workload::DistinctSortedKeys(n, /*seed=*/1);
  std::printf("sorted array: %zu keys, %.1f MB\n", keys.size(),
              keys.size() * sizeof(Key) / 1e6);

  // 2. Build the directory. 16 keys per node = one 64-byte cache line.
  Timer build_timer;
  FullCssTree<16> index(keys);
  std::printf("full CSS-tree built in %.3f ms, directory %.1f KB (%.2f%% of "
              "the data)\n",
              build_timer.Millis(), index.SpaceBytes() / 1e3,
              100.0 * index.SpaceBytes() / (keys.size() * sizeof(Key)));

  // 3. Point lookups: Find returns the position (= RID) of the leftmost
  //    match, or cssidx::kNotFound.
  Key present = keys[n / 3];
  Key absent = keys.back() + 1;
  std::printf("Find(%u)  -> %lld\n", present,
              static_cast<long long>(index.Find(present)));
  std::printf("Find(%u) -> %lld (not found)\n", absent,
              static_cast<long long>(index.Find(absent)));

  // 4. Range query [lo, hi): two LowerBound calls bracket the positions.
  Key lo_key = keys[n / 2];
  Key hi_key = lo_key + 200;
  size_t first = index.LowerBound(lo_key);
  size_t last = index.LowerBound(hi_key);
  std::printf("range [%u, %u) covers positions [%zu, %zu): %zu rows\n",
              lo_key, hi_key, first, last, last - first);

  // 5. Throughput: time a batch of successful random lookups.
  auto lookups = workload::MatchingLookups(keys, 100'000, /*seed=*/2);
  Timer lookup_timer;
  uint64_t checksum = 0;
  for (Key k : lookups) checksum += static_cast<uint64_t>(index.Find(k));
  double sec = lookup_timer.Seconds();
  std::printf("100k lookups in %.3f s (%.0f ns/lookup, checksum %llu)\n", sec,
              sec / 100'000 * 1e9, static_cast<unsigned long long>(checksum));

  // 6. OLAP maintenance: merge a batch of updates, rebuild from scratch
  //    (§4.1.1: rebuilding is cheap enough to do on every batch).
  auto batch = workload::RandomBatch(keys, /*fraction=*/0.01, /*seed=*/3);
  Timer rebuild_timer;
  keys = workload::ApplyBatch(keys, batch);
  FullCssTree<16> rebuilt(keys);
  std::printf("1%% batch merged + index rebuilt in %.3f ms (now %zu keys)\n",
              rebuild_timer.Millis(), keys.size());

  //    In a live system the same lifecycle runs behind MaintainedIndex:
  //    readers keep probing snapshots (one atomic load each) while the
  //    writer merges and publishes — and a "part:K/" spec rebuilds only
  //    the shards a localized batch touches, not the whole directory.
  MaintainedIndex maintained(*IndexSpec::Parse("part:16/css:16"), keys);
  auto local_batch = workload::RandomBatchInRange(
      keys, /*fraction=*/0.01, keys.front(), keys[keys.size() / 16],
      /*seed=*/5);
  Timer refresh_timer;
  maintained.ApplyBatch(local_batch);
  std::printf("maintained part:16 refresh of a localized 1%% batch: %.3f ms "
              "(%zu of 16 shards rebuilt)\n",
              refresh_timer.Millis(), maintained.stats().shards_rebuilt);

  // 7. The level-tree variant trades a little space for fewer comparisons.
  LevelCssTree<16> level(keys);
  std::printf("level CSS-tree directory: %.1f KB (full: %.1f KB)\n",
              level.SpaceBytes() / 1e3, rebuilt.SpaceBytes() / 1e3);

  // 8. Runtime method selection: an IndexSpec string ("css:16", "lcss:64",
  //    "btree:32", "hash:22", ...) names any index in the suite, and the
  //    AnyIndex facade probes it batch-first — FindBatch amortizes dispatch
  //    and lets the structure overlap the cache misses of adjacent probes.
  auto spec = IndexSpec::Parse(args.GetString("spec", "lcss:16"));
  if (!spec) {
    std::printf("unparseable --spec; %s\n", IndexSpec::GrammarHelp());
    return 1;
  }
  AnyIndex any = BuildIndex(*spec, keys);
  // Regenerate the lookups: step 6's batch deleted some original keys, and
  // this demo is the paper's all-hit workload.
  lookups = workload::MatchingLookups(keys, 100'000, /*seed=*/4);
  std::vector<int64_t> positions(lookups.size());
  Timer batch_timer;
  any.FindBatch(lookups, positions);
  double batch_sec = batch_timer.Seconds();
  uint64_t batch_checksum = 0;
  for (int64_t p : positions) batch_checksum += static_cast<uint64_t>(p);
  // Self-check: every batched probe of a present key lands on that key.
  for (size_t i = 0; i < lookups.size(); ++i) {
    if (positions[i] == kNotFound ||
        keys[static_cast<size_t>(positions[i])] != lookups[i]) {
      std::printf("CONSISTENCY ERROR: FindBatch(%u)\n", lookups[i]);
      return 1;
    }
  }
  std::printf("--spec=%s (%s): 100k batched lookups in %.3f s "
              "(%.0f ns/lookup, checksum %llu)\n",
              spec->ToString().c_str(), any.Name().c_str(), batch_sec,
              batch_sec / static_cast<double>(lookups.size()) * 1e9,
              static_cast<unsigned long long>(batch_checksum));
  return 0;
}
