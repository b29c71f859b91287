// Figure 9: time to build a CSS-tree from a sorted array, as a function of
// the array size, for full and level CSS-trees (16 entries per node, the
// cache-line size used in the paper's build experiment).
//
// Expected shape (paper): both curves linear in n; level trees cheaper
// because the spare-slot trick avoids walking a rightmost path per entry;
// 25M keys build in well under a second on a modern machine. For context,
// the batch-update merge (§2.2's OLAP maintenance story) is timed too —
// build + merge together are exactly the full-rebuild cost the
// maintained-index path (bench_batch_lookup --update) avoids for
// localized batches on part:K specs.
//
// Builds go through the spec-driven BuildIndex entry — the same dispatch
// the engine and the maintenance path pay — instead of hand-instantiated
// tree templates, so the sweep is driven by IndexSpec strings.

#include <string>
#include <vector>

#include "core/builder.h"
#include "harness.h"
#include "util/timer.h"
#include "workload/batch_update.h"
#include "workload/key_gen.h"

int main(int argc, char** argv) {
  using namespace cssidx;
  using namespace cssidx::bench;
  Options options = Options::Parse(argc, argv);
  std::vector<size_t> sizes{2'500'000, 5'000'000, 10'000'000, 15'000'000,
                            20'000'000, 25'000'000};
  if (options.quick) sizes = {1'000'000, 2'000'000, 4'000'000};
  Report report("fig09_build_time", sizes.back());
  report.header()
      .Set("figure", "Figure 9: build time (s, min of repeats), 16 "
                     "entries/node")
      .Set("repeats", options.repeats);

  for (size_t n : sizes) {
    auto keys = workload::DistinctSortedKeys(n, options.seed, 4);
    auto& row = report.AddRow("build").Set("n", n);
    for (const char* text : {"css:16", "lcss:16"}) {
      const IndexSpec spec = *IndexSpec::Parse(text);
      row.Set(std::string(text) + "_build_s",
              MinSeconds(options.repeats,
                         [&] { return BuildIndex(spec, keys).SpaceBytes(); }),
              6);
    }
    // The other half of the OLAP rebuild story: merging a 1% batch.
    auto batch = workload::RandomBatch(keys, 0.01, options.seed + 9);
    Timer timer;
    auto merged = workload::ApplyBatch(keys, batch);
    row.Set("batch_merge_1pct_s", timer.Seconds(), 6);
    g_sink = g_sink + merged.size();
  }
  return report.Emit(options) ? 0 : 1;
}
