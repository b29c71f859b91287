// Figure 5: analytic comparison ratio and cache-access ratio between level
// and full CSS-trees as a function of node size m, plus a measured
// head-to-head (the paper: level trees were up to 8% faster on the Ultra,
// and the two swap places depending on node size vs line size).

#include <string>
#include <vector>

#include "analytic/ratio_model.h"
#include "harness.h"
#include "workload/key_gen.h"
#include "workload/lookup_gen.h"

int main(int argc, char** argv) {
  using namespace cssidx;
  using namespace cssidx::bench;
  Options options = Options::Parse(argc, argv);
  const size_t n = options.N(300'000, 2'000'000);
  Report report("fig05_level_vs_full", n);
  report.header()
      .Set("figure", "Figure 5: level vs full CSS-trees")
      .Set("lookups", options.lookups)
      .Set("repeats", options.repeats);
  for (int m = 4; m <= 64; m += 2) {
    report.AddRow("analytic_ratios")
        .Set("m", m)
        .Set("comparison_ratio", analytic::ComparisonRatio(m), 5)
        .Set("cache_access_ratio", analytic::CacheAccessRatio(m), 5);
  }

  auto keys = workload::DistinctSortedKeys(n, options.seed, 4);
  auto lookups =
      workload::MatchingLookups(keys, options.lookups, options.seed + 1);
  for (int m : {8, 16, 32, 64}) {
    const std::string size = std::to_string(m);
    const double full =
        TimeFinds("css:" + size, keys, lookups, options.repeats).seconds;
    const double level =
        TimeFinds("lcss:" + size, keys, lookups, options.repeats).seconds;
    report.AddRow("measured")
        .Set("m", m)
        .Set("full_s", full, 6)
        .Set("level_s", level, 6)
        .Set("level_vs_full", level / full);
  }
  return report.Emit(options) ? 0 : 1;
}
