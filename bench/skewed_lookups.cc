// §5.1 claim: "If a bunch of searches are performed in sequence, the top
// level nodes will stay in the cache. Since CSS-trees have fewer levels
// than all the other methods, it will also gain the most benefit from a
// warm cache." Zipf-skewed lookup streams concentrate probes on popular
// keys and keep paths resident; this bench compares uniform vs skewed
// streams per method.

#include <string>
#include <vector>

#include "harness.h"
#include "workload/key_gen.h"
#include "workload/lookup_gen.h"

int main(int argc, char** argv) {
  using namespace cssidx;
  using namespace cssidx::bench;
  Options options = Options::Parse(argc, argv);
  const size_t n = options.N(300'000, 2'000'000);
  auto keys = workload::DistinctSortedKeys(n, options.seed, 4);
  auto uniform =
      workload::MatchingLookups(keys, options.lookups, options.seed + 1);
  auto skewed = workload::SkewedLookups(keys, options.lookups, 0.99,
                                        options.seed + 2);

  Report report("skewed_lookups", n);
  report.header()
      .Set("figure", "Warm-cache benefit of skew (§5.1): uniform vs "
                     "Zipf(0.99) lookups")
      .Set("lookups", options.lookups)
      .Set("repeats", options.repeats);
  for (const char* spec : {"bin", "ttree:16", "btree:16", "css:16"}) {
    Visit(spec, keys, [&](const auto& index) {
      const double u = MinSeconds(options.repeats,
                                  [&] { return SumFinds(index, uniform); });
      const double s = MinSeconds(options.repeats,
                                  [&] { return SumFinds(index, skewed); });
      report.AddRow("skew")
          .Set("spec", spec)
          .Set("uniform_s", u, 6)
          .Set("zipf_s", s, 6)
          .Set("skew_speedup_pct", 100.0 * (u - s) / u, 1);
    });
  }
  return report.Emit(options) ? 0 : 1;
}
