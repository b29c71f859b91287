// Figures 2 and 14: the space/time trade-off. Every method contributes one
// point per configuration (node size for trees, directory size for hash);
// the "stepped line" of non-dominated points is printed at the end.
//
// Space is the structure's own bytes (SpaceBytes). Hash cannot provide
// ordered access, so Figure 7's direct accounting would also charge it
// the table; its structure bytes alone already exceed every tree by an
// order of magnitude. Expected result: CSS-trees dominate T-trees and
// B+-trees outright; the frontier is binary search -> CSS-trees -> hash.

#include <algorithm>
#include <string>
#include <vector>

#include "harness.h"
#include "workload/key_gen.h"
#include "workload/lookup_gen.h"

int main(int argc, char** argv) {
  using namespace cssidx;
  using namespace cssidx::bench;
  Options options = Options::Parse(argc, argv);
  // 5M is the paper's Figure 14 array size.
  const size_t n = options.N(300'000, options.full ? 5'000'000 : 2'000'000);
  auto keys = workload::DistinctSortedKeys(n, options.seed, 4);
  auto lookups =
      workload::MatchingLookups(keys, options.lookups, options.seed + 1);

  std::vector<std::string> specs{"bin", "tbin"};
  std::vector<int> node_sizes{8, 16, 32};
  if (!options.quick) node_sizes.insert(node_sizes.end(), {64, 128});
  for (int m : node_sizes) {
    const std::string size = std::to_string(m);
    for (const char* method : {"ttree:", "btree:", "css:", "lcss:"}) {
      specs.push_back(method + size);
    }
  }
  for (int bits : {18, 20, 22}) {
    if (!options.quick || bits == 18) {
      specs.push_back("hash:" + std::to_string(bits));
    }
  }

  Report report("fig02_14_space_time", n);
  report.header()
      .Set("figure", "Figures 2 & 14: space/time trade-off")
      .Set("lookups", options.lookups)
      .Set("repeats", options.repeats);
  std::vector<std::pair<std::string, FindTiming>> points;
  for (const std::string& spec : specs) {
    FindTiming t = TimeFinds(spec, keys, lookups, options.repeats);
    points.emplace_back(spec, t);
    report.AddRow("points")
        .Set("spec", spec)
        .Set("seconds", t.seconds, 6)
        .Set("space_bytes", t.bytes);
  }

  // The stepped line: points not dominated in both time and space.
  std::sort(points.begin(), points.end(), [](const auto& a, const auto& b) {
    return a.second.seconds < b.second.seconds;
  });
  size_t best_space = SIZE_MAX;
  for (const auto& [spec, t] : points) {
    if (t.bytes < best_space) {
      best_space = t.bytes;
      report.AddRow("frontier")
          .Set("spec", spec)
          .Set("seconds", t.seconds, 6)
          .Set("space_bytes", t.bytes);
    }
  }
  return report.Emit(options) ? 0 : 1;
}
