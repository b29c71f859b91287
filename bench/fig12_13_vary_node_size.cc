// Figures 12 and 13: lookup time as a function of node size (entries per
// node), with the array size fixed, for T-trees, B+-trees, full and level
// CSS-trees, plus the hash-directory-size sweep of Figure 12.
//
// Expected shape (paper): CSS-trees bottom out when a node equals one
// cache line (16 ints for 64B lines); B+-trees bottom out at roughly twice
// that (their nodes carry half keys, half pointers); the m=24 full-CSS bump
// (misalignment + div/mul child arithmetic) shows against m=16/32; T-trees
// are flat and slow at every node size.

#include <string>
#include <vector>

#include "harness.h"
#include "workload/key_gen.h"
#include "workload/lookup_gen.h"

int main(int argc, char** argv) {
  using namespace cssidx;
  using namespace cssidx::bench;
  Options options = Options::Parse(argc, argv);
  std::vector<size_t> sizes{options.N(300'000, 2'000'000)};
  if (options.full && options.n == 0 && !options.quick) {
    sizes = {5'000'000, 10'000'000};  // the paper's sizes
  }
  Report report("fig12_13_vary_node_size", sizes.back());
  report.header()
      .Set("figure", "Figures 12 & 13: lookup time (s) vs node size")
      .Set("lookups", options.lookups)
      .Set("repeats", options.repeats);
  std::vector<int> node_sizes{8, 16, 24, 32, 64};
  if (!options.quick) node_sizes.push_back(128);
  // Figure 12's hash series: each point is a directory size 2^18..2^23
  // (largest first, like the paper's leftmost point).
  std::vector<int> bits = options.quick ? std::vector<int>{18, 20}
                                        : std::vector<int>{23, 22, 21, 20,
                                                           19, 18};
  for (size_t n : sizes) {
    auto keys = workload::DistinctSortedKeys(n, options.seed, 4);
    auto lookups =
        workload::MatchingLookups(keys, options.lookups, options.seed + 1);
    auto seconds = [&](const std::string& spec) {
      return TimeFinds(spec, keys, lookups, options.repeats).seconds;
    };
    for (int m : node_sizes) {
      const std::string size = std::to_string(m);
      auto& row = report.AddRow("node_size")
                      .Set("n", n)
                      .Set("entries_per_node", m)
                      .Set("ttree_s", seconds("ttree:" + size), 6)
                      .Set("btree_s", seconds("btree:" + size), 6)
                      .Set("css_s", seconds("css:" + size), 6);
      // Level trees take power-of-two node sizes only.
      if ((m & (m - 1)) == 0) row.Set("lcss_s", seconds("lcss:" + size), 6);
    }
    for (int b : bits) {
      FindTiming hash = TimeFinds("hash:" + std::to_string(b), keys, lookups,
                                  options.repeats);
      report.AddRow("hash_dir_size")
          .Set("n", n)
          .Set("dir_bits", b)
          .Set("hash_s", hash.seconds, 6)
          .Set("space_bytes", hash.bytes);
    }
  }
  return report.Emit(options) ? 0 : 1;
}
