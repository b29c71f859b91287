// Ablation for the Figure 12 "m = 24 bump" analysis (§6.3): full CSS-trees
// with 24-int (96-byte) nodes are slower than both 16- and 32-int trees
// because (a) nodes are not a multiple of the cache line, so a node can
// straddle an extra line, and (b) child-offset arithmetic needs real
// multiply/divide instead of shifts. This bench separates the two effects:
// the same node size is measured cache-line-aligned and deliberately
// misaligned, across node sizes.

#include <string>
#include <vector>

#include "core/full_css_tree.h"
#include "harness.h"
#include "workload/key_gen.h"
#include "workload/lookup_gen.h"

namespace cssidx::bench {
namespace {

// The spec grammar names no misaligned directory, so this bench builds its
// trees by template.
template <int M>
void Run(Report& report, const std::vector<Key>& keys,
         const std::vector<Key>& lookups, int repeats) {
  FullCssTree<M> aligned(keys.data(), keys.size());
  FullCssTree<M> misaligned(keys.data(), keys.size(), /*misalign_offset=*/20);
  double t_a = MinSeconds(repeats, [&] { return SumFinds(aligned, lookups); });
  double t_m =
      MinSeconds(repeats, [&] { return SumFinds(misaligned, lookups); });
  report.AddRow("alignment")
      .Set("entries_per_node", M)
      .Set("node_bytes", M * 4)
      .Set("aligned_s", t_a, 6)
      .Set("misaligned_s", t_m, 6)
      .Set("misalignment_cost_pct", 100.0 * (t_m - t_a) / t_a, 1);
}

}  // namespace
}  // namespace cssidx::bench

int main(int argc, char** argv) {
  using namespace cssidx;
  using namespace cssidx::bench;
  Options options = Options::Parse(argc, argv);
  const size_t n = options.N(300'000, 2'000'000);
  auto keys = workload::DistinctSortedKeys(n, options.seed, 4);
  auto lookups =
      workload::MatchingLookups(keys, options.lookups, options.seed + 1);
  Report report("ablation_alignment", n);
  report.header()
      .Set("figure", "Ablation: aligned vs misaligned full CSS-tree "
                     "directories (the Figure 12 m=24 bump)")
      .Set("lookups", options.lookups)
      .Set("repeats", options.repeats);
  Run<8>(report, keys, lookups, options.repeats);
  Run<16>(report, keys, lookups, options.repeats);
  Run<24>(report, keys, lookups, options.repeats);  // div/mul + straddling
  Run<32>(report, keys, lookups, options.repeats);
  return report.Emit(options) ? 0 : 1;
}
