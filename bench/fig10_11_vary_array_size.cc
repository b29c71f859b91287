// Figures 10 and 11: lookup time for 100,000 random successful searches as
// a function of the sorted-array size, for all eight methods, at node sizes
// of 8 and 16 integers (32B and 64B nodes — the two cache-line sizes of the
// paper's machines). One host replaces the paper's two machines; the
// machine-specific miss counts are reproduced separately by
// tbl_cache_misses using the simulated Ultra Sparc II and Pentium II
// caches.
//
// All eight methods are addressed through the IndexSpec menu and built by
// the spec-driven BuildIndex entry — the same dispatch the engine, the
// batch benches, and the serving layer use — so this figure measures the
// production construction path, not a bench-only template instantiation.
// The scalar Find hop goes through AnyIndex's virtual dispatch for every
// method alike, which keeps the cross-method comparison fair.
//
// Expected shape (paper): all methods tie while the array fits in cache;
// as n grows, T-tree and binary search (array and pointer) degrade
// fastest, B+-trees sit in the middle, CSS-trees are the best ordered
// method (~2x faster than binary search), hash is ~3x faster than CSS but
// pays ~20x space.

#include <string>
#include <vector>

#include "core/builder.h"
#include "core/index_spec.h"
#include "harness.h"
#include "workload/key_gen.h"
#include "workload/lookup_gen.h"

namespace {

using namespace cssidx;
using namespace cssidx::bench;

/// Paper: 4M-entry hash directory at n = 5M-10M; scale the directory to
/// ~n so chains stay short at every point of the sweep.
int HashDirBits(size_t n) {
  int dir_bits = 4;
  while ((size_t{1} << dir_bits) < n && dir_bits < 22) ++dir_bits;
  return dir_bits;
}

/// One row per n of `block`: the seconds for the lookups' Finds through
/// AnyIndex, one field per method (the spec's method token).
/// `spec_texts(n)` names the specs.
template <typename SpecsFn, typename KeysFn>
void RunSeries(Report& report, const std::string& block,
               const Options& options, const std::vector<size_t>& sizes,
               KeysFn&& make_keys, SpecsFn&& spec_texts) {
  for (size_t n : sizes) {
    auto keys = make_keys(n);
    auto lookups = workload::MatchingLookups(keys, options.lookups,
                                             options.seed + 1);
    auto& row = report.AddRow(block).Set("n", n);
    for (const std::string& text : spec_texts(n)) {
      AnyIndex index = BuildIndex(*IndexSpec::Parse(text), keys);
      row.Set(text.substr(0, text.find(':')), MinSeconds(options.repeats,
                               [&] { return SumFinds(index, lookups); }),
              6);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options options = Options::Parse(argc, argv);
  std::vector<size_t> sizes{100, 1'000, 10'000, 100'000, 1'000'000,
                            3'000'000};
  if (options.full) sizes.push_back(10'000'000);
  if (options.quick) sizes = {100, 10'000, 300'000};
  Report report("fig10_11_vary_array_size", sizes.back());
  report.header()
      .Set("figure", "Figures 10 & 11: time (s) for the lookups vs sorted "
                     "array size")
      .Set("lookups", options.lookups)
      .Set("repeats", options.repeats);
  auto uniform = [&](size_t n) {
    return workload::DistinctSortedKeys(n, options.seed, 4);
  };
  // The figure's eight methods at 8 and 16 integers per node, in legend
  // order. Sized methods take the node size from the spec string; hash
  // scales its directory with n.
  for (int node_entries : {8, 16}) {
    const std::string m = std::to_string(node_entries);
    RunSeries(report, "node_" + m, options, sizes, uniform, [&](size_t n) {
      return std::vector<std::string>{
          "bin",        "tbin",      "interp",    "ttree:" + m,
          "btree:" + m, "css:" + m,  "lcss:" + m,
          "hash:" + std::to_string(HashDirBits(n))};
    });
  }
  // §6.3: "we also did some tests on non-uniform data and interpolation
  // search performs even worse than binary search." On modern hardware
  // division is cheap, so interpolation looks good on uniform data; the
  // paper's negative verdict shows on skewed (quadratic) distributions.
  RunSeries(
      report, "skewed_data", options, sizes,
      [&](size_t n) { return workload::SkewedKeys(n, options.seed); },
      [](size_t) { return std::vector<std::string>{"bin", "interp", "css:16"}; });
  return report.Emit(options) ? 0 : 1;
}
