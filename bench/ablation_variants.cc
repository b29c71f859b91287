// Two variant ablations the paper discusses in prose:
//
// 1. §6.2 / [LC86b]: "We implemented the improved version of T-Tree,
//    which is a little bit better than the basic version." The improved
//    search compares only the smallest key per node (one line touched);
//    the basic search also compares the largest (a second line on every
//    right-descent).
//
// 2. §3.5: "Skewed data can seriously affect the performance of hash
//    indices unless we have a relatively sophisticated hash function,
//    which will increase the computation time." Low-order-bit hashing vs
//    multiplicative (Fibonacci) hashing, on uniform and on stride-aligned
//    (low-bit-degenerate) keys.

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "baselines/chained_hash.h"
#include "harness.h"
#include "workload/key_gen.h"
#include "workload/lookup_gen.h"

int main(int argc, char** argv) {
  using namespace cssidx;
  using namespace cssidx::bench;
  Options options = Options::Parse(argc, argv);
  const size_t n = options.N(300'000, 2'000'000);
  auto keys = workload::DistinctSortedKeys(n, options.seed, 4);
  auto lookups =
      workload::MatchingLookups(keys, options.lookups, options.seed + 1);
  Report report("ablation_variants", n);
  report.header()
      .Set("figure", "Variant ablations: basic vs improved T-tree; hash "
                     "function vs skew")
      .Set("lookups", options.lookups)
      .Set("repeats", options.repeats);

  for (const char* spec : {"ttree:8", "ttree:16", "ttree:32"}) {
    Visit(spec, keys, [&](const auto& tree) {
      if constexpr (requires { tree.LowerBoundBasic(Key{}); }) {
        auto improved_loop = [&] {
          uint64_t sum = 0;
          for (Key k : lookups) sum += tree.LowerBound(k);
          return sum;
        };
        auto basic_loop = [&] {
          uint64_t sum = 0;
          for (Key k : lookups) sum += tree.LowerBoundBasic(k);
          return sum;
        };
        // One untimed pass warms the tree, and the loops swap places every
        // repeat, so neither search always meets the colder cache.
        g_sink = g_sink + improved_loop();
        double improved = std::numeric_limits<double>::infinity();
        double basic = improved;
        for (int r = 0; r < options.repeats; ++r) {
          if (r % 2 == 1) basic = std::min(basic, MinSeconds(1, basic_loop));
          improved = std::min(improved, MinSeconds(1, improved_loop));
          if (r % 2 == 0) basic = std::min(basic, MinSeconds(1, basic_loop));
        }
        report.AddRow("ttree")
            .Set("spec", spec)
            .Set("improved_s", improved, 6)
            .Set("basic_s", basic, 6)
            .Set("basic_cost_pct", 100.0 * (basic - improved) / improved, 1);
      }
    });
  }

  // Hash skew: stride-64 keys have constant low 6 bits. The spec grammar
  // names no hash function, so these rows build the hash by template.
  std::vector<Key> strided(n);
  for (size_t i = 0; i < n; ++i) strided[i] = static_cast<Key>(i) * 64;
  auto strided_lookups =
      workload::MatchingLookups(strided, options.lookups, options.seed + 2);
  int bits = 4;
  while ((size_t{1} << bits) < n && bits < 22) ++bits;
  for (bool stride : {false, true}) {
    for (HashFunction fn :
         {HashFunction::kLowOrderBits, HashFunction::kMultiplicative}) {
      const std::vector<Key>& k = stride ? strided : keys;
      ChainedHashIndex<64> hash(k.data(), k.size(), bits, fn);
      const std::vector<Key>& probes = stride ? strided_lookups : lookups;
      report.AddRow("hash")
          .Set("keys", stride ? "strided" : "uniform")
          .Set("function", fn == HashFunction::kLowOrderBits
                               ? "low-bits"
                               : "multiplicative")
          .Set("seconds", MinSeconds(options.repeats,
                                     [&] { return SumFinds(hash, probes); }),
               6)
          .Set("max_chain", hash.MaxChainBuckets())
          .Set("space_bytes", hash.SpaceBytes());
    }
  }
  return report.Emit(options) ? 0 : 1;
}
