// Hardware substitution table: misses per lookup for every method on the
// paper's two machines, reproduced with the cache simulator instead of the
// 1999 hardware. Geometries (§6.1):
//   Ultra Sparc II: L1 <16K, 32B, direct>, L2 <1M, 64B, direct>
//   Pentium II:     L1 <16K, 32B, 4-way>, L2 <512K, 32B, 4-way>
// Node sizes follow the machines' line sizes: 8 ints (32B) and 16 ints
// (64B), the same pairs as Figures 10/11. Both cold (flush per lookup, the
// §5 model's assumption) and warm (§5.1's "top levels stay cached")
// numbers are reported.

#include <string>
#include <vector>

#include "cachesim/cache_config.h"
#include "harness.h"
#include "workload/key_gen.h"
#include "workload/lookup_gen.h"

int main(int argc, char** argv) {
  using namespace cssidx;
  using namespace cssidx::bench;
  Options options = Options::Parse(argc, argv);
  const size_t n = options.N(100'000, 1'000'000);
  auto keys = workload::DistinctSortedKeys(n, options.seed, 4);
  auto lookups = workload::MatchingLookups(keys, options.quick ? 64 : 256,
                                           options.seed + 1);
  Report report("tbl_cache_misses", n);
  report.header()
      .Set("figure", "Simulated misses per lookup on the paper's machines")
      .Set("lookups", lookups.size());

  // Paper pairing: 8-int (32B) nodes on the 32B-line machines, 16-int
  // nodes on the 64B L2 of the Ultra; plus the modern 64B geometry.
  struct Machine {
    const char* name;
    std::vector<cachesim::CacheConfig> configs;
    int node_entries;
  };
  const std::vector<Machine> machines{
      {"Ultra Sparc II", cachesim::UltraSparcHierarchy(), 8},
      {"Ultra Sparc II", cachesim::UltraSparcHierarchy(), 16},
      {"Pentium II", cachesim::PentiumIIHierarchy(), 8},
      {"Modern x86-64", cachesim::ModernHierarchy(), 16}};
  for (const Machine& machine : machines) {
    const std::string size = std::to_string(machine.node_entries);
    for (const std::string& spec :
         {std::string("bin"), std::string("tbin"), std::string("interp"),
          "ttree:" + size, "btree:" + size, "css:" + size, "lcss:" + size}) {
      const MissCounts mc = SimulateMisses(spec, keys, lookups, machine.configs);
      report.AddRow("misses")
          .Set("machine", machine.name)
          .Set("node_entries", machine.node_entries)
          .Set("spec", spec)
          .Set("cold_l1", mc.cold_l1, 4)
          .Set("cold_l2", mc.cold_l2, 4)
          .Set("warm_l1", mc.warm_l1, 4)
          .Set("warm_l2", mc.warm_l2, 4);
    }
  }
  return report.Emit(options) ? 0 : 1;
}
