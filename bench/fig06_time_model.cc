// Figure 6 (and Table 1): the §5.1 analytic time model — branching factor,
// levels, comparisons and cache misses per lookup for each method — printed
// for the paper's typical parameters, then cross-checked against *measured*
// misses from the cache simulator replaying real lookups.

#include <string>
#include <vector>

#include "analytic/params.h"
#include "analytic/time_model.h"
#include "cachesim/cache_config.h"
#include "harness.h"
#include "workload/key_gen.h"
#include "workload/lookup_gen.h"

int main(int argc, char** argv) {
  using namespace cssidx;
  using namespace cssidx::bench;
  Options options = Options::Parse(argc, argv);
  // The simulator costs ~1us per touched line, so the cross-check runs at
  // a smaller n than the model's 1e7.
  const size_t n = options.N(100'000, 1'000'000);
  Report report("fig06_time_model", n);
  report.header().Set("figure",
                      "Figure 6 + Table 1: analytic time model vs simulated "
                      "misses (64B lines)");

  analytic::Params p = analytic::Table1();
  for (const auto& [name, value] :
       {std::pair{"R (RID bytes)", p.R}, std::pair{"K (key bytes)", p.K},
        std::pair{"P (pointer bytes)", p.P}, std::pair{"n (records)", p.n},
        std::pair{"h (hash fudge)", p.h}, std::pair{"c (line bytes)", p.c},
        std::pair{"s (node lines)", p.s}}) {
    report.AddRow("table1_params").Set("parameter", name).Set("value", value, 1);
  }
  for (int m : {16, 32}) {
    for (const auto& row : analytic::TimeModel(p, m)) {
      report.AddRow("time_model")
          .Set("slots_per_node", m)
          .Set("method", row.method)
          .Set("branching", row.branching, 0)
          .Set("levels", row.levels, 3)
          .Set("comparisons", row.comparisons, 2)
          .Set("cold_misses", row.cache_misses, 3);
    }
  }

  auto keys = workload::DistinctSortedKeys(n, options.seed, 4);
  auto lookups = workload::MatchingLookups(keys, options.quick ? 64 : 256,
                                           options.seed + 1);
  analytic::Params pm = p;
  pm.n = static_cast<double>(n);
  // TimeModel's rows in order: binary search, T-tree, B+-tree, full and
  // level CSS-tree.
  const std::vector<analytic::TimeBreakdown> model = analytic::TimeModel(pm, 16);
  const char* specs[] = {"bin", "ttree:16", "btree:16", "css:16", "lcss:16"};
  for (size_t i = 0; i < std::size(specs); ++i) {
    report.AddRow("model_vs_simulator")
        .Set("spec", specs[i])
        .Set("model_misses", model[i].cache_misses, 4)
        .Set("simulated_misses",
             SimulateMisses(specs[i], keys, lookups,
                            cachesim::ModernHierarchy())
                 .cold_l2,
             4);
  }
  return report.Emit(options) ? 0 : 1;
}
