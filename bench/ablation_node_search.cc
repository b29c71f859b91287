// Ablation for the §6.2 claim: "When our code was more 'generic'
// (including a binary search loop for each node), we found the performance
// to be 20% to 45% worse than the specialized code."
//
// Same tree, same directory, same lookups — only the intra-node search
// differs: compile-time unrolled if-else tree vs a runtime binary-search
// loop. A second table ablates the next rung on the same ladder: the
// scalar unrolled search vs the SIMD compare+count kernels
// (simd_node_search.h), A/B'd in-process via SetNodeSearchPath, for both
// scalar descents and the group-probing batched kernel.

#include <string>
#include <vector>

#include "core/simd_node_search.h"
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
  Report report("ablation_node_search", n);
  report.header()
      .Set("figure", "Ablation: hard-coded vs generic vs SIMD node search "
                     "(§6.2's 20-45% specialization claim)")
      .Set("lookups", options.lookups)
      .Set("repeats", options.repeats);

  const int r = options.repeats;
  const NodeSearchPath simd = DetectedNodeSearchPath();
  std::vector<size_t> out(lookups.size());
  for (const char* spec : {"css:8", "css:16", "css:32", "lcss:16", "lcss:32"}) {
    Visit(spec, keys, [&](const auto& tree) {
      if constexpr (requires { tree.LowerBoundGeneric(Key{}); }) {
        auto scalar_probes = [&] {
          uint64_t sum = 0;
          for (Key k : lookups) sum += tree.LowerBound(k);
          return sum;
        };
        auto batched = [&] {
          tree.LowerBoundBatch(lookups, out);
          return out.empty() ? 0 : out.back();
        };
        const double hard = MinSeconds(r, scalar_probes);
        const double generic = MinSeconds(r, [&] {
          uint64_t sum = 0;
          for (Key k : lookups) sum += tree.LowerBoundGeneric(k);
          return sum;
        });
        report.AddRow("generic")
            .Set("spec", spec)
            .Set("hard_coded_s", hard, 6)
            .Set("generic_loop_s", generic, 6)
            .Set("slowdown_pct", 100.0 * (generic - hard) / hard, 1);

        SetNodeSearchPath(NodeSearchPath::kScalar);
        const double scalar_probe = MinSeconds(r, scalar_probes);
        const double scalar_batch = MinSeconds(r, batched);
        SetNodeSearchPath(simd);
        const double simd_probe = MinSeconds(r, scalar_probes);
        const double simd_batch = MinSeconds(r, batched);
        for (const auto& [style, scalar_s, simd_s] :
             {std::tuple{"scalar probes", scalar_probe, simd_probe},
              std::tuple{"batched", scalar_batch, simd_batch}}) {
          report.AddRow("simd")
              .Set("spec", spec)
              .Set("probe_style", style)
              .Set("scalar_unrolled_s", scalar_s, 6)
              .Set("simd_s", simd_s, 6)
              .Set("speedup", scalar_s / simd_s);
        }
      }
    });
  }
  return report.Emit(options) ? 0 : 1;
}
