// Figure 7: the space analysis table — indirect and direct space for every
// method under the Table 1 typical values — plus a check against the space
// actually allocated by the implementations.

#include <string>
#include <tuple>
#include <vector>

#include "analytic/params.h"
#include "analytic/space_model.h"
#include "core/builder.h"
#include "harness.h"
#include "workload/key_gen.h"

int main(int argc, char** argv) {
  using namespace cssidx;
  using namespace cssidx::bench;
  Options options = Options::Parse(argc, argv);
  // Measured structure sizes at a buildable n.
  const size_t n = options.N(200'000, 2'000'000);
  Report report("fig07_space_model", n);
  report.header().Set("figure",
                      "Figure 7: space analysis, model (n = 1e7, 64B nodes) "
                      "and measured");

  analytic::Params p = analytic::Table1();
  for (const auto& row : analytic::SpaceModel(p, p.SlotsPerNode())) {
    report.AddRow("model")
        .Set("method", row.method)
        .Set("indirect_bytes", row.indirect_bytes, 0)
        .Set("direct_bytes", row.direct_bytes, 0)
        .Set("rid_ordered_access", row.rid_ordered_access);
  }

  auto keys = workload::DistinctSortedKeys(n, options.seed, 4);
  analytic::Params pm = p;
  pm.n = static_cast<double>(n);
  // Hash sized like the paper: directory ~ n/2 buckets.
  int bits = 1;
  while ((size_t{1} << bits) < n / 2) ++bits;
  const double rids = static_cast<double>(n) * 4;  // the RID list kept for order
  // The T-tree and hash rows take Figure 7's direct accounting.
  const std::vector<std::tuple<std::string, double, double>> checks{
      {"css:16", analytic::FullCssSpace(pm, 16), 0},
      {"lcss:16", analytic::LevelCssSpace(pm, 16), 0},
      {"btree:16", analytic::BPlusSpace(pm, 16), 0},
      {"ttree:16", analytic::TTreeSpaceDirect(pm, 16), rids},
      {"hash:" + std::to_string(bits), analytic::HashSpaceDirect(pm) * 2, 0}};
  for (const auto& [spec, model_bytes, extra_bytes] : checks) {
    const double measured =
        static_cast<double>(
            BuildIndex(*IndexSpec::Parse(spec), keys).SpaceBytes()) +
        extra_bytes;
    report.AddRow("model_vs_measured")
        .Set("spec", spec)
        .Set("model_bytes", model_bytes, 0)
        .Set("measured_bytes", measured, 0)
        .Set("ratio", measured / model_bytes);
  }
  return report.Emit(options) ? 0 : 1;
}
