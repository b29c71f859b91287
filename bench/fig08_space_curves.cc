// Figure 8: space vs number of indexed records, indirect (a) and direct
// (b) accounting, n from 1e7 to 9e7 — pure model curves (the same formulas
// Figure 7 instantiates at n = 1e7).
//
// The model tables are followed by a measured table: the same methods
// built through the spec-driven BuildIndex entry (IndexSpec strings, the
// dispatch every engine path pays) with AnyIndex::SpaceBytes() against the
// indirect model prediction. The paper's space claims are formulas; this
// checks the implementation actually honors them (ratio ~1 for B+ and both
// CSS variants; T-tree and hash deviate where the implementation pads
// nodes/64-byte buckets the model's occupancy assumptions do not).

#include <algorithm>
#include <string>
#include <vector>

#include "analytic/params.h"
#include "analytic/space_model.h"
#include "core/builder.h"
#include "harness.h"
#include "util/bits.h"
#include "workload/key_gen.h"

int main(int argc, char** argv) {
  using namespace cssidx;
  using namespace cssidx::bench;
  Options options = Options::Parse(argc, argv);
  std::vector<size_t> sizes{1'000'000, 5'000'000, 10'000'000};
  if (options.quick) sizes = {300'000, 1'000'000};
  Report report("fig08_space_curves", sizes.back());
  report.header().Set("figure", "Figure 8: space (bytes) vs n");

  analytic::Params p = analytic::Table1();
  const double m = p.SlotsPerNode();
  for (bool direct : {false, true}) {
    for (double n = 1e7; n <= 9e7 + 1; n += 2e7) {
      analytic::Params pn = p;
      pn.n = n;
      report.AddRow(direct ? "model_direct" : "model_indirect")
          .Set("n", n, 0)
          .Set("binary_interp", 0)
          .Set("ttree", direct ? analytic::TTreeSpaceDirect(pn, m)
                               : analytic::TTreeSpaceIndirect(pn, m), 0)
          .Set("btree", analytic::BPlusSpace(pn, m), 0)
          .Set("css", analytic::FullCssSpace(pn, m), 0)
          .Set("lcss", analytic::LevelCssSpace(pn, m), 0)
          .Set("hash", direct ? analytic::HashSpaceDirect(pn)
                              : analytic::HashSpaceIndirect(pn), 0);
    }
  }

  // Measured: build each spec, read back SpaceBytes, compare to the
  // indirect model at the same n and node size.
  for (size_t n : sizes) {
    auto keys = workload::DistinctSortedKeys(n, options.seed, 4);
    analytic::Params pn = p;
    pn.n = static_cast<double>(n);
    const int hash_bits = std::clamp(CeilLog2(n / 4), 4, 24);
    for (const auto& [spec, model] :
         {std::pair{std::string("ttree:16"),
                    analytic::TTreeSpaceIndirect(pn, m)},
          std::pair{std::string("btree:16"), analytic::BPlusSpace(pn, m)},
          std::pair{std::string("css:16"), analytic::FullCssSpace(pn, m)},
          std::pair{std::string("lcss:16"), analytic::LevelCssSpace(pn, m)},
          std::pair{"hash:" + std::to_string(hash_bits),
                    analytic::HashSpaceIndirect(pn)}}) {
      const double bytes = static_cast<double>(
          BuildIndex(*IndexSpec::Parse(spec), keys).SpaceBytes());
      report.AddRow("measured_vs_indirect_model")
          .Set("spec", spec)
          .Set("n", n)
          .Set("measured_bytes", bytes, 0)
          .Set("model_bytes", model, 0)
          .Set("measured_vs_model", bytes / model);
    }
  }
  return report.Emit(options) ? 0 : 1;
}
