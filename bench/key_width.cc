// §5 parameter study: the key width K. A 64-byte node holds sc/K keys, so
// doubling K halves the branching factor and adds roughly
// log_{9}(n)/log_{17}(n) more levels. This bench holds the node byte
// budget fixed (one cache line) and compares 4-byte against 8-byte keys —
// through the IndexSpec grammar ("css:16" vs "css64:8" and friends), so
// the sweep exercises the same builder, dispatch, and batched-probe path
// as every CLI, test, and serving table, not a private template
// instantiation.

#include <string>
#include <vector>

#include "core/builder.h"
#include "harness.h"
#include "workload/key_gen.h"
#include "workload/lookup_gen.h"

namespace {

using namespace cssidx;
using namespace cssidx::bench;

/// One row: the scalar LowerBound loop (the paper's one-lookup-at-a-time
/// workload) and FindBatch in blocks of 256, best of `repeats` each.
template <typename KeyT>
void AddRow(Report& report, const IndexSpec& spec,
            const BasicAnyIndex<KeyT>& index, const std::vector<KeyT>& lookups,
            int repeats) {
  const double scalar = MinSeconds(repeats, [&] {
    uint64_t sum = 0;
    for (KeyT k : lookups) sum += index.LowerBound(k);
    return sum;
  });
  std::vector<int64_t> out(lookups.size());
  const double batched = MinSeconds(repeats, [&] {
    FindBlocked<KeyT>(index, lookups, 256, out);
    return out.empty() ? 0 : out.back();
  });
  auto& row = report.AddRow("key_width")
                  .Set("spec", spec.ToString())
                  .Set("key_bytes", spec.key_width());
  if (spec.sized()) row.Set("keys_per_node", spec.node_entries());
  row.Set("scalar_s", scalar, 6)
      .Set("batched_s", batched, 6)
      .Set("directory_bytes", index.SpaceBytes());
}

}  // namespace

int main(int argc, char** argv) {
  Options options = Options::Parse(argc, argv);
  const size_t n = options.N(300'000, 2'000'000);
  auto keys32 = workload::DistinctSortedKeys(n, options.seed, 4);
  auto lookups32 =
      workload::MatchingLookups(keys32, options.lookups, options.seed + 1);
  std::vector<uint64_t> keys64(keys32.begin(), keys32.end());
  for (auto& k : keys64) k |= (1ull << 40);  // force genuinely wide keys
  std::vector<uint64_t> lookups64(lookups32.begin(), lookups32.end());
  for (auto& k : lookups64) k |= (1ull << 40);
  Report report("key_width", n);
  report.header()
      .Set("figure", "Key width (§5's K) at a fixed 64B node budget, via the "
                     "IndexSpec grammar")
      .Set("lookups", options.lookups)
      .Set("repeats", options.repeats);

  // Each pair holds the node byte budget fixed: 16 4-byte keys or 8
  // 8-byte keys per cache line (bin carries no node, so its pair shows
  // the pure key-compare cost of the wider type).
  const std::vector<std::pair<std::string, std::string>> pairs{
      {"css:16", "css64:8"},
      {"lcss:16", "lcss64:8"},
      {"btree:16", "btree64:8"},
      {"bin", "bin64"}};
  for (const auto& [narrow_text, wide_text] : pairs) {
    IndexSpec narrow = *IndexSpec::Parse(narrow_text);
    AddRow(report, narrow, BuildIndex(narrow, keys32), lookups32,
           options.repeats);
    IndexSpec wide = *IndexSpec::Parse(wide_text);
    AddRow(report, wide, BuildIndex64(wide, keys64), lookups64,
           options.repeats);
  }
  return report.Emit(options) ? 0 : 1;
}
