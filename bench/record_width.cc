// §4.1 claim: "our techniques apply to sorted arrays having elements of
// size different from the size of a key. Offsets into the leaf array are
// independent of the record size." This bench indexes arrays of 8- to
// 64-byte records and shows (a) the directory size does not change —
// the bench exits 1 if it does — and (b) lookup time grows only mildly
// (leaf lines hold fewer keys; the directory traversal is untouched).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/record_css_tree.h"
#include "harness.h"
#include "util/rng.h"
#include "workload/key_gen.h"
#include "workload/lookup_gen.h"

namespace cssidx::bench {
namespace {

template <int PayloadWords>
struct Record {
  Key key;
  uint32_t payload[PayloadWords];
};
template <int PayloadWords>
struct RecordKey {
  Key operator()(const Record<PayloadWords>& r) const { return r.key; }
};

/// Adds one row and returns the directory's bytes.
template <int PayloadWords>
size_t Run(Report& report, const std::vector<Key>& keys,
           const std::vector<Key>& lookups, int repeats) {
  using Rec = Record<PayloadWords>;
  std::vector<Rec> rows(keys.size());
  Pcg32 rng(5);
  for (size_t i = 0; i < keys.size(); ++i) {
    rows[i].key = keys[i];
    for (int w = 0; w < PayloadWords; ++w) rows[i].payload[w] = rng.Next();
  }
  RecordCssTree<Rec, RecordKey<PayloadWords>, 16> tree(rows);
  report.AddRow("record_width")
      .Set("record_bytes", sizeof(Rec))
      .Set("seconds",
           MinSeconds(repeats, [&] { return SumFinds(tree, lookups); }), 6)
      .Set("directory_bytes", tree.SpaceBytes());
  return tree.SpaceBytes();
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
  Report report("record_width", n);
  report.header()
      .Set("figure", "Record width (§4.1): CSS-tree over records wider than "
                     "the key; the directory size must be constant")
      .Set("lookups", options.lookups)
      .Set("repeats", options.repeats);
  const size_t bytes[] = {
      Run<1>(report, keys, lookups, options.repeats),    //  8-byte records
      Run<3>(report, keys, lookups, options.repeats),    // 16-byte records
      Run<7>(report, keys, lookups, options.repeats),    // 32-byte records
      Run<15>(report, keys, lookups, options.repeats)};  // 64-byte records
  const bool constant = std::all_of(std::begin(bytes), std::end(bytes),
                                    [&](size_t b) { return b == bytes[0]; });
  const bool written = report.Emit(options);
  if (!constant) std::printf("FAIL: the directory size varies with width\n");
  return written && constant ? 0 : 1;
}
