// CSS-tree over wide records (§4.1's "elements of size different from the
// size of a key"): correctness for several record widths and key
// positions, against an extract-then-lower_bound oracle.

#include "core/record_css_tree.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "core/any_index.h"
#include "core/full_css_tree.h"
#include "core/range.h"

#include "gtest/gtest.h"
#include "util/rng.h"
#include "workload/key_gen.h"

namespace cssidx {
namespace {

struct Row8 {
  Key key;
  uint32_t payload;
};
struct Row8Key {
  Key operator()(const Row8& r) const { return r.key; }
};

struct Row32 {
  uint64_t header;
  Key key;
  uint32_t a, b, c;
  uint64_t footer;
};
struct Row32Key {
  Key operator()(const Row32& r) const { return r.key; }
};
static_assert(sizeof(Row8) == 8 && sizeof(Row32) == 32);

template <typename Row, typename GetKey, int M>
void OracleCheck(const std::vector<Key>& keys,
                 const std::vector<Row>& rows) {
  RecordCssTree<Row, GetKey, M> tree(rows);
  std::vector<Key> probes;
  for (Key k : keys) {
    probes.push_back(k);
    if (k > 0) probes.push_back(k - 1);
    probes.push_back(k + 1);
  }
  probes.push_back(0);
  for (Key k : probes) {
    auto expected = static_cast<size_t>(
        std::lower_bound(keys.begin(), keys.end(), k) - keys.begin());
    ASSERT_EQ(tree.LowerBound(k), expected) << "k=" << k;
    bool present = expected < keys.size() && keys[expected] == k;
    ASSERT_EQ(tree.Find(k),
              present ? static_cast<int64_t>(expected) : kNotFound);
  }
}

template <typename Row, typename GetKey>
std::vector<Row> MakeRows(const std::vector<Key>& keys) {
  std::vector<Row> rows(keys.size());
  Pcg32 rng(7);
  for (size_t i = 0; i < keys.size(); ++i) {
    rows[i] = Row{};
    // Assign via the key field only; other fields are noise.
    if constexpr (std::is_same_v<Row, Row8>) {
      rows[i].key = keys[i];
      rows[i].payload = rng.Next();
    } else {
      rows[i].header = rng.Next64();
      rows[i].key = keys[i];
      rows[i].a = rng.Next();
      rows[i].footer = rng.Next64();
    }
  }
  return rows;
}

TEST(RecordCssTree, EightByteRecordsSweep) {
  for (size_t n : {0u, 1u, 5u, 16u, 17u, 100u, 1000u, 5000u}) {
    auto keys = workload::DistinctSortedKeys(n, 3 + n, 3);
    auto rows = MakeRows<Row8, Row8Key>(keys);
    OracleCheck<Row8, Row8Key, 16>(keys, rows);
    OracleCheck<Row8, Row8Key, 4>(keys, rows);
  }
}

TEST(RecordCssTree, ThirtyTwoByteRecords) {
  auto keys = workload::DistinctSortedKeys(20'000, 5, 4);
  auto rows = MakeRows<Row32, Row32Key>(keys);
  OracleCheck<Row32, Row32Key, 16>(keys, rows);
}

TEST(RecordCssTree, DuplicateKeysLeftmost) {
  auto keys = workload::KeysWithDuplicates(1000, 50, 9);
  auto rows = MakeRows<Row8, Row8Key>(keys);
  RecordCssTree<Row8, Row8Key, 8> tree(rows);
  for (Key k : keys) {
    auto [lo, hi] = std::equal_range(keys.begin(), keys.end(), k);
    EXPECT_EQ(tree.Find(k), lo - keys.begin());
    EXPECT_EQ(tree.CountEqual(k), static_cast<size_t>(hi - lo));
  }
}

TEST(RecordCssTree, BatchKernelsMatchScalarOverRecords) {
  // The group-probing kernels descend the same key directory as the plain
  // CSS-tree but finish with record-walking leaf searches; batched
  // results must equal the scalar calls probe for probe, duplicates and
  // absent keys included, at every batch size from 0 to two full groups
  // plus one (the scalar-batch rule, partial groups, full groups) and at
  // the 256-probe chunk boundary. The range verbs are derived by the
  // facade's ordered adapter from this tree's LowerBound kernel.
  auto keys = workload::KeysWithDuplicates(8000, 300, 9);
  auto rows = MakeRows<Row32, Row32Key>(keys);
  using Tree = RecordCssTree<Row32, Row32Key, 16>;
  const OrderedBatchImpl<Tree> adapter{Tree(rows)};
  const Tree& tree = adapter.index();
  Pcg32 rng(77);
  std::vector<size_t> batches;
  for (size_t b = 0; b <= 2 * kGroupProbes + 1; ++b) batches.push_back(b);
  for (size_t b : {255, 256, 257, 2000}) batches.push_back(b);
  for (size_t batch : batches) {
    std::vector<Key> probes(batch);
    for (Key& k : probes) k = rng.Below(keys.back() + 3);
    std::vector<size_t> lower(batch);
    std::vector<int64_t> found(batch);
    std::vector<PositionRange> ranges(batch);
    std::vector<size_t> counts(batch);
    tree.LowerBoundBatch(probes, lower);
    tree.FindBatch(probes, found);
    adapter.EqualRangeBatch(probes, ranges);
    adapter.CountEqualBatch(probes, counts);
    for (size_t i = 0; i < batch; ++i) {
      ASSERT_EQ(lower[i], tree.LowerBound(probes[i]))
          << "batch=" << batch << " i=" << i;
      ASSERT_EQ(found[i], tree.Find(probes[i]))
          << "batch=" << batch << " i=" << i;
      auto [lo, hi] = std::equal_range(keys.begin(), keys.end(), probes[i]);
      ASSERT_EQ(ranges[i],
                (PositionRange{static_cast<size_t>(lo - keys.begin()),
                               static_cast<size_t>(hi - keys.begin())}))
          << "batch=" << batch << " i=" << i;
      ASSERT_EQ(counts[i], static_cast<size_t>(hi - lo))
          << "batch=" << batch << " i=" << i;
    }
  }
}

template <typename Row, typename GetKey, int M>
void ExpectDirectoryOfKeyColumn(const std::vector<Key>& keys) {
  const std::vector<Row> rows = MakeRows<Row, GetKey>(keys);
  RecordCssTree<Row, GetKey, M> records(rows);
  FullCssTree<M> column(keys);
  ASSERT_EQ(records.SpaceBytes(), column.SpaceBytes());
  if (column.SpaceBytes() == 0) return;  // no directory: nothing to compare
  EXPECT_EQ(std::memcmp(records.directory(), column.directory(),
                        column.SpaceBytes()),
            0)
      << "n=" << keys.size() << " M=" << M << " record=" << sizeof(Row);
}

TEST(RecordCssTree, DirectoryIsTheKeyColumnsFullCssDirectory) {
  // §4.1: a record tree's directory is the full CSS-tree's over the key
  // column, byte for byte, whatever the record width.
  for (size_t n : {0u, 1u, 16u, 17u, 300u, 5000u, 20'000u}) {
    auto keys = workload::KeysWithDuplicates(n, 100, 3 + n);
    ExpectDirectoryOfKeyColumn<Row8, Row8Key, 8>(keys);
    ExpectDirectoryOfKeyColumn<Row8, Row8Key, 16>(keys);
    ExpectDirectoryOfKeyColumn<Row8, Row8Key, 32>(keys);
    ExpectDirectoryOfKeyColumn<Row32, Row32Key, 8>(keys);
    ExpectDirectoryOfKeyColumn<Row32, Row32Key, 16>(keys);
    ExpectDirectoryOfKeyColumn<Row32, Row32Key, 32>(keys);
  }
}

TEST(RecordCssTree, DirectorySizeIndependentOfRecordWidth) {
  // §4.1: offsets into the leaf array are independent of the record size —
  // so the directory over n records is the same size whether a record is
  // 8 or 32 bytes.
  auto keys = workload::DistinctSortedKeys(10'000, 5, 4);
  auto narrow = MakeRows<Row8, Row8Key>(keys);
  auto wide = MakeRows<Row32, Row32Key>(keys);
  RecordCssTree<Row8, Row8Key, 16> t8(narrow);
  RecordCssTree<Row32, Row32Key, 16> t32(wide);
  EXPECT_EQ(t8.SpaceBytes(), t32.SpaceBytes());
}

}  // namespace
}  // namespace cssidx
