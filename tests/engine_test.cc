#include "engine/query.h"
#include "engine/table.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "spec_menu.h"
#include "util/rng.h"
#include "util/zipf.h"
#include "workload/key_gen.h"

namespace cssidx::engine {
namespace {

Table MakeOrders(size_t rows, uint32_t num_customers, uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<uint32_t> customer(rows), amount(rows), day(rows);
  for (size_t i = 0; i < rows; ++i) {
    customer[i] = rng.Below(num_customers);
    amount[i] = 1 + rng.Below(1000);
    day[i] = rng.Below(365);
  }
  Table t;
  t.AddColumn("customer", std::move(customer));
  t.AddColumn("amount", std::move(amount));
  t.AddColumn("day", std::move(day));
  return t;
}

TEST(SortIndex, EqualReturnsAllMatchingRids) {
  std::vector<uint32_t> col{5, 3, 5, 9, 3, 5};
  SortIndex index(col);
  EXPECT_EQ(index.Equal(5), (std::vector<Rid>{0, 2, 5}));
  EXPECT_EQ(index.Equal(3), (std::vector<Rid>{1, 4}));
  EXPECT_EQ(index.Equal(9), (std::vector<Rid>{3}));
  EXPECT_TRUE(index.Equal(7).empty());
}

TEST(SortIndex, RangeReturnsRidsOfValuesInRange) {
  std::vector<uint32_t> col{50, 10, 30, 20, 40};
  SortIndex index(col);
  auto rids = index.Range(15, 45);  // values 20, 30, 40
  std::sort(rids.begin(), rids.end());
  EXPECT_EQ(rids, (std::vector<Rid>{2, 3, 4}));
  EXPECT_TRUE(index.Range(45, 45).empty());
  EXPECT_TRUE(index.Range(45, 15).empty());
}

TEST(SortIndex, SortedKeysAreSortedAndComplete) {
  Pcg32 rng(3);
  std::vector<uint32_t> col(5000);
  for (auto& v : col) v = rng.Below(1000);
  SortIndex index(col);
  EXPECT_TRUE(std::is_sorted(index.sorted_keys().begin(),
                             index.sorted_keys().end()));
  EXPECT_EQ(index.sorted_keys().size(), col.size());
  // Permutation check: rids cover 0..n-1 exactly once.
  std::vector<Rid> rids = index.rids();
  std::sort(rids.begin(), rids.end());
  for (size_t i = 0; i < rids.size(); ++i) ASSERT_EQ(rids[i], i);
}

TEST(Table, ColumnManagement) {
  Table t;
  t.AddColumn("a", {1, 2, 3});
  EXPECT_EQ(t.NumRows(), 3u);
  EXPECT_TRUE(t.HasColumn("a"));
  EXPECT_FALSE(t.HasColumn("b"));
  EXPECT_THROW(t.ReadColumn("b"), std::out_of_range);
  EXPECT_THROW(t.AddColumn("bad", {1, 2}), std::invalid_argument);
  t.AddColumn("b", {4, 5, 6});
  EXPECT_EQ(t.NumColumns(), 2u);
}

TEST(Table, AppendRowsRebuildsIndexes) {
  Table t;
  t.AddColumn("k", {10, 20, 30});
  t.AddColumn("v", {1, 2, 3});
  t.BuildSortIndex("k");
  t.AppendRows({{"k", {15, 25}}, {"v", {4, 5}}});
  EXPECT_EQ(t.NumRows(), 5u);
  // The rebuilt index sees the new rows.
  auto rids = t.GetSortIndex("k").Range(12, 27);
  std::sort(rids.begin(), rids.end());
  EXPECT_EQ(rids, (std::vector<Rid>{1, 3, 4}));  // 20, 15, 25
}

TEST(Table, AppendRowsValidatesBatchShape) {
  Table t;
  t.AddColumn("a", {1});
  t.AddColumn("b", {2});
  EXPECT_THROW(t.AppendRows({{"a", {1}}}), std::invalid_argument);
  EXPECT_THROW(t.AppendRows({{"a", {1}}, {"z", {1}}}),
               std::invalid_argument);
  EXPECT_THROW(t.AppendRows({{"a", {1, 2}}, {"b", {1}}}),
               std::invalid_argument);
  t.AppendRows({{"a", {7}}, {"b", {8}}});
  EXPECT_EQ(t.NumRows(), 2u);
}

TEST(Query, SelectEqualIndexedMatchesScan) {
  Table t = MakeOrders(20'000, 500, 7);
  auto scan = SelectEqual(t, "customer", 42);  // no index yet: scan path
  t.BuildSortIndex("customer");
  auto indexed = SelectEqual(t, "customer", 42);
  EXPECT_EQ(scan, indexed);
  EXPECT_FALSE(indexed.empty());
}

TEST(Query, SelectRangeIndexedMatchesScan) {
  Table t = MakeOrders(20'000, 500, 9);
  auto scan = SelectRange(t, "day", 100, 200);
  t.BuildSortIndex("day");
  auto indexed = SelectRange(t, "day", 100, 200);
  std::sort(indexed.begin(), indexed.end());
  std::sort(scan.begin(), scan.end());
  EXPECT_EQ(scan, indexed);
}

TEST(Query, SelectRangeIsBitIdenticalToTheScalarBoundPath) {
  // The batch rewrite must reproduce the pre-batch implementation — two
  // scalar LowerBounds and a RID-list slice — exactly, element order
  // included, for every spec (hash's bounds fall back to binary search).
  Table t = MakeOrders(20'000, 500, 33);
  for (const char* spec_text : {"css:16", "lcss:8", "btree:32", "ttree:16",
                                "bin", "tbin", "interp", "hash:10"}) {
    t.BuildSortIndex("day", *IndexSpec::Parse(spec_text));
    const SortIndex& index = t.GetSortIndex("day");
    for (auto [lo, hi] : std::initializer_list<std::pair<uint32_t, uint32_t>>{
             {100, 200}, {0, 365}, {0, 0}, {200, 100}, {364, 365},
             {0, 0xffffffffu}}) {
      std::vector<Rid> expected;
      if (hi > lo) {
        size_t begin = index.LowerBound(lo);
        size_t end = index.LowerBound(hi);
        expected.assign(index.rids().begin() + static_cast<ptrdiff_t>(begin),
                        index.rids().begin() + static_cast<ptrdiff_t>(end));
      }
      ASSERT_EQ(SelectRange(t, "day", lo, hi), expected)
          << spec_text << " [" << lo << ", " << hi << ")";
    }
  }
}

TEST(Query, SelectRangeBatchMatchesSingleRangeCalls) {
  Table t = MakeOrders(15'000, 400, 35);
  std::vector<std::pair<uint32_t, uint32_t>> bounds{
      {0, 365}, {100, 200}, {50, 50}, {300, 100},  // empty + inverted
      {0, 1},   {364, 1000}, {42, 43}};
  // Scan path (no index) first, then every indexed spec.
  auto scan_results = SelectRangeBatch(t, "day", bounds);
  ASSERT_EQ(scan_results.size(), bounds.size());
  for (size_t b = 0; b < bounds.size(); ++b) {
    ASSERT_EQ(scan_results[b],
              SelectRange(t, "day", bounds[b].first, bounds[b].second))
        << "scan b=" << b;
  }
  for (const char* spec_text : {"css:16", "hash:10", "ttree:16"}) {
    t.BuildSortIndex("day", *IndexSpec::Parse(spec_text));
    auto results = SelectRangeBatch(t, "day", bounds);
    ASSERT_EQ(results.size(), bounds.size());
    for (size_t b = 0; b < bounds.size(); ++b) {
      ASSERT_EQ(results[b],
                SelectRange(t, "day", bounds[b].first, bounds[b].second))
          << spec_text << " b=" << b;
    }
  }
}

TEST(Query, IndexedJoinMatchesNestedLoop) {
  Table orders = MakeOrders(5'000, 200, 11);
  // Customers: ids 0..199 with a region column.
  Table customers;
  {
    std::vector<uint32_t> id(200), region(200);
    Pcg32 rng(13);
    for (uint32_t i = 0; i < 200; ++i) {
      id[i] = i;
      region[i] = rng.Below(10);
    }
    customers.AddColumn("id", std::move(id));
    customers.AddColumn("region", std::move(region));
  }
  customers.BuildSortIndex("id");

  auto pairs = IndexedJoin(orders, "customer", customers, "id");
  // Oracle: nested loop.
  size_t expected = 0;
  const auto oc = orders.ReadColumn("customer");
  const auto ic = customers.ReadColumn("id");
  for (size_t i = 0; i < oc.size(); ++i) {
    for (size_t j = 0; j < ic.size(); ++j) {
      if (oc[i] == ic[j]) ++expected;
    }
  }
  EXPECT_EQ(pairs.size(), expected);
  EXPECT_EQ(pairs.size(), 5'000u);  // id is a key: exactly one match each
  for (const auto& p : pairs) {
    ASSERT_EQ(oc[p.outer], ic[p.inner]);
  }
}

TEST(Query, JoinWithDuplicateInnerKeys) {
  Table outer;
  outer.AddColumn("k", {1, 2, 3});
  Table inner;
  inner.AddColumn("k", {2, 2, 9, 1});
  inner.BuildSortIndex("k");
  auto pairs = IndexedJoin(outer, "k", inner, "k");
  // outer row 0 (k=1) -> inner 3; outer row 1 (k=2) -> inner 0 and 1.
  EXPECT_EQ(pairs.size(), 3u);
}

TEST(Query, AggregateBasics) {
  Table t;
  t.AddColumn("v", {10, 20, 30, 40});
  Aggregates a = Aggregate(t, "v", {0, 2, 3});
  EXPECT_EQ(a.count, 3u);
  EXPECT_EQ(a.sum, 80u);
  EXPECT_EQ(a.min, 10u);
  EXPECT_EQ(a.max, 40u);
  Aggregates empty = Aggregate(t, "v", {});
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.min, 0u);
}

// Regression: Aggregate read rows past the end of the column — a 3-row
// table answered {3} with count=1 from whatever followed the values, and
// a paged read of {3, 40} pinned a phantom zero page (count=2, sum=0).
// Any RID >= NumRows() now throws, at every buffer budget.
TEST(Query, AggregateRejectsRidsPastTheEnd) {
  for (size_t budget : {0u, 1u}) {
    TableOptions options;
    options.page_bytes = 8;  // two values per page
    options.buffer_pages = budget;
    Table t(options);
    t.AddColumn("v", {5, 6, 7});
    EXPECT_THROW(Aggregate(t, "v", {3}), std::out_of_range) << budget;
    EXPECT_THROW(Aggregate(t, "v", {3, 40}), std::out_of_range) << budget;
    EXPECT_THROW(Aggregate(t, "v", {0, 2, 1u << 31}), std::out_of_range)
        << budget;
    const Aggregates all = Aggregate(t, "v", {0, 1, 2});
    EXPECT_EQ(all.count, 3u);
    EXPECT_EQ(all.sum, 18u);
  }
}

TEST(Query, AggregateMinMaxInitialization) {
  // Regression: Aggregates used to default min to 0, so a fold that
  // skipped re-initialization reported MIN = 0 for any row set. The
  // defaults are now fold identities.
  Aggregates a;
  a.Accumulate(7);
  a.Accumulate(3);
  a.Accumulate(9);
  EXPECT_EQ(a.min, 3u);
  EXPECT_EQ(a.max, 9u);
  EXPECT_EQ(a.count, 3u);
  EXPECT_EQ(a.sum, 19u);

  // Through the operators: all values strictly positive, min must not be 0.
  Table t;
  t.AddColumn("v", {50, 40, 60});
  Aggregates agg = Aggregate(t, "v", {0, 1, 2});
  EXPECT_EQ(agg.min, 40u);
  EXPECT_EQ(agg.max, 60u);
  Aggregates single = Aggregate(t, "v", {2});
  EXPECT_EQ(single.min, 60u);
  EXPECT_EQ(single.max, 60u);
  // GroupBy: a group whose values are all positive, plus an empty group.
  t.AddColumn("g", {0, 0, 0});
  auto groups = GroupBy(t, "g", "v", 2);
  EXPECT_EQ(groups[0].min, 40u);
  EXPECT_EQ(groups[1].count, 0u);
  EXPECT_EQ(groups[1].min, 0u);  // empty-set convention
}

TEST(Query, GroupByCountsAndSums) {
  Table t;
  t.AddColumn("g", {0, 1, 0, 2, 1, 0});
  t.AddColumn("v", {5, 10, 15, 20, 25, 35});
  auto groups = GroupBy(t, "g", "v", 3);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].count, 3u);
  EXPECT_EQ(groups[0].sum, 55u);
  EXPECT_EQ(groups[1].count, 2u);
  EXPECT_EQ(groups[1].sum, 35u);
  EXPECT_EQ(groups[2].count, 1u);
  EXPECT_EQ(groups[2].max, 20u);
}

TEST(Query, GroupByIndexedMatchesScanOnZipfSkewedDuplicates) {
  // With the group column indexed, GroupBy gathers the RID-list prefix
  // that holds the group keys; the scan path is the oracle. A Zipf-skewed
  // group column makes a few groups enormous and leaves others empty —
  // exactly the duplicate-run spread where span bugs hide. Both paths
  // accumulate in RID order (stable sort), so every field must match
  // bit-for-bit, including an always-empty trailing group.
  constexpr uint32_t kGroups = 64;
  ZipfGenerator zipf(kGroups - 1, /*theta=*/1.1, /*seed=*/41);
  Pcg32 rng(43);
  std::vector<uint32_t> group(50'000), value(50'000);
  for (size_t i = 0; i < group.size(); ++i) {
    group[i] = static_cast<uint32_t>(zipf.Next());
    value[i] = 1 + rng.Below(10'000);
  }
  Table t;
  t.AddColumn("g", std::move(group));
  t.AddColumn("v", std::move(value));
  auto scan = GroupBy(t, "g", "v", kGroups);
  ASSERT_EQ(scan.size(), kGroups);
  EXPECT_EQ(scan[kGroups - 1].count, 0u);  // zipf drew from [0, kGroups-1)

  // The dense query covers every row, so the selectivity gate keeps the
  // scan accumulator; a sparse query (the head groups of a much wider
  // domain) goes through the RID-list gather. Both must match the scan
  // oracle exactly, for every spec.
  constexpr uint32_t kSparseGroups = 8;
  ZipfGenerator wide(5000, /*theta=*/0.8, /*seed=*/45);
  std::vector<uint32_t> wide_group(50'000);
  for (auto& g : wide_group) g = static_cast<uint32_t>(wide.Next());
  Table sparse;
  sparse.AddColumn("g", std::move(wide_group));
  sparse.AddColumn("v", t.ReadColumn("v"));
  auto sparse_scan = GroupBy(sparse, "g", "v", kSparseGroups);

  for (const char* spec_text : {"css:16", "lcss:8", "btree:32", "ttree:16",
                                "bin", "tbin", "interp", "hash:10"}) {
    t.BuildSortIndex("g", *IndexSpec::Parse(spec_text));
    auto indexed = GroupBy(t, "g", "v", kGroups);
    ASSERT_EQ(indexed.size(), scan.size()) << spec_text;
    for (uint32_t g = 0; g < kGroups; ++g) {
      ASSERT_EQ(indexed[g].count, scan[g].count) << spec_text << " g=" << g;
      ASSERT_EQ(indexed[g].sum, scan[g].sum) << spec_text << " g=" << g;
      ASSERT_EQ(indexed[g].min, scan[g].min) << spec_text << " g=" << g;
      ASSERT_EQ(indexed[g].max, scan[g].max) << spec_text << " g=" << g;
    }
    sparse.BuildSortIndex("g", *IndexSpec::Parse(spec_text));
    auto sparse_indexed = GroupBy(sparse, "g", "v", kSparseGroups);
    for (uint32_t g = 0; g < kSparseGroups; ++g) {
      ASSERT_EQ(sparse_indexed[g].count, sparse_scan[g].count)
          << spec_text << " sparse g=" << g;
      ASSERT_EQ(sparse_indexed[g].sum, sparse_scan[g].sum)
          << spec_text << " sparse g=" << g;
      ASSERT_EQ(sparse_indexed[g].min, sparse_scan[g].min)
          << spec_text << " sparse g=" << g;
      ASSERT_EQ(sparse_indexed[g].max, sparse_scan[g].max)
          << spec_text << " sparse g=" << g;
    }
  }
}

TEST(Query, IndexedJoinExpandsDuplicatesViaRangeSpans) {
  // Zipf-skewed duplicate keys on BOTH sides: the join's §3.6 expansion
  // now consumes PositionRange spans, and heavy runs are where a
  // wrong-end span would explode or truncate the pair list. Oracle:
  // nested loop over both columns, in the same outer-major order.
  ZipfGenerator zipf(200, /*theta=*/1.05, /*seed=*/47);
  std::vector<uint32_t> outer_col(3'000), inner_col(2'000);
  for (auto& v : outer_col) v = static_cast<uint32_t>(zipf.Next());
  for (auto& v : inner_col) v = static_cast<uint32_t>(zipf.Next());
  Table outer, inner;
  outer.AddColumn("k", outer_col);
  inner.AddColumn("k", inner_col);

  std::vector<JoinedPair> expected;
  for (size_t i = 0; i < outer_col.size(); ++i) {
    // Inner matches in RID order, as the sorted RID list stores them.
    for (size_t j = 0; j < inner_col.size(); ++j) {
      if (outer_col[i] == inner_col[j]) {
        expected.push_back({static_cast<Rid>(i), static_cast<Rid>(j)});
      }
    }
  }
  for (const char* spec_text : {"css:16", "hash:8", "ttree:16"}) {
    inner.BuildSortIndex("k", *IndexSpec::Parse(spec_text));
    auto pairs = IndexedJoin(outer, "k", inner, "k");
    ASSERT_EQ(pairs.size(), expected.size()) << spec_text;
    for (size_t i = 0; i < pairs.size(); ++i) {
      ASSERT_EQ(pairs[i].outer, expected[i].outer) << spec_text << " " << i;
      ASSERT_EQ(pairs[i].inner, expected[i].inner) << spec_text << " " << i;
    }
  }
}

TEST(SortIndex, RangeBatchMatchesScalarRangeAcrossSpecs) {
  Pcg32 rng(51);
  std::vector<uint32_t> col(9'000);
  for (auto& v : col) v = rng.Below(700);
  std::vector<std::pair<uint32_t, uint32_t>> bounds;
  for (int b = 0; b < 200; ++b) {
    uint32_t lo = rng.Below(750);
    uint32_t hi = rng.Below(750);  // inverted and empty pairs included
    bounds.push_back({lo, hi});
  }
  for (const IndexSpec& spec : AllSpecs(16, 10)) {
    SortIndex index(col, spec);
    auto batched = index.RangeBatch(bounds);
    ASSERT_EQ(batched.size(), bounds.size()) << spec.ToString();
    for (size_t b = 0; b < bounds.size(); ++b) {
      ASSERT_EQ(batched[b], index.Range(bounds[b].first, bounds[b].second))
          << spec.ToString() << " b=" << b;
    }
  }
  // The no-opts overload follows the spec's "@tN" probe-thread policy,
  // with results identical to the inline default.
  SortIndex threaded(col, *IndexSpec::Parse("css:16@t3"));
  SortIndex inline_default(col, *IndexSpec::Parse("css:16"));
  ASSERT_EQ(threaded.RangeBatch(bounds), inline_default.RangeBatch(bounds));
}

TEST(SortIndex, EveryMethodInTheSuiteServesAColumn) {
  // BuildSortIndex accepts any IndexSpec, including unordered hash (whose
  // Range/LowerBound fall back to binary search on the sorted key list).
  Pcg32 rng(31);
  std::vector<uint32_t> col(8000);
  for (auto& v : col) v = rng.Below(900);
  SortIndex oracle(col);  // default spec: full CSS-tree
  for (const IndexSpec& spec : AllSpecs(16, 10)) {
    SortIndex index(col, spec);
    EXPECT_EQ(index.spec(), spec);
    for (uint32_t v : {0u, 1u, 433u, 899u, 900u, 5000u}) {
      ASSERT_EQ(index.Equal(v), oracle.Equal(v)) << spec.ToString();
      ASSERT_EQ(index.Find(v), oracle.Find(v)) << spec.ToString();
      ASSERT_EQ(index.LowerBound(v), oracle.LowerBound(v)) << spec.ToString();
    }
    ASSERT_EQ(index.Range(100, 300), oracle.Range(100, 300))
        << spec.ToString();
  }
}

TEST(Table, BuildSortIndexAcceptsSpecsAndRejectsOffMenu) {
  Table t = MakeOrders(5'000, 100, 17);
  auto baseline = SelectEqual(t, "customer", 42);  // scan path
  for (const char* spec_text : {"css:16", "lcss:8", "btree:32", "ttree:16",
                                "bin", "tbin", "interp", "hash:10"}) {
    auto spec = IndexSpec::Parse(spec_text);
    ASSERT_TRUE(spec.has_value()) << spec_text;
    t.BuildSortIndex("customer", *spec);
    EXPECT_EQ(SelectEqual(t, "customer", 42), baseline) << spec_text;
  }
  EXPECT_THROW(t.BuildSortIndex("customer", IndexSpec().WithNodeEntries(12)),
               std::invalid_argument);
  // The failed rebuild must not have clobbered the existing index.
  EXPECT_TRUE(t.HasSortIndex("customer"));
  EXPECT_EQ(SelectEqual(t, "customer", 42), baseline);
}

TEST(Table, AppendRowsRebuildsWithOriginalSpec) {
  Table t;
  t.AddColumn("k", {10, 20, 30});
  t.BuildSortIndex("k", *IndexSpec::Parse("hash:6"));
  t.AppendRows({{"k", {15, 25}}});
  const SortIndex& rebuilt = t.GetSortIndex("k");
  EXPECT_EQ(rebuilt.spec(), *IndexSpec::Parse("hash:6"));
  EXPECT_EQ(rebuilt.Equal(15), (std::vector<Rid>{3}));
}

TEST(Table, IncrementalAppendMatchesFreshRebuildForEverySpec) {
  // ApplyAppend merges the appended (value, RID) pairs instead of
  // re-sorting the column; the result — keys, RID permutation, and every
  // query — must be bit-identical to a from-scratch SortIndex over the
  // extended column. Duplicates across the append boundary are the
  // tie-breaking hazard: equal values must stay in RID order.
  Pcg32 rng(0xa99e4d);
  for (const char* spec_text :
       {"css:16", "part:4/css:16", "part:16/css:16", "hash:8", "ttree:16"}) {
    Table t;
    std::vector<uint32_t> col(9'000);
    for (auto& v : col) v = rng.Below(700);  // dense duplicates
    t.AddColumn("k", col);
    t.BuildSortIndex("k", *IndexSpec::Parse(spec_text));
    for (int round = 0; round < 3; ++round) {
      std::vector<uint32_t> fresh_rows(1'500);
      for (auto& v : fresh_rows) v = rng.Below(700);
      t.AppendRows({{"k", fresh_rows}});
    }
    const SortIndex& incremental = t.GetSortIndex("k");
    SortIndex scratch(t.ReadColumn("k"), *IndexSpec::Parse(spec_text));
    ASSERT_EQ(incremental.sorted_keys(), scratch.sorted_keys()) << spec_text;
    ASSERT_EQ(incremental.rids(), scratch.rids()) << spec_text;
    for (uint32_t v : {0u, 350u, 699u, 700u}) {
      ASSERT_EQ(incremental.Equal(v), scratch.Equal(v)) << spec_text;
    }
    ASSERT_EQ(incremental.Range(100, 140), scratch.Range(100, 140))
        << spec_text;
    // Partitioned specs must have refreshed shard-incrementally, not by
    // re-sorting: every append is a batch through MaintainedIndex.
    const auto& stats = incremental.maintained().stats();
    EXPECT_EQ(stats.batches, 3u) << spec_text;
    if (incremental.spec().partitioned()) {
      EXPECT_GE(stats.incremental_refreshes + stats.full_rebuilds, 1u)
          << spec_text;
    }
  }
}

TEST(Table, ManyAppendsGrowRidListInPlaceAndMatchFreshBuild) {
  // ApplyAppend grows the RID list in place — segments of the old list
  // move back to make room for each appended row — and reserves capacity
  // geometrically. Forty-plus appends from a small start cross several
  // capacity growths; after EVERY step the key and RID lists must equal a
  // from-scratch SortIndex over the extended column, bit for bit. The
  // batches hit every landing spot: values equal to existing runs (ties
  // go after the old rows), below the minimum, above the maximum, a
  // one-row batch and an empty one.
  for (const char* spec_text : {"css:16", "part:16/css:16"}) {
    const IndexSpec spec = *IndexSpec::Parse(spec_text);
    Pcg32 rng(0x5eed);
    std::vector<uint32_t> model(64);
    for (auto& v : model) v = 1000 + rng.Below(50);
    Table t;
    t.AddColumn("k", model);
    t.BuildSortIndex("k", spec);
    size_t growths = 0;
    size_t capacity = t.GetSortIndex("k").rids().capacity();
    for (int step = 0; step < 44; ++step) {
      std::vector<uint32_t> batch;
      switch (step % 6) {
        case 0:  // existing values only: every row ties with a run
          for (int i = 0; i < 9; ++i) {
            batch.push_back(model[rng.Below(static_cast<uint32_t>(
                model.size()))]);
          }
          break;
        case 1:  // below the current minimum, descending
          for (uint32_t i = 0; i < 5; ++i) {
            batch.push_back(999 - static_cast<uint32_t>(step) - i);
          }
          break;
        case 2:  // above the current maximum
          for (uint32_t i = 0; i < 7; ++i) {
            batch.push_back(2000 + static_cast<uint32_t>(step) * 10 + i);
          }
          break;
        case 3:  // a single row
          batch.push_back(1000 + rng.Below(60));
          break;
        case 4:  // empty
          break;
        default:  // a mix, with in-batch duplicates
          for (int i = 0; i < 12; ++i) batch.push_back(990 + rng.Below(80));
          batch.push_back(batch.front());
          break;
      }
      t.AppendRows({{"k", batch}});
      model.insert(model.end(), batch.begin(), batch.end());
      const SortIndex& incremental = t.GetSortIndex("k");
      const SortIndex scratch(model, spec);
      ASSERT_EQ(incremental.sorted_keys(), scratch.sorted_keys())
          << spec_text << " step " << step;
      ASSERT_EQ(incremental.rids(), scratch.rids())
          << spec_text << " step " << step;
      if (incremental.rids().capacity() != capacity) {
        ++growths;
        capacity = incremental.rids().capacity();
      }
    }
    EXPECT_GE(growths, 2u) << spec_text;
    EXPECT_EQ(t.GetSortIndex("k").Equal(999),
              SortIndex(model, spec).Equal(999))
        << spec_text;
  }
}

TEST(Query, OperatorsSeeFreshSnapshotsAfterAppend) {
  // SelectRange/GroupBy/IndexedJoin keep running against the refreshed
  // index after a batch append, with the same answers a fully rebuilt
  // table gives.
  Table t = MakeOrders(20'000, 300, 27);
  t.BuildSortIndex("customer", *IndexSpec::Parse("part:8/css:16"));
  t.BuildSortIndex("day", *IndexSpec::Parse("css:16"));
  Pcg32 rng(0x77);
  std::map<std::string, std::vector<uint32_t>> batch;
  for (const char* col : {"customer", "amount", "day"}) {
    std::vector<uint32_t> values(2'000);
    for (auto& v : values) {
      v = col == std::string("amount") ? 1 + rng.Below(1000)
          : col == std::string("day")  ? rng.Below(365)
                                       : rng.Below(300);
    }
    batch[col] = std::move(values);
  }
  t.AppendRows(batch);

  Table fresh = [&] {
    Table copy;
    for (const char* col : {"customer", "amount", "day"}) {
      copy.AddColumn(col, t.ReadColumn(col));
    }
    copy.BuildSortIndex("customer", *IndexSpec::Parse("part:8/css:16"));
    copy.BuildSortIndex("day", *IndexSpec::Parse("css:16"));
    return copy;
  }();

  EXPECT_EQ(SelectRange(t, "day", 50, 120), SelectRange(fresh, "day", 50, 120));
  auto grouped = GroupBy(t, "customer", "amount", 300);
  auto grouped_fresh = GroupBy(fresh, "customer", "amount", 300);
  ASSERT_EQ(grouped.size(), grouped_fresh.size());
  for (size_t g = 0; g < grouped.size(); ++g) {
    ASSERT_EQ(grouped[g].count, grouped_fresh[g].count) << g;
    ASSERT_EQ(grouped[g].sum, grouped_fresh[g].sum) << g;
  }

  Table dims;
  dims.AddColumn("id", [&] {
    std::vector<uint32_t> ids(300);
    std::iota(ids.begin(), ids.end(), 0u);
    return ids;
  }());
  auto check_join = [&](const Table& inner) {
    return IndexedJoin(dims, "id", inner, "customer");
  };
  auto joined = check_join(t);
  auto joined_fresh = check_join(fresh);
  ASSERT_EQ(joined.size(), joined_fresh.size());
  for (size_t i = 0; i < joined.size(); ++i) {
    ASSERT_EQ(joined[i].outer, joined_fresh[i].outer) << i;
    ASSERT_EQ(joined[i].inner, joined_fresh[i].inner) << i;
  }
}

TEST(Query, IndexedJoinThroughEveryMethod) {
  // The join probes the inner index through FindBatch; every method must
  // produce the same pairs, hash included.
  Table orders = MakeOrders(7'000, 150, 19);
  Table customers;
  {
    std::vector<uint32_t> id(150), region(150);
    Pcg32 rng(29);
    for (uint32_t i = 0; i < 150; ++i) {
      id[i] = i;
      region[i] = rng.Below(10);
    }
    customers.AddColumn("id", std::move(id));
    customers.AddColumn("region", std::move(region));
  }
  customers.BuildSortIndex("id");
  auto expected = IndexedJoin(orders, "customer", customers, "id");
  ASSERT_EQ(expected.size(), 7'000u);
  for (const IndexSpec& spec : AllSpecs(8, 8)) {
    customers.BuildSortIndex("id", spec);
    auto pairs = IndexedJoin(orders, "customer", customers, "id");
    ASSERT_EQ(pairs.size(), expected.size()) << spec.ToString();
    for (size_t i = 0; i < pairs.size(); ++i) {
      ASSERT_EQ(pairs[i].outer, expected[i].outer) << spec.ToString();
      ASSERT_EQ(pairs[i].inner, expected[i].inner) << spec.ToString();
    }
  }
}

TEST(Query, PartitionedSortIndexIsBitIdenticalToUnpartitioned) {
  // The engine runs on partitioned specs unchanged: a sort index built
  // with "part:K/<inner>" must drive SelectRange, SelectRangeBatch,
  // GroupBy, and IndexedJoin to exactly the results of the bare inner
  // spec — RID order included — over a Zipf-skewed duplicates table,
  // where a shard fence through the middle of a hot run would show up
  // immediately as a truncated run span.
  constexpr uint32_t kGroups = 48;
  ZipfGenerator zipf(kGroups - 1, /*theta=*/1.1, /*seed=*/53);
  Pcg32 rng(57);
  std::vector<uint32_t> group(40'000), value(40'000);
  for (size_t i = 0; i < group.size(); ++i) {
    group[i] = static_cast<uint32_t>(zipf.Next());
    value[i] = 1 + rng.Below(10'000);
  }
  Table t;
  t.AddColumn("g", std::move(group));
  t.AddColumn("v", std::move(value));

  Table outer;
  {
    ZipfGenerator outer_zipf(kGroups - 1, /*theta=*/0.9, /*seed=*/59);
    std::vector<uint32_t> outer_col(9'000);
    for (auto& v : outer_col) v = static_cast<uint32_t>(outer_zipf.Next());
    outer.AddColumn("g", std::move(outer_col));
  }

  std::vector<std::pair<uint32_t, uint32_t>> bounds{
      {0, kGroups}, {5, 20}, {7, 7}, {30, 10}, {0, 1}, {kGroups - 1, 1000}};

  for (const char* inner_text : {"css:16", "btree:32", "hash:10"}) {
    IndexSpec inner = *IndexSpec::Parse(inner_text);
    t.BuildSortIndex("g", inner);
    auto want_range = SelectRange(t, "g", 5, 20);
    auto want_batch = SelectRangeBatch(t, "g", bounds);
    auto want_groups = GroupBy(t, "g", "v", kGroups);
    auto want_join = IndexedJoin(outer, "g", t, "g");

    for (int k : {2, 8, 64}) {
      IndexSpec part = inner.WithPartitions(k);
      t.BuildSortIndex("g", part);
      ASSERT_EQ(t.GetSortIndex("g").spec(), part);
      ASSERT_EQ(SelectRange(t, "g", 5, 20), want_range)
          << part.ToString();
      ASSERT_EQ(SelectRangeBatch(t, "g", bounds), want_batch)
          << part.ToString();
      auto groups = GroupBy(t, "g", "v", kGroups);
      ASSERT_EQ(groups.size(), want_groups.size()) << part.ToString();
      for (uint32_t g = 0; g < kGroups; ++g) {
        ASSERT_EQ(groups[g].count, want_groups[g].count)
            << part.ToString() << " g=" << g;
        ASSERT_EQ(groups[g].sum, want_groups[g].sum)
            << part.ToString() << " g=" << g;
        ASSERT_EQ(groups[g].min, want_groups[g].min)
            << part.ToString() << " g=" << g;
        ASSERT_EQ(groups[g].max, want_groups[g].max)
            << part.ToString() << " g=" << g;
      }
      auto join = IndexedJoin(outer, "g", t, "g");
      ASSERT_EQ(join.size(), want_join.size()) << part.ToString();
      for (size_t i = 0; i < join.size(); ++i) {
        ASSERT_EQ(join[i].outer, want_join[i].outer)
            << part.ToString() << " i=" << i;
        ASSERT_EQ(join[i].inner, want_join[i].inner)
            << part.ToString() << " i=" << i;
      }
    }
  }
}

TEST(Table, DeleteRowsCompactsAndRenumbers) {
  Table t;
  t.AddColumn("k", {10, 20, 30, 20, 40});
  t.AddColumn("v", {1, 2, 3, 4, 5});
  t.BuildSortIndex("k");
  t.DeleteRows(std::vector<Rid>{1, 3, 3});  // duplicates allowed
  EXPECT_EQ(t.NumRows(), 3u);
  EXPECT_EQ(t.ReadColumn("k"), (std::vector<uint32_t>{10, 30, 40}));
  EXPECT_EQ(t.ReadColumn("v"), (std::vector<uint32_t>{1, 3, 5}));
  // Survivors renumbered: old RIDs 0, 2, 4 -> 0, 1, 2.
  EXPECT_EQ(t.GetSortIndex("k").Equal(30), (std::vector<Rid>{1}));
  EXPECT_TRUE(t.GetSortIndex("k").Equal(20).empty());
  // Validation: out-of-range throws, empty list is a no-op.
  EXPECT_THROW(t.DeleteRows(std::vector<Rid>{3}), std::out_of_range);
  t.DeleteRows(std::vector<Rid>{});
  EXPECT_EQ(t.NumRows(), 3u);
}

TEST(Table, DeleteInterleavedWithAppendMatchesFreshRebuildForEverySpec) {
  // The engine-delete differential: append/delete interleavings routed
  // through the maintenance chain must leave every sort index — keys,
  // RID permutation, maintenance counters' batch count — bit-identical
  // to a from-scratch SortIndex over the surviving column. TWO indexed
  // columns, so deletes positional in one column land mid-run in the
  // other, exercising the partial-run reinsert path; dense duplicates
  // make most runs multi-row.
  for (const IndexSpec& spec : test_menu::DefaultSpecs(16, 10)) {
    Pcg32 rng(0xde1e7e);
    Table t;
    std::vector<uint32_t> k(6'000), g(6'000);
    for (auto& v : k) v = rng.Below(500);
    for (auto& v : g) v = rng.Below(40);
    t.AddColumn("k", k);
    t.AddColumn("g", g);
    t.BuildSortIndex("k", spec);
    t.BuildSortIndex("g", spec);
    for (int round = 0; round < 3; ++round) {
      // Delete a random ~10% slice of the current rows...
      std::vector<Rid> doomed;
      for (Rid r = 0; r < t.NumRows(); ++r) {
        if (rng.Below(10) == 0) doomed.push_back(r);
      }
      t.DeleteRows(doomed);
      // ...then append fresh rows across the same key ranges.
      std::vector<uint32_t> fresh_k(800), fresh_g(800);
      for (auto& v : fresh_k) v = rng.Below(500);
      for (auto& v : fresh_g) v = rng.Below(40);
      t.AppendRows({{"k", fresh_k}, {"g", fresh_g}});
    }
    for (const char* col : {"k", "g"}) {
      const SortIndex& incremental = t.GetSortIndex(col);
      SortIndex scratch(t.ReadColumn(col), spec);
      ASSERT_EQ(incremental.sorted_keys(), scratch.sorted_keys())
          << spec.ToString() << " " << col;
      ASSERT_EQ(incremental.rids(), scratch.rids())
          << spec.ToString() << " " << col;
      // One maintenance batch per DeleteRows + one per AppendRows.
      EXPECT_EQ(incremental.maintained().stats().batches, 6u)
          << spec.ToString() << " " << col;
    }
  }
}

TEST(Table, ApplyUpdateIsOneMaintenanceBatch) {
  // DELETE + INSERT fused: every row with a doomed key goes, the new
  // rows land — including rows re-using a just-deleted key, which must
  // survive (deletes before inserts, as in workload::ApplySortedBatch)
  // — and each index pays ONE maintenance batch for the whole change.
  Table t;
  t.AddColumn("k", {10, 20, 30, 20, 40});
  t.AddColumn("v", {1, 2, 3, 4, 5});
  t.BuildSortIndex("k", *IndexSpec::Parse("part:2/css:16"));
  const size_t batches_before = t.GetSortIndex("k").maintained().stats().batches;
  t.ApplyUpdate("k", {20, 40}, {{"k", {20, 50}}, {"v", {6, 7}}});
  EXPECT_EQ(t.NumRows(), 4u);
  EXPECT_EQ(t.ReadColumn("k"), (std::vector<uint32_t>{10, 30, 20, 50}));
  EXPECT_EQ(t.ReadColumn("v"), (std::vector<uint32_t>{1, 3, 6, 7}));
  EXPECT_EQ(t.GetSortIndex("k").Equal(20), (std::vector<Rid>{2}));
  EXPECT_EQ(t.GetSortIndex("k").maintained().stats().batches,
            batches_before + 1);
  // Deletes-only form, and a key that matches nothing is a no-op.
  t.ApplyUpdate("k", {10});
  EXPECT_EQ(t.NumRows(), 3u);
  t.ApplyUpdate("k", {999});
  EXPECT_EQ(t.NumRows(), 3u);
  // Differential against a fresh rebuild of the surviving column.
  SortIndex scratch(t.ReadColumn("k"), *IndexSpec::Parse("part:2/css:16"));
  EXPECT_EQ(t.GetSortIndex("k").sorted_keys(), scratch.sorted_keys());
  EXPECT_EQ(t.GetSortIndex("k").rids(), scratch.rids());
}

TEST(Table, DeleteEverythingThenAppendFromEmpty) {
  Table t;
  t.AddColumn("k", {5, 5, 7});
  t.BuildSortIndex("k", *IndexSpec::Parse("css:16"));
  std::vector<Rid> all{0, 1, 2};
  t.DeleteRows(all);
  EXPECT_EQ(t.NumRows(), 0u);
  EXPECT_TRUE(t.GetSortIndex("k").sorted_keys().empty());
  EXPECT_TRUE(SelectRange(t, "k", 0, 0xffffffffu).empty());
  t.AppendRows({{"k", {9, 3, 9}}});
  EXPECT_EQ(t.NumRows(), 3u);
  EXPECT_EQ(t.GetSortIndex("k").Equal(9), (std::vector<Rid>{0, 2}));
  EXPECT_EQ(SelectRange(t, "k", 0, 10), (std::vector<Rid>{1, 0, 2}));
}

TEST(Query, OperatorsCorrectAfterDeletes) {
  // SelectRange/GroupBy/IndexedJoin against a delete-heavy table must
  // equal a table rebuilt from scratch over the surviving rows.
  Table t = MakeOrders(20'000, 300, 61);
  t.BuildSortIndex("customer", *IndexSpec::Parse("part:8/css:16"));
  t.BuildSortIndex("day", *IndexSpec::Parse("css:16"));
  Pcg32 rng(0x63);
  std::vector<Rid> doomed;
  for (Rid r = 0; r < t.NumRows(); ++r) {
    if (rng.Below(4) == 0) doomed.push_back(r);
  }
  t.DeleteRows(doomed);

  Table fresh;
  for (const char* col : {"customer", "amount", "day"}) {
    fresh.AddColumn(col, t.ReadColumn(col));
  }
  fresh.BuildSortIndex("customer", *IndexSpec::Parse("part:8/css:16"));
  fresh.BuildSortIndex("day", *IndexSpec::Parse("css:16"));

  EXPECT_EQ(SelectRange(t, "day", 50, 120), SelectRange(fresh, "day", 50, 120));
  auto grouped = GroupBy(t, "customer", "amount", 300);
  auto grouped_fresh = GroupBy(fresh, "customer", "amount", 300);
  ASSERT_EQ(grouped.size(), grouped_fresh.size());
  for (size_t g = 0; g < grouped.size(); ++g) {
    ASSERT_EQ(grouped[g].count, grouped_fresh[g].count) << g;
    ASSERT_EQ(grouped[g].sum, grouped_fresh[g].sum) << g;
  }
  Table dims;
  dims.AddColumn("id", [&] {
    std::vector<uint32_t> ids(300);
    std::iota(ids.begin(), ids.end(), 0u);
    return ids;
  }());
  auto joined = IndexedJoin(dims, "id", t, "customer");
  auto joined_fresh = IndexedJoin(dims, "id", fresh, "customer");
  ASSERT_EQ(joined.size(), joined_fresh.size());
  for (size_t i = 0; i < joined.size(); ++i) {
    ASSERT_EQ(joined[i].outer, joined_fresh[i].outer) << i;
    ASSERT_EQ(joined[i].inner, joined_fresh[i].inner) << i;
  }
}

TEST(Query, CountEqualAndCountRangeMatchSelectSizes) {
  Table t = MakeOrders(15'000, 200, 67);
  // Scan path first, then indexed (ordered and hash).
  for (const char* spec_text : {"", "css:16", "hash:10", "part:4/btree:32"}) {
    if (*spec_text != '\0') {
      t.BuildSortIndex("day", *IndexSpec::Parse(spec_text));
    }
    for (uint32_t v : {0u, 100u, 364u, 365u, 9999u}) {
      ASSERT_EQ(CountEqual(t, "day", v), SelectEqual(t, "day", v).size())
          << spec_text << " v=" << v;
    }
    for (auto [lo, hi] : std::initializer_list<std::pair<uint32_t, uint32_t>>{
             {100, 200}, {0, 365}, {7, 7}, {200, 100}, {0, 0xffffffffu}}) {
      ASSERT_EQ(CountRange(t, "day", lo, hi),
                SelectRange(t, "day", lo, hi).size())
          << spec_text << " [" << lo << ", " << hi << ")";
    }
  }
}

TEST(Query, DecisionSupportPipeline) {
  // The paper's motivating workload end to end: restrict orders to a day
  // range, join to customers, aggregate revenue per region.
  Table orders = MakeOrders(30'000, 300, 21);
  orders.BuildSortIndex("day");
  Table customers;
  {
    std::vector<uint32_t> id(300), region(300);
    Pcg32 rng(23);
    for (uint32_t i = 0; i < 300; ++i) {
      id[i] = i;
      region[i] = rng.Below(5);
    }
    customers.AddColumn("id", std::move(id));
    customers.AddColumn("region", std::move(region));
  }
  customers.BuildSortIndex("id");

  auto in_window = SelectRange(orders, "day", 50, 150);
  EXPECT_GT(in_window.size(), 5'000u);

  // Restrict + join + group: revenue per region for the window.
  std::vector<uint64_t> revenue(5, 0);
  const auto amount = orders.ReadColumn("amount");
  const auto customer = orders.ReadColumn("customer");
  const auto region = customers.ReadColumn("region");
  const SortIndex& cidx = customers.GetSortIndex("id");
  uint64_t total = 0;
  for (Rid r : in_window) {
    auto matches = cidx.Equal(customer[r]);
    ASSERT_EQ(matches.size(), 1u);
    revenue[region[matches[0]]] += amount[r];
    total += amount[r];
  }
  uint64_t sum_check = 0;
  for (uint64_t v : revenue) sum_check += v;
  EXPECT_EQ(sum_check, total);
  EXPECT_GT(total, 0u);
}

// ------------------------------------------------------ string columns

std::vector<std::string> RandomWords(size_t rows,
                                     std::span<const char* const> vocab,
                                     uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<std::string> out(rows);
  for (auto& w : out) w = vocab[rng.Below(static_cast<uint32_t>(vocab.size()))];
  return out;
}

TEST(Table, StringColumnIsAnIdColumnWithAnOrderPreservingDictionary) {
  Table t;
  t.AddStringColumn("city", {"oslo", "bergen", "oslo", "tromso", "bergen"});
  t.AddColumn("pop", {7, 3, 7, 1, 3});
  ASSERT_TRUE(t.HasStringColumn("city"));
  EXPECT_FALSE(t.HasStringColumn("pop"));
  EXPECT_THROW(t.StringDomainOf("pop"), std::out_of_range);

  // The stored column is dictionary IDs, and because the dictionary is
  // sorted, comparing IDs IS comparing values (§2.1).
  const domain::StringDomain& dom = t.StringDomainOf("city");
  ASSERT_EQ(dom.size(), 3u);  // bergen oslo tromso
  EXPECT_EQ(t.ReadColumn("city"),
            (std::vector<uint32_t>{1, 0, 1, 2, 0}));
  for (size_t i = 0; i + 1 < dom.size(); ++i) {
    EXPECT_LT(dom.Decode(static_cast<uint32_t>(i)),
              dom.Decode(static_cast<uint32_t>(i + 1)));
  }
  // Decode-on-output: a query result's rows map back to values.
  std::vector<Rid> oslo = SelectEqual(t, "city", std::string("oslo"));
  EXPECT_EQ(oslo, (std::vector<Rid>{0, 2}));
  std::vector<uint32_t> ids(oslo.size());
  t.View("city").Gather(oslo, ids);
  for (uint32_t id : ids) EXPECT_EQ(dom.Decode(id), "oslo");
}

TEST(Table, StringColumnLoadMatchesFromValuesPlusEncodeColumn) {
  // The load sorts row numbers by value and encodes in one run-length
  // pass; it must give the dictionary FromValues builds and the IDs
  // EncodeColumn gives, on this file's string columns plus an all-equal
  // and a reverse-ordered one.
  constexpr const char* kVocab[] = {"ash", "birch", "cedar", "elm", "fir",
                                    "hazel", "oak", "pine", "rowan", "yew"};
  std::vector<std::string> reversed;
  for (int i = 99; i >= 0; --i) reversed.push_back("r" + std::to_string(i));
  const std::vector<std::vector<std::string>> columns = {
      {"oslo", "bergen", "oslo", "tromso", "bergen"},
      {"pear", "apple", "pear", "quince", "apple", "pear"},
      {"apple", "pear", "quince"},
      RandomWords(800, kVocab, 0x57f),
      RandomWords(300, kVocab, 0x0117),
      std::vector<std::string>(64, "same"),
      reversed,
      {"", "b", "", "a"}};
  for (const std::vector<std::string>& column : columns) {
    Table t;
    t.AddStringColumn("s", column);
    const auto oracle = domain::StringDomain::FromValues(column);
    EXPECT_EQ(t.StringDomainOf("s").values(), oracle.values());
    EXPECT_EQ(t.ReadColumn("s"), oracle.EncodeColumn(column, nullptr));
  }
}

TEST(Query, StringPredicatesMatchScanOracleWithAndWithoutIndex) {
  constexpr const char* kVocab[] = {"ash",   "birch", "cedar", "elm",
                                    "fir",   "hazel", "oak",   "pine",
                                    "rowan", "yew"};
  const std::vector<std::string> words = RandomWords(800, kVocab, 0x57f);
  // Probe values include strings outside the vocabulary; range bounds
  // include prefixes that fall between dictionary entries.
  const std::vector<std::string> probes = {"cedar", "oak", "maple", ""};
  const std::vector<std::pair<std::string, std::string>> ranges = {
      {"birch", "oak"}, {"a", "z"}, {"f", "fz"}, {"oak", "oak"},
      {"pine", "elm"}};

  for (bool indexed : {false, true}) {
    SCOPED_TRACE(indexed ? "indexed" : "scan");
    Table t;
    t.AddStringColumn("tree", words);
    if (indexed) t.BuildSortIndex("tree", *IndexSpec::Parse("css:16"));
    for (const std::string& p : probes) {
      std::vector<Rid> expected;
      for (size_t i = 0; i < words.size(); ++i) {
        if (words[i] == p) expected.push_back(static_cast<Rid>(i));
      }
      std::vector<Rid> got = SelectEqual(t, "tree", p);
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, expected) << "value " << p;
      EXPECT_EQ(CountEqual(t, "tree", p), expected.size());
    }
    for (const auto& [lo, hi] : ranges) {
      std::vector<Rid> expected;
      for (size_t i = 0; i < words.size(); ++i) {
        if (words[i] >= lo && words[i] < hi) {
          expected.push_back(static_cast<Rid>(i));
        }
      }
      std::vector<Rid> got = SelectRange(t, "tree", lo, hi);
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, expected) << "range [" << lo << ", " << hi << ")";
      EXPECT_EQ(CountRange(t, "tree", lo, hi), expected.size());
    }
  }
}

TEST(Query, IndexedJoinOnStringColumnsJoinsOnValuesNotIds) {
  // The two dictionaries deliberately disagree: "cedar" is ID 1 on one
  // side and ID 0 on the other, and each side holds values the other
  // never saw — a raw ID join would be silently wrong everywhere.
  constexpr const char* kOuterVocab[] = {"ash", "cedar", "oak", "maple"};
  constexpr const char* kInnerVocab[] = {"cedar", "oak", "pine", "yew"};
  const std::vector<std::string> outer_words =
      RandomWords(300, kOuterVocab, 0x0117);
  const std::vector<std::string> inner_words =
      RandomWords(450, kInnerVocab, 0x0118);
  Table outer, inner;
  outer.AddStringColumn("tree", outer_words);
  inner.AddStringColumn("tree", inner_words);
  inner.BuildSortIndex("tree", *IndexSpec::Parse("part:4/css:16"));

  std::vector<JoinedPair> got = IndexedJoin(outer, "tree", inner, "tree");
  std::vector<std::pair<Rid, Rid>> got_pairs, expected;
  for (const JoinedPair& p : got) got_pairs.push_back({p.outer, p.inner});
  for (size_t o = 0; o < outer_words.size(); ++o) {
    for (size_t i = 0; i < inner_words.size(); ++i) {
      if (outer_words[o] == inner_words[i]) {
        expected.push_back(
            {static_cast<Rid>(o), static_cast<Rid>(i)});
      }
    }
  }
  std::sort(got_pairs.begin(), got_pairs.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(got_pairs, expected);
  ASSERT_FALSE(expected.empty());  // the overlap actually exercised it

  // String vs integer is a type error, not an ID coincidence.
  Table nums;
  nums.AddColumn("tree", {0, 1, 2});
  nums.BuildSortIndex("tree");
  EXPECT_THROW(IndexedJoin(outer, "tree", nums, "tree"),
               std::invalid_argument);
}

TEST(Query, GroupByOnAStringColumnAggregatesPerDictionaryId) {
  // GROUP BY wants dense domain IDs — which is exactly what a string
  // column stores, so grouping by it needs no special path; the
  // dictionary just labels the groups.
  Table t;
  t.AddStringColumn("fruit",
                    {"pear", "apple", "pear", "quince", "apple", "pear"});
  t.AddColumn("kg", {2, 10, 3, 7, 20, 5});
  t.BuildSortIndex("fruit");
  const domain::StringDomain& dom = t.StringDomainOf("fruit");
  std::vector<Aggregates> groups =
      GroupBy(t, "fruit", "kg", static_cast<uint32_t>(dom.size()));
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(dom.Decode(0), "apple");
  EXPECT_EQ(groups[0].count, 2u);
  EXPECT_EQ(groups[0].sum, 30u);
  EXPECT_EQ(dom.Decode(1), "pear");
  EXPECT_EQ(groups[1].count, 3u);
  EXPECT_EQ(groups[1].sum, 10u);
  EXPECT_EQ(dom.Decode(2), "quince");
  EXPECT_EQ(groups[2].count, 1u);
  EXPECT_EQ(groups[2].sum, 7u);
}

// Regression: AppendRows({}) on a zero-column table used to dereference
// rows.begin() on an empty map (UB). Both mutators that take a row batch
// must treat the empty-batch/zero-column case as a no-op.
TEST(Table, EmptyBatchOnZeroColumnTableIsANoOp) {
  Table t;
  t.AppendRows({});
  EXPECT_EQ(t.NumRows(), 0u);
  EXPECT_EQ(t.NumColumns(), 0u);

  // ApplyUpdate's insert half goes through the same validation; an empty
  // insert map (deletes only, none matching) must also be a no-op.
  Table u = MakeOrders(50, 10, 21);
  u.BuildSortIndex("customer");
  u.ApplyUpdate("customer", {1000, 2000}, {});
  EXPECT_EQ(u.NumRows(), 50u);

  // A zero-row batch with the right columns is equally harmless.
  u.AppendRows({{"customer", {}}, {"amount", {}}, {"day", {}}});
  EXPECT_EQ(u.NumRows(), 50u);

  // But an empty map is missing every column of a table that has some.
  EXPECT_THROW(u.AppendRows({}), std::invalid_argument);
  EXPECT_EQ(u.NumRows(), 50u);
}

// Regression: raw uint32 values inserted into a string (domain-ID) column
// were not checked against the dictionary, silently desyncing the column
// from its domain. Invalid IDs must throw — naming the column — and leave
// the table untouched.
TEST(Table, InsertedStringIdsAreValidatedAgainstTheDictionary) {
  Table t;
  t.AddStringColumn("fruit", {"apple", "pear", "quince"});
  t.AddColumn("kg", {1, 2, 3});
  t.BuildSortIndex("fruit");
  const size_t dict = t.StringDomainOf("fruit").size();  // 3: ids 0..2

  // AppendRows with an out-of-dictionary ID: throws, nothing changes.
  try {
    t.AppendRows({{"fruit", {1, static_cast<uint32_t>(dict)}},
                  {"kg", {4, 5}}});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("fruit"), std::string::npos);
  }
  EXPECT_EQ(t.NumRows(), 3u);
  EXPECT_EQ(t.ReadColumn("fruit"), (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_EQ(t.GetSortIndex("fruit").sorted_keys().size(), 3u);

  // ApplyUpdate's insert half is validated the same way, BEFORE any
  // deletes are applied.
  EXPECT_THROW(t.ApplyUpdate("fruit", {0}, {{"fruit", {99}}, {"kg", {6}}}),
               std::invalid_argument);
  EXPECT_EQ(t.NumRows(), 3u);

  // Valid IDs still append (and decode) fine.
  t.AppendRows({{"fruit", {2, 0}}, {"kg", {4, 5}}});
  EXPECT_EQ(t.NumRows(), 5u);
  uint32_t id = 0;
  t.View("fruit").Read(3, std::span<uint32_t>(&id, 1));
  EXPECT_EQ(t.StringDomainOf("fruit").Decode(id), "quince");
}

// Regression: SpaceBytes() reported vector capacity(), overstating the
// index's size whenever the key/RID lists carry allocator slack — e.g.
// lists grown by push_back in the external merge and moved in via
// FromSorted. Contents and reservation are now separate quantities.
TEST(SortIndex, SpaceBytesReportsContentsNotCapacity) {
  Pcg32 rng(22);
  std::vector<uint32_t> col(1000);
  for (auto& v : col) v = rng.Below(500);
  const SortIndex fresh(col);

  // The same sorted lists, but with deliberate capacity slack.
  std::vector<uint32_t> keys(fresh.sorted_keys());
  std::vector<Rid> rids(fresh.rids());
  keys.reserve(4096);
  rids.reserve(4096);
  const SortIndex slack =
      SortIndex::FromSorted(std::move(keys), std::move(rids));

  EXPECT_EQ(slack.SpaceBytes(), fresh.SpaceBytes());
  EXPECT_GT(slack.ReservedBytes(), slack.SpaceBytes());
  EXPECT_GE(fresh.ReservedBytes(), fresh.SpaceBytes());

  // FromSorted sanity: mismatched list lengths are a caller bug.
  EXPECT_THROW(SortIndex::FromSorted({1, 2, 3}, {0, 1}),
               std::invalid_argument);
}

}  // namespace
}  // namespace cssidx::engine
