#include "engine/query.h"
#include "engine/table.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "spec_menu.h"
#include "util/rng.h"

// Buffer-budget differential suite: a Table must answer every query
// bit-identically at ANY buffer budget — a quarter of the data and a
// minimal pool where nearly every probe faults — to the unbounded
// (budget 0) table, which never spills. Sort indexes built over columns
// larger than the budget route through the external merge sort; every
// budget's sorted key/RID lists must equal a std::stable_sort oracle
// computed here from the raw data, and the mutators are checked against
// plain std::vector models of the columns — references that share no
// code with the table.

namespace cssidx::engine {
namespace {

constexpr size_t kRows = 4096;
constexpr uint32_t kCustomers = 160;
constexpr size_t kPageBytes = 256;  // 64 values/page -> 64 pages per column

struct TableData {
  std::vector<uint32_t> customer, amount, day;
};

TableData MakeData(uint64_t seed) {
  Pcg32 rng(seed);
  TableData d;
  d.customer.resize(kRows);
  d.amount.resize(kRows);
  d.day.resize(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    d.customer[i] = rng.Below(kCustomers);
    d.amount[i] = 1 + rng.Below(1000);
    d.day[i] = rng.Below(365);
  }
  return d;
}

Table MakeTable(const TableData& d, size_t buffer_pages) {
  TableOptions options;
  options.page_bytes = kPageBytes;
  options.buffer_pages = buffer_pages;
  Table t(options);
  t.AddColumn("customer", d.customer);
  t.AddColumn("amount", d.amount);
  t.AddColumn("day", d.day);
  return t;
}

/// Budgets the differential runs at: unbounded, a quarter of one column's
/// pages, and a minimal pool where every page touch contends.
std::vector<size_t> Budgets() {
  const size_t pages = kRows / (kPageBytes / sizeof(uint32_t));
  return {0, pages / 4, 2};
}

/// The sort-index oracle: RIDs stably sorted by value (equal values keep
/// RID order), and the values in that order.
struct SortedLists {
  std::vector<uint32_t> keys;
  std::vector<Rid> rids;
};

SortedLists StableSortOracle(const std::vector<uint32_t>& column) {
  SortedLists out;
  out.rids.resize(column.size());
  std::iota(out.rids.begin(), out.rids.end(), Rid{0});
  std::stable_sort(out.rids.begin(), out.rids.end(),
                   [&](Rid a, Rid b) { return column[a] < column[b]; });
  for (Rid r : out.rids) out.keys.push_back(column[r]);
  return out;
}

void ExpectMatchesOracle(const SortIndex& index,
                         const std::vector<uint32_t>& column,
                         const std::string& label) {
  const SortedLists oracle = StableSortOracle(column);
  EXPECT_EQ(index.sorted_keys(), oracle.keys) << label;
  EXPECT_EQ(index.rids(), oracle.rids) << label;
}

/// Every query answer of `paged` equals the one `ref` gives.
void ExpectSameAnswers(const Table& ref, const Table& paged,
                       const std::string& label) {
  Pcg32 rng(99);
  for (int q = 0; q < 20; ++q) {
    const uint32_t v = rng.Below(kCustomers + 5);
    EXPECT_EQ(SelectEqual(ref, "customer", v),
              SelectEqual(paged, "customer", v))
        << label << " Equal(" << v << ")";
    EXPECT_EQ(CountEqual(ref, "customer", v),
              CountEqual(paged, "customer", v))
        << label;
    const uint32_t lo = rng.Below(kCustomers);
    const uint32_t hi = lo + rng.Below(20);
    EXPECT_EQ(SelectRange(ref, "customer", lo, hi),
              SelectRange(paged, "customer", lo, hi))
        << label << " Range[" << lo << "," << hi << ")";
    EXPECT_EQ(CountRange(ref, "customer", lo, hi),
              CountRange(paged, "customer", lo, hi))
        << label;
  }
  std::vector<std::pair<uint32_t, uint32_t>> bounds;
  for (int b = 0; b < 16; ++b) {
    uint32_t lo = rng.Below(kCustomers);
    bounds.emplace_back(lo, lo + rng.Below(10));
  }
  EXPECT_EQ(SelectRangeBatch(ref, "customer", bounds),
            SelectRangeBatch(paged, "customer", bounds))
      << label;
  const auto ref_groups = GroupBy(ref, "customer", "amount", kCustomers);
  const auto paged_groups = GroupBy(paged, "customer", "amount", kCustomers);
  ASSERT_EQ(ref_groups.size(), paged_groups.size()) << label;
  for (size_t g = 0; g < ref_groups.size(); ++g) {
    EXPECT_EQ(ref_groups[g].count, paged_groups[g].count) << label;
    EXPECT_EQ(ref_groups[g].sum, paged_groups[g].sum) << label;
    EXPECT_EQ(ref_groups[g].min, paged_groups[g].min) << label;
    EXPECT_EQ(ref_groups[g].max, paged_groups[g].max) << label;
  }
  const std::vector<Rid> sample = SelectEqual(ref, "customer", 7);
  const Aggregates ra = Aggregate(ref, "amount", sample);
  const Aggregates pa = Aggregate(paged, "amount", sample);
  EXPECT_EQ(ra.count, pa.count) << label;
  EXPECT_EQ(ra.sum, pa.sum) << label;
}

TEST(PagedTable, DifferentialAcrossSpecMenuAndBudgets) {
  const TableData data = MakeData(11);
  Table ref = MakeTable(data, 0);
  for (const IndexSpec& spec : test_menu::DefaultSpecs(16, 10)) {
    ref.BuildSortIndex("customer", spec);
    for (size_t budget : Budgets()) {
      Table paged = MakeTable(data, budget);
      const SortIndex& built = paged.BuildSortIndex("customer", spec);
      const std::string label =
          spec.ToString() + " @budget=" + std::to_string(budget);
      ExpectMatchesOracle(built, data.customer, label);
      ExpectSameAnswers(ref, paged, label);
    }
  }
}

TEST(PagedTable, ScanFallbackDifferentialWithoutIndex) {
  const TableData data = MakeData(12);
  const Table ref = MakeTable(data, 0);
  for (size_t budget : Budgets()) {
    const Table paged = MakeTable(data, budget);
    ExpectSameAnswers(ref, paged, "scan @budget=" + std::to_string(budget));
  }
}

TEST(PagedTable, ExternalBuildKicksInAboveBudgetAndMatches) {
  const TableData data = MakeData(13);
  Table ref = MakeTable(data, 0);
  ref.BuildSortIndex("customer");

  // 4 pages = 256 values << 4096 rows: must go external.
  Table paged = MakeTable(data, 4);
  const SortIndex& index = paged.BuildSortIndex("customer");
  EXPECT_TRUE(index.external_build());
  EXPECT_GT(index.external_runs(), 1u);
  ExpectMatchesOracle(index, data.customer, "external");
  for (uint32_t v : {0u, 7u, kCustomers - 1, kCustomers + 10}) {
    EXPECT_EQ(index.Find(v), ref.GetSortIndex("customer").Find(v));
  }
  ExpectSameAnswers(ref, paged, "external");

  // An unbounded pool materializes and takes the in-RAM path.
  EXPECT_FALSE(ref.GetSortIndex("customer").external_build());
  ExpectMatchesOracle(ref.GetSortIndex("customer"), data.customer,
                      "unbounded");
}

TEST(PagedTable, OrderedColumnsIndexLikeStableSortAtEveryBudget) {
  // A column already in value order skips the sort: the whole column in
  // RAM (budget 0), each run on the external path. Columns: in order, reverse, equal values straddling
  // every run boundary, and a sawtooth of in-order runs that interleave.
  // 8 pages = 512 values, so external runs hold 256 pairs: 16 runs.
  constexpr size_t kBudgetPages = 8;
  constexpr size_t kRunPairs = kBudgetPages * kPageBytes / sizeof(uint32_t) / 2;
  std::vector<uint32_t> in_order(kRows), reverse(kRows), straddle(kRows),
      sawtooth(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    in_order[i] = static_cast<uint32_t>(i / 3);
    reverse[i] = static_cast<uint32_t>((kRows - i) / 3);
    straddle[i] = static_cast<uint32_t>(i / 300);
    sawtooth[i] = static_cast<uint32_t>((i % kRunPairs) / 4);
  }
  for (const auto& [name, column] :
       std::vector<std::pair<std::string, std::vector<uint32_t>>>{
           {"in_order", in_order},
           {"reverse", reverse},
           {"straddle", straddle},
           {"sawtooth", sawtooth}}) {
    for (size_t budget : {size_t{0}, kBudgetPages}) {
      TableOptions options;
      options.page_bytes = kPageBytes;
      options.buffer_pages = budget;
      Table t(options);
      t.AddColumn("k", column);
      const SortIndex& index = t.BuildSortIndex("k");
      const std::string label = name + " @budget=" + std::to_string(budget);
      EXPECT_EQ(index.external_build(), budget != 0) << label;
      EXPECT_EQ(index.external_runs(), budget != 0 ? kRows / kRunPairs : 0)
          << label;
      ExpectMatchesOracle(index, column, label);
    }
  }
}

TEST(PagedTable, IndexedJoinMatchesAcrossBudgets) {
  const TableData data = MakeData(14);
  Table ref = MakeTable(data, 0);
  Table paged = MakeTable(data, 2);

  // Inner dimension table, unbounded, with an index.
  Table dim;
  std::vector<uint32_t> ids(kCustomers / 2), score(kCustomers / 2);
  Pcg32 rng(15);
  for (size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<uint32_t>(2 * i);  // every other customer
    score[i] = rng.Below(100);
  }
  dim.AddColumn("id", std::move(ids));
  dim.AddColumn("score", std::move(score));
  dim.BuildSortIndex("id");

  // Oracle: every customer row with an even id below kCustomers joins the
  // dim row id / 2, in outer-RID order.
  std::vector<std::pair<Rid, Rid>> want;
  for (size_t r = 0; r < data.customer.size(); ++r) {
    if (data.customer[r] % 2 == 0) {
      want.emplace_back(static_cast<Rid>(r), data.customer[r] / 2);
    }
  }
  for (const Table* outer : {&ref, &paged}) {
    const auto join = IndexedJoin(*outer, "customer", dim, "id");
    ASSERT_EQ(join.size(), want.size());
    for (size_t i = 0; i < join.size(); ++i) {
      EXPECT_EQ(join[i].outer, want[i].first);
      EXPECT_EQ(join[i].inner, want[i].second);
    }
  }

  // Paged table as the INNER side: its index serves probes identically.
  ref.BuildSortIndex("customer");
  paged.BuildSortIndex("customer");
  const auto ref_inner = IndexedJoin(dim, "id", ref, "customer");
  const auto paged_inner = IndexedJoin(dim, "id", paged, "customer");
  ASSERT_EQ(ref_inner.size(), paged_inner.size());
  ASSERT_EQ(ref_inner.size(), want.size());
  for (size_t i = 0; i < ref_inner.size(); ++i) {
    EXPECT_EQ(ref_inner[i].outer, paged_inner[i].outer);
    EXPECT_EQ(ref_inner[i].inner, paged_inner[i].inner);
  }
}

TEST(PagedTable, MutatorsMatchVectorModelAtEveryBudget) {
  const TableData data = MakeData(16);
  // The model: one plain vector per column, mutated by hand.
  std::map<std::string, std::vector<uint32_t>> model{
      {"customer", data.customer}, {"amount", data.amount}, {"day", data.day}};
  std::vector<Table> tables;
  for (size_t budget : Budgets()) {
    tables.push_back(MakeTable(data, budget));
    tables.back().BuildSortIndex("customer");
  }
  auto expect_model = [&](const std::string& step) {
    for (size_t b = 0; b < tables.size(); ++b) {
      const std::string label =
          step + " @budget=" + std::to_string(Budgets()[b]);
      EXPECT_EQ(tables[b].NumRows(), model["customer"].size()) << label;
      for (const auto& [name, values] : model) {
        EXPECT_EQ(tables[b].ReadColumn(name), values) << label << " " << name;
      }
      ExpectMatchesOracle(tables[b].GetSortIndex("customer"),
                          model["customer"], label);
      ExpectSameAnswers(tables[0], tables[b], label);
    }
  };

  // Append a batch.
  const std::map<std::string, std::vector<uint32_t>> batch{
      {"customer", {3, 9, 3, 150}},
      {"amount", {10, 20, 30, 40}},
      {"day", {1, 2, 3, 4}}};
  for (Table& t : tables) t.AppendRows(batch);
  for (auto& [name, values] : model) {
    values.insert(values.end(), batch.at(name).begin(), batch.at(name).end());
  }
  expect_model("append");

  // Delete a scattered set of rows (stream-compacts every column).
  std::vector<Rid> dead;
  Pcg32 rng(17);
  for (int i = 0; i < 500; ++i) {
    dead.push_back(rng.Below(static_cast<uint32_t>(model["customer"].size())));
  }
  for (Table& t : tables) t.DeleteRows(dead);
  const std::set<Rid> dead_set(dead.begin(), dead.end());
  for (auto& [name, values] : model) {
    std::vector<uint32_t> kept;
    for (size_t r = 0; r < values.size(); ++r) {
      if (dead_set.count(static_cast<Rid>(r)) == 0) kept.push_back(values[r]);
    }
    values = std::move(kept);
  }
  expect_model("delete");

  // Keyed update: delete-by-key plus inserts, one maintenance batch.
  const std::map<std::string, std::vector<uint32_t>> inserts{
      {"customer", {5, 5}}, {"amount", {7, 8}}, {"day", {9, 10}}};
  for (Table& t : tables) t.ApplyUpdate("customer", {5, 42}, inserts);
  const std::vector<uint32_t> keys = model["customer"];
  for (auto& [name, values] : model) {
    std::vector<uint32_t> kept;
    for (size_t r = 0; r < values.size(); ++r) {
      if (keys[r] != 5 && keys[r] != 42) kept.push_back(values[r]);
    }
    kept.insert(kept.end(), inserts.at(name).begin(), inserts.at(name).end());
    values = std::move(kept);
  }
  expect_model("update");
}

/// COUNT/SUM/MIN/MAX of `values` at `rids`, straight off the vector.
Aggregates VectorAggregate(const std::vector<uint32_t>& values,
                           const std::vector<Rid>& rids) {
  Aggregates agg;
  for (Rid r : rids) agg.Accumulate(values[r]);
  if (agg.count == 0) agg.min = 0;
  return agg;
}

void ExpectSameAggregates(const Aggregates& got, const Aggregates& want,
                          const std::string& label) {
  EXPECT_EQ(got.count, want.count) << label;
  EXPECT_EQ(got.sum, want.sum) << label;
  EXPECT_EQ(got.min, want.min) << label;
  EXPECT_EQ(got.max, want.max) << label;
}

TEST(PagedTable, GatherAndAggregateMatchVectorOracleAtEveryBudget) {
  const TableData data = MakeData(18);
  const auto last = static_cast<Rid>(kRows - 1);
  // Both page-index paths: 64 values per page (a shift) and 3 (a divide).
  for (size_t page_bytes : {kPageBytes, size_t{12}}) {
    const auto vpp = static_cast<Rid>(page_bytes / sizeof(uint32_t));
    Pcg32 rng(19);
    std::vector<std::pair<std::string, std::vector<Rid>>> lists;
    lists.emplace_back("empty", std::vector<Rid>{});
    lists.emplace_back("boundary",
                       std::vector<Rid>{vpp - 1, vpp, last, 0, vpp, last});
    lists.emplace_back("single", std::vector<Rid>{last});
    std::vector<Rid> random(3000);
    for (Rid& r : random) r = rng.Below(static_cast<uint32_t>(kRows));
    lists.emplace_back("random", random);
    // Longer than one Aggregate block, and heavy with repeats.
    std::vector<Rid> duplicates(20'000);
    for (Rid& r : duplicates) r = rng.Below(50) * 61;
    lists.emplace_back("duplicate", duplicates);
    std::vector<Rid> descending(kRows);
    std::iota(descending.rbegin(), descending.rend(), Rid{0});
    lists.emplace_back("descending", descending);
    const size_t pages = kRows / vpp;
    for (size_t budget : {size_t{0}, pages / 4, size_t{2}}) {
      TableOptions options;
      options.page_bytes = page_bytes;
      options.buffer_pages = budget;
      Table t(options);
      t.AddColumn("amount", data.amount);
      const ColumnView view = t.View("amount");
      for (const auto& [name, rids] : lists) {
        const std::string label = name + " vpp=" + std::to_string(vpp) +
                                  " @budget=" + std::to_string(budget);
        std::vector<uint32_t> got(rids.size(), 0), want;
        for (Rid r : rids) want.push_back(data.amount[r]);
        view.Gather(rids, got);
        EXPECT_EQ(got, want) << label;
        ExpectSameAggregates(Aggregate(t, "amount", rids),
                             VectorAggregate(data.amount, rids), label);
        EXPECT_EQ(t.PoolStats().pinned, 0u) << label;
      }

      // A row past the end throws before any pin, and leaves none behind.
      for (const std::vector<Rid>& bad :
           {std::vector<Rid>{static_cast<Rid>(kRows)},
            std::vector<Rid>{0, vpp, static_cast<Rid>(kRows) + 5, last}}) {
        const size_t pins = t.PoolStats().pins;
        std::vector<uint32_t> out(bad.size());
        EXPECT_THROW(view.Gather(bad, out), std::out_of_range);
        EXPECT_EQ(t.PoolStats().pins, pins);
        EXPECT_THROW(Aggregate(t, "amount", bad), std::out_of_range);
        EXPECT_EQ(t.PoolStats().pinned, 0u);
      }
    }
  }
}

TEST(PagedTable, GroupByBothPathsMatchVectorOracleAtEveryBudget) {
  const TableData data = MakeData(20);
  // 30 of 160 customers cover under a quarter of the rows: the gather
  // path. All 160 cover every row: the scan path. Without an index,
  // always the scan path.
  for (uint32_t num_groups : {30u, kCustomers}) {
    std::vector<Aggregates> want(num_groups);
    for (size_t r = 0; r < kRows; ++r) {
      if (data.customer[r] < num_groups) {
        want[data.customer[r]].Accumulate(data.amount[r]);
      }
    }
    for (Aggregates& g : want) {
      if (g.count == 0) g.min = 0;
    }
    for (size_t budget : Budgets()) {
      Table t = MakeTable(data, budget);
      for (bool indexed : {false, true}) {
        if (indexed) t.BuildSortIndex("customer");
        const std::vector<Aggregates> got =
            GroupBy(t, "customer", "amount", num_groups);
        ASSERT_EQ(got.size(), want.size());
        for (uint32_t g = 0; g < num_groups; ++g) {
          ExpectSameAggregates(
              got[g], want[g],
              "groups=" + std::to_string(num_groups) + " g=" +
                  std::to_string(g) + " indexed=" + std::to_string(indexed) +
                  " @budget=" + std::to_string(budget));
        }
        EXPECT_EQ(t.PoolStats().pinned, 0u);
      }
    }
  }
}

TEST(PagedTable, StringColumnsWorkPaged) {
  TableOptions opts;
  opts.page_bytes = 64;
  opts.buffer_pages = 2;
  Table t(opts);
  std::vector<std::string> cities;
  const std::vector<std::string> pool{"austin", "boston", "chicago", "denver"};
  for (int i = 0; i < 300; ++i) cities.push_back(pool[i % pool.size()]);
  t.AddStringColumn("city", std::move(cities));
  EXPECT_TRUE(t.HasStringColumn("city"));
  EXPECT_EQ(SelectEqual(t, "city", std::string("boston")).size(), 75u);
  EXPECT_EQ(CountRange(t, "city", std::string("b"), std::string("d")), 150u);
  t.BuildSortIndex("city");
  EXPECT_EQ(SelectEqual(t, "city", std::string("boston")).size(), 75u);
}

TEST(PagedTable, ViewServesAndDefaultTableReportsPoolStats) {
  TableOptions opts;
  opts.page_bytes = 64;
  opts.buffer_pages = 2;
  Table t(opts);
  t.AddColumn("x", {1, 2, 3});
  EXPECT_EQ(t.ReadColumn("x"), (std::vector<uint32_t>{1, 2, 3}));
  ColumnView view = t.View("x");
  EXPECT_EQ(view.size(), 3u);
  uint32_t second = 0;
  view.Gather(std::vector<Rid>{1}, std::span<uint32_t>(&second, 1));
  EXPECT_EQ(second, 2u);
  // Pool counters are exposed (and something actually faulted).
  EXPECT_GT(t.PoolStats().pins, 0u);

  // A default table is an unbounded pool: it pins pages like any other,
  // but never evicts and never does spill I/O.
  Table in_ram;
  EXPECT_EQ(in_ram.options().buffer_pages, 0u);
  in_ram.AddColumn("x", std::vector<uint32_t>(100'000, 7));
  in_ram.BuildSortIndex("x");
  EXPECT_EQ(CountEqual(in_ram, "x", 7), 100'000u);
  const store::BufferStats& stats = in_ram.PoolStats();
  EXPECT_GT(stats.pins, 0u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.spill_reads, 0u);
  EXPECT_EQ(stats.spill_writes, 0u);
}

}  // namespace
}  // namespace cssidx::engine
