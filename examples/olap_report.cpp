// End-to-end decision-support report over the mini engine: load a star
// schema (orders fact table + customers dimension), domain-encode the
// region strings, build CSS-tree sort indexes, and answer
//
//   "revenue per region for orders in a date window, top regions first"
//
// — the kind of query the paper's introduction motivates, exercising
// domain encoding (§2.1), range selection via the sorted RID list (§2.2),
// indexed nested-loop join (§2.2), and rebuild-on-batch maintenance.
//
//   $ ./olap_report [--orders=2000000] [--customers=100000]

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "domain/domain.h"
#include "engine/query.h"
#include "engine/table.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace cssidx;
  using namespace cssidx::engine;
  CliArgs args(argc, argv);
  size_t num_orders = static_cast<size_t>(args.GetInt("orders", 2'000'000));
  size_t num_customers =
      static_cast<size_t>(args.GetInt("customers", 100'000));

  // --- Load the dimension: customers with a string region column, domain
  // encoded so rows hold 4-byte order-preserving IDs (§2.1).
  std::vector<std::string> region_names{"APAC", "EMEA", "LATAM",
                                        "NA-EAST", "NA-WEST"};
  auto region_domain = domain::StringDomain::FromValues(region_names);

  Pcg32 rng(42);
  Table customers;
  {
    std::vector<uint32_t> id(num_customers), region(num_customers);
    for (size_t i = 0; i < num_customers; ++i) {
      id[i] = static_cast<uint32_t>(i);
      region[i] = *region_domain.Encode(
          region_names[rng.Below(static_cast<uint32_t>(region_names.size()))]);
    }
    customers.AddColumn("id", std::move(id));
    customers.AddColumn("region", std::move(region));
  }
  customers.BuildSortIndex("id");

  // --- Load the fact table.
  Table orders;
  {
    std::vector<uint32_t> customer(num_orders), day(num_orders),
        amount(num_orders);
    for (size_t i = 0; i < num_orders; ++i) {
      customer[i] = rng.Below(static_cast<uint32_t>(num_customers));
      day[i] = rng.Below(365);
      amount[i] = 1 + rng.Below(500);
    }
    orders.AddColumn("customer", std::move(customer));
    orders.AddColumn("day", std::move(day));
    orders.AddColumn("amount", std::move(amount));
  }
  Timer index_timer;
  orders.BuildSortIndex("day");
  std::printf("loaded %zu orders, %zu customers; day sort-index built in "
              "%.1f ms (%.1f MB incl. CSS directory)\n",
              num_orders, num_customers, index_timer.Millis(),
              orders.GetSortIndex("day").SpaceBytes() / 1e6);

  // --- The report: Q2 (days 91..181), revenue per region.
  Timer query_timer;
  auto window = SelectRange(orders, "day", 91, 182);
  const std::vector<uint32_t> amount = orders.ReadColumn("amount");
  const std::vector<uint32_t> customer = orders.ReadColumn("customer");
  const std::vector<uint32_t> region = customers.ReadColumn("region");
  const SortIndex& cidx = customers.GetSortIndex("id");

  std::vector<uint64_t> revenue(region_names.size(), 0);
  std::vector<uint64_t> count(region_names.size(), 0);
  for (Rid r : window) {
    // Indexed nested-loop probe into the dimension (§2.2).
    auto matches = cidx.Equal(customer[r]);
    uint32_t reg = region[matches[0]];
    revenue[reg] += amount[r];
    ++count[reg];
  }
  double sec = query_timer.Seconds();

  std::printf("\nQ2 report (%zu of %zu orders in window), computed in %.3f "
              "s:\n\n", window.size(), num_orders, sec);
  std::vector<size_t> order_idx(region_names.size());
  for (size_t i = 0; i < order_idx.size(); ++i) order_idx[i] = i;
  std::sort(order_idx.begin(), order_idx.end(),
            [&](size_t a, size_t b) { return revenue[a] > revenue[b]; });
  std::printf("%-10s %14s %12s\n", "region", "revenue", "orders");
  for (size_t i : order_idx) {
    std::printf("%-10s %14llu %12llu\n",
                region_domain.Decode(static_cast<uint32_t>(i)).c_str(),
                static_cast<unsigned long long>(revenue[i]),
                static_cast<unsigned long long>(count[i]));
  }

  // --- Maintenance: a late-arriving batch of orders lands; rebuild the
  // sort index (the paper's OLAP assumption: rebuilds are cheap).
  size_t late = num_orders / 100;
  {
    auto day_col = orders.ReadColumn("day");
    auto cust_col = orders.ReadColumn("customer");
    auto amt_col = orders.ReadColumn("amount");
    for (size_t i = 0; i < late; ++i) {
      day_col.push_back(120);  // all in the window
      cust_col.push_back(rng.Below(static_cast<uint32_t>(num_customers)));
      amt_col.push_back(100);
    }
    Table updated;
    updated.AddColumn("day", std::move(day_col));
    updated.AddColumn("customer", std::move(cust_col));
    updated.AddColumn("amount", std::move(amt_col));
    orders = std::move(updated);
  }
  Timer rebuild_timer;
  orders.BuildSortIndex("day");
  auto window2 = SelectRange(orders, "day", 91, 182);
  std::printf("\nbatch of %zu late orders absorbed; index rebuilt in %.1f ms;"
              " window now %zu orders\n",
              late, rebuild_timer.Millis(), window2.size());
  if (window2.size() != window.size() + late) {
    std::printf("CONSISTENCY ERROR\n");
    return 1;
  }
  return 0;
}
