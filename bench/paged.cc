// Out-of-core build + probe bench: one column, one spec, a sweep over the
// buffer-pool budget. For each budget the paged table rebuilds its sort
// index — routing through the external merge sort once the column
// exceeds the pool — and then serves batched Find probes from the built
// index. The numbers make the paper's §5 claim measurable: build cost
// degrades gracefully as the budget shrinks (sequential run/merge I/O),
// while probe throughput stays flat because the directory and sorted
// lists are RAM-resident no matter how small the pool was.
//
// The JSON's "paged" block is gated (tools/bench_gates.json) on
// build_slowdown_vs_inram (paged_build_slowdown) — a within-run ratio
// (paged build over an in-RAM SortIndex build from a plain vector of the
// SAME data on the SAME machine), so the gate transfers across hardware — and on at least one
// external row having merged more than one run (paged_external_merge).
//
// The "gather" block times engine::Aggregate over 10,000 random RIDs,
// and over the same RIDs sorted, at budgets {unbounded, a quarter
// of the column}. Each row's slowdown_vs_vector divides by the same
// aggregate folded straight off a std::vector in the same run; gate
// paged_gather_slowdown caps it on the unbounded rows.
//
//   $ ./bench_paged [--n=1000000] [--page-bytes=65536] [--spec=css:16]
//                   [--lookups=200000] [--repeats=3] [--quick]
//                   [--json=BENCH_paged.json]

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "engine/query.h"
#include "engine/table.h"
#include "harness.h"
#include "util/cli.h"
#include "util/rng.h"

using namespace cssidx;

int main(int argc, char** argv) {
  auto options = bench::Options::Parse(argc, argv);
  CliArgs args(argc, argv);
  const size_t n = options.N(200'000, 1'000'000);
  const auto page_bytes =
      static_cast<size_t>(args.GetInt("page-bytes", 1 << 16));
  const std::string spec_text = args.GetString("spec", "css:16");
  const auto parsed = IndexSpec::Parse(spec_text);
  if (!parsed) {
    std::printf("bad --spec: %s\n", IndexSpec::GrammarHelp());
    return 1;
  }
  const IndexSpec& spec = *parsed;
  if (options.repeats < 1) {
    std::printf("--repeats must be >= 1\n");
    return 1;
  }
  const int repeats = options.repeats;

  Pcg32 rng(options.seed);
  std::vector<uint32_t> data(n);
  for (auto& v : data) v = rng.Below(static_cast<uint32_t>(n));
  std::vector<uint32_t> lookups(options.lookups);
  for (auto& k : lookups) k = data[rng.Below(static_cast<uint32_t>(n))];

  // In-RAM baseline, the denominator of every gated ratio: the
  // stable_sort build straight from a plain vector, with no pages.
  std::optional<engine::SortIndex> inram;
  const double inram_build = bench::MinSeconds(repeats, [&] {
    inram.emplace(data, spec);  // drops the previous build, as a rebuild does
    return 0;
  });
  // Best-of-`repeats` FindBatch throughput of `index` over the lookups, in
  // blocks of 256.
  std::vector<int64_t> found(lookups.size());
  auto probe_mkeys = [&](const auto& index) {
    const double seconds = bench::MinSeconds(repeats, [&] {
      FindBlocked(index, lookups, 256, found);
      return found.empty() ? 0 : found.back();
    });
    return static_cast<double>(lookups.size()) / seconds / 1e6;
  };
  const double inram_probe_mkeys = probe_mkeys(*inram);

  const size_t values_per_page = std::max<size_t>(page_bytes / 4, 1);
  const size_t column_pages = (n + values_per_page - 1) / values_per_page;
  // Budget sweep: unbounded, then the column shrunk to 1/2, 1/4, 1/16 of
  // its pages, then a near-minimal pool. Every bounded budget below the
  // column's page count forces the external build path.
  std::vector<size_t> budgets{0};
  for (size_t b : {column_pages / 2, column_pages / 4, column_pages / 16,
                   size_t{8}}) {
    b = std::max<size_t>(b, 2);  // a 1-page pool can't even double-buffer
    if (std::find(budgets.begin(), budgets.end(), b) == budgets.end()) {
      budgets.push_back(b);
    }
  }
  bench::Report report("paged", n);
  report.header()
      .Set("page_bytes", page_bytes)
      .Set("column_pages", column_pages)
      .Set("spec", spec_text)
      .Set("lookups", lookups.size())
      .Set("inram_build_seconds", inram_build, 6)
      .Set("inram_probe_mkeys_per_sec", inram_probe_mkeys);
  for (size_t budget : budgets) {
    engine::TableOptions topts;
    topts.page_bytes = page_bytes;
    topts.buffer_pages = budget;
    engine::Table paged(topts);
    paged.AddColumn("k", data);

    // Fraction of the column's pages the pool holds; 0 = unbounded.
    const double budget_fraction =
        budget == 0 ? 0.0
                    : static_cast<double>(budget) /
                          static_cast<double>(column_pages);
    const store::BufferStats before = paged.PoolStats();
    const double build_seconds = bench::MinSeconds(repeats, [&] {
      paged.BuildSortIndex("k", spec);
      return 0;
    });
    const store::BufferStats after = paged.PoolStats();
    const engine::SortIndex& index = paged.GetSortIndex("k");
    const double build_slowdown = build_seconds / inram_build;
    const size_t faults = after.faults - before.faults;
    const size_t spill_reads = after.spill_reads - before.spill_reads;
    const size_t spill_writes = after.spill_writes - before.spill_writes;
    const double probe_mkeys_per_sec = probe_mkeys(index);

    report.AddRow("paged")
        .Set("buffer_pages", budget)
        .Set("budget_fraction", budget_fraction, 4)
        .Set("external", index.external_build())
        .Set("runs", index.external_runs())
        .Set("build_seconds", build_seconds, 6)
        .Set("build_slowdown_vs_inram", build_slowdown)
        .Set("probe_mkeys_per_sec", probe_mkeys_per_sec)
        .Set("faults", faults)
        .Set("spill_reads", spill_reads)
        .Set("spill_writes", spill_writes);
  }

  // Gathers: the same RIDs aggregated off the paged column and off the
  // plain vector. Each timing is the best of `repeats` passes of
  // kGatherCalls calls, per call.
  constexpr size_t kGatherRids = 10'000;
  constexpr int kGatherCalls = 20;
  auto time_per_call = [&](auto&& call) {
    return bench::MinSeconds(repeats,
                             [&] {
                               for (int c = 0; c < kGatherCalls; ++c) call();
                               return 0;
                             }) /
           kGatherCalls;
  };
  std::vector<engine::Rid> random_rids(kGatherRids);
  for (auto& r : random_rids) r = rng.Below(static_cast<uint32_t>(n));
  std::vector<engine::Rid> sorted_rids = random_rids;
  std::sort(sorted_rids.begin(), sorted_rids.end());
  report.header().Set("gather_rids", kGatherRids);
  for (size_t budget : {size_t{0}, std::max<size_t>(column_pages / 4, 2)}) {
    engine::TableOptions topts;
    topts.page_bytes = page_bytes;
    topts.buffer_pages = budget;
    engine::Table paged(topts);
    paged.AddColumn("k", data);
    for (const auto& [scenario, rids] : {std::pair{"random", &random_rids},
                                         std::pair{"sorted", &sorted_rids}}) {
      const double vector_sec = time_per_call([&] {
        engine::Aggregates agg;
        for (engine::Rid r : *rids) agg.Accumulate(data[r]);
        bench::g_sink = bench::g_sink + agg.sum;
      });
      const store::BufferStats before = paged.PoolStats();
      const double paged_sec = time_per_call([&] {
        bench::g_sink =
            bench::g_sink + engine::Aggregate(paged, "k", *rids).sum;
      });
      const size_t faults = paged.PoolStats().faults - before.faults;
      const double slowdown = paged_sec / vector_sec;
      report.AddRow("gather")
          .Set("buffer_pages", budget)
          .Set("scenario", scenario)
          .Set("rids", rids->size())
          .Set("paged_us", paged_sec * 1e6, 2)
          .Set("vector_us", vector_sec * 1e6, 2)
          .Set("slowdown_vs_vector", slowdown)
          .Set("faults", faults);
    }
  }
  return report.Emit(options) ? 0 : 1;
}
