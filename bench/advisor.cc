// Adaptive-vs-static throughput: does the self-tuning advisor actually
// land on a competitive spec? Three workload mixes (uniform point, Zipf
// point+range, update-heavy localized), each observed through an incumbent
// index wearing a ProbeStatsCollector — the same loop the serving layer
// runs — then advised, then raced: the advisor's pick vs every spec on a
// static menu, measured with the harness protocol (warmup + best-of-k).
//
// The JSON's "advisor" block is gated (tools/bench_gates.json,
// advisor_ratio) on the RATIO best_static/picked (1.0 = the pick ties the
// best static spec, >1.0 = the pick beats the menu). Ratios transfer
// across runner hardware; absolute ns/probe does not.
//
//   $ ./bench_advisor [--n=1000000] [--lookups=131072] [--repeats=3]
//                     [--json=BENCH_advisor.json] [--quick]

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "advisor/advisor.h"
#include "core/builder.h"
#include "core/maintained_index.h"
#include "core/probe_stats.h"
#include "harness.h"
#include "util/timer.h"
#include "workload/batch_update.h"
#include "workload/key_gen.h"
#include "workload/lookup_gen.h"

namespace {

using namespace cssidx;

// The static menu the advisor races against: one spec per method family
// plus the partitioned composites a DBA might reach for.
const std::vector<std::string>& StaticMenu() {
  static const std::vector<std::string> menu{
      "bin",      "tbin",          "interp",        "ttree:16",
      "btree:32", "css:16",        "lcss:64",       "hash:16",
      "part:4/css:16", "part:16/css:16"};
  return menu;
}

// Best-of-`repeats` seconds replaying the mix (points through FindBlocked,
// ranges through EqualRangeBlocked), after one untimed warmup pass.
double ProbeSeconds(const AnyIndex& index, const std::vector<Key>& points,
                    const std::vector<Key>& ranges, int repeats) {
  constexpr size_t kBatch = 256;
  std::vector<int64_t> out(points.size());
  std::vector<PositionRange> rout(ranges.size());
  auto pass = [&] {
    FindBlocked(index, points, kBatch, out);
    EqualRangeBlocked<Key>(index, ranges, kBatch,
                           std::span<PositionRange>(rout));
    return (out.empty() ? 0 : out.back()) +
           (rout.empty() ? 0 : rout.back().begin);
  };
  pass();
  return bench::MinSeconds(repeats, pass);
}

// Best-of-`repeats` seconds for the update-heavy serve cycle: apply each
// maintenance batch, probe between batches. The index is rebuilt per
// repeat (untimed) so every repeat replays identical state.
double UpdateCycleSeconds(const IndexSpec& spec, const std::vector<Key>& keys,
                          const std::vector<workload::UpdateBatch>& ups,
                          const std::vector<Key>& probes, int repeats) {
  std::vector<int64_t> out(probes.size());
  double best = 1e300;
  for (int r = 0; r <= repeats; ++r) {
    MaintainedIndex mi(spec, keys);
    if (!mi.ok()) return -1.0;
    Timer timer;
    for (const workload::UpdateBatch& up : ups) {
      mi.ApplySortedBatch(up.inserts, up.deletes);
      mi.Snapshot()->index().FindBatch(probes, out);
    }
    double sec = timer.Seconds();
    uint64_t sum = 0;
    for (int64_t v : out) sum += static_cast<uint64_t>(v);
    bench::g_sink = bench::g_sink + sum;
    if (r > 0 && sec < best) best = sec;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  auto options = bench::Options::Parse(argc, argv);
  CliArgs args(argc, argv);
  const size_t n = options.N(200'000, 1'000'000);
  const size_t lookups = args.Has("lookups")
                             ? static_cast<size_t>(args.GetInt("lookups", 0))
                             : (options.quick ? size_t{1} << 15
                                              : size_t{1} << 17);
  const int repeats = options.repeats;
  bench::Report report("advisor", n);
  report.header().Set("lookups", lookups).Set("repeats", repeats);
  // One row per mix. ratio = best_static / picked: >= 1.0 when the pick
  // ties or beats the best static spec.
  auto add_row = [&](const char* mix, const IndexSpec& picked,
                     const std::string& best_static, double picked_sec,
                     double best_sec, uint64_t probes) {
    const double picked_ns = picked_sec / static_cast<double>(probes) * 1e9;
    const double best_ns = best_sec / static_cast<double>(probes) * 1e9;
    report.AddRow("advisor")
        .Set("mix", mix)
        .Set("picked_spec", picked.ToString())
        .Set("best_static_spec", best_static)
        .Set("picked_ns_per_probe", picked_ns, 2)
        .Set("best_static_ns_per_probe", best_ns, 2)
        .Set("ratio", picked_ns > 0 ? best_ns / picked_ns : 0.0, 4)
        .Set("probes", probes);
  };

  auto keys = workload::DistinctSortedKeys(n, options.seed, 4);

  // ---- probe-only mixes: uniform point, Zipf point+range ----------------
  struct ProbeMix {
    const char* name;
    std::vector<Key> points;
    std::vector<Key> ranges;
  };
  std::vector<ProbeMix> probe_mixes;
  probe_mixes.push_back(
      {"uniform_point", workload::MatchingLookups(keys, lookups, 21), {}});
  probe_mixes.push_back(
      {"zipf_point_range",
       workload::SkewedLookups(keys, lookups * 3 / 4, 0.86, 22),
       workload::SkewedLookups(keys, lookups / 4, 0.86, 23)});

  for (ProbeMix& mix : probe_mixes) {
    AnyIndex incumbent = BuildIndex(IndexSpec(), keys);
    auto collector = std::make_shared<ProbeStatsCollector>();
    incumbent.AttachStats(collector);
    std::vector<int64_t> out(mix.points.size());
    FindBlocked(incumbent, mix.points, 256, out);
    if (!mix.ranges.empty()) {
      std::vector<PositionRange> rout(mix.ranges.size());
      EqualRangeBlocked<Key>(incumbent, mix.ranges, 256,
                             std::span<PositionRange>(rout));
    }

    advisor::AdvisorOptions opts;
    opts.microbench = true;
    opts.microbench_top = 3;
    auto rec = advisor::AdviseOnKeys<Key>(collector->Profile(), keys, opts);
    if (!rec.ok) {
      std::printf("advisor failed on %s: %s\n", mix.name, rec.error.c_str());
      return 1;
    }

    double best = 1e300;
    std::string best_spec;
    for (const std::string& text : StaticMenu()) {
      AnyIndex index = BuildIndex(*IndexSpec::Parse(text), keys);
      if (!index) continue;
      double sec = ProbeSeconds(index, mix.points, mix.ranges, repeats);
      if (sec < best) {
        best = sec;
        best_spec = text;
      }
    }
    AnyIndex picked = BuildIndex(rec.spec, keys);
    add_row(mix.name, rec.spec, best_spec,
            ProbeSeconds(picked, mix.points, mix.ranges, repeats), best,
            mix.points.size() + mix.ranges.size());
  }

  // ---- update-heavy mix -------------------------------------------------
  {
    std::vector<workload::UpdateBatch> ups;
    const size_t window = std::max<size_t>(n / 200, 64);
    for (int b = 0; b < 8; ++b) {
      size_t lo = n / 2 + static_cast<size_t>(b) * window;
      std::vector<Key> cur(keys.begin() + lo, keys.begin() + lo + window);
      workload::UpdateBatch up;
      if (b % 2 == 0) {
        up.deletes = std::move(cur);
      } else {
        up.inserts.assign(keys.begin() + lo - window, keys.begin() + lo);
      }
      ups.push_back(std::move(up));
    }
    auto probes = workload::MatchingLookups(keys, lookups / 8, 31);

    MaintainedIndex incumbent(IndexSpec(), keys);
    auto collector = incumbent.EnableStats();
    std::vector<int64_t> out(probes.size());
    for (const workload::UpdateBatch& up : ups) {
      incumbent.ApplySortedBatch(up.inserts, up.deletes);
      incumbent.Snapshot()->index().FindBatch(probes, out);
    }

    advisor::AdvisorOptions opts;
    auto rec = advisor::Advise(collector->Profile(), n, opts);
    if (!rec.ok) {
      std::printf("advisor failed on update_heavy: %s\n", rec.error.c_str());
      return 1;
    }

    // A pick on the static menu reuses its time from the menu loop, so
    // the same spec in both columns reads a ratio of exactly 1; any other
    // pick is timed with the same repeats as the menu.
    double best = 1e300;
    std::string best_spec;
    double picked_sec = -1.0;
    for (const std::string& text : StaticMenu()) {
      const IndexSpec spec = *IndexSpec::Parse(text);
      double sec = UpdateCycleSeconds(spec, keys, ups, probes, repeats);
      if (spec == rec.spec) picked_sec = sec;
      if (sec >= 0 && sec < best) {
        best = sec;
        best_spec = text;
      }
    }
    if (picked_sec < 0) {
      picked_sec = UpdateCycleSeconds(rec.spec, keys, ups, probes, repeats);
    }
    add_row("update_heavy", rec.spec, best_spec, picked_sec, best,
            probes.size() * ups.size());
  }
  return report.Emit(options) ? 0 : 1;
}
