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

struct MixResult {
  std::string mix;
  std::string picked_spec;
  std::string best_static_spec;
  double picked_ns = 0;
  double best_static_ns = 0;
  uint64_t probes = 0;

  /// >= 1.0 when the pick ties or beats the best static spec.
  double Ratio() const {
    return picked_ns > 0 ? best_static_ns / picked_ns : 0.0;
  }
};

// Best-of-`repeats` seconds replaying the mix (points through FindBlocked,
// ranges through EqualRangeBlocked), after one untimed warmup pass.
double ProbeSeconds(const AnyIndex& index, const std::vector<Key>& points,
                    const std::vector<Key>& ranges, int repeats) {
  constexpr size_t kBatch = 256;
  std::vector<int64_t> out(points.size());
  std::vector<PositionRange> rout(ranges.size());
  double best = 1e300;
  for (int r = 0; r <= repeats; ++r) {  // r == 0 warms up
    Timer timer;
    FindBlocked(index, points, kBatch, out);
    if (!ranges.empty()) {
      EqualRangeBlocked<Key>(index, ranges, kBatch,
                             std::span<PositionRange>(rout));
    }
    double sec = timer.Seconds();
    uint64_t sum = 0;
    for (int64_t v : out) sum += static_cast<uint64_t>(v);
    for (const PositionRange& pr : rout) sum += pr.begin;
    bench::g_sink = bench::g_sink + sum;
    if (r > 0 && sec < best) best = sec;
  }
  return best;
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
      mi.FindBatch(probes, out);
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
  const size_t n = options.n != 0 ? options.n
                                  : (options.quick ? 200'000 : 1'000'000);
  const size_t lookups = args.Has("lookups")
                             ? static_cast<size_t>(args.GetInt("lookups", 0))
                             : (options.quick ? size_t{1} << 15
                                              : size_t{1} << 17);
  const int repeats = options.repeats;
  std::string json_path = args.GetString("json", "BENCH_advisor.json");

  bench::PrintHeader(
      "advisor",
      "self-tuning advisor pick vs the static spec menu, n=" +
          std::to_string(n),
      options);

  auto keys = workload::DistinctSortedKeys(n, options.seed, 4);
  std::vector<MixResult> results;

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

    MixResult r;
    r.mix = mix.name;
    r.picked_spec = rec.spec.ToString();
    r.probes = mix.points.size() + mix.ranges.size();
    double best = 1e300;
    for (const std::string& text : StaticMenu()) {
      AnyIndex index = BuildIndex(*IndexSpec::Parse(text), keys);
      if (!index) continue;
      double sec = ProbeSeconds(index, mix.points, mix.ranges, repeats);
      if (sec < best) {
        best = sec;
        r.best_static_spec = text;
      }
    }
    AnyIndex picked = BuildIndex(rec.spec, keys);
    double pick_sec = ProbeSeconds(picked, mix.points, mix.ranges, repeats);
    r.picked_ns = pick_sec / static_cast<double>(r.probes) * 1e9;
    r.best_static_ns = best / static_cast<double>(r.probes) * 1e9;
    results.push_back(std::move(r));
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
      incumbent.FindBatch(probes, out);
    }

    advisor::AdvisorOptions opts;
    auto rec = advisor::Advise(collector->Profile(), n, opts);
    if (!rec.ok) {
      std::printf("advisor failed on update_heavy: %s\n", rec.error.c_str());
      return 1;
    }

    MixResult r;
    r.mix = "update_heavy";
    r.picked_spec = rec.spec.ToString();
    r.probes = probes.size() * ups.size();
    double best = 1e300;
    int cycle_repeats = std::max(repeats / 2, 1);
    for (const std::string& text : StaticMenu()) {
      double sec = UpdateCycleSeconds(*IndexSpec::Parse(text), keys, ups,
                                      probes, cycle_repeats);
      if (sec >= 0 && sec < best) {
        best = sec;
        r.best_static_spec = text;
      }
    }
    double pick_sec =
        UpdateCycleSeconds(rec.spec, keys, ups, probes, cycle_repeats);
    r.picked_ns = pick_sec / static_cast<double>(r.probes) * 1e9;
    r.best_static_ns = best / static_cast<double>(r.probes) * 1e9;
    results.push_back(std::move(r));
  }

  bench::Table table({"mix", "picked", "best static", "picked ns/probe",
                      "best ns/probe", "ratio"});
  for (const MixResult& r : results) {
    table.AddRow({r.mix, r.picked_spec, r.best_static_spec,
                  bench::Table::Num(r.picked_ns, 1),
                  bench::Table::Num(r.best_static_ns, 1),
                  bench::Table::Num(r.Ratio(), 3)});
  }
  table.Print("advisor pick vs static menu, n=" + std::to_string(n));

  bench::Report report("advisor", n);
  report.header().Set("lookups", lookups).Set("repeats", repeats);
  for (const MixResult& r : results) {
    report.AddRow("advisor")
        .Set("mix", r.mix)
        .Set("picked_spec", r.picked_spec)
        .Set("best_static_spec", r.best_static_spec)
        .Set("picked_ns_per_probe", r.picked_ns, 2)
        .Set("best_static_ns_per_probe", r.best_static_ns, 2)
        .Set("ratio", r.Ratio(), 4)
        .Set("probes", r.probes);
  }
  return report.Write(json_path) ? 0 : 1;
}
