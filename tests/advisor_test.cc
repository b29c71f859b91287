#include "advisor/advisor.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/builder.h"
#include "core/maintained_index.h"
#include "core/probe_stats.h"
#include "core/simd_node_search.h"
#include "gtest/gtest.h"
#include "spec_menu.h"
#include "util/timer.h"
#include "workload/batch_update.h"
#include "workload/key_gen.h"
#include "workload/lookup_gen.h"

// The advisor suite: the collector's view of the probe funnel, the model's
// structural sanity, and the load-bearing property — on three generated
// workload mixes (uniform point, Zipf point+range, update-heavy), the
// advisor's pick is never >25% slower than the measured best spec from the
// shared test menu. Timing assertions are skipped under sanitizers, whose
// instrumentation distorts methods non-uniformly; the plumbing still runs.

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CSSIDX_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CSSIDX_SANITIZED 1
#endif
#endif
#ifndef CSSIDX_SANITIZED
#define CSSIDX_SANITIZED 0
#endif

namespace cssidx {
namespace {

volatile uint64_t g_test_sink = 0;

// ------------------------------------------------------- stats collection

TEST(ProbeStats, CollectorSeesEveryProbeKindThroughTheFunnel) {
  auto keys = workload::DistinctSortedKeys(10'000, 7, 4);
  AnyIndex index = BuildIndex(IndexSpec(), keys);
  ASSERT_TRUE(static_cast<bool>(index));
  auto collector = std::make_shared<ProbeStatsCollector>();
  index.AttachStats(collector);

  // 50% hits in one 256-probe batch, then ranges and lower bounds.
  auto mixed = workload::MixedLookups(keys, 256, 0.5, 11);
  std::vector<int64_t> out(mixed.size());
  index.FindBatch(mixed, out);
  std::vector<PositionRange> ranges(64);
  index.EqualRangeBatch(std::span<const Key>(mixed.data(), 64), ranges);
  std::vector<size_t> bounds(32);
  index.LowerBoundBatch(std::span<const Key>(mixed.data(), 32),
                        std::span<size_t>(bounds));

  WorkloadProfile p = collector->Profile();
  EXPECT_EQ(p.point_probes, 256u);
  EXPECT_EQ(p.range_probes, 64u);
  EXPECT_EQ(p.lower_bound_probes, 32u);
  EXPECT_EQ(p.probe_batches, 3u);
  EXPECT_EQ(p.TotalProbes(), 256u + 64u + 32u);
  // Half the Find probes and ~half the EqualRange probes missed.
  EXPECT_GT(p.misses, 100u);
  EXPECT_GT(p.HitFraction(), 0.3);
  EXPECT_LT(p.HitFraction(), 0.7);
  // One batch of 256 lands in log2 bucket 8.
  EXPECT_EQ(p.batch_hist[8], 1u);
  EXPECT_NEAR(p.RangeFraction(), 64.0 / 352.0, 1e-9);

  collector->Reset();
  EXPECT_EQ(collector->Profile().TotalProbes(), 0u);
  EXPECT_DOUBLE_EQ(collector->Profile().HitFraction(), 1.0);
}

TEST(ProbeStats, ScalarProbesLandInBucketZero) {
  auto keys = workload::DistinctSortedKeys(1'000, 3, 4);
  AnyIndex index = BuildIndex(IndexSpec(), keys);
  auto collector = std::make_shared<ProbeStatsCollector>();
  index.AttachStats(collector);
  for (int i = 0; i < 10; ++i) {
    g_test_sink = g_test_sink + static_cast<uint64_t>(index.Find(keys[i]));
  }
  WorkloadProfile p = collector->Profile();
  EXPECT_EQ(p.point_probes, 10u);
  EXPECT_EQ(p.batch_hist[0], 10u);
  EXPECT_DOUBLE_EQ(p.MeanBatch(), 1.0);
}

TEST(ProbeStats, MaintainedIndexAccumulatesAcrossVersionsAndSwaps) {
  auto keys = workload::DistinctSortedKeys(20'000, 5, 4);
  MaintainedIndex mi(IndexSpec(), keys);
  ASSERT_TRUE(mi.ok());
  auto collector = mi.EnableStats();
  ASSERT_NE(collector, nullptr);
  EXPECT_EQ(mi.EnableStats(), collector);  // idempotent

  std::vector<int64_t> out(128);
  auto probes = workload::MatchingLookups(keys, 128, 9);
  mi.Snapshot()->index().FindBatch(probes, out);

  // A maintenance batch: delete a narrow window, insert replacements.
  std::vector<Key> window(keys.begin() + 1000, keys.begin() + 1200);
  mi.ApplySortedBatch(/*sorted_inserts=*/window, /*sorted_deletes=*/window);
  WorkloadProfile p = collector->Profile();
  EXPECT_EQ(p.update_batches, 1u);
  EXPECT_EQ(p.keys_inserted, 200u);
  EXPECT_EQ(p.keys_deleted, 200u);
  EXPECT_GT(p.MeanUpdateSpanFraction(), 0.0);
  EXPECT_LT(p.MeanUpdateSpanFraction(), 0.25);  // the window is narrow

  // Hot-swap the spec; the same collector keeps observing the new version.
  uint64_t seq = mi.sequence();
  ASSERT_TRUE(mi.RebuildWithSpec(*IndexSpec::Parse("btree:32")));
  EXPECT_EQ(mi.sequence(), seq + 1);
  EXPECT_EQ(mi.stats().spec_swaps, 1u);
  EXPECT_EQ(mi.Snapshot()->index().Name(), std::string("B+-tree/m=32"));
  mi.Snapshot()->index().FindBatch(probes, out);
  EXPECT_EQ(collector->Profile().point_probes, 256u);

  // Off-menu and unbuildable specs are refused without publishing.
  seq = mi.sequence();
  EXPECT_FALSE(mi.RebuildWithSpec(IndexSpec().WithNodeEntries(5)));
  EXPECT_EQ(mi.sequence(), seq);
  EXPECT_EQ(mi.stats().spec_swaps, 1u);
}

// ----------------------------------------------------------- model sanity

TEST(Advisor, MenuRespectsWidthAndOrderingConstraints) {
  advisor::AdvisorOptions opts;
  for (const IndexSpec& spec : advisor::CandidateMenu(opts)) {
    EXPECT_TRUE(spec.OnMenu()) << spec.ToString();
    EXPECT_EQ(spec.key_width(), 4) << spec.ToString();
  }

  opts.need_ordered_access = true;
  // need_ordered_access filters at Advise time, not menu time — the menu
  // itself only drops hash when the width rules it out.
  opts.key_width = 8;
  for (const IndexSpec& spec : advisor::CandidateMenu(opts)) {
    EXPECT_EQ(spec.key_width(), 8) << spec.ToString();
    EXPECT_NE(spec.method(), Method::kHash) << spec.ToString();
  }
}

TEST(Advisor, OrderedWorkloadsNeverGetHash) {
  WorkloadProfile profile;
  profile.point_probes = 1'000'000;
  profile.lower_bound_probes = 1;  // one ordered probe is enough
  profile.probe_batches = 4'000;
  profile.batch_hist[8] = 4'000;
  advisor::AdvisorOptions opts;
  auto rec = advisor::Advise(profile, 1'000'000, opts);
  ASSERT_TRUE(rec.ok) << rec.error;
  for (const auto& scored : rec.ranked) {
    EXPECT_TRUE(scored.spec.ordered()) << scored.spec.ToString();
  }
}

TEST(Advisor, ProbeOnlyWorkloadsKeepCompositesOffTheMenu) {
  WorkloadProfile profile;
  profile.point_probes = 1'000'000;
  profile.probe_batches = 4'000;
  profile.batch_hist[8] = 4'000;
  advisor::AdvisorOptions opts;
  auto rec = advisor::Advise(profile, 1'000'000, opts);
  ASSERT_TRUE(rec.ok) << rec.error;
  for (const auto& scored : rec.ranked) {
    EXPECT_FALSE(scored.spec.partitioned()) << scored.spec.ToString();
  }
}

TEST(Advisor, UpdateHeavyLocalizedWorkloadPrefersShardedMaintenance) {
  WorkloadProfile profile;
  profile.point_probes = 100'000;
  profile.probe_batches = 400;
  profile.batch_hist[8] = 400;
  profile.update_batches = 50;
  profile.keys_inserted = 50'000;
  profile.keys_deleted = 50'000;
  profile.update_span_millionths = 50 * 20'000;  // 2% span per batch
  advisor::AdvisorOptions opts;
  auto rec = advisor::Advise(profile, 2'000'000, opts);
  ASSERT_TRUE(rec.ok) << rec.error;
  EXPECT_TRUE(rec.spec.partitioned()) << rec.spec.ToString();

  // The same traffic with no updates prefers the bare structure.
  profile.update_batches = 0;
  profile.keys_inserted = 0;
  profile.keys_deleted = 0;
  profile.update_span_millionths = 0;
  rec = advisor::Advise(profile, 2'000'000, opts);
  ASSERT_TRUE(rec.ok) << rec.error;
  EXPECT_FALSE(rec.spec.partitioned()) << rec.spec.ToString();
}

TEST(Advisor, SpaceBudgetPartitionsTheRanking) {
  WorkloadProfile profile;
  profile.point_probes = 1'000'000;
  profile.probe_batches = 4'000;
  profile.batch_hist[8] = 4'000;
  advisor::AdvisorOptions opts;
  opts.space_budget_bytes = 1;  // only zero-space methods fit
  auto rec = advisor::Advise(profile, 1'000'000, opts);
  ASSERT_TRUE(rec.ok) << rec.error;
  EXPECT_FALSE(rec.over_budget.empty());
  for (const auto& scored : rec.ranked) {
    EXPECT_LE(scored.space_bytes, 1.0) << scored.spec.ToString();
  }
  // Every spec is scored exactly once, on one side or the other.
  EXPECT_GT(rec.ranked.size(), 0u);
  EXPECT_FALSE(rec.rationale.empty());
}

TEST(Advisor, ScalarNodeSearchRaisesOnlyNodeSearchedProbeCosts) {
  const NodeSearchPath detected = DetectedNodeSearchPath();
  if (detected == NodeSearchPath::kScalar) {
    GTEST_SKIP() << "no SIMD node search to compare the scalar one with";
  }
  WorkloadProfile profile;
  profile.point_probes = 100'000;
  profile.probe_batches = 400;
  profile.batch_hist[8] = 400;
  advisor::AdvisorOptions opts;
  const char* specs[] = {"css:16", "lcss:16", "btree:16", "part:16/css:16",
                         "interp", "bin", "hash:16"};
  std::vector<double> simd;
  for (const char* text : specs) {
    simd.push_back(
        advisor::ScoreSpec(*IndexSpec::Parse(text), profile, 1'000'000, opts)
            .probe_ns);
  }
  ASSERT_EQ(SetNodeSearchPath(NodeSearchPath::kScalar),
            NodeSearchPath::kScalar);
  for (size_t i = 0; i < std::size(specs); ++i) {
    const IndexSpec spec = *IndexSpec::Parse(specs[i]);
    const double scalar =
        advisor::ScoreSpec(spec, profile, 1'000'000, opts).probe_ns;
    const bool node_searched = spec.method() == Method::kFullCss ||
                               spec.method() == Method::kLevelCss ||
                               spec.method() == Method::kBPlusTree;
    if (node_searched) {
      EXPECT_GT(scalar, simd[i] * 1.2) << specs[i];
    } else {
      EXPECT_EQ(scalar, simd[i]) << specs[i];
    }
  }
  SetNodeSearchPath(detected);
}

TEST(Advisor, PartitionedSpaceIsPricedPerShard) {
  // Every part:K shard builds its own inner index, so a hash directory is
  // paid once per shard: the modeled space must track what the built
  // composite reports, not one inner index over all n keys (which priced
  // part:16/hash:16 at 9.1 MB against 67.1 MB built).
  constexpr size_t kN = 1'000'000;
  const std::vector<Key> keys = workload::DistinctSortedKeys(kN, 41, 4);
  WorkloadProfile profile;
  profile.point_probes = 1'000;
  profile.probe_batches = 10;
  profile.batch_hist[8] = 10;
  auto space = [&](const char* text) {
    const IndexSpec spec = *IndexSpec::Parse(text);
    const AnyIndex built = BuildIndex(spec, keys.data(), keys.size());
    EXPECT_TRUE(built) << text;
    return std::pair<double, double>{
        advisor::ScoreSpec(spec, profile, kN, advisor::AdvisorOptions{})
            .space_bytes,
        built ? static_cast<double>(built.SpaceBytes()) : 0.0};
  };
  constexpr double kDirectoryBytes = 65'536 * 64.0;  // 2^16 bucket lines
  const auto [modeled16, built16] = space("part:16/hash:16");
  EXPECT_NEAR(modeled16, built16, 0.1 * built16);
  EXPECT_GE(modeled16, 16 * kDirectoryBytes);
  // A 250K-key shard overflows a few of its 2^16 bucket lines; the arena
  // holds exactly the buckets in use, so the model's directory-per-shard
  // price stays within 10% of the built composite here too.
  const auto [modeled4, built4] = space("part:4/hash:16");
  EXPECT_NEAR(modeled4, built4, 0.1 * built4);
  EXPECT_GE(modeled4, 4 * kDirectoryBytes);
}

TEST(Advisor, RejectsBogusKeyWidth) {
  WorkloadProfile profile;
  advisor::AdvisorOptions opts;
  opts.key_width = 6;
  auto rec = advisor::Advise(profile, 1000, opts);
  EXPECT_FALSE(rec.ok);
  EXPECT_FALSE(rec.error.empty());
}

// -------------------------------------------------- the 25% property test

// Best-of-`repeats` seconds for the mix replayed against `index`:
// point probes through FindBlocked, range probes through EqualRangeBlocked,
// one untimed warmup pass first.
double MeasureProbeSeconds(const AnyIndex& index,
                           const std::vector<Key>& points,
                           const std::vector<Key>& ranges, int repeats) {
  constexpr size_t kBatch = 256;
  std::vector<int64_t> out(points.size());
  std::vector<PositionRange> rout(ranges.size());
  double best = 1e300;
  for (int r = 0; r <= repeats; ++r) {  // r == 0 is the warmup
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
    g_test_sink = g_test_sink + sum;
    if (r > 0 && sec < best) best = sec;
  }
  return best;
}

// Best-of-`repeats` seconds for one serve cycle of the update-heavy mix:
// apply each maintenance batch, probe between batches. The MaintainedIndex
// is rebuilt per repeat so every repeat replays identical state; the build
// itself is untimed (a served table is built once, maintained forever).
double MeasureUpdateCycleSeconds(const IndexSpec& spec,
                                 const std::vector<Key>& keys,
                                 const std::vector<workload::UpdateBatch>& ups,
                                 const std::vector<Key>& probes, int repeats) {
  double best = 1e300;
  std::vector<int64_t> out(probes.size());
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
    g_test_sink = g_test_sink + sum;
    if (r > 0 && sec < best) best = sec;
  }
  return best;
}

// Update-heavy and localized: each batch deletes a narrow key window and
// the next batch re-inserts it.
std::vector<workload::UpdateBatch> LocalizedUpdateCycle(
    const std::vector<Key>& keys) {
  std::vector<workload::UpdateBatch> ups;
  for (int b = 0; b < 8; ++b) {
    size_t lo = 40'000 + static_cast<size_t>(b) * 500;
    std::vector<Key> window(keys.begin() + lo, keys.begin() + lo + 500);
    workload::UpdateBatch up;
    if (b % 2 == 0) {
      up.deletes = window;
    } else {
      std::vector<Key> prev(keys.begin() + lo - 500, keys.begin() + lo);
      up.inserts = prev;
    }
    ups.push_back(std::move(up));
  }
  return ups;
}

// The cycle observed through a maintained incumbent, probes interleaved:
// probes and updates both land in the collector.
WorkloadProfile ObservedProfile(const std::vector<Key>& keys,
                                const std::vector<workload::UpdateBatch>& ups,
                                const std::vector<Key>& probes) {
  MaintainedIndex incumbent(IndexSpec(), keys);
  auto collector = incumbent.EnableStats();
  std::vector<int64_t> out(probes.size());
  for (const workload::UpdateBatch& up : ups) {
    incumbent.ApplySortedBatch(up.inserts, up.deletes);
    incumbent.Snapshot()->index().FindBatch(probes, out);
  }
  return collector->Profile();
}

TEST(AdvisorProperty, PickNeverFarBehindMeasuredBestAcrossMixes) {
  if (CSSIDX_SANITIZED) {
    GTEST_SKIP() << "timing property is meaningless under sanitizers";
  }
  const size_t n = 100'000;
  auto keys = workload::DistinctSortedKeys(n, 3, 4);
  const std::vector<IndexSpec> menu = test_menu::DefaultSpecs(16, 12);

  struct Mix {
    const char* name;
    std::vector<Key> points;
    std::vector<Key> ranges;
  };
  std::vector<Mix> mixes;
  mixes.push_back({"uniform-point", workload::MatchingLookups(keys, 32'768, 21),
                   {}});
  mixes.push_back({"zipf-point+range",
                   workload::SkewedLookups(keys, 24'576, 0.86, 22),
                   workload::SkewedLookups(keys, 8'192, 0.86, 23)});

  for (const Mix& mix : mixes) {
    // Observe the mix through an incumbent index wearing the collector —
    // the same loop the serving layer runs.
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
    ASSERT_TRUE(rec.ok) << mix.name << ": " << rec.error;

    // Measure the shared menu and the pick with the same harness.
    double best = 1e300;
    std::string best_spec;
    for (const IndexSpec& spec : menu) {
      AnyIndex index = BuildIndex(spec, keys);
      if (!index) continue;
      double sec = MeasureProbeSeconds(index, mix.points, mix.ranges, 3);
      if (sec < best) {
        best = sec;
        best_spec = spec.ToString();
      }
    }
    AnyIndex picked = BuildIndex(rec.spec, keys);
    ASSERT_TRUE(static_cast<bool>(picked)) << rec.spec.ToString();
    double pick = MeasureProbeSeconds(picked, mix.points, mix.ranges, 3);

    if (pick > best * 1.25) {
      // Noise guard: one re-measure of both contenders at higher repeats
      // before declaring the model wrong.
      AnyIndex best_index = BuildIndex(*IndexSpec::Parse(best_spec), keys);
      best = MeasureProbeSeconds(best_index, mix.points, mix.ranges, 9);
      pick = MeasureProbeSeconds(picked, mix.points, mix.ranges, 9);
    }
    EXPECT_LE(pick, best * 1.25)
        << mix.name << ": advisor picked " << rec.spec.ToString() << " ("
        << pick << "s) vs measured best " << best_spec << " (" << best
        << "s)\n"
        << rec.rationale;
  }
}

TEST(AdvisorProperty, UpdateHeavyPickNeverFarBehindMeasuredBest) {
  if (CSSIDX_SANITIZED) {
    GTEST_SKIP() << "timing property is meaningless under sanitizers";
  }
  const size_t n = 100'000;
  auto keys = workload::DistinctSortedKeys(n, 3, 4);
  const std::vector<IndexSpec> menu = test_menu::DefaultSpecs(16, 12);

  const std::vector<workload::UpdateBatch> ups = LocalizedUpdateCycle(keys);
  auto probes = workload::MatchingLookups(keys, 4'096, 31);

  advisor::AdvisorOptions opts;
  auto rec = advisor::Advise(ObservedProfile(keys, ups, probes), n, opts);
  ASSERT_TRUE(rec.ok) << rec.error;

  double best = 1e300;
  std::string best_spec;
  for (const IndexSpec& spec : menu) {
    double sec = MeasureUpdateCycleSeconds(spec, keys, ups, probes, 2);
    if (sec >= 0 && sec < best) {
      best = sec;
      best_spec = spec.ToString();
    }
  }
  double pick = MeasureUpdateCycleSeconds(rec.spec, keys, ups, probes, 2);
  ASSERT_GE(pick, 0.0) << rec.spec.ToString();

  if (pick > best * 1.25) {
    best = MeasureUpdateCycleSeconds(*IndexSpec::Parse(best_spec), keys, ups,
                                     probes, 6);
    pick = MeasureUpdateCycleSeconds(rec.spec, keys, ups, probes, 6);
  }
  EXPECT_LE(pick, best * 1.25)
      << "advisor picked " << rec.spec.ToString() << " (" << pick
      << "s) vs measured best " << best_spec << " (" << best << "s)\n"
      << rec.rationale;
}

TEST(AdvisorProperty, HashRefreshPriceTracksReplayedDirectoryCost) {
  if (CSSIDX_SANITIZED) {
    GTEST_SKIP() << "timing property is meaningless under sanitizers";
  }
  // Each shard a part:K/hash:b refresh rebuilds gets a fresh 2^b-line
  // directory, whatever its key count. Replay the update-heavy cycle's
  // refreshes alone (no probes) and price what the larger directory adds,
  // part:16/hash:16 over part:16/hash:12, in units of a part:16/css:16
  // refresh of the same batches: the model's reading must lie within 4x
  // of the replay's (model 33 here against a replayed 25-41 on a 4-vCPU
  // VM; a model blind to the directory reads 0).
  const size_t n = 100'000;
  auto keys = workload::DistinctSortedKeys(n, 3, 4);
  const std::vector<workload::UpdateBatch> ups = LocalizedUpdateCycle(keys);
  const WorkloadProfile profile = ObservedProfile(
      keys, ups, workload::MatchingLookups(keys, 4'096, 31));
  const advisor::AdvisorOptions opts;
  const auto replay = [&](const char* text) {
    return MeasureUpdateCycleSeconds(*IndexSpec::Parse(text), keys, ups, {},
                                     5);
  };
  const auto model = [&](const char* text) {
    return advisor::ScoreSpec(*IndexSpec::Parse(text), profile, n, opts)
        .update_ns;
  };
  const double css = replay("part:16/css:16");
  const double replayed =
      (replay("part:16/hash:16") - replay("part:16/hash:12")) / css;
  const double modeled = (model("part:16/hash:16") - model("part:16/hash:12")) /
                         model("part:16/css:16");
  EXPECT_GT(replayed, 1.0) << "the larger directory should cost something";
  EXPECT_GE(modeled, replayed / 4) << "replayed " << replayed;
  EXPECT_LE(modeled, replayed * 4) << "replayed " << replayed;
}

}  // namespace
}  // namespace cssidx
