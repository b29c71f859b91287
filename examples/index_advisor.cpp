// Index advisor: the operational version of Figure 14's stepped line.
// Given a space budget (bytes of extra memory available beyond the sorted
// RID list), measure every method that fits and recommend the fastest —
// "the stepped line basically tells us how to find the optimal searching
// time for a given amount of space" (§7).
//
// Probes are issued through the batch API — the access pattern OLAP
// front-ends generate — so methods with group-probing kernels are ranked
// by their real, miss-overlapped throughput. Timing follows the bench
// harness protocol (§6.1): one untimed warmup pass per candidate, then
// best-of-`--repeats` wall clock, results fed to the harness's volatile
// sink so the optimizer cannot delete the probe loop.
//
// The measured table is cross-checked against the model-only advisor
// (src/advisor/): the same workload, described as a WorkloadProfile, is
// scored analytically and both picks are printed — when they disagree,
// the gap between the model's ns/probe and the measured one says whether
// the model or the machine is the outlier.
//
//   $ ./index_advisor --budget=2000000 [--n=2000000] [--lookups=50000]
//                     [--batch=64] [--repeats=3] [--spec=css:16 --spec-only]
//                     [--need-ordered-access]

#include <algorithm>
#include <cstdio>
#include <vector>

#include "advisor/advisor.h"
#include "harness.h"
#include "core/builder.h"
#include "util/cli.h"
#include "workload/key_gen.h"
#include "workload/lookup_gen.h"

namespace {

using namespace cssidx;

struct Candidate {
  std::string name;
  std::string spec;
  size_t space;
  double seconds;
  bool ordered;
};

// One untimed pass to fault in the node array and warm the branch
// predictors, then the harness's best-of-k measurement (minimum over
// `repeats` full-batch runs, sink through bench::g_sink).
double TimeLookups(const AnyIndex& index, const std::vector<Key>& lookups,
                   size_t batch, int repeats) {
  std::vector<int64_t> out(lookups.size());
  auto pass = [&] {
    FindBlocked(index, lookups, batch, out);
    return out.empty() ? 0 : out.back();
  };
  pass();
  return bench::MinSeconds(repeats, pass);
}

[[noreturn]] void Die(const char* fmt, const std::string& arg) {
  std::fprintf(stderr, "error: ");
  std::fprintf(stderr, fmt, arg.c_str());
  std::fprintf(stderr, "\n");
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  size_t n = static_cast<size_t>(args.GetInt("n", 2'000'000));
  size_t budget = static_cast<size_t>(args.GetInt("budget", 2'000'000));
  size_t num_lookups = static_cast<size_t>(args.GetInt("lookups", 50'000));
  size_t batch = static_cast<size_t>(args.GetInt("batch", 64));
  int repeats = static_cast<int>(args.GetInt("repeats", 3));
  bool need_order = args.GetBool("need-ordered-access", false);
  bool spec_only = args.GetBool("spec-only", false);
  if (repeats < 1) repeats = 1;
  if (spec_only && !args.Has("spec")) {
    Die("--spec-only needs an explicit --spec=<spec> to measure%s", "");
  }

  auto keys = workload::DistinctSortedKeys(n, 3, 4);
  auto lookups = workload::MatchingLookups(keys, num_lookups, 4);
  std::printf(
      "advising for n=%zu keys, space budget %.2f MB, batch=%zu, "
      "best of %d%s\n\n",
      n, budget / 1e6, batch, repeats,
      need_order ? ", ordered access required" : "");

  // Enumerate the menu: every method at every node size / directory size,
  // deduped so an explicit --spec that is also on the menu runs once.
  std::vector<IndexSpec> menu;
  auto enlist = [&](const IndexSpec& spec) {
    if (std::find(menu.begin(), menu.end(), spec) == menu.end()) {
      menu.push_back(spec);
    }
  };

  if (args.Has("spec")) {
    // Explicit spec from the command line, e.g. --spec=lcss:64.
    auto spec = IndexSpec::Parse(args.GetString("spec", ""));
    if (!spec) {
      std::fprintf(stderr, "error: unparseable --spec; %s\n",
                   IndexSpec::GrammarHelp());
      return 1;
    }
    enlist(*spec);
  }
  if (!spec_only) {
    for (const IndexSpec& spec : AllSpecs()) {
      if (!spec.sized()) {
        if (spec.ordered()) enlist(spec);
        continue;
      }
      for (int m : {8, 16, 32, 64}) {
        IndexSpec sized = spec.WithNodeEntries(m);
        if (sized.OnMenu()) enlist(sized);
      }
    }
    for (int bits : {16, 18, 20, 22}) {
      enlist(*IndexSpec::Parse("hash:" + std::to_string(bits)));
    }
    // Range-partitioned composites: K smaller CSS-trees behind one
    // facade. Near-identical space to the bare tree, so they compete on
    // routing overhead vs shard locality — and rank honestly either way.
    for (int k : {4, 16}) {
      enlist(IndexSpec().WithPartitions(k));
    }
  }

  // Measure the menu. Every filtered-out candidate is diagnosed so an
  // empty result names its cause instead of "recommending nothing": an
  // unbuildable --spec-only spec, a budget nothing fits, or an
  // ordered-access requirement hash can't meet.
  std::vector<Candidate> candidates;
  size_t unbuildable = 0, over_budget = 0, unordered = 0;
  for (const IndexSpec& spec : menu) {
    AnyIndex index = BuildIndex(spec, keys);
    if (!index) {
      ++unbuildable;
      if (spec_only) {
        Die("--spec=%s is not buildable for this key set", spec.ToString());
      }
      continue;
    }
    Candidate c{index.Name(), spec.ToString(), index.SpaceBytes(), 0,
                index.SupportsOrderedAccess()};
    if (c.space > budget) {
      ++over_budget;
      if (spec_only) {
        Die("--spec=%s needs more space than --budget allows", spec.ToString());
      }
      continue;
    }
    if (need_order && !c.ordered) {
      ++unordered;
      if (spec_only) {
        Die("--spec=%s cannot serve --need-ordered-access", spec.ToString());
      }
      continue;
    }
    c.seconds = TimeLookups(index, lookups, batch, repeats);
    candidates.push_back(std::move(c));
  }

  if (candidates.empty()) {
    std::fprintf(stderr,
                 "error: no candidate survived the filters (%zu unbuildable, "
                 "%zu over budget, %zu unordered) — binary search (0 bytes) "
                 "always works; raise --budget or relax the filters.\n",
                 unbuildable, over_budget, unordered);
    return 1;
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.seconds < b.seconds;
            });

  std::printf("%-24s %-10s %12s %12s %8s\n", "method", "spec", "space (MB)",
              "time (s)", "ordered");
  for (const auto& c : candidates) {
    std::printf("%-24s %-10s %12.2f %12.4f %8s\n", c.name.c_str(),
                c.spec.c_str(), c.space / 1e6, c.seconds,
                c.ordered ? "Y" : "N");
  }
  std::printf("\nrecommendation: %s (--spec=%s, %.2f MB, %.4f s per %zu "
              "lookups)\n",
              candidates.front().name.c_str(), candidates.front().spec.c_str(),
              candidates.front().space / 1e6, candidates.front().seconds,
              num_lookups);

  // Cross-check: the model-only advisor on the same workload shape —
  // all-hit point probes in `batch`-sized groups, no updates.
  if (!spec_only) {
    WorkloadProfile profile;
    size_t full = num_lookups / std::max<size_t>(batch, 1);
    size_t bucket = 0;
    for (size_t b = batch; b > 1; b >>= 1) ++bucket;
    if (bucket >= WorkloadProfile::kBatchBuckets) {
      bucket = WorkloadProfile::kBatchBuckets - 1;
    }
    profile.batch_hist[bucket] = full;
    profile.point_probes = num_lookups;
    profile.probe_batches = std::max<uint64_t>(full, 1);
    advisor::AdvisorOptions opts;
    opts.space_budget_bytes = budget;
    opts.need_ordered_access = need_order;
    auto rec = advisor::Advise(profile, keys.size(), opts);
    if (rec.ok) {
      std::printf("model pick:     --spec=%s (modeled %.1f ns/probe)%s\n",
                  rec.spec.ToString().c_str(), rec.ranked.front().cost_ns,
                  rec.spec.ToString() == candidates.front().spec
                      ? " — agrees with measurement"
                      : "");
    }
  }
  return 0;
}
