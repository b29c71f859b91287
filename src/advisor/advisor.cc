#include "advisor/advisor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "analytic/params.h"
#include "analytic/space_model.h"
#include "analytic/time_model.h"
#include "core/any_index.h"
#include "core/builder.h"
#include "core/simd_node_search.h"
#include "util/rng.h"

namespace cssidx::advisor {

namespace {

/// Keeps the microbench probe loops observable without linking the bench
/// harness into the core library.
volatile uint64_t g_advisor_sink = 0;

struct DescentCost {
  double comparisons = 0;
  double misses = 0;
  double moves = 0;
  bool modeled = false;
};

/// Per-point-probe descent cost of `spec`'s METHOD over n keys — the §5
/// TimeModel rows where the paper models the method, explicit formulas in
/// the same spirit for the rest (tbin/interp/hash are measured in Figure 6
/// but not tabulated in §5.1).
DescentCost MethodDescent(const IndexSpec& spec, double n, double key_width,
                          const AdvisorOptions& opts) {
  DescentCost d;
  if (n < 2) {
    d.modeled = true;
    d.comparisons = 1;
    d.misses = 1;
    return d;
  }
  analytic::Params p;
  p.K = key_width;
  p.n = n;
  p.c = opts.line_bytes;
  const double log2n = std::log2(n);
  switch (spec.method()) {
    case Method::kBinarySearch:
    case Method::kTreeBinarySearch: {
      // Same asymptotics; tbin's layout buys a better constant on the top
      // levels but the §5.1 model charges both ~1 miss per comparison.
      d.comparisons = log2n;
      d.misses = log2n;
      d.moves = log2n;
      d.modeled = true;
      return d;
    }
    case Method::kInterpolation: {
      // ~log2(log2 n) iterations on smooth distributions, each a
      // dependent miss plus arithmetic; charge a safety factor for the
      // distributions the profile can't see (skew wrecks interpolation).
      double iters = std::log2(std::max(2.0, log2n)) + 1.0;
      d.comparisons = 2.0 * iters;
      d.misses = iters + 1.0;
      d.moves = iters;
      d.modeled = true;
      return d;
    }
    case Method::kHash: {
      // One dependent directory load, then the 64-byte bucket scan; h=1.2
      // says chains stay short. Off-model when ordered access is needed.
      d.comparisons = 4.0;
      d.misses = 1.0 + p.h;
      d.moves = 1.0;
      d.modeled = true;
      return d;
    }
    case Method::kTTree:
    case Method::kBPlusTree:
    case Method::kFullCss:
    case Method::kLevelCss: {
      const char* row_name =
          spec.method() == Method::kTTree      ? "T-tree"
          : spec.method() == Method::kBPlusTree ? "B+-tree"
          : spec.method() == Method::kFullCss   ? "full CSS-tree"
                                                : "level CSS-tree";
      auto rows = analytic::TimeModel(p, spec.node_entries());
      for (const auto& r : rows) {
        if (r.method == row_name) {
          d.comparisons = r.comparisons;
          d.misses = r.cache_misses;
          d.moves = r.moves;
          d.modeled = true;
          return d;
        }
      }
      return d;
    }
  }
  return d;
}

/// Index bytes beyond the sorted array, per the Figure 7 formulas.
double MethodSpace(const IndexSpec& spec, double n, double key_width,
                   const AdvisorOptions& opts) {
  analytic::Params p;
  p.K = key_width;
  p.n = n;
  p.c = opts.line_bytes;
  double m = spec.node_entries();
  switch (spec.method()) {
    case Method::kBinarySearch:
    case Method::kInterpolation:
      return 0.0;
    case Method::kTreeBinarySearch:
      return n * key_width;  // the array copied into tree order
    case Method::kTTree:
      return analytic::TTreeSpaceIndirect(p, m);
    case Method::kBPlusTree:
      return analytic::BPlusSpace(p, m);
    case Method::kFullCss:
      return analytic::FullCssSpace(p, m);
    case Method::kLevelCss:
      return analytic::LevelCssSpace(p, m);
    case Method::kHash: {
      // ChainedHashIndex: one cache-line Bucket (7 pairs) per directory
      // slot, plus overflow buckets once the average chain outgrows its
      // directory line.
      const double kPairsPerBucket = (64.0 - 8.0) / 8.0;
      double dir = std::ldexp(1.0, spec.hash_dir_bits());
      double overflow = std::max(0.0, n / kPairsPerBucket - dir);
      return 64.0 * (dir + overflow);
    }
  }
  return 0.0;
}

/// Cost of one line of the fresh directory a hash rebuild allocates: the
/// initializing writes plus a share of a first-touch page fault (about
/// 2 us per 4 KB page of 64 lines on a VM). Replaying advisor_test's
/// update-heavy refreshes, part:16/hash:16 less part:16/hash:12 (the
/// directory difference) read 25-41x a part:16/css:16 refresh; this
/// weight models it at 33x.
constexpr double kDirectoryLineNs = 40.0;

double Ns(const DescentCost& d, const AdvisorOptions& opts) {
  return d.misses * opts.miss_ns + d.comparisons * opts.comparison_ns +
         d.moves * opts.move_ns;
}

/// How many times slower `method`'s descent runs when the node search
/// dispatches to the scalar kernels (no SIMD path on this CPU, or
/// CSSIDX_FORCE_SCALAR) than the SIMD kernels the weights above price:
/// the search in each node becomes log2(m) dependent, mispredict-prone
/// branches instead of one vector compare. Measured with FindBatch of
/// 4,096 probes over 100K-10M u32 keys, AVX2 build against
/// CSSIDX_FORCE_SCALAR=1, 4-vCPU VM: CSS descents read 2.3x at 10M keys
/// and 3.3-5.5x in cache, and are charged the smallest reading; B+-tree
/// and T-tree descents read 1.0-1.6x (1.3-1.6x on advisor_test's
/// update-heavy cycle) and are charged 1.35x. Methods without a node
/// search do not dispatch, and hash's bucket scan sits behind its two
/// line misses.
double ScalarNodeSearchSlowdown(Method method) {
  if (ActiveNodeSearchPath() != NodeSearchPath::kScalar) return 1.0;
  switch (method) {
    case Method::kFullCss:
    case Method::kLevelCss:
      return 2.3;
    case Method::kBPlusTree:
    case Method::kTTree:
      return 1.35;
    default:
      return 1.0;
  }
}

}  // namespace

ScoredSpec ScoreSpec(const IndexSpec& spec, const WorkloadProfile& profile,
                     size_t n, const AdvisorOptions& opts) {
  ScoredSpec s;
  s.spec = spec;
  const double nn = static_cast<double>(n);
  const double width = opts.key_width;
  const int K = spec.partitioned() ? spec.partitions() : 0;

  // --- Probe cost: descend the (inner) structure, weighted by the mix.
  double inner_n = K > 0 ? nn / K : nn;
  DescentCost point = MethodDescent(spec, inner_n, width, opts);
  double point_ns = Ns(point, opts) * ScalarNodeSearchSlowdown(spec.method());
  if (K > 0) {
    // The fence table is the first level of one lockstep descent: a
    // branch-free count over K - 1 cached fences, then the probe joins
    // the same group probe a bare tree runs, over a shard's smaller tree
    // (inner_n above). So the tax is the fence level's comparisons
    // alone: bench_batch_lookup's part:K rows read a median 0.97-1.22x
    // the bare css:16 batched ns ("vs_bare", 25 runs of the CI command),
    // not the extra line fetch the old per-shard sub-batches cost.
    point_ns += std::log2(std::max(2, K)) * opts.comparison_ns;
  }
  // A range probe is a LowerBound descent plus an adjacency scan (ordered)
  // or a Find + bucket re-walk (hash).
  double range_ns = point_ns * (spec.ordered() ? 1.3 : 1.6);
  double range_frac = profile.RangeFraction();
  double probe_ns = point_ns * (1.0 - range_frac) + range_ns * range_frac;

  // Misses descend the full structure too (every method here resolves a
  // miss with the same descent; hash walks its whole chain either way),
  // so the hit fraction does not change the per-probe model — it matters
  // to the microbench, which replays it.

  // @tN: shards each large batch. Only batches big enough to shard gain.
  int threads = spec.probe_threads();
  if (threads > 1 && profile.MeanBatch() >= kParallelProbeMinShard) {
    probe_ns /= 1.0 + opts.thread_efficiency * (threads - 1);
  }
  s.probe_ns = probe_ns;

  // --- Maintenance cost, amortized over observed probes. Full rebuild
  // touches n keys; part:K re-merges only the shards the batch span
  // touches (the whole point of the fence-table refresh path).
  if (profile.update_batches > 0) {
    double rebuilt = 1.0;  // structures rebuilt per batch
    if (K > 0) {
      double span = profile.MeanUpdateSpanFraction();
      rebuilt = std::clamp(std::ceil(span * K) + 1.0, 1.0,
                           static_cast<double>(K));
    }
    const double touched_keys = K > 0 ? rebuilt * (nn / K) : nn;
    double per_key = opts.rebuild_ns_per_key;
    // Hash rebuilds by re-inserting every key into random bucket lines
    // (~an order of magnitude over the sequential merge+rebuild path);
    // T-tree allocates and links pointer nodes.
    if (spec.method() == Method::kHash) per_key *= 8.0;
    if (spec.method() == Method::kTTree) per_key *= 4.0;
    double batch_ns = touched_keys * per_key;
    // Every rebuilt hash table (each touched shard of a part:K/hash:b)
    // also gets a fresh directory of 2^b bucket lines, whatever its key
    // count: at b = 16 a 6,250-key shard's directory costs several times
    // its keys.
    if (spec.method() == Method::kHash) {
      batch_ns += rebuilt * std::ldexp(1.0, spec.hash_dir_bits()) *
                  kDirectoryLineNs;
    }
    double probes = std::max<uint64_t>(profile.TotalProbes(), 1);
    s.update_ns = batch_ns * profile.update_batches / probes;
  }

  // --- Space, against the budget. Every part:K shard builds its own
  // inner index over its inner_n keys, so a per-shard fixed cost (a
  // hash directory) is paid K times.
  s.space_bytes = MethodSpace(spec, inner_n, width, opts);
  if (K > 0) s.space_bytes = K * (s.space_bytes + width + 16.0);  // + fences
  s.over_budget = opts.space_budget_bytes != 0 &&
                  s.space_bytes > static_cast<double>(opts.space_budget_bytes);

  s.cost_ns = s.probe_ns + s.update_ns;
  return s;
}

std::vector<IndexSpec> CandidateMenu(const AdvisorOptions& opts) {
  std::vector<IndexSpec> menu;
  auto add = [&](IndexSpec spec) {
    spec = spec.WithKeyWidth(opts.key_width);
    if (!spec.OnMenu()) return;
    menu.push_back(spec);
    // part:K wraps — the update-locality play.
    for (int k : {4, 16}) {
      IndexSpec part = spec.WithPartitions(k);
      if (part.OnMenu()) menu.push_back(part);
    }
  };
  add(IndexSpec(Method::kBinarySearch));
  add(IndexSpec(Method::kTreeBinarySearch));
  add(IndexSpec(Method::kInterpolation));
  for (Method m : {Method::kTTree, Method::kBPlusTree, Method::kFullCss,
                   Method::kLevelCss}) {
    for (int entries : NodeSizeMenu()) {
      add(IndexSpec(m, entries));
    }
  }
  if (!opts.need_ordered_access) {
    for (int bits : {16, 18, 20, 22}) {
      add(IndexSpec(Method::kHash, bits));
    }
  }
  // @tN variants: one per hardware width; pointless (and never
  // recommended) on a single-core box.
  if (opts.hardware_threads > 1) {
    size_t base = menu.size();
    for (size_t i = 0; i < base; ++i) {
      IndexSpec threaded = menu[i].WithProbeThreads(opts.hardware_threads);
      if (threaded.OnMenu()) menu.push_back(threaded);
    }
  }
  return menu;
}

Recommendation Advise(const WorkloadProfile& profile, size_t n,
                      const AdvisorOptions& opts) {
  Recommendation rec;
  rec.profile = profile;
  if (opts.key_width != 4 && opts.key_width != 8) {
    rec.error = "advisor: key_width must be 4 or 8";
    return rec;
  }
  std::vector<IndexSpec> menu = CandidateMenu(opts);
  if (opts.need_ordered_access || profile.lower_bound_probes > 0) {
    // The workload (or the caller) needs ordered positions; hash's
    // LowerBound degenerates to size().
    std::erase_if(menu, [](const IndexSpec& s) { return !s.ordered(); });
  }
  if (profile.UpdateRate() < 0.001) {
    // part:K earns its keep through shard-incremental maintenance. With
    // no observed update traffic the modeled probe margins between K
    // values, and between part:K and the bare tree, sit below
    // measurement noise, so keep composites off a probe-only menu.
    std::erase_if(menu, [](const IndexSpec& s) { return s.partitioned(); });
  }
  for (const IndexSpec& spec : menu) {
    ScoredSpec scored = ScoreSpec(spec, profile, n, opts);
    (scored.over_budget ? rec.over_budget : rec.ranked).push_back(scored);
  }
  auto by_cost = [](const ScoredSpec& a, const ScoredSpec& b) {
    return a.cost_ns < b.cost_ns;
  };
  std::sort(rec.ranked.begin(), rec.ranked.end(), by_cost);
  std::sort(rec.over_budget.begin(), rec.over_budget.end(), by_cost);
  if (rec.ranked.empty()) {
    rec.error = "advisor: no spec on the menu fits the space budget";
    return rec;
  }
  // Modeled margins under ~10% are below what the weights can resolve;
  // within that band §7's stepped line says take the cheaper step — the
  // smallest structure wins the tie (it is also the cache-kindest).
  {
    size_t winner = 0;
    const double band = rec.ranked.front().cost_ns * 1.10;
    for (size_t i = 1; i < rec.ranked.size(); ++i) {
      if (rec.ranked[i].cost_ns > band) break;
      if (rec.ranked[i].space_bytes < rec.ranked[winner].space_bytes) {
        winner = i;
      }
    }
    if (winner != 0) {
      std::rotate(rec.ranked.begin(), rec.ranked.begin() + winner,
                  rec.ranked.begin() + winner + 1);
    }
  }
  rec.ok = true;
  rec.spec = rec.ranked.front().spec;

  char buf[512];
  const ScoredSpec& best = rec.ranked.front();
  std::snprintf(
      buf, sizeof(buf),
      "%s: modeled %.0f ns/probe (%.0f probe + %.0f update) using %.1f MB; "
      "observed %llu probes (%.0f%% range, %.0f%% hit, mean batch %.0f), "
      "%llu update batches (%.2f updates/probe, span %.2f)",
      rec.spec.ToString().c_str(), best.cost_ns, best.probe_ns, best.update_ns,
      best.space_bytes / 1e6,
      static_cast<unsigned long long>(profile.TotalProbes()),
      100.0 * profile.RangeFraction(), 100.0 * profile.HitFraction(),
      profile.MeanBatch(),
      static_cast<unsigned long long>(profile.update_batches),
      profile.UpdateRate(), profile.MeanUpdateSpanFraction());
  rec.rationale = buf;
  return rec;
}

namespace {

/// Replays the profile's mix as a probe stream: hit_fraction matching
/// draws, the rest keys absent from the array (rejection-sampled).
template <typename KeyT>
std::vector<KeyT> ReplayProbes(std::span<const KeyT> sorted_keys, size_t count,
                               double hit_fraction, uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<KeyT> probes;
  probes.reserve(count);
  const size_t n = sorted_keys.size();
  for (size_t i = 0; i < count; ++i) {
    bool hit = rng.NextDouble() < hit_fraction;
    if (hit && n > 0) {
      probes.push_back(sorted_keys[rng.Below(n)]);
      continue;
    }
    KeyT k = 0;
    for (int attempt = 0; attempt < 64; ++attempt) {
      k = static_cast<KeyT>(rng.Next64());
      if (!std::binary_search(sorted_keys.begin(), sorted_keys.end(), k)) {
        break;
      }
    }
    probes.push_back(k);
  }
  return probes;
}

/// Best-of-repeats ns/probe for `spec` built over `sorted_keys`, replaying
/// the profile's point/range mix. Returns a negative value if the spec
/// fails to build.
template <typename KeyT>
double MicrobenchSpec(const IndexSpec& spec, std::span<const KeyT> sorted_keys,
                      const WorkloadProfile& profile,
                      const AdvisorOptions& opts) {
  BasicAnyIndex<KeyT> index =
      BuildIndexT<KeyT>(spec, sorted_keys.data(), sorted_keys.size());
  if (!index) return -1.0;
  size_t count = std::max<size_t>(opts.microbench_probes, 1);
  std::vector<KeyT> probes =
      ReplayProbes(sorted_keys, count, profile.HitFraction(), /*seed=*/42);
  size_t range_count =
      static_cast<size_t>(profile.RangeFraction() * count + 0.5);
  size_t point_count = count - range_count;
  std::vector<int64_t> found(point_count);
  std::vector<PositionRange> ranges(range_count);
  size_t batch = std::clamp<size_t>(
      static_cast<size_t>(profile.MeanBatch() + 0.5), 1, count);

  auto run_once = [&]() {
    auto t0 = std::chrono::steady_clock::now();
    if (point_count > 0) {
      FindBlocked<KeyT>(index, std::span<const KeyT>(probes).first(point_count),
                        batch, found);
    }
    if (range_count > 0) {
      EqualRangeBlocked<KeyT>(index,
                              std::span<const KeyT>(probes).last(range_count),
                              batch, ranges);
    }
    auto t1 = std::chrono::steady_clock::now();
    uint64_t sink = 0;
    for (size_t i = 0; i < std::min<size_t>(point_count, 64); ++i) {
      sink += static_cast<uint64_t>(found[i]);
    }
    for (size_t i = 0; i < std::min<size_t>(range_count, 64); ++i) {
      sink += ranges[i].begin;
    }
    g_advisor_sink = g_advisor_sink + sink;
    return std::chrono::duration<double, std::nano>(t1 - t0).count();
  };

  run_once();  // warmup: faults pages, warms caches and the branch state
  double best = run_once();
  for (int r = 1; r < std::max(opts.microbench_repeats, 1); ++r) {
    best = std::min(best, run_once());
  }
  return best / count;
}

}  // namespace

template <typename KeyT>
Recommendation AdviseOnKeys(const WorkloadProfile& profile,
                            std::span<const KeyT> sorted_keys,
                            const AdvisorOptions& opts) {
  AdvisorOptions fixed = opts;
  fixed.key_width = static_cast<int>(sizeof(KeyT));
  Recommendation rec = Advise(profile, sorted_keys.size(), fixed);
  if (!rec.ok || !fixed.microbench || rec.ranked.size() < 2) return rec;

  size_t top = std::min<size_t>(std::max(fixed.microbench_top, 2),
                                rec.ranked.size());
  bool any = false;
  for (size_t i = 0; i < top; ++i) {
    double ns = MicrobenchSpec(rec.ranked[i].spec, sorted_keys, profile,
                               fixed);
    if (ns >= 0) {
      rec.ranked[i].measured_ns = ns;
      any = true;
    }
  }
  if (!any) return rec;
  std::stable_sort(rec.ranked.begin(), rec.ranked.begin() + top,
                   [](const ScoredSpec& a, const ScoredSpec& b) {
                     // Measured beats modeled; unmeasured keep model order.
                     if (a.measured_ns >= 0 && b.measured_ns >= 0) {
                       return a.measured_ns < b.measured_ns;
                     }
                     return false;
                   });
  rec.spec = rec.ranked.front().spec;
  rec.rationale += "; microbench re-ranked top candidates";
  return rec;
}

template Recommendation AdviseOnKeys<Key>(const WorkloadProfile&,
                                          std::span<const Key>,
                                          const AdvisorOptions&);
template Recommendation AdviseOnKeys<Key64>(const WorkloadProfile&,
                                            std::span<const Key64>,
                                            const AdvisorOptions&);

}  // namespace cssidx::advisor
