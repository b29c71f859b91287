// Scalar vs batched vs *parallel* probe throughput across the suite, the
// operational payoff of the batch-first AnyIndex contract: group probing +
// software prefetch overlap the per-probe cache misses the paper counts
// (§5) within one core, and sharding a large probe span across a thread
// pool (ProbeOptions / the "@tN" spec suffix) multiplies that by the
// memory-level parallelism of the other cores.
//
// Sweeps batch sizes 1..1024 for every method (threads = 1, the PR-1
// table), then sweeps thread counts over the whole lookup set as a single
// batch (for every method, and for part:16/css:16 and part:16/btree:16,
// whose threaded batches the facade splits into probe spans like any
// other: one lockstep descent or one Route per span), and prints and
// writes its report (default BENCH_batch_lookup.json) so the perf
// trajectory can track both batch throughput and thread scaling run over
// run.
//
// --range additionally sweeps the batched range probes: scalar EqualRange
// (the pre-batch duplicate-expansion path, one probe per virtual call) vs
// EqualRangeBatch at the same batch sizes, recorded in a "range_probes"
// JSON block that the baseline gate in tools/bench_gates.json
// (batch_speedup_vs_baseline) checks alongside the point-probe rows.
//
// --part additionally sweeps range-partitioned specs (part:K/css:16 for
// K in {2,4,8,16}): the same scalar-vs-batched comparison through the
// composite's lockstep descent, recorded in a "partitioned" JSON block
// under the same regression gate. Each row's "vs_bare" divides its
// batched ns by the css:16 row's at the same batch, so the routing tax is
// a within-run ratio (gate partitioned_routing_tax); the per-row speedup
// shows the group-probing payoff surviving the composite.
//
// --update measures the maintenance path: applying a LOCALIZED update
// batch (confined to ~1/16 of the key range, so a part:16 spec touches
// 1-2 shards) as a full from-scratch rebuild (merge + BuildIndex, the
// paper's model) vs MaintainedIndex::ApplyBatch (shard-incremental for
// part:K, snapshot-published either way), in refreshed keys/s across
// batch fractions. Recorded in a "maintenance" JSON block whose speedup
// column is incremental-vs-full — in the baseline gate, plus an absolute
// floor for part:* rows (gate maintenance_part_speedup) — and whose
// minor_faults_per_apply counts the pages the refresh first-touches
// (getrusage, fewest over the repeats).
//
//   $ ./bench_batch_lookup [--n=10000000] [--lookups=1000000]
//                          [--threads=1,2,4,8] [--json=...] [--quick]
//                          [--range] [--part] [--update]

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "analytic/space_model.h"
#include "core/builder.h"
#include "core/maintained_index.h"
#include "core/simd_node_search.h"
#include "harness.h"
#include "util/bits.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "workload/batch_update.h"
#include "workload/key_gen.h"
#include "workload/lookup_gen.h"

namespace {

using namespace cssidx;

/// Every speedup block (results, range_probes, partitioned, simd,
/// key_width, maintenance) shares this row schema: the baseline gate keys
/// rows on (block, spec, batch, threads) and compares their "speedup".
/// Returns the row, for a block that adds fields of its own.
bench::Report::Fields& AddSpeedupRow(bench::Report& report,
                                     std::string_view block,
                                     const std::string& spec, size_t batch,
                                     double scalar_ns, double batched_ns) {
  return report.AddRow(block)
      .Set("spec", spec)
      .Set("batch", batch)
      .Set("threads", 1)
      .Set("scalar_ns_per_probe", scalar_ns)
      .Set("batched_ns_per_probe", batched_ns)
      .Set("speedup", scalar_ns / batched_ns);
}

/// This process's minor page faults so far.
long MinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

std::vector<int> ParseThreadList(const std::string& text) {
  std::vector<int> threads;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    threads.push_back(std::atoi(text.substr(pos, comma - pos).c_str()));
    pos = comma + 1;
  }
  threads.erase(std::remove_if(threads.begin(), threads.end(),
                               [](int t) { return t < 1; }),
                threads.end());
  if (threads.empty()) threads.push_back(1);
  return threads;
}

/// Best-of-`repeats` ns per probe of `lookups` through scalar Find.
template <typename KeyT, typename IndexT>
double ScalarNs(const IndexT& index, const std::vector<KeyT>& lookups,
                int repeats) {
  return bench::MinSeconds(repeats,
                           [&] { return bench::SumFinds(index, lookups); }) /
         static_cast<double>(lookups.size()) * 1e9;
}

/// Best-of-`repeats` ns per probe of `lookups` through FindBatch in blocks
/// of `batch` probes, each block run per `opts`.
template <typename KeyT, typename IndexT>
double BatchedNs(const IndexT& index, const std::vector<KeyT>& lookups,
                 size_t batch, int repeats, const ProbeOptions& opts = {}) {
  std::vector<int64_t> out(lookups.size());
  return bench::MinSeconds(repeats,
                           [&] {
                             FindBlocked<KeyT>(index, lookups, batch,
                                               std::span<int64_t>(out), opts);
                             return out.empty() ? 0 : out.back();
                           }) /
         static_cast<double>(lookups.size()) * 1e9;
}

}  // namespace

int main(int argc, char** argv) {
  auto options = bench::Options::Parse(argc, argv);
  CliArgs args(argc, argv);
  const size_t n = options.N(1'000'000, 10'000'000);
  std::vector<int> thread_sweep = ParseThreadList(
      args.GetString("threads", options.quick ? "1,4" : "1,2,4,8"));
  bool range_mode = args.GetBool("range");
  bool part_mode = args.GetBool("part");
  bool update_mode = args.GetBool("update");
  const int repeats = options.repeats;

  auto keys = workload::DistinctSortedKeys(n, options.seed, 4);
  auto lookups = workload::MatchingLookups(keys, options.lookups,
                                           options.seed + 1);
  bench::Report report("batch_lookup", n);
  report.header()
      .Set("lookups", lookups.size())
      .Set("repeats", repeats);

  // Hash directory sized the paper's way: ~n / pairs-per-bucket buckets.
  int hash_bits = std::clamp(CeilLog2(n / 4), 4, 24);

  std::vector<std::string> spec_texts{"bin",     "ttree:16", "btree:16",
                                      "css:16",  "lcss:16",
                                      "hash:" + std::to_string(hash_bits)};
  std::vector<size_t> batches{1, 4, 16, 64, 256, 1024};
  if (options.quick) batches = {1, 64, 1024};

  // A dedicated pool sized to the sweep's widest row, so a request for 8
  // threads fields 8 real executors even on a narrower machine (the rows
  // then honestly show oversubscription instead of silently clamping).
  int max_threads = *std::max_element(thread_sweep.begin(),
                                      thread_sweep.end());
  ThreadPool pool(max_threads - 1);

  // Thread scaling: the whole lookup set as one batch (every span is then
  // >= kParallelProbeMinShard as long as lookups/threads allows), one row per
  // requested thread count, scaling relative to a genuine t=1 baseline
  // (measured even when 1 is not in the sweep, so "scaling_vs_t1" means
  // what it says for a --threads=2,4,8 run).
  auto add_thread_scaling = [&](const IndexSpec& spec, const AnyIndex& index) {
    const size_t big_batch = lookups.size();
    auto threaded_ns = [&](int threads) {
      return BatchedNs(index, lookups, big_batch, repeats,
                       ProbeOptions{.threads = threads, .pool = &pool});
    };
    const double t1_ns = threaded_ns(1);
    for (int threads : thread_sweep) {
      const double ns = threads == 1 ? t1_ns : threaded_ns(threads);
      const double mprobes = 1e3 / ns;
      report.AddRow("thread_scaling")
          .Set("spec", spec.ToString())
          .Set("threads", threads)
          .Set("batch", big_batch)
          .Set("ns_per_probe", ns)
          .Set("mprobes_per_sec", mprobes)
          .Set("mprobes_per_sec_per_thread", mprobes / threads)
          .Set("scaling_vs_t1", t1_ns / ns);
    }
  };

  // css:16's batched ns per probe at each batch size, the bare tree the
  // partitioned rows are read against.
  std::vector<double> bare_css_ns(batches.size());
  for (const std::string& text : spec_texts) {
    IndexSpec spec = *IndexSpec::Parse(text);
    AnyIndex index = BuildIndex(spec, keys);
    // Scalar baseline: one virtual probe per key, no miss overlap.
    const double scalar_ns = ScalarNs(index, lookups, repeats);
    for (size_t b = 0; b < batches.size(); ++b) {
      const double batched_ns = BatchedNs(index, lookups, batches[b], repeats);
      if (text == "css:16") bare_css_ns[b] = batched_ns;
      AddSpeedupRow(report, "results", spec.ToString(), batches[b], scalar_ns,
                    batched_ns);
    }

    if (range_mode) {
      // Range probes: scalar EqualRange loop (one duplicate run per
      // virtual call — the old duplicate-expansion path) vs EqualRangeBatch
      // at the same batch sizes. Both bounds of every run descend through
      // the group-probing kernel, so the batched-vs-scalar ratio measures
      // the same miss overlap as the point-probe table, on twice the
      // descents per probe.
      auto ns_per_probe = [&](auto&& body) {
        return bench::MinSeconds(repeats, body) /
               static_cast<double>(lookups.size()) * 1e9;
      };
      const double range_scalar_ns = ns_per_probe([&] {
        uint64_t sum = 0;
        for (Key k : lookups) {
          PositionRange range = index.EqualRange(k);
          sum += range.begin + range.end;
        }
        return sum;
      });
      std::vector<PositionRange> out(lookups.size());
      for (size_t batch : batches) {
        AddSpeedupRow(report, "range_probes", spec.ToString(), batch,
                      range_scalar_ns, ns_per_probe([&] {
                        EqualRangeBlocked<Key>(index, lookups, batch,
                                               std::span<PositionRange>(out));
                        return out.empty() ? 0 : out.back().end;
                      }));
      }
    }

    add_thread_scaling(spec, index);
  }
  // A threaded part:K batch is split into probe spans by the facade, as a
  // bare tree's is: each span is one lockstep descent over CSS shards, or
  // one Route (bucket per shard, inner kernels, scatter) over B+-tree
  // shards.
  for (const char* text : {"part:16/css:16", "part:16/btree:16"}) {
    const IndexSpec spec = *IndexSpec::Parse(text);
    add_thread_scaling(spec, BuildIndex(spec, keys));
  }
  // Partitioned sweep: the composite's lockstep descent (fence level, then
  // the shards' directories) under the same scalar-vs-batched comparison
  // as the main table. "vs_bare" is the routing tax: part:K batched ns
  // over css:16 batched ns at the same batch, in this run.
  if (part_mode) {
    std::vector<std::string> part_texts{"part:2/css:16", "part:4/css:16",
                                        "part:8/css:16", "part:16/css:16"};
    if (options.quick) part_texts = {"part:4/css:16"};
    for (const std::string& text : part_texts) {
      IndexSpec spec = *IndexSpec::Parse(text);
      AnyIndex index = BuildIndex(spec, keys);
      const double scalar_ns = ScalarNs(index, lookups, repeats);
      for (size_t b = 0; b < batches.size(); ++b) {
        const double batched_ns =
            BatchedNs(index, lookups, batches[b], repeats);
        AddSpeedupRow(report, "partitioned", spec.ToString(), batches[b],
                      scalar_ns, batched_ns)
            .Set("vs_bare", batched_ns / bare_css_ns[b]);
      }
    }
  }

  // SIMD sweep: the same group-probing batched kernel, A/B'd between the
  // forced-scalar unrolled node search and the process's widest SIMD path
  // (simd_node_search.h) via SetNodeSearchPath. Row schema matches the
  // other blocks: "scalar" is the scalar-unrolled batched descent,
  // "batched" the SIMD batched descent, so "speedup" is SIMD-vs-scalar at
  // identical probe plans. On a scalar-only detection (CSSIDX_FORCE_SCALAR
  // or non-x86) both measurements take the same path and speedup pins ~1.
  {
    const NodeSearchPath widest = DetectedNodeSearchPath();
    std::vector<std::string> simd_texts{"css:16", "css:32", "lcss:16",
                                        "btree:16",
                                        "hash:" + std::to_string(hash_bits)};
    if (options.quick) simd_texts = {"css:16"};
    const size_t simd_batch = 256;
    for (const std::string& text : simd_texts) {
      IndexSpec spec = *IndexSpec::Parse(text);
      AnyIndex index = BuildIndex(spec, keys);
      SetNodeSearchPath(NodeSearchPath::kScalar);
      const double scalar_ns = BatchedNs(index, lookups, simd_batch, repeats);
      SetNodeSearchPath(widest);
      const double simd_ns = BatchedNs(index, lookups, simd_batch, repeats);
      AddSpeedupRow(report, "simd", spec.ToString(), simd_batch, scalar_ns,
                    simd_ns);
    }
  }

  // Key-width sweep (§5's K parameter): css:16 (4-byte keys, m=16) vs
  // css64:8 (8-byte keys, m=8) at the same one-cache-line node budget,
  // probing the same logical key set widened past 2^32. Alongside the
  // probe timings the block records each directory's bytes, and the
  // measured 8-byte/4-byte space ratio next to the analytic model's
  // (nK^2/sc, so (8/4)^2 = 4 exactly at fixed sc) — gated against each
  // other by the key_width_space_model gate.
  double width_space32 = 0, width_space64 = 0;
  {
    std::vector<uint64_t> keys64(keys.begin(), keys.end());
    for (auto& k : keys64) k |= (1ull << 40);  // force genuinely wide keys
    std::vector<uint64_t> lookups64(lookups.begin(), lookups.end());
    for (auto& k : lookups64) k |= (1ull << 40);
    const size_t width_batch = 256;

    IndexSpec spec32 = *IndexSpec::Parse("css:16");
    AnyIndex index32 = BuildIndex(spec32, keys);
    width_space32 = static_cast<double>(index32.SpaceBytes());
    AddSpeedupRow(report, "key_width", spec32.ToString(), width_batch,
                  ScalarNs(index32, lookups, repeats),
                  BatchedNs(index32, lookups, width_batch, repeats));

    IndexSpec spec64 = *IndexSpec::Parse("css64:8");
    AnyIndex64 index64 = BuildIndex64(spec64, keys64);
    width_space64 = static_cast<double>(index64.SpaceBytes());
    AddSpeedupRow(report, "key_width", spec64.ToString(), width_batch,
                  ScalarNs(index64, lookups64, repeats),
                  BatchedNs(index64, lookups64, width_batch, repeats));
  }
  // The analytic counterpart of the measured ratio, from the Figure 7
  // formula at this n: both widths fill one cache line, so the ratio is
  // K^2-driven and exactly 4 up to directory rounding.
  analytic::Params params32 = analytic::Table1();
  params32.n = static_cast<double>(n);
  analytic::Params params64 = params32;
  params64.K = 8;
  double width_model_ratio =
      analytic::FullCssSpace(params64, params64.SlotsPerNode()) /
      analytic::FullCssSpace(params32, params32.SlotsPerNode());
  double width_measured_ratio =
      width_space32 > 0 ? width_space64 / width_space32 : 0.0;
  // The space-model gate reads the deviation as a row field.
  report.AddRow("key_width_space")
      .Set("measured_ratio", width_measured_ratio, 4)
      .Set("model_ratio", width_model_ratio, 4)
      .Set("bytes_4", width_space32, 0)
      .Set("bytes_8", width_space64, 0)
      .Set("model_deviation",
           std::abs(width_measured_ratio / width_model_ratio - 1.0), 4);

  // Maintenance sweep: full rebuild vs shard-incremental refresh for a
  // localized batch, in ns per live key (the whole index is live again
  // after each publish, so n / seconds is the service rate of the
  // maintenance path).
  if (update_mode) {
    std::vector<std::string> update_texts{"css:16", "part:16/css:16"};
    std::vector<double> fractions{0.0001, 0.001, 0.01};
    if (options.quick) fractions = {0.001};
    // Confine batches to the first 1/16 of the key range: the locality a
    // part:16 spec converts into 1-2 touched shards.
    uint32_t local_lo = keys.front();
    uint32_t local_hi = keys[keys.size() / 16];
    for (const std::string& text : update_texts) {
      IndexSpec spec = *IndexSpec::Parse(text);
      for (double fraction : fractions) {
        auto batch = workload::RandomBatchInRange(keys, fraction, local_lo,
                                                  local_hi,
                                                  options.seed + 77);
        size_t batch_keys = batch.inserts.size() + batch.deletes.size();
        // Full rebuild: merge the batch, rebuild from scratch — the
        // paper's maintenance model, and what every spec paid before
        // MaintainedIndex.
        double full_best = 1e300;
        for (int r = 0; r < repeats; ++r) {
          Timer timer;
          auto merged = workload::ApplyBatch(keys, batch);
          AnyIndex rebuilt = BuildIndex(spec, merged);
          double sec = timer.Seconds();
          bench::g_sink = bench::g_sink + rebuilt.SpaceBytes() + merged.size();
          if (sec < full_best) full_best = sec;
        }
        // Incremental: one ApplyBatch on a maintained index (fresh per
        // repeat — the batch must always hit the pristine version). Its
        // minor page faults are the pages the refresh first-touches: the
        // buffers it writes.
        double incr_best = 1e300;
        long faults_best = std::numeric_limits<long>::max();
        for (int r = 0; r < repeats; ++r) {
          MaintainedIndex maintained(spec, keys);
          const long faults = MinorFaults();
          Timer timer;
          maintained.ApplyBatch(batch);
          double sec = timer.Seconds();
          faults_best = std::min(faults_best, MinorFaults() - faults);
          bench::g_sink =
              bench::g_sink + maintained.Snapshot()->index().SpaceBytes();
          if (sec < incr_best) incr_best = sec;
        }
        // "scalar" is the full rebuild and "batched" the incremental
        // refresh, both in ns per live key; "batch" is the batch's keys.
        AddSpeedupRow(report, "maintenance", spec.ToString(), batch_keys,
                      full_best / static_cast<double>(n) * 1e9,
                      incr_best / static_cast<double>(n) * 1e9)
            .Set("minor_faults_per_apply", faults_best);
      }
    }
  }
  return report.Emit(options) ? 0 : 1;
}
