// Scalar vs batched vs *parallel* probe throughput across the suite, the
// operational payoff of the batch-first AnyIndex contract: group probing +
// software prefetch overlap the per-probe cache misses the paper counts
// (§5) within one core, and sharding a large probe span across a thread
// pool (ProbeOptions / the "@tN" spec suffix) multiplies that by the
// memory-level parallelism of the other cores.
//
// Sweeps batch sizes 1..1024 for every method (threads = 1, the PR-1
// table), then sweeps thread counts over the whole lookup set as a single
// batch, and emits the standard table/CSV plus a JSON file (default
// BENCH_batch_lookup.json) so the perf trajectory can track both batch
// throughput and thread scaling run over run.
//
// --range additionally sweeps the batched range probes: scalar EqualRange
// (the pre-batch duplicate-expansion path, one probe per virtual call) vs
// EqualRangeBatch at the same batch sizes, recorded in a "range_probes"
// JSON block that the baseline gate in tools/bench_gates.json
// (batch_speedup_vs_baseline) checks alongside the point-probe rows.
//
// --part additionally sweeps range-partitioned specs (part:K/css:16 for
// K in {2,4,8,16}): the same scalar-vs-batched comparison through the
// composite's fence routing and per-shard kernels, recorded in a
// "partitioned" JSON block under the same regression gate. Comparing a
// part:K row against the css:16 row of the main table shows the routing
// overhead directly; the per-row speedup shows the group-probing payoff
// surviving the composite.
//
// --update measures the maintenance path: applying a LOCALIZED update
// batch (confined to ~1/16 of the key range, so a part:16 spec touches
// 1-2 shards) as a full from-scratch rebuild (merge + BuildIndex, the
// paper's model) vs MaintainedIndex::ApplyBatch (shard-incremental for
// part:K, snapshot-published either way), in refreshed keys/s across
// batch fractions. Recorded in a "maintenance" JSON block whose speedup
// column is incremental-vs-full — in the baseline gate, plus an absolute
// floor for part:* rows (gate maintenance_part_speedup).
//
//   $ ./bench_batch_lookup [--n=10000000] [--lookups=1000000]
//                          [--threads=1,2,4,8] [--json=...] [--quick]
//                          [--range] [--part] [--update]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
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
void AddSpeedupRow(bench::Report& report, std::string_view block,
                   const std::string& spec, size_t batch, double scalar_ns,
                   double batched_ns) {
  report.AddRow(block)
      .Set("spec", spec)
      .Set("batch", batch)
      .Set("threads", 1)
      .Set("scalar_ns_per_probe", scalar_ns)
      .Set("batched_ns_per_probe", batched_ns)
      .Set("speedup", scalar_ns / batched_ns);
}

/// The same row, also shown in a table whose columns are exactly the
/// row's: spec, batch, scalar ns, batched ns, speedup.
void AddSpeedupRow(bench::Table& table, bench::Report& report,
                   std::string_view block, const std::string& spec,
                   size_t batch, double scalar_ns, double batched_ns) {
  table.AddRow({spec, std::to_string(batch), bench::Table::Num(scalar_ns, 4),
                bench::Table::Num(batched_ns, 4),
                bench::Table::Num(scalar_ns / batched_ns, 3)});
  AddSpeedupRow(report, block, spec, batch, scalar_ns, batched_ns);
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

}  // namespace

int main(int argc, char** argv) {
  auto options = bench::Options::Parse(argc, argv);
  CliArgs args(argc, argv);
  size_t n = options.n != 0 ? options.n
                            : (options.quick ? 1'000'000 : 10'000'000);
  std::string json_path =
      args.GetString("json", "BENCH_batch_lookup.json");
  std::vector<int> thread_sweep = ParseThreadList(
      args.GetString("threads", options.quick ? "1,4" : "1,2,4,8"));
  bool range_mode = args.GetBool("range");
  bool part_mode = args.GetBool("part");
  bool update_mode = args.GetBool("update");

  bench::PrintHeader(
      "batch_lookup",
      "scalar Find loop vs FindBatch (group probing + prefetch) vs "
      "thread-sharded FindBatch, n=" + std::to_string(n),
      options);

  auto keys = workload::DistinctSortedKeys(n, options.seed, 4);
  auto lookups = workload::MatchingLookups(keys, options.lookups,
                                           options.seed + 1);
  bench::Report report("batch_lookup", n);
  report.header()
      .Set("lookups", lookups.size())
      .Set("repeats", options.repeats);

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

  bench::Table table({"spec", "batch", "scalar ns/probe", "batched ns/probe",
                      "speedup"});
  bench::Table range_table({"spec", "batch", "scalar ns/probe",
                            "batched ns/probe", "speedup"});
  bench::Table scaling_table({"spec", "threads", "batch", "ns/probe",
                              "Mprobes/s", "Mprobes/s/thread", "scaling"});
  for (const std::string& text : spec_texts) {
    IndexSpec spec = *IndexSpec::Parse(text);
    AnyIndex index = BuildIndex(spec, keys);
    // Scalar baseline: one virtual probe per key, no miss overlap.
    double scalar_sec =
        bench::MinFindSeconds(index, lookups, options.repeats);
    double scalar_ns =
        scalar_sec / static_cast<double>(lookups.size()) * 1e9;
    for (size_t batch : batches) {
      double batch_sec =
          bench::MinFindBatchSeconds(index, lookups, batch, options.repeats);
      double batch_ns =
          batch_sec / static_cast<double>(lookups.size()) * 1e9;
      AddSpeedupRow(table, report, "results", spec.ToString(), batch,
                    scalar_ns, batch_ns);
    }

    if (range_mode) {
      // Range probes: scalar EqualRange loop (one duplicate run per
      // virtual call — the old duplicate-expansion path) vs EqualRangeBatch
      // at the same batch sizes. Both bounds of every run descend through
      // the group-probing kernel, so the batched-vs-scalar ratio measures
      // the same miss overlap as the point-probe table, on twice the
      // descents per probe.
      double range_scalar_sec =
          bench::MinEqualRangeScalarSeconds(index, lookups, options.repeats);
      double range_scalar_ns =
          range_scalar_sec / static_cast<double>(lookups.size()) * 1e9;
      for (size_t batch : batches) {
        double range_batch_sec = bench::MinEqualRangeBatchSeconds(
            index, lookups, batch, options.repeats);
        double range_batch_ns =
            range_batch_sec / static_cast<double>(lookups.size()) * 1e9;
        AddSpeedupRow(range_table, report, "range_probes", spec.ToString(),
                      batch, range_scalar_ns, range_batch_ns);
      }
    }

    // Thread scaling: the whole lookup set as one batch (every shard is
    // then >= min_shard as long as lookups/threads allows), one row per
    // requested thread count, scaling relative to a genuine t=1 baseline
    // (measured even when 1 is not in the sweep, so "scaling_vs_t1" means
    // what it says for a --threads=2,4,8 run).
    size_t big_batch = lookups.size();
    bench::BatchTiming t1_timing = bench::MinFindBatchTiming(
        index, lookups, big_batch, options.repeats,
        ProbeOptions{.threads = 1, .pool = &pool});
    double t1_aggregate = t1_timing.AggregateMProbesPerSec();
    for (int threads : thread_sweep) {
      ProbeOptions probe_opts{.threads = threads, .pool = &pool};
      bench::BatchTiming timing =
          threads == 1 ? t1_timing
                       : bench::MinFindBatchTiming(index, lookups, big_batch,
                                                   options.repeats,
                                                   probe_opts);
      double scaling =
          t1_aggregate > 0 ? timing.AggregateMProbesPerSec() / t1_aggregate
                           : 1.0;
      report.AddRow("thread_scaling")
          .Set("spec", spec.ToString())
          .Set("threads", threads)
          .Set("batch", big_batch)
          .Set("ns_per_probe", timing.NsPerProbe())
          .Set("mprobes_per_sec", timing.AggregateMProbesPerSec())
          .Set("mprobes_per_sec_per_thread", timing.PerThreadMProbesPerSec())
          .Set("scaling_vs_t1", scaling);
      scaling_table.AddRow(
          {spec.ToString(), std::to_string(threads),
           std::to_string(big_batch),
           bench::Table::Num(timing.NsPerProbe(), 4),
           bench::Table::Num(timing.AggregateMProbesPerSec(), 4),
           bench::Table::Num(timing.PerThreadMProbesPerSec(), 4),
           bench::Table::Num(scaling, 3)});
    }
  }
  // Partitioned sweep: the composite's fence routing + per-shard kernels
  // under the same scalar-vs-batched comparison as the main table.
  bench::Table part_table({"spec", "batch", "scalar ns/probe",
                           "batched ns/probe", "speedup"});
  if (part_mode) {
    std::vector<std::string> part_texts{"part:2/css:16", "part:4/css:16",
                                        "part:8/css:16", "part:16/css:16"};
    if (options.quick) part_texts = {"part:4/css:16"};
    for (const std::string& text : part_texts) {
      IndexSpec spec = *IndexSpec::Parse(text);
      AnyIndex index = BuildIndex(spec, keys);
      double scalar_sec =
          bench::MinFindSeconds(index, lookups, options.repeats);
      double scalar_ns =
          scalar_sec / static_cast<double>(lookups.size()) * 1e9;
      for (size_t batch : batches) {
        double batch_sec = bench::MinFindBatchSeconds(index, lookups, batch,
                                                      options.repeats);
        double batch_ns =
            batch_sec / static_cast<double>(lookups.size()) * 1e9;
        AddSpeedupRow(part_table, report, "partitioned", spec.ToString(),
                      batch, scalar_ns, batch_ns);
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
  bench::Table simd_table({"spec", "batch", "scalar-unrolled ns/probe",
                           "simd ns/probe", "speedup"});
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
      double scalar_sec = bench::MinFindBatchSeconds(index, lookups,
                                                     simd_batch,
                                                     options.repeats);
      SetNodeSearchPath(widest);
      double simd_sec = bench::MinFindBatchSeconds(index, lookups, simd_batch,
                                                   options.repeats);
      double scalar_ns = scalar_sec / static_cast<double>(lookups.size()) * 1e9;
      double simd_ns = simd_sec / static_cast<double>(lookups.size()) * 1e9;
      AddSpeedupRow(simd_table, report, "simd", spec.ToString(), simd_batch,
                    scalar_ns, simd_ns);
    }
  }

  // Key-width sweep (§5's K parameter): css:16 (4-byte keys, m=16) vs
  // css64:8 (8-byte keys, m=8) at the same one-cache-line node budget,
  // probing the same logical key set widened past 2^32. Alongside the
  // probe timings the block records each directory's bytes, and the
  // measured 8-byte/4-byte space ratio next to the analytic model's
  // (nK^2/sc, so (8/4)^2 = 4 exactly at fixed sc) — gated against each
  // other by the key_width_space_model gate.
  bench::Table width_table({"spec", "K", "batch", "scalar ns/probe",
                            "batched ns/probe", "speedup", "directory"});
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
    double scalar32 =
        bench::MinFindSeconds(index32, lookups, options.repeats) /
        static_cast<double>(lookups.size()) * 1e9;
    double batched32 =
        bench::MinFindBatchSeconds(index32, lookups, width_batch,
                                   options.repeats) /
        static_cast<double>(lookups.size()) * 1e9;
    AddSpeedupRow(report, "key_width", spec32.ToString(), width_batch,
                  scalar32, batched32);
    width_table.AddRow({spec32.ToString(), "4", std::to_string(width_batch),
                        bench::Table::Num(scalar32, 4),
                        bench::Table::Num(batched32, 4),
                        bench::Table::Num(scalar32 / batched32, 3),
                        bench::Table::Bytes(width_space32)});

    IndexSpec spec64 = *IndexSpec::Parse("css64:8");
    AnyIndex64 index64 = BuildIndex64(spec64, keys64);
    width_space64 = static_cast<double>(index64.SpaceBytes());
    double scalar64 =
        bench::MinFindSeconds<Key64>(index64, lookups64, options.repeats) /
        static_cast<double>(lookups64.size()) * 1e9;
    double batched64 =
        bench::MinFindBatchSeconds<Key64>(index64, lookups64, width_batch,
                                          options.repeats) /
        static_cast<double>(lookups64.size()) * 1e9;
    AddSpeedupRow(report, "key_width", spec64.ToString(), width_batch,
                  scalar64, batched64);
    width_table.AddRow({spec64.ToString(), "8", std::to_string(width_batch),
                        bench::Table::Num(scalar64, 4),
                        bench::Table::Num(batched64, 4),
                        bench::Table::Num(scalar64 / batched64, 3),
                        bench::Table::Bytes(width_space64)});
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
  // localized batch, in refreshed keys per second (the whole index is
  // live again after each publish, so n / seconds is the service rate of
  // the maintenance path).
  bench::Table update_table({"spec", "batch keys", "full Mkeys/s",
                             "incremental Mkeys/s", "speedup"});
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
        for (int r = 0; r < options.repeats; ++r) {
          Timer timer;
          auto merged = workload::ApplyBatch(keys, batch);
          AnyIndex rebuilt = BuildIndex(spec, merged);
          double sec = timer.Seconds();
          bench::g_sink = bench::g_sink + rebuilt.SpaceBytes() + merged.size();
          if (sec < full_best) full_best = sec;
        }
        // Incremental: one ApplyBatch on a maintained index (fresh per
        // repeat — the batch must always hit the pristine version).
        double incr_best = 1e300;
        for (int r = 0; r < options.repeats; ++r) {
          MaintainedIndex maintained(spec, keys);
          Timer timer;
          maintained.ApplyBatch(batch);
          double sec = timer.Seconds();
          bench::g_sink =
              bench::g_sink + maintained.Snapshot()->index().SpaceBytes();
          if (sec < incr_best) incr_best = sec;
        }
        double full_ns = full_best / static_cast<double>(n) * 1e9;
        double incr_ns = incr_best / static_cast<double>(n) * 1e9;
        // "scalar" is the full rebuild and "batched" the incremental
        // refresh, both in ns per live key; "batch" is the batch's keys.
        AddSpeedupRow(report, "maintenance", spec.ToString(), batch_keys,
                      full_ns, incr_ns);
        update_table.AddRow(
            {spec.ToString(), std::to_string(batch_keys),
             bench::Table::Num(static_cast<double>(n) / full_best / 1e6),
             bench::Table::Num(static_cast<double>(n) / incr_best / 1e6),
             bench::Table::Num(full_best / incr_best, 3)});
      }
    }
  }

  table.Print("batched vs scalar probes, n=" + std::to_string(n));
  if (range_mode) {
    range_table.Print("batched vs scalar EqualRange probes, n=" +
                      std::to_string(n));
  }
  if (part_mode) {
    part_table.Print("range-partitioned specs, batched vs scalar, n=" +
                     std::to_string(n));
  }
  simd_table.Print(
      "SIMD vs scalar-unrolled node search, batched probes (dispatch "
      "path: " +
      std::string(NodeSearchPathName(DetectedNodeSearchPath())) +
      "), n=" + std::to_string(n));
  width_table.Print(
      "key width at a fixed 64B node: measured space ratio " +
      bench::Table::Num(width_measured_ratio, 3) + " vs model " +
      bench::Table::Num(width_model_ratio, 3) + ", n=" + std::to_string(n));
  if (update_mode) {
    update_table.Print(
        "batch maintenance: full rebuild vs incremental refresh "
        "(localized batch), n=" + std::to_string(n));
  }
  scaling_table.Print(
      "thread-sharded FindBatch scaling, n=" + std::to_string(n) +
      ", hardware threads=" + std::to_string(ThreadPool::HardwareThreads()));

  return report.Write(json_path) ? 0 : 1;
}
