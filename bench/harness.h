#ifndef CSSIDX_BENCH_HARNESS_H_
#define CSSIDX_BENCH_HARNESS_H_

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/any_index.h"
#include "core/index.h"
#include "util/cli.h"
#include "util/timer.h"

// Shared scaffolding for the figure-reproduction benches.
//
// Measurement protocol follows §6.1: lookup keys are generated in advance,
// each timing is the wall-clock for the whole batch of successful random
// lookups, each configuration is repeated and the *minimum* is reported.
// Results feed a `volatile` sink so the optimizer cannot delete the loop.

namespace cssidx::bench {

/// Defeats dead-code elimination of the measured lookups.
extern volatile uint64_t g_sink;

/// Common command-line knobs. Every bench accepts:
///   --n=<rows> --lookups=<count> --repeats=<r> --quick --seed=<s> --full
struct Options {
  size_t n = 0;          // 0 = bench-specific default
  size_t lookups = 100'000;
  int repeats = 3;
  bool quick = false;    // trim sweeps for smoke runs
  bool full = false;     // paper-scale sweeps (minutes)
  uint64_t seed = 17;

  static Options Parse(int argc, char** argv);
};

/// Minimum wall-clock seconds over `repeats` runs of the full lookup batch
/// using Find (successful exact-match lookups, the paper's workload).
/// KeyT is non-deduced (defaults to Key), matching FindBlocked: 8-byte
/// callers write MinFindSeconds<Key64>(index64, ...).
template <typename KeyT = Key, typename IndexT>
double MinFindSeconds(const IndexT& index, const std::vector<KeyT>& lookups,
                      int repeats) {
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    uint64_t sum = 0;
    Timer timer;
    for (KeyT k : lookups) {
      sum += static_cast<uint64_t>(index.Find(k));
    }
    double sec = timer.Seconds();
    g_sink = g_sink + sum;
    if (sec < best) best = sec;
  }
  return best;
}

/// Minimum wall-clock seconds over `repeats` runs of the full lookup set
/// issued through FindBatch in blocks of `batch` probes. Works for AnyIndex
/// and for any template with a span-based FindBatch.
template <typename KeyT = Key, typename IndexT>
double MinFindBatchSeconds(const IndexT& index,
                           const std::vector<KeyT>& lookups, size_t batch,
                           int repeats) {
  std::vector<int64_t> out(lookups.size());
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    Timer timer;
    FindBlocked<KeyT>(index, lookups, batch, out);
    double sec = timer.Seconds();
    uint64_t sum = 0;
    for (int64_t v : out) sum += static_cast<uint64_t>(v);
    g_sink = g_sink + sum;
    if (sec < best) best = sec;
  }
  return best;
}

/// Minimum wall-clock seconds over `repeats` runs of the full lookup set
/// probed one scalar EqualRange at a time (a batch of one through the
/// virtual hop) — the pre-batch duplicate-expansion path.
template <typename KeyT = Key, typename IndexT>
double MinEqualRangeScalarSeconds(const IndexT& index,
                                  const std::vector<KeyT>& lookups,
                                  int repeats) {
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    uint64_t sum = 0;
    Timer timer;
    for (KeyT k : lookups) {
      PositionRange range = index.EqualRange(k);
      sum += range.begin + range.end;
    }
    double sec = timer.Seconds();
    g_sink = g_sink + sum;
    if (sec < best) best = sec;
  }
  return best;
}

/// Minimum wall-clock seconds over `repeats` runs of the full lookup set
/// issued through EqualRangeBatch in blocks of `batch` probes.
template <typename KeyT = Key, typename IndexT>
double MinEqualRangeBatchSeconds(const IndexT& index,
                                 const std::vector<KeyT>& lookups,
                                 size_t batch, int repeats) {
  std::vector<PositionRange> out(lookups.size());
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    Timer timer;
    EqualRangeBlocked<KeyT>(index, lookups, batch,
                           std::span<PositionRange>(out));
    double sec = timer.Seconds();
    uint64_t sum = 0;
    for (const PositionRange& range : out) sum += range.begin + range.end;
    g_sink = g_sink + sum;
    if (sec < best) best = sec;
  }
  return best;
}

/// One batched-probe measurement, carrying the thread count it ran with so
/// reports can show both views: aggregate throughput (what the machine
/// delivered) and per-thread throughput (what each executor delivered).
/// Multi-thread rows are only comparable to threads=1 rows through the
/// per-thread number — aggregate alone hides oversubscription losses.
struct BatchTiming {
  double seconds = 0;
  size_t probes = 0;
  int threads = 1;

  double NsPerProbe() const {
    return probes == 0 ? 0 : seconds / static_cast<double>(probes) * 1e9;
  }
  double AggregateMProbesPerSec() const {
    return seconds == 0 ? 0 : static_cast<double>(probes) / seconds / 1e6;
  }
  double PerThreadMProbesPerSec() const {
    int t = threads > 0 ? threads : 1;
    return AggregateMProbesPerSec() / t;
  }
};

/// MinFindBatchSeconds with an explicit execution policy: minimum
/// wall-clock over `repeats` runs of the lookup set through FindBatch in
/// `batch`-probe blocks, each block sharded per `opts`. The returned
/// timing records the *effective* executor count (opts.threads, with 0
/// resolved to the pool's width) for per-thread throughput.
template <typename KeyT = Key, typename IndexT>
BatchTiming MinFindBatchTiming(const IndexT& index,
                               const std::vector<KeyT>& lookups, size_t batch,
                               int repeats, const ProbeOptions& opts) {
  std::vector<int64_t> out(lookups.size());
  BatchTiming timing;
  timing.probes = lookups.size();
  ThreadPool& pool =
      opts.pool != nullptr ? *opts.pool : ThreadPool::Shared();
  timing.threads = opts.threads > 0 ? opts.threads : pool.workers() + 1;
  timing.seconds = 1e300;
  for (int r = 0; r < repeats; ++r) {
    Timer timer;
    FindBlocked<KeyT>(index, lookups, batch, std::span<int64_t>(out),
                      opts);
    double sec = timer.Seconds();
    uint64_t sum = 0;
    for (int64_t v : out) sum += static_cast<uint64_t>(v);
    g_sink = g_sink + sum;
    if (sec < timing.seconds) timing.seconds = sec;
  }
  return timing;
}

/// Fixed-width text table writer that prints both a human-readable table
/// and machine-readable CSV (prefixed "csv,") so EXPERIMENTS.md and plots
/// can be produced from the same run.
class Table {
 public:
  explicit Table(std::vector<std::string> columns);

  void AddRow(const std::vector<std::string>& cells);
  /// Prints the aligned table to stdout, then the CSV block.
  void Print(const std::string& title) const;

  static std::string Num(double v, int precision = 4);
  static std::string Bytes(double bytes);

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

/// A gated bench's machine-readable output, the one JSON schema that
/// tools/check_bench_regression.py reads: a header of scalar fields, then
/// named blocks of flat rows. The constructor writes the header fields
/// every bench shares (bench, n, hardware_threads, node_search_path). The
/// gates select rows by block and field name only, so a value a gate needs
/// must be a row field (see tools/bench_gates.json).
class Report {
 public:
  /// One flat JSON object; fields are written in the order they are set.
  class Fields {
   public:
    Fields& Set(std::string_view name, std::string_view value);
    Fields& Set(std::string_view name, const char* value) {
      return Set(name, std::string_view(value));
    }
    Fields& Set(std::string_view name, bool value);
    /// Fixed point with `decimals` digits; NaN and infinity become null.
    Fields& Set(std::string_view name, double value, int decimals = 3);
    template <std::integral T>
      requires(!std::same_as<T, bool>)
    Fields& Set(std::string_view name, T value) {
      return SetJson(name, std::to_string(value));
    }

   private:
    friend class Report;
    Fields& SetJson(std::string_view name, std::string_view json);
    std::vector<std::string> fields_;  // each `"name": value`
  };

  Report(std::string_view bench, size_t n);

  Fields& header() { return header_; }
  /// Appends an empty row to `block`. Blocks are written in the order of
  /// their first row. The reference is valid until the next AddRow.
  Fields& AddRow(std::string_view block);

  std::string Json() const;
  /// Writes Json() to `path` and prints "wrote PATH"; prints "cannot
  /// write PATH" and returns false when the file cannot be written.
  bool Write(const std::string& path) const;

 private:
  Fields header_;
  std::vector<std::pair<std::string, std::vector<Fields>>> blocks_;
};

/// Prints the standard bench header (what figure, what parameters).
void PrintHeader(const std::string& figure, const std::string& description,
                 const Options& options);

}  // namespace cssidx::bench

#endif  // CSSIDX_BENCH_HARNESS_H_
