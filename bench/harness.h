#ifndef CSSIDX_BENCH_HARNESS_H_
#define CSSIDX_BENCH_HARNESS_H_

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cachesim/cache_config.h"
#include "core/any_index.h"
#include "core/index.h"
#include "core/index_spec.h"
#include "core/visit_index.h"
#include "util/cli.h"
#include "util/timer.h"

// Shared scaffolding for the benches.
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
///   --json=<path>
struct Options {
  size_t n = 0;          // 0 = not given
  size_t lookups = 100'000;
  int repeats = 3;
  bool quick = false;    // trim sweeps for smoke runs
  bool full = false;     // paper-scale sweeps (minutes)
  uint64_t seed = 17;
  std::string json;      // empty = BENCH_<bench>.json

  static Options Parse(int argc, char** argv);

  /// An explicit --n, else `quick_n` under --quick, else `default_n`.
  size_t N(size_t quick_n, size_t default_n) const {
    return n != 0 ? n : quick ? quick_n : default_n;
  }
};

/// Minimum wall-clock seconds over `repeats` runs of `body`. The body
/// returns a value derived from its results, which feeds g_sink after the
/// clock stops.
template <typename Body>
double MinSeconds(int repeats, Body&& body) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < repeats; ++r) {
    Timer timer;
    const auto result = body();
    const double sec = timer.Seconds();
    g_sink = g_sink + static_cast<uint64_t>(result);
    best = std::min(best, sec);
  }
  return best;
}

/// The paper's workload: one exact-match Find per lookup key, one probe at
/// a time. Returns the sum of the positions for the sink.
template <typename IndexT, typename KeyT>
uint64_t SumFinds(const IndexT& index, const std::vector<KeyT>& lookups) {
  uint64_t sum = 0;
  for (KeyT k : lookups) sum += static_cast<uint64_t>(index.Find(k));
  return sum;
}

/// VisitIndex over `keys` for a spec string. Throws std::invalid_argument
/// when no structure is visited: a text the grammar rejects, or a spec
/// off the menu, partitioned or of the other key width.
template <typename KeyT, typename Fn>
void Visit(std::string_view spec_text, const std::vector<KeyT>& keys,
           Fn&& fn) {
  const std::optional<IndexSpec> spec = IndexSpec::Parse(spec_text);
  if (!spec || !VisitIndex<KeyT>(*spec, keys.data(), keys.size(), fn)) {
    throw std::invalid_argument("no structure for spec " +
                                std::string(spec_text));
  }
}

/// The structure a spec names, timed on the paper's workload (the best of
/// `repeats` SumFinds over `lookups`, non-virtual), and its bytes.
struct FindTiming {
  double seconds = 0;
  size_t bytes = 0;
};
template <typename KeyT>
FindTiming TimeFinds(std::string_view spec, const std::vector<KeyT>& keys,
                     const std::vector<KeyT>& lookups, int repeats) {
  FindTiming timing;
  Visit(spec, keys, [&](const auto& index) {
    timing.seconds =
        MinSeconds(repeats, [&] { return SumFinds(index, lookups); });
    timing.bytes = index.SpaceBytes();
  });
  return timing;
}

/// Misses per lookup of each simulated cache level over `lookups`, replayed
/// through the structure's LowerBoundTraced. Cold flushes the hierarchy
/// before every lookup (the §5 model's assumption); warm keeps it across
/// lookups (§5.1's "top levels stay cached").
struct MissCounts {
  double cold_l1 = 0, cold_l2 = 0, warm_l1 = 0, warm_l2 = 0;
};
MissCounts SimulateMisses(std::string_view spec, const std::vector<Key>& keys,
                          const std::vector<Key>& lookups,
                          const std::vector<cachesim::CacheConfig>& configs);

/// A bench's output, printed as text tables and written as the one JSON
/// schema tools/check_bench_regression.py reads: a header of scalar fields,
/// then named blocks of flat rows. The constructor writes the header
/// fields every bench shares (bench, n, hardware_threads,
/// node_search_path). The gates select rows by block and field name only,
/// so a value a gate needs must be a row field (see
/// tools/bench_gates.json).
class Report {
 public:
  /// One flat row; fields are kept in the order they are set.
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
    struct Field {
      std::string name;
      std::string json;
      std::string text;  // as printed: the value without JSON quoting
    };
    Fields& SetJson(std::string_view name, std::string json,
                    std::string text = "");
    std::vector<Field> fields_;
  };

  Report(std::string_view bench, size_t n);

  Fields& header() { return header_; }
  /// Appends an empty row to `block`. Blocks are kept in the order of
  /// their first row. The reference is valid until the next AddRow.
  Fields& AddRow(std::string_view block);

  std::string Json() const;
  /// Prints the header as `# name: value` lines, then each block as an
  /// aligned table with one column per field, in first-seen order.
  void Print() const;
  /// Writes Json() to `path` and prints "wrote PATH"; prints "cannot
  /// write PATH" and returns false when the file cannot be written.
  bool Write(const std::string& path) const;
  /// Print(), then Write() to --json (default BENCH_<bench>.json).
  bool Emit(const Options& options) const;

 private:
  std::string bench_;
  Fields header_;
  std::vector<std::pair<std::string, std::vector<Fields>>> blocks_;
};

}  // namespace cssidx::bench

#endif  // CSSIDX_BENCH_HARNESS_H_
