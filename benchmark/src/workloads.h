#ifndef CSSBENCH_WORKLOADS_H_
#define CSSBENCH_WORKLOADS_H_

#include <cstdint>
#include <vector>

#include "harness.h"

namespace cssbench {

/// Each workload generates its inputs from config.seed, sets up (timed,
/// repeatedly), warms up, measures one window, checks results
/// against its oracle and, when `trace` is non-null, records spans in the
/// window and runs the layer ladder after it.
Report RunPointHot(const Config& config, Trace* trace);
Report RunBulkCold(const Config& config, Trace* trace);
Report RunRwFresh(const Config& config, Trace* trace);
Report RunOlapPaged(const Config& config, Trace* trace);

/// Counter-based generator for one statement's (or row's) choices.
struct Rng {
  uint64_t state;
  uint64_t Next() { return Mix64(state++); }
};

/// n sorted distinct keys with closed-form lookups: key i sits at a seeded
/// offset inside its own bucket [i*width, (i+1)*width). Generating the
/// table is O(n), and the oracle answers find and lower_bound in O(1)
/// without touching the array — so results can be checked on tables far
/// larger than any copy the benchmark could afford to keep.
template <typename KeyT>
struct BucketKeys {
  uint64_t seed = 0;
  uint64_t n = 0;
  uint64_t width = 2;  // >= 2, so every bucket has a value that is no key

  KeyT Key(uint64_t i) const {
    return static_cast<KeyT>(i * width + Hash(seed, 1, i) % width);
  }
  /// A value inside bucket i that is not a key.
  KeyT Absent(uint64_t i, uint64_t r) const {
    const uint64_t offset = Hash(seed, 1, i) % width;
    return static_cast<KeyT>(i * width +
                             (offset + 1 + r % (width - 1)) % width);
  }
  uint64_t LowerBound(uint64_t x) const {
    const uint64_t i = x / width;
    if (i >= n) return n;
    return x <= Key(i) ? i : i + 1;
  }
  int64_t Find(uint64_t x) const {
    const uint64_t i = x / width;
    return i < n && Key(i) == x ? static_cast<int64_t>(i) : -1;
  }
  std::vector<KeyT> Keys(uint64_t from, uint64_t to) const {
    std::vector<KeyT> out;
    out.reserve(to - from);
    for (uint64_t i = from; i < to; ++i) out.push_back(Key(i));
    return out;
  }
};

}  // namespace cssbench

#endif  // CSSBENCH_WORKLOADS_H_
