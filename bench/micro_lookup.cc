// google-benchmark microbenchmarks: per-lookup latency of every method at
// a few array sizes. Complements the figure benches (which reproduce the
// paper's batch-of-100k protocol) with statistically managed per-op
// numbers.

#include <benchmark/benchmark.h>

#include <map>
#include <string>
#include <vector>

#include "core/visit_index.h"
#include "workload/key_gen.h"
#include "workload/lookup_gen.h"

namespace cssidx {
namespace {

struct Workload {
  std::vector<Key> keys;
  std::vector<Key> lookups;
};

const Workload& GetWorkload(size_t n) {
  static auto* cache = new std::map<size_t, Workload>();
  auto it = cache->find(n);
  if (it == cache->end()) {
    Workload w;
    w.keys = workload::DistinctSortedKeys(n, 17, 4);
    w.lookups = workload::MatchingLookups(w.keys, 4096, 18);
    it = cache->emplace(n, std::move(w)).first;
  }
  return it->second;
}

/// Per-lookup Find latency of the structure `spec` names. A "hash" spec
/// sizes its directory to ~n.
void BM_Lookup(benchmark::State& state, std::string spec) {
  const Workload& w = GetWorkload(static_cast<size_t>(state.range(0)));
  if (spec == "hash") {
    int bits = 4;
    while ((size_t{1} << bits) < w.keys.size() && bits < 22) ++bits;
    spec = "hash:" + std::to_string(bits);
  }
  const bool built = VisitIndex<Key>(
      *IndexSpec::Parse(spec), w.keys.data(), w.keys.size(),
      [&](const auto& index) {
        size_t i = 0;
        for (auto _ : state) {
          benchmark::DoNotOptimize(index.Find(w.lookups[i]));
          i = (i + 1) & 4095;
        }
        state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
      });
  if (!built) state.SkipWithError("no structure for spec");
}

void BM_Build(benchmark::State& state, const char* spec) {
  const Workload& w = GetWorkload(static_cast<size_t>(state.range(0)));
  const IndexSpec parsed = *IndexSpec::Parse(spec);
  for (auto _ : state) {
    VisitIndex<Key>(parsed, w.keys.data(), w.keys.size(),
                    [](const auto& index) {
                      benchmark::DoNotOptimize(index.SpaceBytes());
                    });
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}

constexpr int64_t kSmall = 100'000;
constexpr int64_t kLarge = 4'000'000;

BENCHMARK_CAPTURE(BM_Lookup, bin, "bin")->Arg(kSmall)->Arg(kLarge);
BENCHMARK_CAPTURE(BM_Lookup, tbin, "tbin")->Arg(kSmall)->Arg(kLarge);
BENCHMARK_CAPTURE(BM_Lookup, interp, "interp")->Arg(kSmall)->Arg(kLarge);
BENCHMARK_CAPTURE(BM_Lookup, ttree16, "ttree:16")->Arg(kSmall)->Arg(kLarge);
BENCHMARK_CAPTURE(BM_Lookup, btree16, "btree:16")->Arg(kSmall)->Arg(kLarge);
BENCHMARK_CAPTURE(BM_Lookup, css16, "css:16")->Arg(kSmall)->Arg(kLarge);
BENCHMARK_CAPTURE(BM_Lookup, lcss16, "lcss:16")->Arg(kSmall)->Arg(kLarge);
BENCHMARK_CAPTURE(BM_Lookup, hash, "hash")->Arg(kSmall)->Arg(kLarge);
BENCHMARK_CAPTURE(BM_Build, css16, "css:16")->Arg(kLarge);

}  // namespace
}  // namespace cssidx

BENCHMARK_MAIN();
