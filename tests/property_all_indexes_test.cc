// Cross-method property suite: every index in the suite, over every key
// distribution, node size on the menu, and a sweep of array sizes, must
// agree exactly with std::lower_bound / std::equal_range — scalar AND
// batched. This is the paper's implicit contract — all eight methods
// compute the same function, they only differ in time and space — extended
// to the batch probe API: FindBatch/LowerBoundBatch are required to be
// exactly a scalar loop, whatever group-probing and prefetching tricks an
// implementation plays underneath.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/builder.h"
#include "core/range.h"
#include "core/visit_index.h"
#include "gtest/gtest.h"
#include "spec_menu.h"
#include "util/macros.h"
#include "workload/key_gen.h"
#include "workload/lookup_gen.h"

namespace cssidx {
namespace {

enum class Distribution { kUniform, kLinear, kSkewed, kDuplicates, kClustered };

const char* DistributionName(Distribution d) {
  switch (d) {
    case Distribution::kUniform:
      return "uniform";
    case Distribution::kLinear:
      return "linear";
    case Distribution::kSkewed:
      return "skewed";
    case Distribution::kDuplicates:
      return "duplicates";
    case Distribution::kClustered:
      return "clustered";
  }
  return "?";
}

std::vector<Key> MakeKeys(Distribution d, size_t n, uint64_t seed) {
  switch (d) {
    case Distribution::kUniform:
      return workload::DistinctSortedKeys(n, seed, 4);
    case Distribution::kLinear:
      return workload::LinearKeys(n, 5, 3);
    case Distribution::kSkewed:
      return workload::SkewedKeys(n, seed);
    case Distribution::kDuplicates:
      return workload::KeysWithDuplicates(n, std::max<size_t>(1, n / 8),
                                          seed);
    case Distribution::kClustered:
      return workload::ClusteredKeys(n, std::max<size_t>(1, n / 100), seed);
  }
  return {};
}

struct Case {
  IndexSpec spec;
  Distribution dist;
};

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  std::string name = info.param.spec.ToString();
  for (char& c : name) {
    if (!isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name + "_" + DistributionName(info.param.dist);
}

class AllIndexesProperty : public ::testing::TestWithParam<Case> {};

TEST_P(AllIndexesProperty, AgreesWithStlOracles) {
  const Case& c = GetParam();
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{5}, size_t{16},
                   size_t{17}, size_t{100}, size_t{257}, size_t{1000},
                   size_t{4096}, size_t{10000}}) {
    if (c.dist == Distribution::kClustered && n < 100) continue;
    auto keys = MakeKeys(c.dist, n, /*seed=*/n * 31 + 7);
    AnyIndex index = BuildIndex(c.spec, keys);
    ASSERT_TRUE(index);
    ASSERT_EQ(index.size(), keys.size());

    std::vector<Key> probes;
    if (!keys.empty()) {
      probes = workload::MatchingLookups(keys, 200, n + 1);
      auto missing = workload::MissingLookups(keys, 100, n + 2);
      probes.insert(probes.end(), missing.begin(), missing.end());
      probes.push_back(keys.front());
      probes.push_back(keys.back());
      probes.push_back(keys.back() + 1);
    }
    probes.push_back(0);

    for (Key k : probes) {
      auto lo = std::lower_bound(keys.begin(), keys.end(), k);
      auto hi = std::upper_bound(keys.begin(), keys.end(), k);
      bool present = lo != keys.end() && *lo == k;
      int64_t expected_find =
          present ? static_cast<int64_t>(lo - keys.begin()) : kNotFound;
      ASSERT_EQ(index.Find(k), expected_find)
          << index.Name() << " n=" << n << " k=" << k;
      ASSERT_EQ(index.CountEqual(k), static_cast<size_t>(hi - lo))
          << index.Name() << " n=" << n << " k=" << k;
      if (index.SupportsOrderedAccess()) {
        ASSERT_EQ(index.LowerBound(k),
                  static_cast<size_t>(lo - keys.begin()))
            << index.Name() << " n=" << n << " k=" << k;
      }
    }

    // Batch ≡ scalar, over the whole probe set at once (covers the group
    // kernels' full-group path, the remainder path, and batches of one).
    std::vector<int64_t> batch_find(probes.size());
    std::vector<size_t> batch_lower(probes.size());
    std::vector<PositionRange> batch_range(probes.size());
    std::vector<size_t> batch_count(probes.size());
    index.FindBatch(probes, batch_find);
    index.LowerBoundBatch(probes, batch_lower);
    index.EqualRangeBatch(probes, batch_range);
    index.CountEqualBatch(probes, batch_count);
    for (size_t i = 0; i < probes.size(); ++i) {
      ASSERT_EQ(batch_find[i], index.Find(probes[i]))
          << index.Name() << " n=" << n << " i=" << i;
      ASSERT_EQ(batch_lower[i], index.LowerBound(probes[i]))
          << index.Name() << " n=" << n << " i=" << i;
      ASSERT_EQ(batch_range[i], index.EqualRange(probes[i]))
          << index.Name() << " n=" << n << " i=" << i;
      ASSERT_EQ(batch_count[i], index.CountEqual(probes[i]))
          << index.Name() << " n=" << n << " i=" << i;
      // The span is the STL equal_range, modulo hash's size() anchor for
      // absent keys.
      auto lo = std::lower_bound(keys.begin(), keys.end(), probes[i]);
      auto hi = std::upper_bound(keys.begin(), keys.end(), probes[i]);
      PositionRange want{static_cast<size_t>(lo - keys.begin()),
                         static_cast<size_t>(hi - keys.begin())};
      if (!index.SupportsOrderedAccess() && want.empty()) {
        want = {keys.size(), keys.size()};
      }
      ASSERT_EQ(batch_range[i], want)
          << index.Name() << " n=" << n << " i=" << i;
    }

    // Random [lo, hi) bound pairs — inverted and empty included — staged
    // through the batched LowerBound kernel, as the engine stages
    // SelectRange bounds.
    if (index.SupportsOrderedAccess() && !keys.empty()) {
      std::vector<Key> bounds;
      for (size_t b = 0; b + 1 < probes.size(); b += 2) {
        bounds.push_back(probes[b]);
        bounds.push_back(probes[b + 1]);
      }
      std::vector<size_t> pos(bounds.size());
      index.LowerBoundBatch(bounds, pos);
      for (size_t b = 0; b + 1 < bounds.size(); b += 2) {
        Key lo_key = bounds[b];
        Key hi_key = bounds[b + 1];
        size_t want_begin = static_cast<size_t>(
            std::lower_bound(keys.begin(), keys.end(), lo_key) -
            keys.begin());
        size_t want_end =
            hi_key <= lo_key
                ? want_begin
                : static_cast<size_t>(std::lower_bound(keys.begin(),
                                                       keys.end(), hi_key) -
                                      keys.begin());
        size_t got_end = hi_key <= lo_key ? pos[b] : pos[b + 1];
        ASSERT_EQ((PositionRange{pos[b], got_end}),
                  (PositionRange{want_begin, want_end}))
            << index.Name() << " n=" << n << " lo=" << lo_key
            << " hi=" << hi_key;
      }
    }
  }
}

/// A copy of sorted keys that starts `offset` bytes past a cache-line
/// boundary and ends exactly where its allocation ends, so a kernel read
/// past the last key lands in the sanitizers' redzone. Served key arrays
/// are `std::vector` buffers, which glibc places 16 bytes off a line, so a
/// full leaf there spans two lines.
template <typename KeyT>
class OffsetKeys {
 public:
  OffsetKeys(const std::vector<KeyT>& keys, size_t offset)
      : raw_(static_cast<std::byte*>(::operator new(
            offset + keys.size() * sizeof(KeyT), kLine))),
        offset_(offset),
        size_(keys.size()) {
    std::memcpy(data(), keys.data(), keys.size() * sizeof(KeyT));
  }
  ~OffsetKeys() { ::operator delete(raw_, kLine); }
  OffsetKeys(const OffsetKeys&) = delete;
  OffsetKeys& operator=(const OffsetKeys&) = delete;

  KeyT* data() const { return reinterpret_cast<KeyT*>(raw_ + offset_); }
  size_t size() const { return size_; }

 private:
  static constexpr std::align_val_t kLine{kCacheLineBytes};
  std::byte* raw_;
  size_t offset_;
  size_t size_;
};

/// Every batch size from 0 to 2 * kGroupProbes + 1 (empty, every partial
/// group, one and two full groups, and a group plus a remainder), over a
/// key array placed off a cache line: the batch kernels' prefetches of
/// every line a node or leaf spans, and their partial last group, must
/// give exactly std::lower_bound.
template <typename KeyT>
void CheckBatchesOnOffsetArray(const IndexSpec& spec,
                               const std::vector<KeyT>& keys,
                               const std::vector<KeyT>& probes,
                               size_t offset) {
  OffsetKeys<KeyT> placed(keys, offset);
  ASSERT_EQ(reinterpret_cast<uintptr_t>(placed.data()) % kCacheLineBytes,
            offset);
  BasicAnyIndex<KeyT> index =
      BuildIndexT<KeyT>(spec, placed.data(), placed.size());
  ASSERT_TRUE(index) << spec.ToString();
  std::vector<size_t> lower(probes.size());
  std::vector<int64_t> found(probes.size());
  for (size_t batch = 0; batch <= 2 * kGroupProbes + 1; ++batch) {
    std::span<const KeyT> in(probes.data(), batch);
    index.FindBatch(in, std::span<int64_t>(found.data(), batch));
    if (index.SupportsOrderedAccess()) {
      index.LowerBoundBatch(in, std::span<size_t>(lower.data(), batch));
    }
    for (size_t i = 0; i < batch; ++i) {
      auto lo = std::lower_bound(keys.begin(), keys.end(), probes[i]);
      auto want = static_cast<size_t>(lo - keys.begin());
      bool present = lo != keys.end() && *lo == probes[i];
      ASSERT_EQ(found[i], present ? static_cast<int64_t>(want) : kNotFound)
          << index.Name() << " offset=" << offset << " batch=" << batch
          << " i=" << i;
      if (index.SupportsOrderedAccess()) {
        ASSERT_EQ(lower[i], want) << index.Name() << " offset=" << offset
                                  << " batch=" << batch << " i=" << i;
      }
    }
  }
}

/// The method and node entries a concrete index type instantiates (0 for
/// unsized methods), read off the type itself: an oracle for VisitIndex's
/// dispatch that does not go through it.
template <typename T>
constexpr std::pair<Method, int> kInstantiated{};
template <typename K>
constexpr std::pair<Method, int> kInstantiated<BasicBinarySearchIndex<K>>{
    Method::kBinarySearch, 0};
template <typename K>
constexpr std::pair<Method, int> kInstantiated<BasicBinaryTreeIndex<K>>{
    Method::kTreeBinarySearch, 0};
template <typename K>
constexpr std::pair<Method, int>
    kInstantiated<BasicInterpolationSearchIndex<K>>{Method::kInterpolation, 0};
template <int M, typename K>
constexpr std::pair<Method, int> kInstantiated<TTreeIndex<M, K>>{
    Method::kTTree, M};
template <int M, typename K>
constexpr std::pair<Method, int> kInstantiated<BPlusTree<M, K>>{
    Method::kBPlusTree, M};
template <typename K, int M, int Fanout>
constexpr std::pair<Method, int> kInstantiated<BasicCssTree<K, M, Fanout>>{
    Fanout == M ? Method::kLevelCss : Method::kFullCss, M};
template <int LineBytes>
constexpr std::pair<Method, int> kInstantiated<ChainedHashIndex<LineBytes>>{
    Method::kHash, 0};

/// VisitIndex hands an unpartitioned spec exactly the instantiation it
/// names, which answers LowerBound, Find and SpaceBytes as BuildIndex's
/// AnyIndex does; a partitioned spec, the other key width and an off-menu
/// node size never reach `fn`.
template <typename KeyT>
void CheckVisitAgreesWithBuild(const IndexSpec& spec,
                               const std::vector<KeyT>& keys,
                               const std::vector<KeyT>& probes) {
  int calls = 0;
  const bool visited = VisitIndex<KeyT>(
      spec, keys.data(), keys.size(), [&]<typename IndexT>(const IndexT& index) {
        ++calls;
        ASSERT_EQ(kInstantiated<IndexT>,
                  std::pair(spec.method(),
                            spec.sized() ? spec.node_entries() : 0))
            << spec.ToString();
        BasicAnyIndex<KeyT> any =
            BuildIndexT<KeyT>(spec, keys.data(), keys.size());
        ASSERT_EQ(index.SpaceBytes(), any.SpaceBytes()) << spec.ToString();
        for (KeyT k : probes) {
          ASSERT_EQ(index.Find(k), any.Find(k)) << spec.ToString();
          if constexpr (requires { index.LowerBound(k); }) {
            ASSERT_EQ(index.LowerBound(k), any.LowerBound(k))
                << spec.ToString();
          }
        }
      });
  EXPECT_EQ(visited, !spec.partitioned()) << spec.ToString();
  using OtherKeyT = std::conditional_t<sizeof(KeyT) == 4, Key64, Key>;
  EXPECT_FALSE(VisitIndex<OtherKeyT>(spec, nullptr, 0,
                                     [&](const auto&) { ++calls; }))
      << spec.ToString();
  if (spec.sized()) {
    EXPECT_FALSE(VisitIndex<KeyT>(spec.WithNodeEntries(12), keys.data(),
                                  keys.size(), [&](const auto&) { ++calls; }))
        << spec.ToString();
  }
  EXPECT_EQ(calls, visited ? 1 : 0) << spec.ToString();
}

TEST(BatchKernels, AgreeWithStlOnOffsetArraysAtEveryGroupSize) {
  const size_t n = 10007;  // several levels at every menu node size
  const size_t probe_count = 2 * kGroupProbes + 1;
  const std::vector<Key> keys = workload::DistinctSortedKeys(n, 42, 4);
  // Hits interleaved with misses, so a group's probes end in different
  // leaves.
  const auto hits = workload::MatchingLookups(keys, probe_count, 43);
  const auto misses = workload::MissingLookups(keys, probe_count, 44);
  std::vector<Key> probes;
  for (size_t i = 0; i < probe_count; ++i) {
    probes.push_back(i % 3 == 2 ? misses[i] : hits[i]);
  }
  for (const IndexSpec& spec : test_menu::MenuSpecs(16, 8)) {
    for (size_t offset : {4, 16, 36, 60}) {
      CheckBatchesOnOffsetArray(spec, keys, probes, offset);
    }
    CheckVisitAgreesWithBuild(spec, keys, probes);
  }
  // 8-byte keys: a 16-key node or leaf is 128 bytes, two or three lines.
  // The widening is order-preserving, so hits stay hits.
  auto widen = [](Key k) { return (Key64{k} << 31) + k; };
  std::vector<Key64> keys64(keys.size());
  std::vector<Key64> probes64(probes.size());
  std::transform(keys.begin(), keys.end(), keys64.begin(), widen);
  std::transform(probes.begin(), probes.end(), probes64.begin(), widen);
  for (const IndexSpec& spec : test_menu::MenuSpecs(16, 8)) {
    IndexSpec wide = spec.WithKeyWidth(8);
    if (!wide.OnMenu()) continue;  // hash has no 8-byte build
    for (size_t offset : {8, 16, 40, 56}) {
      CheckBatchesOnOffsetArray(wide, keys64, probes64, offset);
    }
    CheckVisitAgreesWithBuild(wide, keys64, probes64);
  }
}

std::vector<Case> AllCases() {
  std::vector<Case> cases;
  std::vector<Distribution> dists{Distribution::kUniform,
                                  Distribution::kLinear, Distribution::kSkewed,
                                  Distribution::kDuplicates,
                                  Distribution::kClustered};
  for (Distribution d : dists) {
    // The shared menu: node-size sweep for the sized methods plus the
    // partitioned composites, so part:K specs face every distribution.
    for (const IndexSpec& spec : test_menu::MenuSpecs(16, 8)) {
      cases.push_back({spec, d});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, AllIndexesProperty,
                         ::testing::ValuesIn(AllCases()), CaseName);

}  // namespace
}  // namespace cssidx
