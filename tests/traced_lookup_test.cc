// Instrumented lookups feeding the cache simulator must (a) return the same
// answers as the plain lookups, (b) produce miss counts that match the
// §5 analytic model's ordering: CSS-trees < B+-tree < binary search/T-tree,
// and (c) touch exactly the bytes, in the order, that golden lists pin.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "baselines/binary_search.h"
#include "baselines/binary_tree.h"
#include "baselines/bplus_tree.h"
#include "baselines/t_tree.h"
#include "cachesim/cache_sim.h"
#include "core/full_css_tree.h"
#include "core/level_css_tree.h"
#include "gtest/gtest.h"
#include "workload/key_gen.h"
#include "workload/lookup_gen.h"

namespace cssidx {
namespace {

using cachesim::CacheHierarchy;
using cachesim::SimTracer;

template <typename IndexT>
double ColdMissesPerLookup(const IndexT& index,
                           const std::vector<Key>& lookups) {
  CacheHierarchy h(cachesim::UltraSparcHierarchy());
  SimTracer tracer{&h};
  for (Key k : lookups) {
    h.FlushContents();  // cold cache per lookup, like the §5 analysis
    index.LowerBoundTraced(k, tracer);
  }
  return static_cast<double>(h.Level(1).misses()) /
         static_cast<double>(lookups.size());
}

/// Logs every Touch a traced lookup makes, raw.
struct RecordingTracer {
  static constexpr bool kEnabled = true;
  std::vector<std::pair<uintptr_t, uint64_t>>* log = nullptr;
  void Touch(const void* addr, uint64_t size) const {
    log->emplace_back(reinterpret_cast<uintptr_t>(addr), size);
  }
};

/// The touches of each lookup, one string per lookup. A touch inside the
/// sorted array reads "a<offset>/<size>", its byte offset from keys[0];
/// any other touch (a directory or node) reads "d<offset>/<size>", its
/// byte offset from the lowest such address of the whole run. Both bases
/// are the structure's own, so the strings do not depend on where the
/// allocator put it.
template <typename IndexT>
std::vector<std::string> TouchSequences(const IndexT& index,
                                        const std::vector<Key>& keys,
                                        const std::vector<Key>& lookups) {
  std::vector<std::pair<uintptr_t, uint64_t>> log;
  std::vector<size_t> ends;
  RecordingTracer tracer{&log};
  for (Key k : lookups) {
    index.LowerBoundTraced(k, tracer);
    ends.push_back(log.size());
  }
  const auto array_lo = reinterpret_cast<uintptr_t>(keys.data());
  const uintptr_t array_hi = array_lo + keys.size() * sizeof(Key);
  auto in_array = [&](uintptr_t p) { return p >= array_lo && p < array_hi; };
  uintptr_t node_lo = UINTPTR_MAX;
  for (const auto& touch : log) {
    if (!in_array(touch.first)) node_lo = std::min(node_lo, touch.first);
  }
  std::vector<std::string> out;
  size_t begin = 0;
  for (size_t end : ends) {
    std::string seq;
    for (size_t t = begin; t < end; ++t) {
      const auto [addr, size] = log[t];
      if (!seq.empty()) seq += ' ';
      seq += in_array(addr) ? 'a' : 'd';
      seq += std::to_string(addr - (in_array(addr) ? array_lo : node_lo));
      seq += '/' + std::to_string(size);
    }
    out.push_back(seq);
    begin = end;
  }
  return out;
}

TEST(TracedLookup, TracedAgreesWithPlain) {
  auto keys = workload::DistinctSortedKeys(50'000, 3, 4);
  auto lookups = workload::MatchingLookups(keys, 500, 9);
  CacheHierarchy h(cachesim::ModernHierarchy());
  SimTracer tracer{&h};

  BinarySearchIndex bs(keys);
  FullCssTree<16> full(keys);
  LevelCssTree<16> level(keys);
  BPlusTree<16> bplus(keys);
  TTreeIndex<16> ttree(keys);
  BinaryTreeIndex bst(keys);
  for (Key k : lookups) {
    size_t expected = bs.LowerBound(k);
    EXPECT_EQ(bs.LowerBoundTraced(k, tracer), expected);
    EXPECT_EQ(full.LowerBoundTraced(k, tracer), expected);
    EXPECT_EQ(level.LowerBoundTraced(k, tracer), expected);
    EXPECT_EQ(bplus.LowerBoundTraced(k, tracer), expected);
    EXPECT_EQ(ttree.LowerBoundTraced(k, tracer), expected);
    EXPECT_EQ(bst.LowerBoundTraced(k, tracer), expected);
  }
}

TEST(TracedLookup, TouchSequencesMatchGolden) {
  // The exact memory reference stream of every traced lookup, pinned: the
  // cachesim benches count misses off it, so a refactor of a traced
  // descent must touch the same bytes in the same order. n = 300 keys
  // 5i + 2: a two-level css:16 directory with a partial last leaf, a
  // three-level btree:16 and a partial last T-tree node; the lookups
  // take the leftmost, rightmost, absent and above-every-key paths.
  std::vector<Key> keys;
  for (Key i = 0; i < 300; ++i) keys.push_back(5 * i + 2);
  const std::vector<Key> lookups = {0, 2, 3, 377, 752, 1000, 1497, 1500};
  auto check = [&](const char* name, const std::vector<std::string>& got,
                   const std::vector<std::string>& want) {
    std::string printed;
    for (const std::string& seq : got) printed += "\"" + seq + "\",\n";
    EXPECT_EQ(got, want) << name << " touched:\n" << printed;
  };
  check("bin", TouchSequences(BinarySearchIndex(keys), keys, lookups),
        {"a600/4 a300/4 a148/4 a72/4 a36/4 a16/4 a8/4 a4/4 a0/4",
         "a600/4 a300/4 a148/4 a72/4 a36/4 a16/4 a8/4 a4/4 a0/4",
         "a600/4 a300/4 a148/4 a72/4 a36/4 a16/4 a8/4 a4/4 a0/4",
         "a600/4 a300/4 a148/4 a224/4 a264/4 a284/4 a292/4 a296/4",
         "a600/4 a300/4 a452/4 a528/4 a564/4 a584/4 a592/4 a596/4",
         "a600/4 a900/4 a752/4 a828/4 a792/4 a812/4 a804/4 a800/4 a796/4",
         "a600/4 a900/4 a1052/4 a1128/4 a1164/4 a1184/4 a1192/4 a1196/4",
         "a600/4 a900/4 a1052/4 a1128/4 a1164/4 a1184/4 a1192/4 a1196/4"});
  check("css:16", TouchSequences(FullCssTree<16>(keys), keys, lookups),
        {"d32/4 d16/4 d8/4 d4/4 d0/4 d96/4 d80/4 d72/4 d68/4 d64/4 a32/4 "
         "a16/4 a8/4 a4/4 a0/4",
         "d32/4 d16/4 d8/4 d4/4 d0/4 d96/4 d80/4 d72/4 d68/4 d64/4 a32/4 "
         "a16/4 a8/4 a4/4 a0/4",
         "d32/4 d16/4 d8/4 d4/4 d0/4 d96/4 d80/4 d72/4 d68/4 d64/4 a32/4 "
         "a16/4 a8/4 a4/4 a0/4",
         "d32/4 d16/4 d8/4 d4/4 a272/4 a288/4 a296/4 a300/4",
         "d32/4 d16/4 d24/4 d28/4 a592/4 a608/4 a600/4 a596/4",
         "d32/4 d48/4 d40/4 d36/4 a784/4 a800/4 a792/4 a796/4",
         "d32/4 d48/4 d56/4 d60/4 a1168/4 a1184/4 a1192/4 a1196/4",
         "d32/4 d48/4 d56/4 d60/4 a1168/4 a1184/4 a1192/4 a1196/4"});
  check("lcss:16", TouchSequences(LevelCssTree<16>(keys), keys, lookups),
        {"d28/4 d12/4 d4/4 d0/4 d92/4 d76/4 d68/4 d64/4 a32/4 a16/4 a8/4 "
         "a4/4 a0/4",
         "d28/4 d12/4 d4/4 d0/4 d92/4 d76/4 d68/4 d64/4 a32/4 a16/4 a8/4 "
         "a4/4 a0/4",
         "d28/4 d12/4 d4/4 d0/4 d92/4 d76/4 d68/4 d64/4 a32/4 a16/4 a8/4 "
         "a4/4 a0/4",
         "d28/4 d12/4 d4/4 d0/4 a272/4 a288/4 a296/4 a300/4",
         "d28/4 d12/4 d20/4 d24/4 a592/4 a608/4 a600/4 a596/4",
         "d28/4 d44/4 d36/4 d32/4 a784/4 a800/4 a792/4 a796/4",
         "d28/4 d44/4 d52/4 d56/4 a1168/4 a1184/4 a1192/4 a1196/4",
         "d28/4 d44/4 d52/4 d56/4 a1168/4 a1184/4 a1192/4 a1196/4"});
  check("btree:16", TouchSequences(BPlusTree<16>(keys), keys, lookups),
        {"d220/4 d204/4 d196/4 d192/4 d28/4 d12/4 d4/4 d0/4 a32/4 a16/4 "
         "a8/4 a4/4 a0/4",
         "d220/4 d204/4 d196/4 d192/4 d28/4 d12/4 d4/4 d0/4 a32/4 a16/4 "
         "a8/4 a4/4 a0/4",
         "d220/4 d204/4 d196/4 d192/4 d28/4 d12/4 d4/4 d0/4 a32/4 a16/4 "
         "a8/4 a4/4 a0/4",
         "d220/4 d204/4 d196/4 d192/4 d28/4 d44/4 d36/4 d32/4 a288/4 a304/4 "
         "a296/4 a300/4",
         "d220/4 d204/4 d196/4 d200/4 d92/4 d76/4 d68/4 d72/4 a608/4 a592/4 "
         "a600/4 a596/4",
         "d220/4 d204/4 d196/4 d200/4 d92/4 d108/4 d100/4 d96/4 a800/4 "
         "a784/4 a792/4 a796/4",
         "d220/4 d204/4 d212/4 d208/4 d156/4 d140/4 d148/4 d144/4 a1176/4 "
         "a1188/4 a1196/4 a1192/4",
         "d220/4 d236/4 d244/4 d248/4 d156/4 d172/4 d180/4 d184/4 a1176/4 "
         "a1188/4 a1196/4"});
  check("ttree:16", TouchSequences(TTreeIndex<16>(keys), keys, lookups),
        {"d0/16 d140/16 d280/16 d420/16 d560/16 d636/4",
         "d0/16 d140/16 d280/16 d420/16 d560/16 d636/4",
         "d0/16 d140/16 d280/16 d420/16 d560/16 d604/4 d588/4 d580/4 d576/4 "
         "d572/4 d640/4",
         "d0/16 d140/16 d840/16 d980/16 d1120/16 d184/4 d200/4 d192/4 "
         "d196/4 d260/4",
         "d0/16 d1400/16 d1540/16 d1680/16 d1820/16 d44/4 d28/4 d36/4 d32/4 "
         "d100/4",
         "d0/16 d1400/16 d1540/16 d1960/16 d1584/4 d1568/4 d1576/4 d1580/4 "
         "d1648/4",
         "d0/16 d1400/16 d2100/16 d2520/16 d2556/4 d2568/4 d2576/4 d2572/4 "
         "d2640/4",
         "d0/16 d1400/16 d2100/16 d2520/16 d2556/4 d2568/4 d2576/4"});
}

TEST(TracedLookup, MissOrderingMatchesFigure6) {
  auto keys = workload::DistinctSortedKeys(200'000, 5, 4);
  auto lookups = workload::MatchingLookups(keys, 64, 11);

  BinarySearchIndex bs(keys);
  BinaryTreeIndex bst(keys);
  TTreeIndex<8> ttree(keys);  // 8 entries = 32B keys + rids: 1999 sizing
  BPlusTree<8> bplus(keys);
  FullCssTree<8> full(keys);
  LevelCssTree<8> level(keys);

  double m_bs = ColdMissesPerLookup(bs, lookups);
  double m_bst = ColdMissesPerLookup(bst, lookups);
  double m_tt = ColdMissesPerLookup(ttree, lookups);
  double m_bp = ColdMissesPerLookup(bplus, lookups);
  double m_fc = ColdMissesPerLookup(full, lookups);
  double m_lc = ColdMissesPerLookup(level, lookups);

  // Figure 6 story at the L2 level (64B lines, 8-int nodes fit one line):
  EXPECT_LT(m_fc, m_bp);
  EXPECT_LT(m_lc, m_bp);
  EXPECT_LT(m_bp, m_tt);
  EXPECT_LT(m_bp, m_bs);
  // Binary search and pointer BST and T-tree are all ~log2(n) misses.
  double log2n = std::log2(200'000.0);
  EXPECT_NEAR(m_bs, log2n, log2n * 0.35);
  EXPECT_NEAR(m_bst, log2n, log2n * 0.35);
  EXPECT_NEAR(m_tt, log2n * 0.8, log2n * 0.4);
  // CSS-trees: about log_{f}(n) misses (+ leaf).
  double expected_fc = std::log(200'000.0) / std::log(9.0);
  EXPECT_NEAR(m_fc, expected_fc, expected_fc * 0.5);
}

TEST(TracedLookup, WarmCacheKeepsTopLevelsResident) {
  // §5.1: "If a bunch of searches are performed in sequence, the top level
  // nodes will stay in the cache" — run without flushing and expect far
  // fewer misses than cold.
  auto keys = workload::DistinctSortedKeys(200'000, 5, 4);
  auto lookups = workload::MatchingLookups(keys, 2000, 13);
  FullCssTree<16> full(keys);

  CacheHierarchy cold(cachesim::ModernHierarchy());
  SimTracer cold_tracer{&cold};
  for (Key k : lookups) {
    cold.FlushContents();
    full.LowerBoundTraced(k, cold_tracer);
  }
  CacheHierarchy warm(cachesim::ModernHierarchy());
  SimTracer warm_tracer{&warm};
  for (Key k : lookups) full.LowerBoundTraced(k, warm_tracer);

  EXPECT_LT(warm.Level(1).misses(), cold.Level(1).misses() / 2);
}

TEST(TracedLookup, NullTracerIsFree) {
  // Compile-time check that the null tracer path exists and agrees.
  auto keys = workload::DistinctSortedKeys(1000, 3, 4);
  FullCssTree<8> full(keys);
  cachesim::NullTracer null;
  for (Key k : {keys[0], keys[500], keys.back()}) {
    EXPECT_EQ(full.LowerBoundTraced(k, null), full.LowerBound(k));
  }
}

}  // namespace
}  // namespace cssidx
