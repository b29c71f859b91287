#include "store/buffer_manager.h"
#include "store/paged_column.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/external_build.h"
#include "gtest/gtest.h"
#include "util/rng.h"

namespace cssidx::store {
namespace {

std::vector<uint32_t> RandomValues(size_t n, uint32_t domain, uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<uint32_t> out(n);
  for (auto& v : out) v = rng.Below(domain);
  return out;
}

TEST(PagedColumn, RoundTripsAcrossPageSizesAndBudgets) {
  const std::vector<uint32_t> reference = RandomValues(10'000, 1 << 20, 1);
  for (size_t page_bytes : {4u, 64u, 4096u}) {
    for (size_t buffer_pages : {0u, 1u, 2u, 7u}) {
      BufferManager bm(StoreOptions{page_bytes, buffer_pages, ""});
      PagedColumn col(&bm);
      // Append in uneven chunks so writes straddle page boundaries.
      size_t at = 0;
      for (size_t chunk : {1u, 13u, 1000u}) {
        while (at < reference.size()) {
          size_t len = std::min(chunk, reference.size() - at);
          col.Append(std::span<const uint32_t>(&reference[at], len));
          at += len;
          if (at >= reference.size() / 3 && chunk != 1000u) break;
        }
      }
      ASSERT_EQ(col.size(), reference.size());
      std::vector<uint32_t> read(reference.size());
      col.Read(0, read);
      EXPECT_EQ(read, reference)
          << "page_bytes=" << page_bytes << " buffer_pages=" << buffer_pages;
      // Point reads at page seams.
      const size_t vpp = col.values_per_page();
      for (size_t i : {size_t{0}, vpp - 1, vpp, 3 * vpp + 1,
                       reference.size() - 1}) {
        if (i < reference.size()) {
          EXPECT_EQ(col.Get(i), reference[i]);
        }
      }
    }
  }
}

/// A fresh, empty directory under the system temp path, removed on
/// destruction: the spill_dir the lazy-spill tests watch.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_(std::filesystem::temp_directory_path() /
              (name + "_" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }
  bool empty() const { return std::filesystem::is_empty(path_); }

 private:
  std::filesystem::path path_;
};

TEST(BufferManager, PoolsThatNeverEvictNeverTouchTheSpillDir) {
  ScratchDir dir("cssidx_store_test_no_spill");
  const std::vector<uint32_t> values = RandomValues(1000, 1 << 20, 7);
  // An unbounded pool, and a bounded one whose budget covers every page.
  for (size_t buffer_pages : {0u, 64u}) {
    {
      BufferManager bm(StoreOptions{64, buffer_pages, dir.str()});
      PagedColumn col(&bm);
      col.Append(values);
      std::vector<uint32_t> read(values.size());
      col.Read(0, read);
      EXPECT_EQ(read, values);
      EXPECT_EQ(bm.stats().evictions, 0u);
      EXPECT_TRUE(dir.empty()) << "buffer_pages=" << buffer_pages;
    }
    EXPECT_TRUE(dir.empty()) << "buffer_pages=" << buffer_pages;
  }
}

TEST(BufferManager, EvictingPoolRemovesItsSpillSubdirectory) {
  ScratchDir dir("cssidx_store_test_spill");
  const std::vector<uint32_t> values = RandomValues(1000, 1 << 20, 8);
  {
    BufferManager bm(StoreOptions{64, 2, dir.str()});
    PagedColumn col(&bm);
    col.Append(values);
    EXPECT_GT(bm.stats().spill_writes, 0u);
    EXPECT_FALSE(dir.empty());  // the subdirectory holds the spill file
    std::vector<uint32_t> read(values.size());
    col.Read(0, read);
    EXPECT_EQ(read, values);
  }
  EXPECT_TRUE(dir.empty());
}

TEST(BufferManager, PinUnpinAccounting) {
  BufferManager bm(StoreOptions{64, 4, ""});
  const uint32_t c = bm.RegisterColumn();
  {
    PageRef ref = bm.Pin({c, 0}, /*create=*/true);
    EXPECT_EQ(bm.stats().pinned, 1u);
    EXPECT_EQ(bm.stats().pins, 1u);
    EXPECT_EQ(bm.stats().faults, 1u);
    PageRef ref2 = bm.Pin({c, 0});
    EXPECT_EQ(bm.stats().pinned, 1u);  // one frame, pinned twice
    EXPECT_EQ(bm.stats().hits, 1u);
    ref2.Release();
    EXPECT_EQ(bm.stats().pinned, 1u);  // first pin still holds it
  }
  EXPECT_EQ(bm.stats().pinned, 0u);
  EXPECT_EQ(bm.stats().frames, 1u);  // unpinned but still resident
}

TEST(BufferManager, EvictsLeastRecentlyUsedFirst) {
  BufferManager bm(StoreOptions{64, 2, ""});
  const uint32_t c = bm.RegisterColumn();
  bm.Pin({c, 0}, true);
  bm.Pin({c, 1}, true);
  EXPECT_EQ(bm.stats().frames, 2u);
  // Recency now 1 > 0. Touch 0 so recency becomes 0 > 1.
  bm.Pin({c, 0});
  EXPECT_EQ(bm.stats().hits, 1u);
  // A third page must evict the LRU frame: page 1, not page 0.
  bm.Pin({c, 2}, true);
  EXPECT_EQ(bm.stats().evictions, 1u);
  const size_t faults_before = bm.stats().faults;
  bm.Pin({c, 0});
  EXPECT_EQ(bm.stats().faults, faults_before);  // page 0 survived: a hit
  // Pinning page 1 back in faults (it was the victim).
  bm.Pin({c, 1});
  EXPECT_EQ(bm.stats().faults, faults_before + 1);
  EXPECT_LE(bm.stats().frames, 2u);
  EXPECT_EQ(bm.stats().peak_frames, 2u);
}

TEST(BufferManager, ThrowsWhenEveryFrameIsPinned) {
  BufferManager bm(StoreOptions{64, 2, ""});
  const uint32_t c = bm.RegisterColumn();
  PageRef a = bm.Pin({c, 0}, true);
  PageRef b = bm.Pin({c, 1}, true);
  EXPECT_THROW(bm.Pin({c, 2}, true), std::runtime_error);
  b.Release();
  PageRef d = bm.Pin({c, 2}, true);  // now a frame is free
  EXPECT_TRUE(d);
}

TEST(BufferManager, DirtyPagesSurviveEvictionThroughSpill) {
  BufferManager bm(StoreOptions{64, 1, ""});  // 16 values; every touch evicts
  const uint32_t c = bm.RegisterColumn();
  const size_t vpp = bm.values_per_page();
  const size_t kPages = 9;
  for (uint32_t p = 0; p < kPages; ++p) {
    PageRef ref = bm.Pin({c, p}, true);
    for (size_t i = 0; i < vpp; ++i) {
      ref.data()[i] = p * 1000 + static_cast<uint32_t>(i);
    }
    ref.MarkDirty();
  }
  EXPECT_GE(bm.stats().spill_writes, kPages - 1);
  for (uint32_t p = 0; p < kPages; ++p) {
    PageRef ref = bm.Pin({c, p});
    for (size_t i = 0; i < vpp; ++i) {
      ASSERT_EQ(ref.data()[i], p * 1000 + i) << "page " << p;
    }
  }
  EXPECT_GE(bm.stats().spill_reads, kPages - 1);
}

TEST(ColumnCursor, StreamsWholeColumnInOrderAtMinimalBudget) {
  BufferManager bm(StoreOptions{64, 1, ""});
  PagedColumn col(&bm);
  const std::vector<uint32_t> reference = RandomValues(1000, 1 << 16, 2);
  col.Append(reference);
  ColumnCursor cursor(col);
  std::vector<uint32_t> streamed;
  size_t blocks = 0;
  for (std::span<const uint32_t> block = cursor.NextBlock(); !block.empty();
       block = cursor.NextBlock()) {
    EXPECT_EQ(cursor.position() - block.size(), streamed.size());
    streamed.insert(streamed.end(), block.begin(), block.end());
    ++blocks;
  }
  EXPECT_TRUE(cursor.done());
  EXPECT_EQ(streamed, reference);
  EXPECT_EQ(blocks, col.num_pages());
  EXPECT_EQ(bm.stats().pinned, 0u);  // cursors never hold pins between calls
}

TEST(PagedColumn, TruncateThenRegrowReadsFreshValues) {
  BufferManager bm(StoreOptions{64, 2, ""});
  PagedColumn col(&bm);
  std::vector<uint32_t> reference = RandomValues(500, 1 << 16, 3);
  col.Append(reference);
  col.Truncate(100);
  reference.resize(100);
  EXPECT_EQ(col.size(), 100u);
  const std::vector<uint32_t> regrow = RandomValues(300, 1 << 16, 4);
  col.Append(regrow);
  reference.insert(reference.end(), regrow.begin(), regrow.end());
  std::vector<uint32_t> read(col.size());
  col.Read(0, read);
  EXPECT_EQ(read, reference);
}

TEST(ExternalSort, MatchesStableSortOracle) {
  // Heavy duplicates so tie-breaking order is actually exercised.
  const std::vector<uint32_t> reference = RandomValues(20'000, 100, 5);
  std::vector<uint32_t> oracle_rids(reference.size());
  std::iota(oracle_rids.begin(), oracle_rids.end(), 0u);
  std::stable_sort(oracle_rids.begin(), oracle_rids.end(),
                   [&](uint32_t a, uint32_t b) {
                     return reference[a] < reference[b];
                   });
  std::vector<uint32_t> oracle_keys(reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    oracle_keys[i] = reference[oracle_rids[i]];
  }

  BufferManager bm(StoreOptions{256, 4, ""});
  PagedColumn col(&bm);
  col.Append(reference);

  // Multi-run spilled path.
  ExternalBuildResult ext = ExternalSortKeys(col, 1024, bm.spill_path());
  EXPECT_TRUE(ext.spilled);
  EXPECT_GT(ext.runs, 1u);
  EXPECT_EQ(ext.sorted_keys, oracle_keys);
  EXPECT_EQ(ext.rids, oracle_rids);

  // Single-run in-RAM fast path: same answer, no disk.
  ExternalBuildResult ram =
      ExternalSortKeys(col, reference.size(), bm.spill_path());
  EXPECT_FALSE(ram.spilled);
  EXPECT_EQ(ram.runs, 1u);
  EXPECT_EQ(ram.sorted_keys, oracle_keys);
  EXPECT_EQ(ram.rids, oracle_rids);
}

TEST(ExternalSort, OrderedRunsSkipTheSortAndMergeLikeStableSort) {
  // Runs already in (key, RID) order skip their sort; the run files, run
  // count and merge must not change. Columns: in order, reverse, equal
  // keys straddling every run boundary, and a sawtooth whose runs are each
  // in order but interleave, so the merge breaks ties across runs.
  constexpr size_t kN = 3 * 1024 + 500;
  constexpr size_t kRun = 1024;
  std::vector<uint32_t> in_order(kN), reverse(kN), straddle(kN), sawtooth(kN);
  for (size_t i = 0; i < kN; ++i) {
    in_order[i] = static_cast<uint32_t>(i / 3);
    reverse[i] = static_cast<uint32_t>((kN - i) / 3);
    straddle[i] = static_cast<uint32_t>(i / 700);
    sawtooth[i] = static_cast<uint32_t>((i % kRun) / 4);
  }
  for (const std::vector<uint32_t>* reference :
       {&in_order, &reverse, &straddle, &sawtooth}) {
    std::vector<uint32_t> oracle_rids(kN);
    std::iota(oracle_rids.begin(), oracle_rids.end(), 0u);
    std::stable_sort(oracle_rids.begin(), oracle_rids.end(),
                     [&](uint32_t a, uint32_t b) {
                       return (*reference)[a] < (*reference)[b];
                     });
    std::vector<uint32_t> oracle_keys(kN);
    for (size_t i = 0; i < kN; ++i) {
      oracle_keys[i] = (*reference)[oracle_rids[i]];
    }

    BufferManager bm(StoreOptions{256, 4, ""});
    PagedColumn col(&bm);
    col.Append(*reference);
    ExternalBuildResult ext = ExternalSortKeys(col, kRun, bm.spill_path());
    EXPECT_TRUE(ext.spilled);
    EXPECT_EQ(ext.runs, 4u);
    EXPECT_EQ(ext.sorted_keys, oracle_keys);
    EXPECT_EQ(ext.rids, oracle_rids);

    ExternalBuildResult ram = ExternalSortKeys(col, kN, bm.spill_path());
    EXPECT_FALSE(ram.spilled);
    EXPECT_EQ(ram.runs, 1u);
    EXPECT_EQ(ram.sorted_keys, oracle_keys);
    EXPECT_EQ(ram.rids, oracle_rids);
  }
}

TEST(ExternalSort, EmptyAndTinyColumns) {
  BufferManager bm(StoreOptions{64, 2, ""});
  PagedColumn empty(&bm);
  ExternalBuildResult none = ExternalSortKeys(empty, 16, bm.spill_path());
  EXPECT_EQ(none.runs, 0u);
  EXPECT_FALSE(none.spilled);
  EXPECT_TRUE(none.sorted_keys.empty());

  PagedColumn one(&bm);
  one.Append(std::vector<uint32_t>{42});
  ExternalBuildResult single = ExternalSortKeys(one, 16, bm.spill_path());
  EXPECT_EQ(single.sorted_keys, std::vector<uint32_t>{42});
  EXPECT_EQ(single.rids, std::vector<uint32_t>{0});
}

}  // namespace
}  // namespace cssidx::store
