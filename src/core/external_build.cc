#include "core/external_build.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <queue>
#include <stdexcept>
#include <utility>

#include "util/sort.h"

namespace cssidx {

namespace {

/// One (key, RID) record; comparing the pair (key first, RID tiebreak)
/// reproduces stable sort order because RIDs are unique.
struct KeyRid {
  uint32_t key;
  uint32_t rid;
  friend bool operator<(const KeyRid& a, const KeyRid& b) {
    return a.key != b.key ? a.key < b.key : a.rid < b.rid;
  }
};

std::atomic<uint64_t> g_run_serial{0};

/// Closes and deletes the run file on every exit path.
struct RunFileGuard {
  std::FILE* file;
  std::string path;
  ~RunFileGuard() {
    if (file != nullptr) std::fclose(file);
    std::remove(path.c_str());
  }
};

/// Buffered forward reader over one run's slice of the run file.
class RunReader {
 public:
  RunReader(std::FILE* file, size_t begin_record, size_t num_records)
      : file_(file), next_record_(begin_record),
        end_record_(begin_record + num_records) {}

  bool Next(KeyRid* out) {
    if (pos_ == buffer_.size()) {
      size_t want = std::min(kBufferRecords, end_record_ - next_record_);
      if (want == 0) return false;
      buffer_.resize(want);
      auto offset = static_cast<long>(next_record_ * sizeof(KeyRid));
      if (std::fseek(file_, offset, SEEK_SET) != 0 ||
          std::fread(buffer_.data(), sizeof(KeyRid), want, file_) != want) {
        throw std::runtime_error("external sort: run read failed");
      }
      next_record_ += want;
      pos_ = 0;
    }
    *out = buffer_[pos_++];
    return true;
  }

 private:
  static constexpr size_t kBufferRecords = 4096;
  std::FILE* file_;
  size_t next_record_;
  size_t end_record_;
  std::vector<KeyRid> buffer_;
  size_t pos_ = 0;
};

}  // namespace

ExternalBuildResult ExternalSortKeys(const store::PagedColumn& column,
                                     size_t run_values,
                                     const std::string& spill_dir) {
  ExternalBuildResult result;
  const size_t n = column.size();
  run_values = std::max(run_values, column.values_per_page());

  // In-RAM fast path: one run covers the column.
  if (n <= run_values) {
    std::vector<KeyRid> pairs;
    pairs.reserve(n);
    store::ColumnCursor cursor(column);
    for (std::span<const uint32_t> block = cursor.NextBlock(); !block.empty();
         block = cursor.NextBlock()) {
      size_t base = cursor.position() - block.size();
      for (size_t i = 0; i < block.size(); ++i) {
        pairs.push_back({block[i], static_cast<uint32_t>(base + i)});
      }
    }
    SortUnlessOrdered(pairs.begin(), pairs.end());
    result.sorted_keys.reserve(n);
    result.rids.reserve(n);
    for (const KeyRid& p : pairs) {
      result.sorted_keys.push_back(p.key);
      result.rids.push_back(p.rid);
    }
    result.runs = n > 0 ? 1 : 0;
    return result;
  }

  // Run generation: RID-ordered slices of run_values pairs, sorted in RAM
  // and appended to one run file; run r occupies records
  // [r * run_values, ...) so no boundary table is needed.
  std::string path = spill_dir + "/extsort_" + std::to_string(::getpid()) +
                     "_" + std::to_string(g_run_serial.fetch_add(1)) +
                     ".runs";
  std::FILE* file = std::fopen(path.c_str(), "w+b");
  if (file == nullptr) {
    throw std::runtime_error("external sort: cannot create run file " + path);
  }
  RunFileGuard guard{file, path};
  std::vector<KeyRid> pairs;
  pairs.reserve(run_values);
  size_t next_rid = 0;
  store::ColumnCursor cursor(column);
  auto flush_run = [&]() {
    SortUnlessOrdered(pairs.begin(), pairs.end());
    if (std::fwrite(pairs.data(), sizeof(KeyRid), pairs.size(), file) !=
        pairs.size()) {
      throw std::runtime_error("external sort: run write failed");
    }
    ++result.runs;
    pairs.clear();
  };
  for (std::span<const uint32_t> block = cursor.NextBlock(); !block.empty();
       block = cursor.NextBlock()) {
    for (uint32_t v : block) {
      pairs.push_back({v, static_cast<uint32_t>(next_rid++)});
      if (pairs.size() == run_values) flush_run();
    }
  }
  if (!pairs.empty()) flush_run();
  result.spilled = true;

  // Single-pass k-way merge: a min-heap of per-run buffered readers.
  // Reader buffers are O(runs * kBufferRecords), tiny next to the output;
  // the sorted key/RID lists themselves are the index's RAM-resident
  // representation and are the product, not working memory.
  std::vector<RunReader> readers;
  readers.reserve(result.runs);
  for (size_t r = 0; r < result.runs; ++r) {
    size_t begin = r * run_values;
    readers.emplace_back(file, begin, std::min(run_values, n - begin));
  }
  struct HeapEntry {
    KeyRid record;
    size_t run;
  };
  // Min-heap on (key, RID): invert priority_queue's max-heap order.
  auto later = [](const HeapEntry& a, const HeapEntry& b) {
    return b.record < a.record;
  };
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, decltype(later)>
      heap(later);
  KeyRid record;
  for (size_t r = 0; r < readers.size(); ++r) {
    if (readers[r].Next(&record)) heap.push({record, r});
  }
  result.sorted_keys.reserve(n);
  result.rids.reserve(n);
  while (!heap.empty()) {
    HeapEntry top = heap.top();
    heap.pop();
    result.sorted_keys.push_back(top.record.key);
    result.rids.push_back(top.record.rid);
    if (readers[top.run].Next(&record)) heap.push({record, top.run});
  }
  return result;
}

}  // namespace cssidx
