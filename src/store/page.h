#ifndef CSSIDX_STORE_PAGE_H_
#define CSSIDX_STORE_PAGE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

// Fixed-size-page storage primitives for out-of-core columns.
//
// The paper's §5 space argument is that only the CSS *directory* needs to
// be RAM-resident — the data it indexes does not. This layer supplies the
// missing half of that claim: column values live on fixed-size pages
// managed by a bounded BufferManager frame pool (paged_column.h,
// buffer_manager.h), spilling to disk under a configurable temp path, so
// a Table can hold n >> RAM while the directory above it stays a small
// in-memory array. The design borrows the page/cursor/catalogue shape of
// teaching RDBMSs (SimpleRA): pages are identified by (column, index),
// pinned while accessed, and evicted LRU when the frame budget is hit.

namespace cssidx::store {

/// Knobs for one BufferManager (one Table's worth of paged columns).
struct StoreOptions {
  /// Bytes per page; rounded down to a multiple of 4 (one uint32 value),
  /// minimum one value.
  size_t page_bytes = 1 << 16;
  /// Frame-pool budget in pages. 0 = unbounded: nothing ever spills and
  /// the store degenerates to a chunked in-RAM column.
  size_t buffer_pages = 0;
  /// Directory for spill files (one per column) and external-sort runs.
  /// Empty = the system temp directory. A unique subdirectory is created
  /// per BufferManager on its first spill and removed with it.
  std::string spill_dir;
};

/// Identifies one page: `column` is the BufferManager-assigned column id,
/// `page` the zero-based page index within that column.
struct PageId {
  uint32_t column = 0;
  uint32_t page = 0;

  friend bool operator==(const PageId& a, const PageId& b) {
    return a.column == b.column && a.page == b.page;
  }
  /// Packed form, the frame-table hash key.
  uint64_t Packed() const {
    return (static_cast<uint64_t>(column) << 32) | page;
  }
};

struct PageIdHash {
  size_t operator()(const PageId& id) const {
    return std::hash<uint64_t>()(id.Packed());
  }
};

/// Buffer-pool counters. Cumulative except where noted; read them between
/// operations (the store is externally synchronized, like Table).
struct BufferStats {
  size_t pins = 0;         // Pin calls
  size_t hits = 0;         // pins served by a resident frame
  size_t faults = 0;       // pins that had to materialize a frame
  size_t spill_reads = 0;  // faults served by reading the spill file
  size_t spill_writes = 0; // dirty frames written out on eviction
  size_t evictions = 0;    // frames dropped to stay within budget
  size_t frames = 0;       // resident frames NOW
  size_t peak_frames = 0;  // high-water resident frames
  size_t pinned = 0;       // frames pinned NOW
};

}  // namespace cssidx::store

#endif  // CSSIDX_STORE_PAGE_H_
