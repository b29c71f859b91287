#ifndef CSSIDX_STORE_PAGED_COLUMN_H_
#define CSSIDX_STORE_PAGED_COLUMN_H_

#include <cstdint>
#include <span>
#include <vector>

#include "store/buffer_manager.h"

// A uint32 column stored on fixed-size pages behind a BufferManager.
//
// All access copies through short-lived pins — one page pinned at a time —
// so every operation (append, point read, gather, range read/write,
// streaming compaction) works at ANY frame budget, including
// buffer_pages = 1 where
// every page touch faults. That is the correctness spine the paged
// differential suite leans on: results must be bit-identical to the
// in-RAM column no matter how small the pool is.

namespace cssidx::store {

class PagedColumn {
 public:
  /// Registers with `bm` (not owned; must outlive the column).
  explicit PagedColumn(BufferManager* bm)
      : bm_(bm), column_(bm->RegisterColumn()) {}
  PagedColumn(const PagedColumn&) = delete;
  PagedColumn& operator=(const PagedColumn&) = delete;

  size_t size() const { return size_; }
  size_t values_per_page() const { return bm_->values_per_page(); }
  size_t num_pages() const {
    size_t vpp = bm_->values_per_page();
    return (size_ + vpp - 1) / vpp;
  }

  /// Appends values at the end, growing the column.
  void Append(std::span<const uint32_t> values);

  /// Overwrites [start, start + values.size()), which must be in bounds.
  void Write(size_t start, std::span<const uint32_t> values);

  /// Copies [start, start + out.size()) into `out`; must be in bounds.
  /// Logically const: only buffer-pool state (recency, spill) moves.
  void Read(size_t start, std::span<uint32_t> out) const;

  /// Single value at `i` (one pin; use Read/cursors for bulk access).
  uint32_t Get(size_t i) const;

  /// out[i] = value at rows[i], for any row order with duplicates
  /// allowed. Unsorted rows are counting-sorted by page (sorted ones
  /// need no sort), so each touched page is pinned once, one pin at a
  /// time, however the rows interleave pages. Throws std::out_of_range,
  /// before pinning anything, if any row is >= size(). `out` must be as
  /// long as `rows`.
  void Gather(std::span<const uint32_t> rows, std::span<uint32_t> out) const;

  /// Shrinks to `n` values (n <= size()); dead whole pages are dropped
  /// from the pool without spilling.
  void Truncate(size_t n);

 private:
  BufferManager* bm_;
  uint32_t column_;
  size_t size_ = 0;
  /// Pages ever materialized; pages >= this are created fresh (no spill
  /// read) when the column grows into them.
  uint32_t pages_created_ = 0;
};

/// Forward sequential reader: hands out page-sized value blocks, copied
/// out of a pin that is released before NextBlock returns — so a scan
/// holds zero pinned frames between calls and runs at any budget.
class ColumnCursor {
 public:
  explicit ColumnCursor(const PagedColumn& column, size_t start = 0)
      : column_(&column), pos_(start) {}

  /// The next block (at most one page of values), or an empty span at
  /// end. The span is valid until the next call.
  std::span<const uint32_t> NextBlock();
  /// Logical position of the NEXT value NextBlock would return.
  size_t position() const { return pos_; }
  bool done() const { return pos_ >= column_->size(); }

 private:
  const PagedColumn* column_;
  size_t pos_;
  std::vector<uint32_t> buffer_;
};

}  // namespace cssidx::store

#endif  // CSSIDX_STORE_PAGED_COLUMN_H_
