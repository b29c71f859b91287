#ifndef CSSIDX_STORE_BUFFER_MANAGER_H_
#define CSSIDX_STORE_BUFFER_MANAGER_H_

#include <cstdint>
#include <cstdio>
#include <list>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "store/page.h"

// Bounded LRU frame pool over spill-backed pages.
//
// Every page access goes through Pin(): the returned PageRef holds the
// frame resident (and addressable) until it is destroyed. A pin that
// misses the pool materializes a frame — zero-filled for a page never
// evicted, read back from the column's spill file otherwise — evicting
// the least-recently-used UNPINNED frame first when the pool is at
// budget (dirty victims are written to spill before they go). Pinning
// more distinct pages than the budget while holding every pin throws:
// the budget is a hard memory ceiling, not a hint. Unbounded pools
// (buffer_pages = 0) never evict and never touch disk.
//
// Single-threaded by contract, like the engine Table that owns it:
// mutators and readers alike require external synchronization.

namespace cssidx::store {

class BufferManager;

/// RAII pin: the page's values stay addressable through data() until the
/// ref is destroyed (or released). Mark writes with MarkDirty() or the
/// eviction path will drop them.
class PageRef {
 public:
  PageRef() = default;
  PageRef(PageRef&& other) noexcept { *this = std::move(other); }
  PageRef& operator=(PageRef&& other) noexcept;
  PageRef(const PageRef&) = delete;
  PageRef& operator=(const PageRef&) = delete;
  ~PageRef() { Release(); }

  std::span<uint32_t> data() const;
  void MarkDirty();
  explicit operator bool() const { return bm_ != nullptr; }
  void Release();

 private:
  friend class BufferManager;
  PageRef(BufferManager* bm, void* frame) : bm_(bm), frame_(frame) {}

  BufferManager* bm_ = nullptr;
  void* frame_ = nullptr;  // Frame*, opaque to keep the type private
};

class BufferManager {
 public:
  explicit BufferManager(StoreOptions options);
  ~BufferManager();
  BufferManager(const BufferManager&) = delete;
  BufferManager& operator=(const BufferManager&) = delete;

  /// Registers a column and returns its id (PageId::column). The spill
  /// file is created lazily, on the column's first eviction.
  uint32_t RegisterColumn();

  /// Pins page `id`. `create` says the caller is materializing a brand-new
  /// page (append path): the frame comes back zero-filled without
  /// consulting the spill file. Throws std::runtime_error when the budget
  /// is exhausted and every frame is pinned.
  PageRef Pin(PageId id, bool create = false);

  /// Drops resident frames of `column` with page index >= first_kept
  /// WITHOUT spilling them — the column shrank and their contents are
  /// dead. Stale spill-file bytes beyond the logical size are harmless:
  /// reads are bounded by the column's size, and re-grown pages are
  /// re-created via Pin(create) before they are ever read.
  void DropTail(uint32_t column, uint32_t first_kept);

  const BufferStats& stats() const { return stats_; }
  size_t values_per_page() const { return values_per_page_; }
  const StoreOptions& options() const { return options_; }
  /// The unique spill subdirectory (also hosts external-sort run files).
  /// Created on the first call or the first spill, and removed with the
  /// manager; a pool that never spills never touches the file system.
  const std::string& spill_path();

 private:
  friend class PageRef;

  struct Frame {
    PageId id;
    std::vector<uint32_t> values;
    bool dirty = false;
    int pins = 0;
  };
  using FrameList = std::list<Frame>;

  void Unpin(Frame* frame);
  /// Evicts the LRU unpinned frame (spilling if dirty). Throws when every
  /// frame is pinned.
  void EvictOne();
  std::FILE* SpillFile(uint32_t column);

  StoreOptions options_;
  size_t values_per_page_ = 0;
  std::string spill_path_;  // empty until spill_path() creates it
  uint32_t next_column_ = 0;
  /// LRU order: front = most recent. Pinned frames stay in the list (a
  /// pin refresh moves them to front) but are skipped by eviction.
  FrameList frames_;
  std::unordered_map<PageId, FrameList::iterator, PageIdHash> frame_table_;
  /// Lazily opened spill file per column (w+b: created on first evict).
  std::unordered_map<uint32_t, std::FILE*> spill_files_;
  BufferStats stats_;
};

}  // namespace cssidx::store

#endif  // CSSIDX_STORE_BUFFER_MANAGER_H_
