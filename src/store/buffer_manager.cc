#include "store/buffer_manager.h"

#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <stdexcept>

namespace cssidx::store {

namespace fs = std::filesystem;

namespace {

/// Distinguishes spill subdirectories of concurrently-live managers in
/// one process (the differential tests build paged tables side by side).
std::atomic<uint64_t> g_spill_serial{0};

}  // namespace

PageRef& PageRef::operator=(PageRef&& other) noexcept {
  if (this != &other) {
    Release();
    bm_ = other.bm_;
    frame_ = other.frame_;
    other.bm_ = nullptr;
    other.frame_ = nullptr;
  }
  return *this;
}

std::span<uint32_t> PageRef::data() const {
  auto* frame = static_cast<BufferManager::Frame*>(frame_);
  return {frame->values.data(), frame->values.size()};
}

void PageRef::MarkDirty() {
  static_cast<BufferManager::Frame*>(frame_)->dirty = true;
}

void PageRef::Release() {
  if (bm_ != nullptr) {
    bm_->Unpin(static_cast<BufferManager::Frame*>(frame_));
    bm_ = nullptr;
    frame_ = nullptr;
  }
}

BufferManager::BufferManager(StoreOptions options)
    : options_(std::move(options)) {
  values_per_page_ = options_.page_bytes / sizeof(uint32_t);
  if (values_per_page_ == 0) values_per_page_ = 1;
}

BufferManager::~BufferManager() {
  for (auto& [column, file] : spill_files_) {
    if (file != nullptr) std::fclose(file);
  }
  if (spill_path_.empty()) return;  // never spilled: nothing on disk
  std::error_code ec;  // best effort; never throw from a destructor
  fs::remove_all(spill_path_, ec);
}

const std::string& BufferManager::spill_path() {
  if (spill_path_.empty()) {
    fs::path root = options_.spill_dir.empty() ? fs::temp_directory_path()
                                               : fs::path(options_.spill_dir);
    fs::path sub =
        root / ("cssidx_spill_" + std::to_string(::getpid()) + "_" +
                std::to_string(g_spill_serial.fetch_add(1)));
    fs::create_directories(sub);
    spill_path_ = sub.string();
  }
  return spill_path_;
}

uint32_t BufferManager::RegisterColumn() { return next_column_++; }

std::FILE* BufferManager::SpillFile(uint32_t column) {
  auto it = spill_files_.find(column);
  if (it != spill_files_.end()) return it->second;
  std::string path =
      spill_path() + "/col_" + std::to_string(column) + ".pages";
  std::FILE* file = std::fopen(path.c_str(), "w+b");
  if (file == nullptr) {
    throw std::runtime_error("cannot create spill file " + path);
  }
  spill_files_[column] = file;
  return file;
}

void BufferManager::EvictOne() {
  // Scan from the LRU end; pinned frames are immovable.
  for (auto it = std::prev(frames_.end());; --it) {
    if (it->pins == 0) {
      if (it->dirty) {
        std::FILE* file = SpillFile(it->id.column);
        auto offset = static_cast<long>(it->id.page) *
                      static_cast<long>(values_per_page_ * sizeof(uint32_t));
        if (std::fseek(file, offset, SEEK_SET) != 0 ||
            std::fwrite(it->values.data(), sizeof(uint32_t),
                        it->values.size(), file) != it->values.size()) {
          throw std::runtime_error("spill write failed for column " +
                                   std::to_string(it->id.column));
        }
        ++stats_.spill_writes;
      }
      frame_table_.erase(it->id);
      frames_.erase(it);
      ++stats_.evictions;
      --stats_.frames;
      return;
    }
    if (it == frames_.begin()) break;
  }
  throw std::runtime_error(
      "buffer budget exhausted: all " + std::to_string(frames_.size()) +
      " frames pinned (buffer_pages = " +
      std::to_string(options_.buffer_pages) + ")");
}

PageRef BufferManager::Pin(PageId id, bool create) {
  ++stats_.pins;
  auto it = frame_table_.find(id);
  if (it != frame_table_.end()) {
    ++stats_.hits;
    // Refresh recency: splice to MRU position.
    frames_.splice(frames_.begin(), frames_, it->second);
    it->second = frames_.begin();
    // pinned counts FRAMES pinned now, not pins: bump on 0 -> 1 only.
    if (++it->second->pins == 1) ++stats_.pinned;
    return PageRef(this, &*frames_.begin());
  }
  ++stats_.faults;
  if (options_.buffer_pages != 0 && stats_.frames >= options_.buffer_pages) {
    EvictOne();
  }
  frames_.push_front(Frame{id, std::vector<uint32_t>(values_per_page_, 0u),
                           /*dirty=*/false, /*pins=*/1});
  frame_table_[id] = frames_.begin();
  ++stats_.frames;
  stats_.peak_frames = std::max(stats_.peak_frames, stats_.frames);
  ++stats_.pinned;
  if (!create) {
    // The page existed before: its bytes are in the spill file (every
    // non-resident existing page was evicted there). A short read — the
    // file was never extended this far because the page was created but
    // never evicted dirty — leaves the zero fill, which is exactly the
    // content a never-written page has.
    auto sf = spill_files_.find(id.column);
    if (sf != spill_files_.end()) {
      std::FILE* file = sf->second;
      auto offset = static_cast<long>(id.page) *
                    static_cast<long>(values_per_page_ * sizeof(uint32_t));
      if (std::fseek(file, offset, SEEK_SET) == 0) {
        size_t got = std::fread(frames_.begin()->values.data(),
                                sizeof(uint32_t), values_per_page_, file);
        (void)got;  // short read = zero tail, see above
        ++stats_.spill_reads;
      }
    }
  }
  return PageRef(this, &*frames_.begin());
}

void BufferManager::Unpin(Frame* frame) {
  if (--frame->pins == 0) --stats_.pinned;
}

void BufferManager::DropTail(uint32_t column, uint32_t first_kept) {
  for (auto it = frames_.begin(); it != frames_.end();) {
    if (it->id.column == column && it->id.page >= first_kept &&
        it->pins == 0) {
      frame_table_.erase(it->id);
      it = frames_.erase(it);
      --stats_.frames;
    } else {
      ++it;
    }
  }
}

}  // namespace cssidx::store
