#include "store/paged_column.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <string>

namespace cssidx::store {

void PagedColumn::Append(std::span<const uint32_t> values) {
  size_t start = size_;
  size_ += values.size();
  Write(start, values);
}

void PagedColumn::Write(size_t start, std::span<const uint32_t> values) {
  assert(start + values.size() <= size_);
  const size_t vpp = bm_->values_per_page();
  size_t done = 0;
  while (done < values.size()) {
    size_t pos = start + done;
    auto page = static_cast<uint32_t>(pos / vpp);
    size_t offset = pos % vpp;
    size_t len = std::min(vpp - offset, values.size() - done);
    // A page at or beyond pages_created_ has never existed: materialize
    // it fresh instead of probing the spill file.
    bool create = page >= pages_created_;
    PageRef ref = bm_->Pin({column_, page}, create);
    if (create) pages_created_ = page + 1;
    std::memcpy(ref.data().data() + offset, values.data() + done,
                len * sizeof(uint32_t));
    ref.MarkDirty();
    done += len;
  }
}

void PagedColumn::Read(size_t start, std::span<uint32_t> out) const {
  assert(start + out.size() <= size_);
  const size_t vpp = bm_->values_per_page();
  size_t done = 0;
  while (done < out.size()) {
    size_t pos = start + done;
    auto page = static_cast<uint32_t>(pos / vpp);
    size_t offset = pos % vpp;
    size_t len = std::min(vpp - offset, out.size() - done);
    PageRef ref = bm_->Pin({column_, page});
    std::memcpy(out.data() + done, ref.data().data() + offset,
                len * sizeof(uint32_t));
    done += len;
  }
}

uint32_t PagedColumn::Get(size_t i) const {
  uint32_t v;
  Read(i, std::span<uint32_t>(&v, 1));
  return v;
}

namespace {

/// PagedColumn::Gather over a column of `size` values, `vpp` to a page.
/// page_of maps a row to its page; pin(page) returns a PageRef.
template <typename PageOf, typename Pin>
void GatherByPage(std::span<const uint32_t> rows, std::span<uint32_t> out,
                  size_t size, size_t vpp, PageOf page_of, Pin pin) {
  if (rows.empty()) return;
  const size_t n = rows.size();
  // Range-check every row before any pin.
  const bool sorted = std::is_sorted(rows.begin(), rows.end());
  uint32_t min_row = rows.front(), max_row = rows.back();
  if (!sorted) {
    const auto [lo, hi] = std::minmax_element(rows.begin(), rows.end());
    min_row = *lo;
    max_row = *hi;
  }
  if (max_row >= size) {
    throw std::out_of_range("Gather: row " + std::to_string(max_row) +
                            " >= column size " + std::to_string(size));
  }
  // out[at(k)] for k in [begin, end): positions whose rows lie on page p.
  auto read_page = [&](uint32_t p, size_t begin, size_t end, auto at) {
    PageRef ref = pin(p);
    const uint32_t* values = ref.data().data();
    const size_t base = size_t{p} * vpp;
    for (size_t k = begin; k < end; ++k) {
      const size_t i = at(k);
      out[i] = values[rows[i] - base];
    }
  };
  const uint32_t first = page_of(min_row);
  const uint32_t last = page_of(max_row);
  if (sorted || first == last) {
    // Rows already grouped by page: one pin per page, no sort.
    for (size_t begin = 0, end = 0; begin < n; begin = end) {
      const uint32_t p = page_of(rows[begin]);
      end = static_cast<size_t>(
          std::partition_point(rows.begin() + static_cast<ptrdiff_t>(begin),
                               rows.end(),
                               [&](uint32_t r) { return page_of(r) == p; }) -
          rows.begin());
      read_page(p, begin, end, [](size_t k) { return k; });
    }
    return;
  }
  // Counting sort of input positions by page. Afterwards page first + p's
  // positions are order[end[p - 1], end[p]) (end[-1] = 0), in input order.
  const size_t pages = last - first + 1;
  std::vector<uint32_t> end(pages + 1, 0);
  for (uint32_t r : rows) ++end[page_of(r) - first + 1];
  std::partial_sum(end.begin(), end.end(), end.begin());
  std::vector<uint32_t> order(n);
  for (size_t i = 0; i < n; ++i) {
    order[end[page_of(rows[i]) - first]++] = static_cast<uint32_t>(i);
  }
  const auto by_page = [&](size_t k) { return order[k]; };
  for (size_t p = 0, begin = 0; p < pages; ++p) {
    if (end[p] > begin) {
      read_page(first + static_cast<uint32_t>(p), begin, end[p], by_page);
    }
    begin = end[p];
  }
}

}  // namespace

void PagedColumn::Gather(std::span<const uint32_t> rows,
                         std::span<uint32_t> out) const {
  assert(out.size() == rows.size());
  const size_t vpp = bm_->values_per_page();
  auto pin = [this](uint32_t page) { return bm_->Pin({column_, page}); };
  // A shift whenever a page holds a power of two values (every default
  // page size), a divide otherwise: on 10,000 random RIDs of a 1M-row
  // column (bench_paged's gather block) the divide doubles the gather.
  if (std::has_single_bit(vpp)) {
    const int shift = std::countr_zero(vpp);
    GatherByPage(rows, out, size_, vpp,
                 [shift](uint32_t row) { return row >> shift; }, pin);
  } else {
    const auto divisor = static_cast<uint32_t>(vpp);
    GatherByPage(rows, out, size_, vpp,
                 [divisor](uint32_t row) { return row / divisor; }, pin);
  }
}

void PagedColumn::Truncate(size_t n) {
  assert(n <= size_);
  size_ = n;
  const size_t vpp = bm_->values_per_page();
  auto first_dead = static_cast<uint32_t>((n + vpp - 1) / vpp);
  bm_->DropTail(column_, first_dead);
  // Dead pages must be re-created (zero-filled) if the column regrows,
  // not re-read from stale spill bytes.
  pages_created_ = std::min(pages_created_, first_dead);
}

std::span<const uint32_t> ColumnCursor::NextBlock() {
  if (pos_ >= column_->size()) return {};
  // Block length: to the end of the current page — keeps every block's
  // Read a single pin — or to the end of the column.
  const size_t vpp = column_->values_per_page();
  size_t remaining = column_->size() - pos_;
  size_t len = std::min(remaining, vpp - pos_ % vpp);
  buffer_.resize(len);
  column_->Read(pos_, buffer_);
  pos_ += len;
  return {buffer_.data(), buffer_.size()};
}

}  // namespace cssidx::store
