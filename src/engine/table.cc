#include "engine/table.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>

#include "core/external_build.h"
#include "util/sort.h"
#include "workload/batch_update.h"

namespace cssidx::engine {

std::vector<uint32_t> ColumnView::Materialize() const {
  std::vector<uint32_t> out(column_->size());
  column_->Read(0, out);
  return out;
}

SortIndex::SortIndex(const std::vector<uint32_t>& column_values,
                     const IndexSpec& spec) {
  if (!spec.OnMenu()) {
    // Reject before the O(n log n) sort, not after.
    throw std::invalid_argument("index spec off the menu: " +
                                spec.ToString());
  }
  const size_t n = column_values.size();
  rids_.resize(n);
  std::iota(rids_.begin(), rids_.end(), 0);
  // Stable sort keeps equal-valued rows in RID order, which is what makes
  // Equal()'s output deterministic and the leftmost-match semantics of the
  // index line up with the smallest RID. A column already in value order
  // keeps RIDs 0..n-1 unsorted: the stable sort would leave them so.
  StableSortUnlessOrdered(
      rids_.begin(), rids_.end(),
      [&](Rid a, Rid b) { return column_values[a] < column_values[b]; });
  std::vector<uint32_t> sorted(n);
  for (size_t i = 0; i < n; ++i) sorted[i] = column_values[rids_[i]];
  maintained_ = std::make_unique<MaintainedIndex>(spec, std::move(sorted));
  head_ = maintained_->Snapshot();
  if (!head_->index()) {
    throw std::invalid_argument("index spec off the menu: " +
                                spec.ToString());
  }
}

SortIndex SortIndex::FromSorted(std::vector<uint32_t> sorted_keys,
                                std::vector<Rid> rids, const IndexSpec& spec,
                                bool spilled, size_t runs) {
  if (!spec.OnMenu()) {
    throw std::invalid_argument("index spec off the menu: " +
                                spec.ToString());
  }
  if (sorted_keys.size() != rids.size()) {
    throw std::invalid_argument(
        "FromSorted: " + std::to_string(sorted_keys.size()) + " keys vs " +
        std::to_string(rids.size()) + " rids");
  }
  assert(std::is_sorted(sorted_keys.begin(), sorted_keys.end()));
  SortIndex out;
  out.rids_ = std::move(rids);
  out.maintained_ =
      std::make_unique<MaintainedIndex>(spec, std::move(sorted_keys));
  out.head_ = out.maintained_->Snapshot();
  if (!out.head_->index()) {
    throw std::invalid_argument("index spec off the menu: " +
                                spec.ToString());
  }
  out.external_build_ = spilled;
  out.external_runs_ = runs;
  return out;
}

void SortIndex::ApplyAppend(std::span<const uint32_t> values, Rid first_rid) {
  const size_t m = values.size();
  if (m == 0) return;
  // Sort the appended rows stably by value, so equal appended values keep
  // RID order — what a full stable_sort rebuild of the extended column
  // would produce.
  std::vector<uint32_t> order(m);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return values[a] < values[b];
  });
  std::vector<uint32_t> sorted_values(m);
  for (size_t j = 0; j < m; ++j) sorted_values[j] = values[order[j]];
  // Where each appended row lands in the old list: after every old key
  // <= its value — existing rows win ties, as in the key merge
  // ApplySortedBatch performs (their RIDs are smaller by construction).
  // One galloping walk over the old keys' segments, in order: segment s
  // starts at global position base, and the cursor is `from` within it.
  const auto segments = head_->Segments();
  const size_t n = head_->size();
  std::vector<size_t> at(m);
  for (size_t j = 0, s = 0, base = 0, from = 0; j < m; ++j) {
    const uint32_t v = sorted_values[j];
    for (;;) {
      const std::span<const uint32_t> keys = segments[s];
      from = static_cast<size_t>(
          workload::GallopPartitionPoint(keys.data() + from,
                                         keys.data() + keys.size(),
                                         [v](uint32_t k) { return k <= v; }) -
          keys.data());
      if (from < keys.size() || s + 1 == segments.size()) break;
      base += keys.size();
      from = 0;
      ++s;
    }
    at[j] = base + from;
  }
  // Everything that can throw runs before rids_ changes: the geometric
  // reserve, then the key merge and its new version.
  if (n + m > rids_.capacity()) {
    rids_.reserve(std::max(n + m, 2 * rids_.capacity()));
  }
  maintained_->ApplySortedBatch(std::move(sorted_values), {});
  // Grow the RID list in place, back to front: old segment
  // [at[j], at[j + 1]) moves j + 1 slots right, and appended row j lands
  // just before it.
  rids_.resize(n + m);
  size_t end = n;  // old rows [0, end) have not moved yet
  for (size_t j = m; j-- > 0;) {
    std::copy_backward(rids_.begin() + static_cast<ptrdiff_t>(at[j]),
                       rids_.begin() + static_cast<ptrdiff_t>(end),
                       rids_.begin() + static_cast<ptrdiff_t>(end + j + 1));
    rids_[at[j] + j] = first_rid + order[j];
    end = at[j];
  }
  head_ = maintained_->Snapshot();
}

void SortIndex::ApplyUpdate(const std::vector<bool>& deleted,
                            std::span<const Rid> remap,
                            std::span<const uint32_t> appended,
                            Rid first_rid) {
  const size_t n = head_->size();
  assert(deleted.size() == n);
  assert(remap.size() == n);

  // Stage the appended rows exactly as ApplyAppend does: stably
  // value-sorted, so equal appended values keep RID order.
  const size_t m = appended.size();
  std::vector<uint32_t> order(m);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return appended[a] < appended[b];
  });

  // Walk the old sorted list one duplicate run at a time. An untouched
  // run survives in place (RIDs remapped); a run with any deleted row
  // becomes one delete of the run's value — the batch language removes
  // EVERY occurrence — plus reinserts of the surviving copies. Runs are
  // distinct ascending values, so the delete list comes out sorted, and
  // a value never lands on both the survivor and the reinsert side.
  std::vector<uint32_t> survivor_keys, reinsert_keys, delete_keys;
  std::vector<Rid> survivor_rids, reinsert_rids;
  survivor_keys.reserve(n);
  survivor_rids.reserve(n);
  // The run of value v over old positions [begin, end).
  const auto flush_run = [&](uint32_t v, size_t begin, size_t end) {
    bool touched = false;
    for (size_t p = begin; p < end && !touched; ++p) {
      touched = deleted[rids_[p]];
    }
    if (!touched) {
      for (size_t p = begin; p < end; ++p) {
        survivor_keys.push_back(v);
        survivor_rids.push_back(remap[rids_[p]]);
      }
      return;
    }
    delete_keys.push_back(v);
    for (size_t p = begin; p < end; ++p) {
      if (deleted[rids_[p]]) continue;
      reinsert_keys.push_back(v);
      reinsert_rids.push_back(remap[rids_[p]]);
    }
  };
  size_t pos = 0, run_begin = 0;
  uint32_t run_value = 0;
  for (std::span<const uint32_t> segment : head_->Segments()) {
    for (uint32_t v : segment) {
      if (pos > run_begin && v != run_value) {
        flush_run(run_value, run_begin, pos);
        run_begin = pos;
      }
      run_value = v;
      ++pos;
    }
  }
  if (pos > run_begin) flush_run(run_value, run_begin, pos);

  // Merge reinserted survivors with the sorted appends into one insert
  // list. Both sides are value-sorted; on ties the reinserts go first —
  // their new RIDs are < first_rid — which is the order a stable sort of
  // the rebuilt column would give.
  std::vector<uint32_t> insert_keys;
  std::vector<Rid> insert_rids;
  insert_keys.reserve(reinsert_keys.size() + m);
  insert_rids.reserve(reinsert_keys.size() + m);
  size_t a = 0, b = 0;
  while (a < reinsert_keys.size() && b < m) {
    if (reinsert_keys[a] <= appended[order[b]]) {
      insert_keys.push_back(reinsert_keys[a]);
      insert_rids.push_back(reinsert_rids[a]);
      ++a;
    } else {
      insert_keys.push_back(appended[order[b]]);
      insert_rids.push_back(first_rid + order[b]);
      ++b;
    }
  }
  for (; a < reinsert_keys.size(); ++a) {
    insert_keys.push_back(reinsert_keys[a]);
    insert_rids.push_back(reinsert_rids[a]);
  }
  for (; b < m; ++b) {
    insert_keys.push_back(appended[order[b]]);
    insert_rids.push_back(first_rid + order[b]);
  }

  // Final RID merge mirrors the key merge ApplySortedBatch performs:
  // survivors win ties (an equal-valued survivor always carries a
  // smaller new RID than any equal-valued insert — reinserts can't
  // collide with survivors by run maximality, and appends start at
  // first_rid).
  std::vector<Rid> merged;
  merged.reserve(survivor_rids.size() + insert_rids.size());
  size_t s = 0, t = 0;
  while (s < survivor_keys.size() && t < insert_keys.size()) {
    merged.push_back(survivor_keys[s] <= insert_keys[t]
                         ? survivor_rids[s++]
                         : insert_rids[t++]);
  }
  while (s < survivor_keys.size()) merged.push_back(survivor_rids[s++]);
  while (t < insert_keys.size()) merged.push_back(insert_rids[t++]);

  maintained_->ApplySortedBatch(std::move(insert_keys),
                                std::move(delete_keys));
  head_ = maintained_->Snapshot();
  rids_ = std::move(merged);
}

size_t SortIndex::LowerBound(uint32_t v) const {
  return head_->LowerBound(v);
}

void SortIndex::LowerBoundBatch(std::span<const uint32_t> keys,
                                std::span<size_t> out,
                                const ProbeOptions& opts) const {
  const AnyIndex& index = head_->index();
  if (index.SupportsOrderedAccess()) {
    index.LowerBoundBatch(keys, out, opts);
    return;
  }
  // Hash fallback: the scalar path's binary search, still sharded.
  ParallelProbe(opts, keys.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) out[i] = LowerBound(keys[i]);
  });
}

std::vector<Rid> SortIndex::Equal(uint32_t v) const {
  const PositionRange run = head_->index().EqualRange(v);
  return std::vector<Rid>(rids_.begin() + static_cast<ptrdiff_t>(run.begin),
                          rids_.begin() + static_cast<ptrdiff_t>(run.end));
}

std::vector<Rid> SortIndex::Range(uint32_t lo, uint32_t hi) const {
  std::vector<Rid> out;
  if (hi <= lo) return out;
  size_t begin = LowerBound(lo);
  size_t end = LowerBound(hi);
  out.assign(rids_.begin() + static_cast<ptrdiff_t>(begin),
             rids_.begin() + static_cast<ptrdiff_t>(end));
  return out;
}

std::vector<std::vector<Rid>> SortIndex::RangeBatch(
    std::span<const std::pair<uint32_t, uint32_t>> bounds,
    const ProbeOptions& opts) const {
  // Stage both bound probes of every range into one flat key span: one
  // LowerBoundBatch serves 2 * ranges descents through the group-probing
  // kernel. Inverted/empty ranges still probe (keeping the staging layout
  // trivially position = 2 * i) and are clamped to empty afterwards.
  std::vector<uint32_t> probes(2 * bounds.size());
  for (size_t i = 0; i < bounds.size(); ++i) {
    probes[2 * i] = bounds[i].first;
    probes[2 * i + 1] = bounds[i].second;
  }
  std::vector<size_t> pos(probes.size());
  LowerBoundBatch(probes, pos, opts);
  std::vector<std::vector<Rid>> out(bounds.size());
  for (size_t i = 0; i < bounds.size(); ++i) {
    if (bounds[i].second <= bounds[i].first) continue;
    out[i].assign(rids_.begin() + static_cast<ptrdiff_t>(pos[2 * i]),
                  rids_.begin() + static_cast<ptrdiff_t>(pos[2 * i + 1]));
  }
  return out;
}

size_t SortIndex::SpaceBytes() const {
  // Size-based, not capacity-based: what the contents occupy, which is
  // the quantity the §5 space model predicts. Capacity slack (e.g. from
  // push_back-grown external-merge output) belongs to ReservedBytes().
  return head_->size() * sizeof(uint32_t) + rids_.size() * sizeof(Rid) +
         head_->index().SpaceBytes();
}

size_t SortIndex::ReservedBytes() const {
  // A refreshed part:K version has no contiguous array; its shard
  // buffers are exactly sized.
  const auto& array = head_->keys_ptr();
  return (array != nullptr ? array->capacity() : head_->size()) *
             sizeof(uint32_t) +
         rids_.capacity() * sizeof(Rid) + head_->index().SpaceBytes();
}

Table::Table(const TableOptions& options)
    : buffer_(std::make_unique<store::BufferManager>(options)) {}

void Table::AddColumn(const std::string& name, std::vector<uint32_t> values) {
  if (!columns_.empty() && values.size() != num_rows_) {
    throw std::invalid_argument("column " + name + " has " +
                                std::to_string(values.size()) +
                                " rows, table has " +
                                std::to_string(num_rows_));
  }
  num_rows_ = values.size();
  std::unique_ptr<store::PagedColumn>& slot = columns_[name];
  if (slot != nullptr) slot->Truncate(0);  // a replaced column frees its pages
  slot = std::make_unique<store::PagedColumn>(buffer_.get());
  slot->Append(values);
}

void Table::AddStringColumn(const std::string& name,
                            std::vector<std::string> values) {
  // §2.1's load path without a dictionary search per cell: sort the row
  // numbers by value, move the values into that order, and one
  // run-length pass (FromSortedColumn) yields the dictionary and each
  // sorted cell's ID, which scatters back to its row. No value is copied.
  std::vector<uint32_t> order(values.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return values[a] < values[b];
  });
  std::vector<std::string> sorted(values.size());
  for (size_t i = 0; i < order.size(); ++i) {
    sorted[i] = std::move(values[order[i]]);
  }
  std::vector<uint32_t> sorted_ids;
  auto dom = std::make_unique<domain::StringDomain>(
      domain::StringDomain::FromSortedColumn(std::move(sorted), &sorted_ids));
  std::vector<uint32_t> ids(order.size());
  for (size_t i = 0; i < order.size(); ++i) ids[order[i]] = sorted_ids[i];
  // AddColumn validates the row count.
  AddColumn(name, std::move(ids));
  domains_[name] = std::move(dom);
}

bool Table::HasStringColumn(const std::string& name) const {
  return domains_.count(name) != 0;
}

const domain::StringDomain& Table::StringDomainOf(
    const std::string& name) const {
  auto it = domains_.find(name);
  if (it == domains_.end()) {
    throw std::out_of_range("no string column named " + name);
  }
  return *it->second;
}

void Table::ValidateBatch(
    const std::map<std::string, std::vector<uint32_t>>& rows) const {
  if (rows.size() != columns_.size()) {
    throw std::invalid_argument("batch column count mismatch");
  }
  // An empty batch on a zero-column table has no first column to take a
  // row count from.
  if (rows.empty()) return;
  const size_t batch_rows = rows.begin()->second.size();
  for (const auto& [name, values] : rows) {
    if (columns_.count(name) == 0) {
      throw std::invalid_argument("batch has unknown column " + name);
    }
    if (values.size() != batch_rows) {
      throw std::invalid_argument("ragged batch column " + name);
    }
    // A raw ID landing in a string column must be a valid dictionary
    // entry, or the column desyncs from its domain.
    auto dom = domains_.find(name);
    if (dom == domains_.end()) continue;
    const size_t dictionary = dom->second->size();
    for (uint32_t v : values) {
      if (v >= dictionary) {
        throw std::invalid_argument(
            "insert into string column " + name + ": id " +
            std::to_string(v) + " not in dictionary of size " +
            std::to_string(dictionary));
      }
    }
  }
}

void Table::AppendRows(
    const std::map<std::string, std::vector<uint32_t>>& rows) {
  ValidateBatch(rows);
  // No deletes: no bitmap and no remap, so an append costs O(batch), not
  // O(table rows).
  DeleteAndAppend({}, 0, rows);
}

void Table::DeleteRows(std::span<const Rid> rids) {
  std::vector<bool> deleted(num_rows_, false);
  size_t removed = 0;
  for (Rid r : rids) {
    if (r >= num_rows_) {
      throw std::out_of_range("DeleteRows: rid " + std::to_string(r) +
                              " >= row count " + std::to_string(num_rows_));
    }
    if (!deleted[r]) {
      deleted[r] = true;
      ++removed;
    }
  }
  if (removed == 0) return;
  DeleteAndAppend(deleted, removed, {});
}

void Table::ApplyUpdate(
    const std::string& key_column, std::vector<uint32_t> delete_keys,
    const std::map<std::string, std::vector<uint32_t>>& insert_rows) {
  ColumnView keys = View(key_column);
  if (!insert_rows.empty()) ValidateBatch(insert_rows);
  std::sort(delete_keys.begin(), delete_keys.end());
  std::vector<bool> deleted(num_rows_, false);
  size_t removed = 0;
  keys.Scan([&](std::span<const uint32_t> block, size_t base) {
    for (size_t i = 0; i < block.size(); ++i) {
      if (std::binary_search(delete_keys.begin(), delete_keys.end(),
                             block[i])) {
        deleted[base + i] = true;
        ++removed;
      }
    }
  });
  if (removed == 0 && insert_rows.empty()) return;
  DeleteAndAppend(deleted, removed, insert_rows);
}

void Table::DeleteAndAppend(
    const std::vector<bool>& deleted, size_t removed,
    const std::map<std::string, std::vector<uint32_t>>& insert_rows) {
  // Survivors compact in order: new RID = old RID minus deleted rows
  // before it. The remap is what lets each sort index translate its old
  // RID list without seeing the columns.
  std::vector<Rid> remap;
  if (removed != 0) {
    remap.resize(num_rows_);
    Rid next = 0;
    for (size_t r = 0; r < num_rows_; ++r) {
      remap[r] = next;
      if (!deleted[r]) ++next;
    }
  }
  const Rid first_rid = static_cast<Rid>(num_rows_ - removed);
  for (auto& [name, column] : columns_) {
    if (removed != 0) {
      // Streaming compaction at any buffer budget: the cursor copies
      // each block out before survivors are written back, and the write
      // position w never passes the read frontier (w grows by at most
      // the block length per block), so no unread value is overwritten.
      store::ColumnCursor cursor(*column);
      std::vector<uint32_t> survivors;
      size_t w = 0;
      for (std::span<const uint32_t> block = cursor.NextBlock();
           !block.empty(); block = cursor.NextBlock()) {
        const size_t base = cursor.position() - block.size();
        survivors.clear();
        for (size_t i = 0; i < block.size(); ++i) {
          if (!deleted[base + i]) survivors.push_back(block[i]);
        }
        if (!survivors.empty()) {
          column->Write(w, survivors);
          w += survivors.size();
        }
      }
      column->Truncate(w);
    }
    if (!insert_rows.empty()) column->Append(insert_rows.at(name));
  }
  num_rows_ = first_rid + (insert_rows.empty()
                               ? 0
                               : insert_rows.begin()->second.size());
  // One maintenance batch per index — deletes and inserts together, so a
  // part:K spec pays one shard-incremental refresh for the whole change.
  // Maintenance-on-batch (§2.2) runs incrementally: each sort index
  // merges the change into its sorted key/RID lists, keeping the spec it
  // was built with, rather than re-sorting the whole column.
  static const std::vector<uint32_t> kNoAppend;
  for (auto& [name, index] : indexes_) {
    const std::vector<uint32_t>& appended =
        insert_rows.empty() ? kNoAppend : insert_rows.at(name);
    if (removed == 0) {
      index->ApplyAppend(appended, first_rid);
    } else {
      index->ApplyUpdate(deleted, remap, appended, first_rid);
    }
  }
}

bool Table::HasColumn(const std::string& name) const {
  return columns_.count(name) != 0;
}

const store::PagedColumn& Table::ColumnOf(const std::string& name) const {
  auto it = columns_.find(name);
  if (it == columns_.end()) {
    throw std::out_of_range("no column named " + name);
  }
  return *it->second;
}

ColumnView Table::View(const std::string& name) const {
  return ColumnView(&ColumnOf(name));
}

std::vector<uint32_t> Table::ReadColumn(const std::string& name) const {
  return View(name).Materialize();
}

const SortIndex& Table::BuildSortIndex(const std::string& column,
                                       const IndexSpec& spec) {
  const store::PagedColumn& values = ColumnOf(column);
  const size_t budget_values =
      options().buffer_pages * buffer_->values_per_page();
  std::unique_ptr<SortIndex> built;
  if (budget_values == 0 || values.size() <= budget_values) {
    // Unbounded pool, or the column fits the frame budget: materialize
    // once and take the in-RAM stable_sort path.
    built = std::make_unique<SortIndex>(View(column).Materialize(), spec);
  } else {
    // Column exceeds the budget: external merge sort under the pool's
    // byte budget. (key, RID) pairs are twice a value's width, so the
    // in-RAM run size in pairs is half the pool's value budget.
    ExternalBuildResult sorted = ExternalSortKeys(
        values, budget_values / 2, buffer_->spill_path());
    built = std::make_unique<SortIndex>(SortIndex::FromSorted(
        std::move(sorted.sorted_keys), std::move(sorted.rids), spec,
        sorted.spilled, sorted.runs));
  }
  auto& slot = indexes_[column];
  slot = std::move(built);
  return *slot;
}

const SortIndex& Table::GetSortIndex(const std::string& column) const {
  auto it = indexes_.find(column);
  if (it == indexes_.end()) {
    throw std::out_of_range("no sort index on column " + column);
  }
  return *it->second;
}

bool Table::HasSortIndex(const std::string& column) const {
  return indexes_.count(column) != 0;
}

}  // namespace cssidx::engine
