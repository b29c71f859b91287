#ifndef CSSIDX_ENGINE_TABLE_H_
#define CSSIDX_ENGINE_TABLE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/any_index.h"
#include "core/index.h"
#include "core/index_spec.h"
#include "core/maintained_index.h"
#include "domain/domain.h"
#include "store/buffer_manager.h"
#include "store/paged_column.h"

// Minimal columnar table, the §2 system context: columns store 4-byte
// values (raw integers or domain IDs), and ordered access to a column
// goes through a *sort index* — "a list of record identifiers sorted by
// some columns" (§2.2) — with a search structure over the sorted key
// list. Which structure is an IndexSpec: any method in the suite can
// serve a column, and probes go through the batch-first AnyIndex facade.
//
// Every column lives on fixed-size pages behind one LRU BufferManager
// (src/store/) per table — the paper's §5 argument that only the CSS
// directory needs to be RAM-resident, applied to the data under it. The
// pool's budget decides where the data sits, not a storage mode: the
// default budget (buffer_pages = 0) is unbounded, so pages never spill
// and the table is a chunked in-RAM column store; a bounded budget
// spills to disk, so n >> RAM works end to end. Column access goes
// through ColumnView cursors, mutators stream pages instead of
// materializing whole vectors, and sort-index construction routes
// through the external merge sort (core/external_build.h) when a column
// exceeds the budget. Query results are bit-identical at any budget —
// the paged differential suite's contract.

namespace cssidx::engine {

using Rid = uint32_t;

/// Storage knobs of a Table: page size, frame budget (0 = unbounded, the
/// default) and spill directory.
using TableOptions = store::StoreOptions;

/// Read facade over one column: every access copies through short-lived
/// page pins (one pinned frame at a time, so any buffer budget works).
/// A view holds no state beyond the column it borrows, so it is free to
/// construct and copy. Point reads go through Gather, which pins each
/// touched page once per call however the rows interleave pages — the
/// access path for RID lists out of a sort index.
class ColumnView {
 public:
  size_t size() const { return column_->size(); }

  /// out[i] = value of row rows[i], for any row order (duplicates
  /// allowed). Throws std::out_of_range, before pinning anything, for a
  /// row >= size(). `out` must be as long as `rows`.
  void Gather(std::span<const Rid> rows, std::span<uint32_t> out) const {
    column_->Gather(rows, out);
  }

  /// Copies rows [start, start + out.size()) into `out`.
  void Read(size_t start, std::span<uint32_t> out) const {
    column_->Read(start, out);
  }

  /// The whole column as one vector (a copy).
  std::vector<uint32_t> Materialize() const;

  /// Streams the column one page-sized block at a time:
  /// fn(std::span<const uint32_t> block, size_t base_row).
  template <typename Fn>
  void Scan(Fn&& fn) const {
    store::ColumnCursor cursor(*column_);
    for (std::span<const uint32_t> block = cursor.NextBlock(); !block.empty();
         block = cursor.NextBlock()) {
      fn(block, cursor.position() - block.size());
    }
  }

 private:
  friend class Table;
  explicit ColumnView(const store::PagedColumn* column) : column_(column) {}

  const store::PagedColumn* column_;
};

/// Ordered secondary index on one column: the column's values sorted, the
/// matching RID permutation, and an AnyIndex over the sorted values. This
/// is exactly the paper's indexed representation: the sorted key list
/// supports range/ordered access, the directory accelerates lookups, and
/// position i of the key list pairs with rids[i]. The sorted key/RID
/// lists and the directory stay RAM-resident at any buffer budget (the
/// §5 point is that the directory is small; the lists are the index's
/// working representation) — only their construction differs: columns
/// over budget build them by external merge sort.
///
/// Unordered methods (hash) still serve Equal/Find — the hash stores array
/// positions, so the leftmost match plus a rightward scan works as for any
/// ordered method — while Range/LowerBound fall back to binary search on
/// the sorted key list.
class SortIndex {
 public:
  /// Stably sorts the column's RIDs by value; a column already in value
  /// order keeps RIDs 0..n-1 after one order check, with no sort.
  explicit SortIndex(const std::vector<uint32_t>& column_values,
                     const IndexSpec& spec = IndexSpec());

  /// Wraps already-sorted key/RID lists — the external merge-sort build
  /// path (core/external_build.h), whose output is bit-identical to the
  /// stable_sort the other constructor performs. `spilled`/`runs` record
  /// how the lists were produced, for tests and the bench to assert the
  /// external path actually ran. Throws if the lists' sizes disagree or
  /// the spec is off the menu.
  static SortIndex FromSorted(std::vector<uint32_t> sorted_keys,
                              std::vector<Rid> rids,
                              const IndexSpec& spec = IndexSpec(),
                              bool spilled = false, size_t runs = 0);

  // Move-only: two mutating entry points (ApplyAppend) sharing one RID
  // list would silently diverge; the maintained index is single-writer by
  // contract anyway.
  SortIndex(SortIndex&&) = default;
  SortIndex& operator=(SortIndex&&) = default;
  SortIndex(const SortIndex&) = delete;
  SortIndex& operator=(const SortIndex&) = delete;

  /// Incremental maintenance: merges the appended rows — values[i] is the
  /// column value of row first_rid + i — into the sorted key/RID lists
  /// instead of re-sorting the whole column. The keys go through
  /// MaintainedIndex::ApplySortedBatch as an insert-only batch (one merge
  /// into the new version; only the touched shards rebuild for "part:K/"
  /// specs). The RID list grows in place: a galloping search finds where
  /// each appended row lands among the old keys, and the old segments
  /// between those spots move back from the tail, into capacity reserved
  /// geometrically — no new n-sized RID array per append. Results are
  /// bit-identical to a from-scratch rebuild of the extended column.
  /// Mutation requires external synchronization, like any other method
  /// on this class; the lock-free snapshot story lives in
  /// core::MaintainedIndex.
  void ApplyAppend(std::span<const uint32_t> values, Rid first_rid);

  /// The delete half of the maintenance chain, fused with an optional
  /// append into ONE batch through MaintainedIndex::ApplySortedBatch.
  /// `deleted[r]` marks old row r as removed; `remap[r]` is a surviving
  /// row's new RID (old RID minus deleted rows before it); `appended` are
  /// the values of rows first_rid + i appended after compaction. Because
  /// the index's batch language removes EVERY occurrence of a deleted
  /// key, a partially-deleted duplicate run is expressed as one delete of
  /// the run's value plus reinserts of the surviving copies — the merged
  /// key/RID lists come out bit-identical to a from-scratch rebuild of
  /// the compacted (and extended) column, and "part:K/" specs rebuild
  /// only the shards whose key range the deleted/appended values touch.
  void ApplyUpdate(const std::vector<bool>& deleted,
                   std::span<const Rid> remap,
                   std::span<const uint32_t> appended, Rid first_rid);

  /// RIDs of rows whose value equals `v`, in RID-list order.
  std::vector<Rid> Equal(uint32_t v) const;

  /// Number of rows whose value equals `v`, without materializing RIDs.
  size_t CountEqual(uint32_t v) const {
    return head_->index().CountEqual(v);
  }
  /// Number of rows with value in [lo, hi), without materializing RIDs.
  size_t CountRange(uint32_t lo, uint32_t hi) const {
    return hi > lo ? LowerBound(hi) - LowerBound(lo) : 0;
  }

  /// RIDs of rows with value in [lo, hi).
  std::vector<Rid> Range(uint32_t lo, uint32_t hi) const;

  /// Range([lo, hi)) for many ranges at once: every range's two bound
  /// probes are staged into ONE batched LowerBound call (2 probes per
  /// range), so bound descents group-probe and prefetch across ranges —
  /// and shard across threads when the staged span is large (per the
  /// spec's "@tN" policy, or per `opts` on the explicit overload).
  /// Result i is exactly Range(bounds[i].first, bounds[i].second).
  std::vector<std::vector<Rid>> RangeBatch(
      std::span<const std::pair<uint32_t, uint32_t>> bounds) const {
    return RangeBatch(bounds,
                      ProbeOptions{.threads = spec().probe_threads()});
  }
  std::vector<std::vector<Rid>> RangeBatch(
      std::span<const std::pair<uint32_t, uint32_t>> bounds,
      const ProbeOptions& opts) const;

  /// Leftmost sorted position of `v`, or kNotFound.
  int64_t Find(uint32_t v) const { return head_->index().Find(v); }
  size_t LowerBound(uint32_t v) const;

  /// Batched probes against the sorted key list — the join inner loop.
  /// out[i] = leftmost sorted position of keys[i], or kNotFound. The
  /// two-argument form follows the spec's probe-thread policy ("@tN");
  /// the overload takes an explicit policy (the engine's probe loops pass
  /// threads = 0 so large spans shard across the hardware automatically).
  void FindBatch(std::span<const uint32_t> keys,
                 std::span<int64_t> out) const {
    head_->index().FindBatch(keys, out);
  }
  void FindBatch(std::span<const uint32_t> keys, std::span<int64_t> out,
                 const ProbeOptions& opts) const {
    head_->index().FindBatch(keys, out, opts);
  }

  /// Batched lower bounds on the sorted key list. Ordered methods go
  /// through the index's batch kernel; hash falls back to binary search on
  /// the sorted keys (still sharded per `opts`), so every spec serves
  /// positional probes.
  void LowerBoundBatch(std::span<const uint32_t> keys,
                       std::span<size_t> out) const {
    LowerBoundBatch(keys, out, ProbeOptions{.threads = spec().probe_threads()});
  }
  void LowerBoundBatch(std::span<const uint32_t> keys, std::span<size_t> out,
                       const ProbeOptions& opts) const;

  /// Batched duplicate-run probes — the join's duplicate expansion and
  /// GroupBy's group resolution. out[i] spans keys[i]'s run in the sorted
  /// key list: rids()[out[i].begin .. out[i].end) are the matching rows in
  /// RID order. Absent keys yield empty spans. Works for every spec (the
  /// hash kernel scans each chain once for leftmost match + count).
  void EqualRangeBatch(std::span<const uint32_t> keys,
                       std::span<PositionRange> out) const {
    head_->index().EqualRangeBatch(keys, out);
  }
  void EqualRangeBatch(std::span<const uint32_t> keys,
                       std::span<PositionRange> out,
                       const ProbeOptions& opts) const {
    head_->index().EqualRangeBatch(keys, out, opts);
  }

  /// The sorted key list as consecutive spans (one per shard for a
  /// part:K spec): position i of their concatenation pairs with rids()[i].
  std::span<const std::span<const uint32_t>> KeySegments() const {
    return head_->Segments();
  }
  /// The sorted key list as one array; a refreshed part:K index
  /// concatenates its shards on the first call. For tests and tools.
  const std::vector<uint32_t>& sorted_keys() const { return head_->keys(); }
  const std::vector<Rid>& rids() const { return rids_; }
  const IndexSpec& spec() const { return maintained_->spec(); }
  /// The maintenance machinery behind this index (snapshots, writer
  /// stats) — e.g. to check that a part:K append refreshed incrementally.
  const MaintainedIndex& maintained() const { return *maintained_; }

  /// Bytes the index's CURRENT contents occupy: size-based key/RID list
  /// bytes plus the directory — the quantity the §5 analytic space model
  /// predicts (fig08's measured-vs-model table compares against it).
  /// Allocator slack is deliberately excluded; see ReservedBytes().
  size_t SpaceBytes() const;
  /// Bytes actually reserved, capacity-based: >= SpaceBytes() by exactly
  /// the allocator slack (e.g. externally-built lists whose final merge
  /// grew by push_back, or incremental-growth headroom).
  size_t ReservedBytes() const;

  /// True when this index's lists were produced by a spilled external
  /// merge sort (FromSorted with spilled = true), and how many sorted
  /// runs it merged — the paged bench and tests assert the out-of-core
  /// build path actually ran.
  bool external_build() const { return external_build_; }
  size_t external_runs() const { return external_runs_; }

 private:
  SortIndex() = default;

  std::vector<Rid> rids_;
  /// Owns the sorted key array and the search structure, versioned. The
  /// head_ cache is the writer's view of the current version: position i
  /// of its key segments pairs with rids_[i].
  std::unique_ptr<MaintainedIndex> maintained_;
  std::shared_ptr<const MaintainedIndex::Version> head_;
  bool external_build_ = false;
  size_t external_runs_ = 0;
};

/// Column-store table: named uint32 columns of equal length on pages
/// behind one BufferManager shared by all of the table's columns.
class Table {
 public:
  /// An unbounded pool: the columns stay in RAM and never spill.
  Table() : Table(TableOptions{}) {}
  explicit Table(const TableOptions& options);

  const TableOptions& options() const { return buffer_->options(); }
  /// Buffer-pool counters (hits, faults, evictions, spill I/O).
  const store::BufferStats& PoolStats() const { return buffer_->stats(); }

  /// Adds (or replaces) a column; all columns must have the same row
  /// count. The values stream onto pages and the vector is released.
  void AddColumn(const std::string& name, std::vector<uint32_t> values);

  /// Adds a string column the §2.1 way: the distinct values go into an
  /// order-preserving StringDomain, and what the table stores is an
  /// ordinary uint32 column of domain IDs — so sort indexes, selections,
  /// joins, and GROUP BY run on the IDs unchanged, and because the
  /// dictionary is sorted, ID order IS value order (range predicates map
  /// through StringDomainOf().LowerBoundId). String columns are a load
  /// path: AppendRows/ApplyUpdate mutate ID columns only (the live
  /// string-update story, with its dictionary growth, is the serving
  /// layer's writer) — and inserted IDs are validated against the
  /// dictionary, so a column can never desync from its domain.
  void AddStringColumn(const std::string& name,
                       std::vector<std::string> values);

  /// Whether `name` is a string column (an ID column with a dictionary).
  bool HasStringColumn(const std::string& name) const;

  /// The dictionary behind a string column (throws if `name` is not one).
  /// Decode query output by gathering the IDs first, e.g.
  /// View(c).Gather(rids, ids), then StringDomainOf(c).Decode(ids[i]).
  const domain::StringDomain& StringDomainOf(const std::string& name) const;

  /// Appends a batch of rows (one value per existing column, keyed by
  /// name) and refreshes every sort index in place via ApplyAppend — the
  /// OLAP maintenance cycle, without re-sorting whole columns (and, for
  /// "part:K/" specs, rebuilding only the shards the batch touches).
  /// Throws if the batch's columns do not match the table's, or if a
  /// value inserted into a string column is not a valid dictionary ID.
  /// An empty batch on a zero-column table is a no-op.
  void AppendRows(const std::map<std::string, std::vector<uint32_t>>& rows);

  /// Deletes the given rows (by RID; duplicates and any order allowed).
  /// Surviving rows are compacted in order and renumbered — a survivor's
  /// new RID is its old RID minus the deleted rows before it — and every
  /// sort index refreshes through its MaintainedIndex with ONE batch (the
  /// same maintenance chain as AppendRows, shard-incremental for
  /// "part:K/" specs). The result is bit-identical to a from-scratch
  /// rebuild of the compacted table. Throws std::out_of_range for RIDs
  /// >= NumRows(); like the other mutators, requires external
  /// synchronization.
  void DeleteRows(std::span<const Rid> rids);

  /// DELETE + INSERT as one maintenance step: removes every row whose
  /// `key_column` value appears in `delete_keys`, then appends
  /// `insert_rows` (same shape rules as AppendRows; an empty map means no
  /// inserts). Each sort index applies the whole change as a single
  /// batch — deletes first, then inserts, so an inserted row whose key
  /// was just deleted survives, matching workload::ApplySortedBatch.
  /// Equivalent to DeleteRows(matching rows) then AppendRows(insert_rows)
  /// at half the maintenance cost; this is what the serving layer's
  /// writer applies per coalesced batch.
  void ApplyUpdate(const std::string& key_column,
                   std::vector<uint32_t> delete_keys,
                   const std::map<std::string, std::vector<uint32_t>>&
                       insert_rows = {});

  size_t NumRows() const { return num_rows_; }
  size_t NumColumns() const { return columns_.size(); }
  bool HasColumn(const std::string& name) const;

  /// Read access through page cursors and block copies. The view borrows
  /// the column — it stays valid until the next mutation of this table.
  /// Throws std::out_of_range for an unknown column.
  ColumnView View(const std::string& name) const;

  /// The whole column as one vector (a copy).
  std::vector<uint32_t> ReadColumn(const std::string& name) const;

  /// Builds (or rebuilds, after batch updates) the sort index on a column
  /// using any method in the suite. Throws std::invalid_argument for specs
  /// off the menu. A column that exceeds a bounded buffer budget builds
  /// through the external merge sort (the directory and sorted lists
  /// still come out RAM-resident, and bit-identical to the in-RAM
  /// stable_sort build).
  const SortIndex& BuildSortIndex(const std::string& column,
                                  const IndexSpec& spec = IndexSpec());
  /// The sort index previously built on `column` (must exist).
  const SortIndex& GetSortIndex(const std::string& column) const;
  bool HasSortIndex(const std::string& column) const;

 private:
  /// Shared delete/append path: compacts columns per the `deleted` bitmap
  /// (`removed` = popcount; the bitmap is not read when it is 0), appends
  /// `insert_rows` (already validated; empty = no inserts), and refreshes
  /// every sort index with one combined maintenance batch.
  void DeleteAndAppend(
      const std::vector<bool>& deleted, size_t removed,
      const std::map<std::string, std::vector<uint32_t>>& insert_rows);

  /// The shape and dictionary checks every insert path runs BEFORE any
  /// state changes: one batch column per table column, no unknown or
  /// ragged columns, and every value in a string column a valid
  /// dictionary ID.
  void ValidateBatch(
      const std::map<std::string, std::vector<uint32_t>>& rows) const;

  const store::PagedColumn& ColumnOf(const std::string& name) const;

  size_t num_rows_ = 0;
  /// The frame pool shared by every column (and the spill directory
  /// external index builds use).
  std::unique_ptr<store::BufferManager> buffer_;
  std::map<std::string, std::unique_ptr<store::PagedColumn>> columns_;
  std::map<std::string, std::unique_ptr<SortIndex>> indexes_;
  /// Dictionaries for string columns; the column itself lives in
  /// columns_ as IDs. unique_ptr: StringDomain is move-only-ish and the
  /// map must not invalidate references handed out by StringDomainOf.
  std::map<std::string, std::unique_ptr<domain::StringDomain>> domains_;
};

}  // namespace cssidx::engine

#endif  // CSSIDX_ENGINE_TABLE_H_
