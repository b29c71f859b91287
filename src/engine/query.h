#ifndef CSSIDX_ENGINE_QUERY_H_
#define CSSIDX_ENGINE_QUERY_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "engine/table.h"

// Decision-support operators over Table (§2.2): selection through a sort
// index, indexed nested-loop join ("the only join method used in [WK90]",
// pipelinable and storage-light), and simple aggregation. Everything runs
// against immutable tables; maintenance is rebuild-on-batch. Probes go
// through the sort index's batch API — point probes via FindBatch,
// duplicate runs via EqualRangeBatch, range bounds via LowerBoundBatch —
// so the inner structure can overlap the cache misses of neighboring
// probes, and large probe spans shard across threads automatically.

namespace cssidx::engine {

/// RIDs of rows in `table` where `column` == value. Uses the sort index if
/// present, else scans.
std::vector<Rid> SelectEqual(const Table& table, const std::string& column,
                             uint32_t value);

/// RIDs of rows where lo <= column < hi. Indexed if possible, else scan.
std::vector<Rid> SelectRange(const Table& table, const std::string& column,
                             uint32_t lo, uint32_t hi);

/// Number of rows where `column` == value, without materializing a RID
/// list — with a sort index this is one CountEqual probe (the serving
/// layer's COUNT verb); else a scan.
size_t CountEqual(const Table& table, const std::string& column,
                  uint32_t value);

/// Number of rows where lo <= column < hi, without materializing RIDs:
/// two lower-bound probes on the sort index, else a scan.
size_t CountRange(const Table& table, const std::string& column, uint32_t lo,
                  uint32_t hi);

// String-predicate forms for string columns (AddStringColumn): the
// predicate endpoints are encoded through the column's order-preserving
// dictionary (§2.1) — equality via Encode, range endpoints via
// LowerBoundId — and the query then runs on IDs through the overloads
// above, index or scan alike. Values the dictionary has never seen
// select nothing (equality) or clamp to the neighboring ID (range), and
// neither bound has to be a value in the column. Throws std::out_of_range
// if `column` is not a string column.

/// RIDs of rows where a string column equals `value`.
std::vector<Rid> SelectEqual(const Table& table, const std::string& column,
                             const std::string& value);

/// RIDs of rows where lo <= column < hi, by string comparison.
std::vector<Rid> SelectRange(const Table& table, const std::string& column,
                             const std::string& lo, const std::string& hi);

/// Number of rows where a string column equals `value`.
size_t CountEqual(const Table& table, const std::string& column,
                  const std::string& value);

/// Number of rows where lo <= column < hi, by string comparison.
size_t CountRange(const Table& table, const std::string& column,
                  const std::string& lo, const std::string& hi);

/// Many SelectRanges at once: result i is exactly
/// SelectRange(table, column, bounds[i].first, bounds[i].second), but with
/// a sort index every range's two bound probes go through ONE batched
/// LowerBound call, so bound descents amortize each other's cache misses
/// (and shard across threads above the parallel-probe threshold).
std::vector<std::vector<Rid>> SelectRangeBatch(
    const Table& table, const std::string& column,
    std::span<const std::pair<uint32_t, uint32_t>> bounds);

struct JoinedPair {
  Rid outer;
  Rid inner;
};

/// Indexed nested-loop equi-join: probes the inner table's sort index on
/// `inner_column` with batches of outer keys; emits every matching pair.
/// The inner table must have a sort index built on `inner_column`.
/// String columns join on VALUES, not raw IDs: two tables have two
/// dictionaries, so when both join columns are string columns the outer
/// IDs are translated once (outer ID -> value -> inner ID; values absent
/// from the inner dictionary match nothing) and the probe loop runs on
/// translated IDs. Joining a string column against an integer column is
/// a type error (std::invalid_argument).
std::vector<JoinedPair> IndexedJoin(const Table& outer,
                                    const std::string& outer_column,
                                    const Table& inner,
                                    const std::string& inner_column);

/// COUNT/SUM/MIN/MAX accumulator. Defaults are fold identities — min
/// starts at UINT32_MAX, not 0, so MIN over a non-empty row set is right
/// without callers having to remember to re-initialize.
struct Aggregates {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint32_t min = UINT32_MAX;
  uint32_t max = 0;

  void Accumulate(uint32_t v) {
    ++count;
    sum += v;
    min = std::min(min, v);
    max = std::max(max, v);
  }
};

/// COUNT/SUM/MIN/MAX of `column` over the given rows, gathered in
/// bounded blocks that pin each touched page once. An empty row set
/// reports min = max = 0 (SQL would say NULL; 0 is this engine's
/// convention). Throws std::out_of_range for a RID >= NumRows().
Aggregates Aggregate(const Table& table, const std::string& column,
                     const std::vector<Rid>& rids);

/// GROUP BY `group_column` (dense domain IDs expected) computing COUNT and
/// SUM(value_column) per group. Returns a vector indexed by group ID;
/// empty groups report min = max = 0. With a sort index on `group_column`
/// the groups' rows are the RID-list prefix [0, LowerBound(num_groups)),
/// which one probe finds and which doubles as a selectivity measurement:
/// a prefix covering at most a quarter of the table is gathered in
/// bounded blocks, anything wider falls back to a sequential scan of both
/// columns. Both paths accumulate each group's rows in RID order (the
/// sort is stable), so results are identical regardless of path.
std::vector<Aggregates> GroupBy(const Table& table,
                                const std::string& group_column,
                                const std::string& value_column,
                                uint32_t num_groups);

}  // namespace cssidx::engine

#endif  // CSSIDX_ENGINE_QUERY_H_
