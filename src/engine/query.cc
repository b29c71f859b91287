#include "engine/query.h"

#include <algorithm>
#include <span>
#include <stdexcept>

namespace cssidx::engine {

using domain::kAbsentId;

std::vector<Rid> SelectEqual(const Table& table, const std::string& column,
                             uint32_t value) {
  if (table.HasSortIndex(column)) {
    return table.GetSortIndex(column).Equal(value);
  }
  std::vector<Rid> out;
  table.View(column).Scan([&](std::span<const uint32_t> block, size_t base) {
    for (size_t i = 0; i < block.size(); ++i) {
      if (block[i] == value) out.push_back(static_cast<Rid>(base + i));
    }
  });
  return out;
}

std::vector<Rid> SelectRange(const Table& table, const std::string& column,
                             uint32_t lo, uint32_t hi) {
  // A single range has nothing to batch: go straight to the index (or the
  // scan) rather than paying RangeBatch's staging vectors per call.
  if (table.HasSortIndex(column)) {
    return table.GetSortIndex(column).Range(lo, hi);
  }
  std::vector<Rid> out;
  table.View(column).Scan([&](std::span<const uint32_t> block, size_t base) {
    for (size_t i = 0; i < block.size(); ++i) {
      if (block[i] >= lo && block[i] < hi) {
        out.push_back(static_cast<Rid>(base + i));
      }
    }
  });
  return out;
}

size_t CountEqual(const Table& table, const std::string& column,
                  uint32_t value) {
  if (table.HasSortIndex(column)) {
    return table.GetSortIndex(column).CountEqual(value);
  }
  size_t count = 0;
  table.View(column).Scan([&](std::span<const uint32_t> block, size_t) {
    count += static_cast<size_t>(std::count(block.begin(), block.end(), value));
  });
  return count;
}

size_t CountRange(const Table& table, const std::string& column, uint32_t lo,
                  uint32_t hi) {
  if (hi <= lo) return 0;
  if (table.HasSortIndex(column)) {
    return table.GetSortIndex(column).CountRange(lo, hi);
  }
  size_t count = 0;
  table.View(column).Scan([&](std::span<const uint32_t> block, size_t) {
    for (uint32_t v : block) {
      if (v >= lo && v < hi) ++count;
    }
  });
  return count;
}

std::vector<Rid> SelectEqual(const Table& table, const std::string& column,
                             const std::string& value) {
  const domain::StringDomain& dom = table.StringDomainOf(column);
  return SelectEqual(table, column, dom.Encode(value).value_or(kAbsentId));
}

std::vector<Rid> SelectRange(const Table& table, const std::string& column,
                             const std::string& lo, const std::string& hi) {
  // The ID image of a string range (§2.1: IDs are order-preserving):
  // [lo, hi) over values becomes [LowerBoundId(lo), LowerBoundId(hi))
  // over IDs — neither bound has to be in the dictionary.
  const domain::StringDomain& dom = table.StringDomainOf(column);
  return SelectRange(table, column, dom.LowerBoundId(lo),
                     dom.LowerBoundId(hi));
}

size_t CountEqual(const Table& table, const std::string& column,
                  const std::string& value) {
  const domain::StringDomain& dom = table.StringDomainOf(column);
  return CountEqual(table, column, dom.Encode(value).value_or(kAbsentId));
}

size_t CountRange(const Table& table, const std::string& column,
                  const std::string& lo, const std::string& hi) {
  const domain::StringDomain& dom = table.StringDomainOf(column);
  return CountRange(table, column, dom.LowerBoundId(lo),
                    dom.LowerBoundId(hi));
}

std::vector<std::vector<Rid>> SelectRangeBatch(
    const Table& table, const std::string& column,
    std::span<const std::pair<uint32_t, uint32_t>> bounds) {
  if (table.HasSortIndex(column)) {
    // All bound probes in one batched LowerBound; auto-shard large sets.
    return table.GetSortIndex(column).RangeBatch(
        bounds, ProbeOptions{.threads = 0});
  }
  // Scan fallback: one pass over the column serves every range (rows
  // outer, bounds inner), instead of re-streaming the column per range.
  std::vector<std::vector<Rid>> out(bounds.size());
  table.View(column).Scan([&](std::span<const uint32_t> block, size_t base) {
    for (size_t i = 0; i < block.size(); ++i) {
      for (size_t b = 0; b < bounds.size(); ++b) {
        if (block[i] >= bounds[b].first && block[i] < bounds[b].second) {
          out[b].push_back(static_cast<Rid>(base + i));
        }
      }
    }
  });
  return out;
}

std::vector<JoinedPair> IndexedJoin(const Table& outer,
                                    const std::string& outer_column,
                                    const Table& inner,
                                    const std::string& inner_column) {
  const SortIndex& index = inner.GetSortIndex(inner_column);
  const ColumnView outer_col = outer.View(outer_column);
  std::vector<JoinedPair> out;
  // String columns carry per-table dictionaries, so equal VALUES need not
  // have equal IDs; translate the outer dictionary into the inner one
  // once (O(|outer domain| * log |inner domain|)) and probe translated
  // IDs. Empty = no translation (plain integer join).
  const bool outer_str = outer.HasStringColumn(outer_column);
  const bool inner_str = inner.HasStringColumn(inner_column);
  if (outer_str != inner_str) {
    throw std::invalid_argument(
        "IndexedJoin: cannot join a string column against an integer "
        "column (" + outer_column + " vs " + inner_column + ")");
  }
  std::vector<uint32_t> translate;
  if (outer_str) {
    translate = domain::TranslateIds(outer.StringDomainOf(outer_column),
                                     inner.StringDomainOf(inner_column));
  }
  // Batched probe loop: the outer column is fed to the inner index a block
  // at a time, each block probed in one EqualRangeBatch the facade shards
  // into per-thread contiguous chunks (threads = 0: one per hardware
  // thread), every chunk running the structure's group-probing + prefetch
  // kernel with results landing in place. The block is sized so a wide
  // machine still gets a full min-shard chunk per hardware thread, while
  // keeping the staging buffer bounded rather than O(outer rows); outers
  // smaller than one shard stay on the inline path, so the parallelism
  // threshold is automatic. Each probe comes back as its whole duplicate
  // run — a PositionRange over the inner RID list — so the §3.6 duplicate
  // expansion is a plain span walk with no per-key key comparisons; it
  // stays sequential because it appends to the output pair list in
  // outer-RID order.
  constexpr size_t kProbeBlock = 64 * kParallelProbeMinShard;
  std::vector<PositionRange> found(std::min(outer_col.size(), kProbeBlock));
  std::vector<uint32_t> stage(found.size());  // outer blocks copy through it
  const auto& rids = index.rids();
  for (size_t base = 0; base < outer_col.size(); base += kProbeBlock) {
    size_t len = std::min(outer_col.size() - base, kProbeBlock);
    std::span<uint32_t> probe_keys(stage.data(), len);
    outer_col.Read(base, probe_keys);
    if (!translate.empty()) {
      for (uint32_t& key : probe_keys) key = translate[key];
    }
    index.EqualRangeBatch(probe_keys,
                          std::span<PositionRange>(found.data(), len),
                          ProbeOptions{.threads = 0});
    for (size_t i = 0; i < len; ++i) {
      for (size_t pos = found[i].begin; pos < found[i].end; ++pos) {
        out.push_back({static_cast<Rid>(base + i), rids[pos]});
      }
    }
  }
  return out;
}

namespace {

/// Rows per Gather call: bounds the staging buffer at a few pages' worth
/// of values however long the RID list is.
constexpr size_t kGatherBlock = 8192;

/// Gathers `column` at `rids` one bounded block at a time and calls
/// fn(values, offset): values[k] is the value of row rids[offset + k].
template <typename Fn>
void GatherBlocks(const ColumnView& column, std::span<const Rid> rids,
                  Fn&& fn) {
  std::vector<uint32_t> stage(std::min(rids.size(), kGatherBlock));
  for (size_t offset = 0; offset < rids.size(); offset += kGatherBlock) {
    const size_t len = std::min(rids.size() - offset, kGatherBlock);
    std::span<uint32_t> values(stage.data(), len);
    column.Gather(rids.subspan(offset, len), values);
    fn(std::span<const uint32_t>(values), offset);
  }
}

}  // namespace

Aggregates Aggregate(const Table& table, const std::string& column,
                     const std::vector<Rid>& rids) {
  Aggregates agg;
  GatherBlocks(table.View(column), rids,
               [&](std::span<const uint32_t> values, size_t) {
                 for (uint32_t v : values) agg.Accumulate(v);
               });
  if (agg.count == 0) agg.min = 0;
  return agg;
}

std::vector<Aggregates> GroupBy(const Table& table,
                                const std::string& group_column,
                                const std::string& value_column,
                                uint32_t num_groups) {
  std::vector<Aggregates> groups(num_groups);
  const ColumnView values = table.View(value_column);
  bool accumulated = false;
  if (table.HasSortIndex(group_column)) {
    // The group keys [0, num_groups) fill the prefix
    // [0, LowerBound(num_groups)) of the sorted key list, so one probe
    // finds every group's rows and doubles as a selectivity measurement:
    // when the groups cover most of the table, a sequential scan touches
    // far fewer value lines than the RID-list gather and the scan path
    // below takes over. Either way the stable sort keeps a run's RIDs in
    // row order, so accumulation order — and hence every aggregate — is
    // identical.
    const SortIndex& index = table.GetSortIndex(group_column);
    const size_t covered = index.LowerBound(num_groups);
    if (covered <= table.NumRows() / 4) {
      // One gather per key segment: positions [base, base + len) of the
      // prefix pair the segment's keys with their RIDs.
      const std::span<const Rid> rids = std::span(index.rids()).first(covered);
      size_t base = 0;
      for (std::span<const uint32_t> keys : index.KeySegments()) {
        const size_t len = std::min(keys.size(), covered - base);
        GatherBlocks(values, rids.subspan(base, len),
                     [&](std::span<const uint32_t> block, size_t offset) {
                       for (size_t k = 0; k < block.size(); ++k) {
                         groups[keys[offset + k]].Accumulate(block[k]);
                       }
                     });
        base += len;
        if (base == covered) break;
      }
      accumulated = true;
    }
  }
  if (!accumulated) {
    std::vector<uint32_t> block_values;
    table.View(group_column)
        .Scan([&](std::span<const uint32_t> block, size_t base) {
          block_values.resize(block.size());
          values.Read(base, block_values);
          for (size_t i = 0; i < block.size(); ++i) {
            if (block[i] >= num_groups) continue;  // outside the dense domain
            groups[block[i]].Accumulate(block_values[i]);
          }
        });
  }
  for (auto& g : groups) {
    if (g.count == 0) g.min = 0;
  }
  return groups;
}

}  // namespace cssidx::engine
