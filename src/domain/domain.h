#ifndef CSSIDX_DOMAIN_DOMAIN_H_
#define CSSIDX_DOMAIN_DOMAIN_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/full_css_tree.h"
#include "core/index.h"

// Ordered domain dictionaries (§2.1).
//
// The paper's main-memory DBMS stores each column's distinct values in an
// external *sorted* structure (the domain) and keeps only integer domain
// IDs in place. Because the domain is sorted, IDs are order-preserving:
// both equality and inequality predicates run on IDs without touching the
// values. Loading data requires one domain search per cell — CSS-trees'
// workload — and batch updates rebuild the dictionary, consistent with the
// OLAP assumption.

namespace cssidx::domain {

/// The ID a probe uses for a value absent from a dictionary. Real IDs are
/// dense from 0, so UINT32_MAX is unreachable short of a dictionary with
/// 2^32 distinct values; probing it yields "absent"/count-0, which is
/// exactly the semantics of a missing value.
inline constexpr uint32_t kAbsentId = UINT32_MAX;

/// Sorted dictionary over 32-bit values, with a CSS-tree directory for
/// encode lookups.
class IntDomain {
 public:
  /// Builds from raw (unsorted, possibly duplicated) values.
  static IntDomain FromValues(std::vector<uint32_t> values);

  IntDomain(IntDomain&&) noexcept = default;
  IntDomain& operator=(IntDomain&&) noexcept = default;

  /// ID of `value`, or nullopt if it is not in the domain.
  std::optional<uint32_t> Encode(uint32_t value) const;

  /// Value for an ID obtained from Encode. ID must be < size().
  uint32_t Decode(uint32_t id) const { return values_[id]; }

  /// Encodes a column; values absent from the domain throw off OLAP
  /// assumptions, so they are reported through `missing` (positions).
  std::vector<uint32_t> EncodeColumn(const std::vector<uint32_t>& column,
                                     std::vector<size_t>* missing) const;

  /// First ID whose value is >= `value` — the ID-space image of a range
  /// predicate endpoint (IDs are order-preserving).
  uint32_t LowerBoundId(uint32_t value) const;

  /// Merges new values into the domain and rebuilds the dictionary
  /// (batch update, §2.1: "we expect the data is updated infrequently").
  /// Existing IDs are invalidated; returns the remap old-id -> new-id.
  std::vector<uint32_t> AddBatch(const std::vector<uint32_t>& new_values);

  size_t size() const { return values_.size(); }
  const std::vector<uint32_t>& values() const { return values_; }
  size_t SpaceBytes() const;

 private:
  IntDomain() = default;
  void RebuildIndex();

  std::vector<uint32_t> values_;  // sorted, distinct
  // unique_ptr so the index can be rebuilt over the (moved) vector safely.
  std::unique_ptr<FullCssTree<16>> index_;
};

/// Sorted dictionary over strings (variable-length values — the §2.1 point
/// that domains simplify variable-length handling: rows store fixed 4-byte
/// IDs regardless of value length). Encode is binary search over the
/// sorted values; IDs are order-preserving for string comparisons too.
class StringDomain {
 public:
  static StringDomain FromValues(std::vector<std::string> values);

  std::optional<uint32_t> Encode(const std::string& value) const;
  const std::string& Decode(uint32_t id) const { return values_[id]; }
  uint32_t LowerBoundId(const std::string& value) const;
  std::vector<uint32_t> AddBatch(const std::vector<std::string>& new_values);

  size_t size() const { return values_.size(); }
  size_t SpaceBytes() const;

 private:
  StringDomain() = default;

  std::vector<std::string> values_;  // sorted, distinct
};

/// Translates every ID of `from` into `to`'s ID space (kAbsentId where
/// `to` lacks the value): entry i is the `to` ID of from.Decode(i). Two
/// string columns carry two dictionaries, so equal values need not have
/// equal IDs; a join translates once, O(|from| log |to|), then probes
/// translated IDs.
std::vector<uint32_t> TranslateIds(const StringDomain& from,
                                   const StringDomain& to);

}  // namespace cssidx::domain

#endif  // CSSIDX_DOMAIN_DOMAIN_H_
