#ifndef CSSIDX_DOMAIN_DOMAIN_H_
#define CSSIDX_DOMAIN_DOMAIN_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
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
// workload. A batch update merges into the dictionary rather than
// rebuilding it: only the batch is sorted, and one pass over the old values
// moves them into place and writes the old-ID -> new-ID remap.

namespace cssidx::domain {

/// The ID a probe uses for a value absent from a dictionary. Real IDs are
/// dense from 0, so UINT32_MAX is unreachable short of a dictionary with
/// 2^32 distinct values; probing it yields "absent"/count-0, which is
/// exactly the semantics of a missing value.
inline constexpr uint32_t kAbsentId = UINT32_MAX;

/// Sorted dictionary of distinct values of type V. uint32 domains encode
/// through a CSS-tree directory (the paper's point that encoding is a
/// CSS-tree search); other value types, such as variable-length strings
/// (§2.1: rows store fixed 4-byte IDs regardless of value length),
/// binary-search the sorted values. IDs are order-preserving either way.
template <typename V>
class Domain {
 public:
  /// Builds from raw (unsorted, possibly duplicated) values. Sorts them
  /// whatever their order, then dedups through FromSortedColumn.
  static Domain FromValues(std::vector<V> values);

  /// Builds from a column already in ascending order (duplicates allowed),
  /// taking its storage. If `ids` is non-null it receives the column
  /// encoded, cell for cell: each distinct value's ID repeated by its
  /// multiplicity. One run-length pass, no dictionary search per cell.
  static Domain FromSortedColumn(std::vector<V> sorted_column,
                                 std::vector<uint32_t>* ids);

  Domain(const Domain& other) : Domain(other.values_) {}
  Domain(Domain&&) noexcept = default;
  Domain& operator=(const Domain& other) { return *this = Domain(other); }
  Domain& operator=(Domain&&) noexcept = default;

  /// What a lookup takes: a string domain accepts any std::string_view,
  /// so a token inside a larger buffer encodes without building a
  /// std::string; other domains take a V.
  using Lookup =
      std::conditional_t<std::is_same_v<V, std::string>, std::string_view, V>;

  /// ID of `value`, or nullopt if it is not in the domain.
  std::optional<uint32_t> Encode(Lookup value) const;

  /// Value for an ID obtained from Encode. ID must be < size().
  const V& Decode(uint32_t id) const { return values_[id]; }

  /// Encodes a batch of lookups: ids[i] is Encode(lookups[i]), or
  /// kAbsentId for a value the domain lacks. A branch-free binary search
  /// over the sorted values, run in lockstep across a group of lookups:
  /// every lookup halves the same range length each step, and each one's
  /// next probe is prefetched, so the misses of the group overlap. No
  /// allocation.
  void EncodeBatch(std::span<const Lookup> lookups,
                   std::span<uint32_t> ids) const;

  /// Encodes a column through EncodeBatch. Positions of values absent
  /// from the domain go to `missing` (if given) and encode as kAbsentId.
  std::vector<uint32_t> EncodeColumn(const std::vector<V>& column,
                                     std::vector<size_t>* missing) const;

  /// First ID whose value is >= `value` — the ID-space image of a range
  /// predicate endpoint (IDs are order-preserving).
  uint32_t LowerBoundId(Lookup value) const {
    return static_cast<uint32_t>(index_.LowerBound(value));
  }

  /// The domain with new values (unsorted, possibly duplicated or already
  /// present) merged in: a batch update (§2.1: "we expect the data is
  /// updated infrequently"), O(n + b log n) for n values and a batch of b,
  /// built in one pass that reads *this and leaves it unchanged, so a
  /// published dictionary grows without first being copied. Writes the
  /// remap old-id -> new-id, which is strictly increasing, to `remap`.
  Domain Grown(const std::vector<V>& new_values,
               std::vector<uint32_t>* remap) const;

  /// Grows this domain in place (Grown, then a noexcept move): returns
  /// the remap. If it throws, the domain is unchanged.
  std::vector<uint32_t> AddBatch(const std::vector<V>& new_values) {
    std::vector<uint32_t> remap;
    *this = Grown(new_values, &remap);
    return remap;
  }

  size_t size() const { return values_.size(); }
  const std::vector<V>& values() const { return values_; }
  size_t SpaceBytes() const;

 private:
  /// Binary search over the sorted values, for types with no CSS node.
  struct SortedSearch {
    SortedSearch(const V* data, size_t n) noexcept : data_(data), n_(n) {}
    size_t LowerBound(Lookup v) const {
      return static_cast<size_t>(std::lower_bound(data_, data_ + n_, v) -
                                 data_);
    }
    size_t SpaceBytes() const { return 0; }
    const V* data_;
    size_t n_;
  };
  /// The encode directory over values_: it points into values_ and is
  /// rebuilt whenever values_ is replaced (a vector move keeps the data).
  using Directory = std::conditional_t<std::is_same_v<V, uint32_t>,
                                       FullCssTree<16>, SortedSearch>;

  /// `values` must be sorted and distinct.
  explicit Domain(std::vector<V> values)
      : values_(std::move(values)), index_(values_.data(), values_.size()) {}

  std::vector<V> values_;  // sorted, distinct
  Directory index_;
};

extern template class Domain<uint32_t>;
extern template class Domain<std::string>;

using IntDomain = Domain<uint32_t>;
using StringDomain = Domain<std::string>;

/// Translates every ID of `from` into `to`'s ID space (kAbsentId where
/// `to` lacks the value): entry i is the `to` ID of from.Decode(i). Two
/// string columns carry two dictionaries, so equal values need not have
/// equal IDs; a join translates once, in one O(|from| + |to|) merge of
/// the two sorted dictionaries, then probes translated IDs.
std::vector<uint32_t> TranslateIds(const StringDomain& from,
                                   const StringDomain& to);

}  // namespace cssidx::domain

#endif  // CSSIDX_DOMAIN_DOMAIN_H_
