#include "domain/domain.h"

#include <cassert>

#include "util/macros.h"

namespace cssidx::domain {

template <typename V>
Domain<V> Domain<V>::FromValues(std::vector<V> values) {
  std::sort(values.begin(), values.end());
  return FromSortedColumn(std::move(values), nullptr);
}

template <typename V>
Domain<V> Domain<V>::FromSortedColumn(std::vector<V> sorted_column,
                                      std::vector<uint32_t>* ids) {
  assert(std::is_sorted(sorted_column.begin(), sorted_column.end()));
  if (ids != nullptr) ids->resize(sorted_column.size());
  // The first cell of each run moves down to slot `distinct`, in place;
  // every cell's ID is the number of runs before its own.
  size_t distinct = 0;
  for (size_t i = 0; i < sorted_column.size(); ++i) {
    if (distinct == 0 || sorted_column[i] != sorted_column[distinct - 1]) {
      if (i != distinct) sorted_column[distinct] = std::move(sorted_column[i]);
      ++distinct;
    }
    if (ids != nullptr) (*ids)[i] = static_cast<uint32_t>(distinct - 1);
  }
  sorted_column.erase(sorted_column.begin() + distinct, sorted_column.end());
  return Domain(std::move(sorted_column));
}

template <typename V>
std::optional<uint32_t> Domain<V>::Encode(Lookup value) const {
  const uint32_t id = LowerBoundId(value);
  if (id == values_.size() || values_[id] != value) return std::nullopt;
  return id;
}

template <typename V>
void Domain<V>::EncodeBatch(std::span<const Lookup> lookups,
                            std::span<uint32_t> ids) const {
  assert(ids.size() >= lookups.size());
  const V* values = values_.data();
  const size_t n = values_.size();
  for (size_t i = 0; i < lookups.size(); i += kGroupProbes) {
    const size_t width = std::min(lookups.size() - i, kGroupProbes);
    const Lookup* probe = lookups.data() + i;
    // Lane g's lower bound lies in [lo[g], lo[g] + len].
    size_t lo[kGroupProbes] = {};
    for (size_t len = n; len > 1;) {
      const size_t half = len / 2;
      for (size_t g = 0; g < width; ++g) {
        lo[g] = values[lo[g] + half] < probe[g] ? lo[g] + half : lo[g];
      }
      len -= half;
      for (size_t g = 0; g < width; ++g) {
        PrefetchLines(values + lo[g] + len / 2, sizeof(V));
      }
    }
    for (size_t g = 0; g < width; ++g) {
      const size_t pos = n == 0 ? 0 : lo[g] + (values[lo[g]] < probe[g]);
      ids[i + g] = pos < n && values[pos] == probe[g]
                       ? static_cast<uint32_t>(pos)
                       : kAbsentId;
    }
  }
}

template <typename V>
std::vector<uint32_t> Domain<V>::EncodeColumn(
    const std::vector<V>& column, std::vector<size_t>* missing) const {
  std::vector<uint32_t> ids(column.size());
  if constexpr (std::is_same_v<Lookup, V>) {
    EncodeBatch(column, ids);
  } else {
    // String lookups are views: stage the column a block at a time.
    constexpr size_t kBlock = 1024;
    std::vector<Lookup> lookups;
    lookups.reserve(std::min(column.size(), kBlock));
    for (size_t i = 0; i < column.size(); i += kBlock) {
      const size_t len = std::min(column.size() - i, kBlock);
      lookups.assign(column.begin() + static_cast<ptrdiff_t>(i),
                     column.begin() + static_cast<ptrdiff_t>(i + len));
      EncodeBatch(lookups, std::span<uint32_t>(ids).subspan(i, len));
    }
  }
  if (missing != nullptr) {
    for (size_t i = 0; i < ids.size(); ++i) {
      if (ids[i] == kAbsentId) missing->push_back(i);
    }
  }
  return ids;
}

template <typename V>
Domain<V> Domain<V>::Grown(const std::vector<V>& new_values,
                           std::vector<uint32_t>* remap) const {
  std::vector<V> fresh = new_values;
  std::sort(fresh.begin(), fresh.end());
  fresh.erase(std::unique(fresh.begin(), fresh.end()), fresh.end());
  fresh.erase(std::remove_if(fresh.begin(), fresh.end(),
                             [&](const V& v) { return Encode(v).has_value(); }),
              fresh.end());
  remap->resize(values_.size());
  std::vector<V> merged;
  merged.reserve(values_.size() + fresh.size());
  // One merge pass into reserved space: the run of old values below fresh
  // value f copies as one block, and old ID i in that run becomes i + f.
  size_t begin = 0;
  for (size_t f = 0; f <= fresh.size(); ++f) {
    const auto run_end =
        f == fresh.size()
            ? values_.end()
            : std::lower_bound(values_.begin() + begin, values_.end(),
                               fresh[f]);
    const auto end = static_cast<size_t>(run_end - values_.begin());
    for (size_t i = begin; i < end; ++i) {
      (*remap)[i] = static_cast<uint32_t>(i + f);
    }
    merged.insert(merged.end(), values_.begin() + begin, run_end);
    if (f < fresh.size()) merged.push_back(std::move(fresh[f]));
    begin = end;
  }
  return Domain(std::move(merged));
}

template <typename V>
size_t Domain<V>::SpaceBytes() const {
  size_t bytes = values_.capacity() * sizeof(V) + index_.SpaceBytes();
  if constexpr (std::is_same_v<V, std::string>) {
    for (const std::string& s : values_) bytes += s.capacity();
  }
  return bytes;
}

template class Domain<uint32_t>;
template class Domain<std::string>;

std::vector<uint32_t> TranslateIds(const StringDomain& from,
                                   const StringDomain& to) {
  // One merge over the two sorted, distinct value lists.
  const std::vector<std::string>& a = from.values();
  const std::vector<std::string>& b = to.values();
  std::vector<uint32_t> ids(a.size(), kAbsentId);
  for (size_t i = 0, j = 0; i < a.size() && j < b.size();) {
    const int order = a[i].compare(b[j]);
    if (order == 0) ids[i] = static_cast<uint32_t>(j);
    i += order <= 0;
    j += order >= 0;
  }
  return ids;
}

}  // namespace cssidx::domain
