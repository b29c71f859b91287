#include "domain/domain.h"

#include <algorithm>

namespace cssidx::domain {

IntDomain IntDomain::FromValues(std::vector<uint32_t> values) {
  IntDomain d;
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  d.values_ = std::move(values);
  d.RebuildIndex();
  return d;
}

void IntDomain::RebuildIndex() {
  index_ = std::make_unique<FullCssTree<16>>(values_.data(), values_.size());
}

std::optional<uint32_t> IntDomain::Encode(uint32_t value) const {
  int64_t pos = index_->Find(value);
  if (pos == kNotFound) return std::nullopt;
  return static_cast<uint32_t>(pos);
}

std::vector<uint32_t> IntDomain::EncodeColumn(
    const std::vector<uint32_t>& column, std::vector<size_t>* missing) const {
  std::vector<uint32_t> ids(column.size());
  for (size_t i = 0; i < column.size(); ++i) {
    int64_t pos = index_->Find(column[i]);
    if (pos == kNotFound) {
      if (missing != nullptr) missing->push_back(i);
      ids[i] = static_cast<uint32_t>(-1);
    } else {
      ids[i] = static_cast<uint32_t>(pos);
    }
  }
  return ids;
}

uint32_t IntDomain::LowerBoundId(uint32_t value) const {
  return static_cast<uint32_t>(index_->LowerBound(value));
}

std::vector<uint32_t> IntDomain::AddBatch(
    const std::vector<uint32_t>& new_values) {
  std::vector<uint32_t> old_values = values_;
  std::vector<uint32_t> merged = values_;
  merged.insert(merged.end(), new_values.begin(), new_values.end());
  std::sort(merged.begin(), merged.end());
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  values_ = std::move(merged);
  RebuildIndex();
  // Remap: each old ID's value found at its new sorted position.
  std::vector<uint32_t> remap(old_values.size());
  for (size_t i = 0; i < old_values.size(); ++i) {
    remap[i] = static_cast<uint32_t>(
        std::lower_bound(values_.begin(), values_.end(), old_values[i]) -
        values_.begin());
  }
  return remap;
}

size_t IntDomain::SpaceBytes() const {
  return values_.capacity() * sizeof(uint32_t) +
         (index_ ? index_->SpaceBytes() : 0);
}

StringDomain StringDomain::FromValues(std::vector<std::string> values) {
  StringDomain d;
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  d.values_ = std::move(values);
  return d;
}

std::optional<uint32_t> StringDomain::Encode(const std::string& value) const {
  auto it = std::lower_bound(values_.begin(), values_.end(), value);
  if (it == values_.end() || *it != value) return std::nullopt;
  return static_cast<uint32_t>(it - values_.begin());
}

uint32_t StringDomain::LowerBoundId(const std::string& value) const {
  return static_cast<uint32_t>(
      std::lower_bound(values_.begin(), values_.end(), value) -
      values_.begin());
}

std::vector<uint32_t> StringDomain::AddBatch(
    const std::vector<std::string>& new_values) {
  std::vector<std::string> old_values = values_;
  values_.insert(values_.end(), new_values.begin(), new_values.end());
  std::sort(values_.begin(), values_.end());
  values_.erase(std::unique(values_.begin(), values_.end()), values_.end());
  std::vector<uint32_t> remap(old_values.size());
  for (size_t i = 0; i < old_values.size(); ++i) {
    remap[i] = static_cast<uint32_t>(
        std::lower_bound(values_.begin(), values_.end(), old_values[i]) -
        values_.begin());
  }
  return remap;
}

size_t StringDomain::SpaceBytes() const {
  size_t bytes = values_.capacity() * sizeof(std::string);
  for (const auto& s : values_) bytes += s.capacity();
  return bytes;
}

std::vector<uint32_t> TranslateIds(const StringDomain& from,
                                   const StringDomain& to) {
  std::vector<uint32_t> ids(from.size());
  for (uint32_t i = 0; i < ids.size(); ++i) {
    ids[i] = to.Encode(from.Decode(i)).value_or(kAbsentId);
  }
  return ids;
}

}  // namespace cssidx::domain
