#include "core/builder.h"

#include <utility>

#include "core/partitioned_index.h"
#include "core/visit_index.h"

namespace cssidx {

template <typename KeyT>
BasicAnyIndex<KeyT> BuildIndexT(const IndexSpec& spec, const KeyT* keys,
                                size_t n) {
  if (!spec.OnMenu()) return {};
  // Key width is a structure knob: a spec of the other width is off this
  // entry point's menu (the caller picked the wrong facade).
  if (spec.key_width() != static_cast<int>(sizeof(KeyT))) return {};
  // Partitioned specs recurse: the composite builds one inner index per
  // key-range shard through this same entry point.
  if (spec.partitioned()) return BuildPartitionedIndexT<KeyT>(spec, keys, n);
  BasicAnyIndex<KeyT> index;
  VisitIndex<KeyT>(spec, keys, n, [&]<typename IndexT>(IndexT&& built) {
    if constexpr (requires { built.LowerBound(KeyT{}); }) {
      index = MakeOrderedAnyIndexFor<KeyT>(spec, std::move(built));
    } else {
      index = MakeUnorderedAnyIndex(spec, std::move(built));
    }
  });
  return index;
}

template AnyIndex BuildIndexT<Key>(const IndexSpec&, const Key*, size_t);
template AnyIndex64 BuildIndexT<Key64>(const IndexSpec&, const Key64*,
                                       size_t);

AnyIndex BuildIndex(const IndexSpec& spec, const Key* keys, size_t n) {
  return BuildIndexT<Key>(spec, keys, n);
}

AnyIndex BuildIndex(const IndexSpec& spec, const std::vector<Key>& keys) {
  return BuildIndexT<Key>(spec, keys.data(), keys.size());
}

AnyIndex64 BuildIndex64(const IndexSpec& spec, const Key64* keys, size_t n) {
  return BuildIndexT<Key64>(spec, keys, n);
}

AnyIndex64 BuildIndex64(const IndexSpec& spec,
                        const std::vector<Key64>& keys) {
  return BuildIndexT<Key64>(spec, keys.data(), keys.size());
}

}  // namespace cssidx
