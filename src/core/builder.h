#ifndef CSSIDX_CORE_BUILDER_H_
#define CSSIDX_CORE_BUILDER_H_

#include <vector>

#include "core/any_index.h"
#include "core/index.h"
#include "core/index_spec.h"

// Runtime construction of any index in the suite, keyed by IndexSpec. The
// spec-to-template dispatch is VisitIndex (visit_index.h): node sizes are
// template parameters, so only the menu of instantiations it names can be
// built, and a spec off the menu yields an empty AnyIndex. The spec's
// key-width dimension picks the facade: a "css:16" builds through
// BuildIndex (4-byte keys), a "css64:16" through BuildIndex64 — a spec
// whose width disagrees with the entry point is off-menu for that entry
// point and yields a falsy handle.

namespace cssidx {

/// Builds the requested index over keys[0..n) (sorted, must outlive the
/// returned handle) for either key width. Returns a falsy handle if
/// !spec.OnMenu() or if spec.key_width() != sizeof(KeyT).
template <typename KeyT>
BasicAnyIndex<KeyT> BuildIndexT(const IndexSpec& spec, const KeyT* keys,
                                size_t n);

/// The 4-byte-key entry points every existing caller uses.
AnyIndex BuildIndex(const IndexSpec& spec, const Key* keys, size_t n);
AnyIndex BuildIndex(const IndexSpec& spec, const std::vector<Key>& keys);

/// The 8-byte-key twins ("css64:16" and friends).
AnyIndex64 BuildIndex64(const IndexSpec& spec, const Key64* keys, size_t n);
AnyIndex64 BuildIndex64(const IndexSpec& spec,
                        const std::vector<Key64>& keys);

}  // namespace cssidx

#endif  // CSSIDX_CORE_BUILDER_H_
