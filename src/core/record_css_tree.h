#ifndef CSSIDX_CORE_RECORD_CSS_TREE_H_
#define CSSIDX_CORE_RECORD_CSS_TREE_H_

#include "core/css_tree.h"

// CSS-tree over an array of *records* rather than bare keys.
//
// §4.1: "the array a could alternatively contain records of a table or
// packed domain clustered by column k. ... our techniques apply to sorted
// arrays having elements of size different from the size of a key. Offsets
// into the leaf array are independent of the record size within the array;
// the compiler will generate the appropriate byte offsets."
//
// So a record tree is the full CSS-tree itself, with the record as the
// array's element type: the directory is built by the same code and is
// byte-identical to FullCssTree<NodeKeys>'s over the extracted key column
// (4-byte keys, no pointers, leaf maxima read through KeyOf); the batch
// descent is the same CSS step on LockstepDescend. Only the leaf
// search differs, a binary search that reads each record's key through
// KeyOf. Wide records dilute leaf-level cache locality — one line holds
// fewer keys — which bench/record_width measures; the directory's miss
// behaviour is unchanged, which is the point of the quote above.
//
// `KeyOf` must be a stateless callable: Key KeyOf()(const Record&).

namespace cssidx {

template <typename Record, typename KeyOf, int NodeKeys>
using RecordCssTree = BasicCssTree<Key, NodeKeys, NodeKeys + 1, Record, KeyOf>;

}  // namespace cssidx

#endif  // CSSIDX_CORE_RECORD_CSS_TREE_H_
