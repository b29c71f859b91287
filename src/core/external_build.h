#ifndef CSSIDX_CORE_EXTERNAL_BUILD_H_
#define CSSIDX_CORE_EXTERNAL_BUILD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "store/paged_column.h"

// External merge-sort index build: the paper's §5 argument is that only
// the CSS directory must be RAM-resident — so building a sort index over
// a column that exceeds the buffer budget cannot stage the whole column
// (plus its RID permutation) in one flat array and stable_sort it. This
// path streams the column through a cursor, sorts bounded runs of
// (key, RID) pairs in RAM, spills each run to a temp file, and k-way
// merges the runs into the sorted key/RID lists that feed the existing
// BuildIndex/MaintainedIndex chain. The output lists — and the directory
// built over them — are the index's RAM-resident representation, exactly
// as for an in-RAM build.
//
// Bit-identity contract: runs are generated in RID order and the merge
// compares (key, RID) — RIDs are globally unique, so the total order
// equals what std::stable_sort of the whole column produces, tie for tie.

namespace cssidx {

struct ExternalBuildResult {
  std::vector<uint32_t> sorted_keys;  // column values, ascending
  std::vector<uint32_t> rids;         // rids[i] pairs with sorted_keys[i]
  size_t runs = 0;                    // sorted runs generated
  bool spilled = false;               // false = single run, never hit disk
};

/// Sorts `column` into (key, RID) order using at most `run_values`
/// in-RAM pairs at a time. A column of <= run_values values sorts in one
/// in-RAM run and never touches disk; larger columns spill ceil(n /
/// run_values) runs under `spill_dir` (which must exist) and merge them
/// in one pass. A run whose pairs are already in order (a column that
/// arrives sorted, or a sorted stretch of one) skips its in-RAM sort; the
/// runs and the merge are the same either way. run_values is clamped to
/// at least one page of values so degenerate budgets still make progress.
ExternalBuildResult ExternalSortKeys(const store::PagedColumn& column,
                                     size_t run_values,
                                     const std::string& spill_dir);

}  // namespace cssidx

#endif  // CSSIDX_CORE_EXTERNAL_BUILD_H_
