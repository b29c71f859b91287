#ifndef CSSIDX_CORE_LOCKSTEP_H_
#define CSSIDX_CORE_LOCKSTEP_H_

#include <algorithm>
#include <cstddef>
#include <span>

#include "core/index.h"
#include "util/macros.h"

// The one group loop behind every tree batch kernel (CSS, record CSS,
// B+-tree, T-tree). Each probe is a lane: a small state machine that its
// structure advances one level per step, prefetching whatever the lane
// reads next. A group of kGroupProbes lanes is stepped in lockstep, so
// while one lane waits on its prefetched line the others compare (cf.
// Kocberber et al., "Asynchronous Memory Access Chaining", PVLDB 9(4),
// 2015). A structure supplies four callables; it marks step and finish
// CSSIDX_INLINE_LAMBDA, so they compile into this loop:
//
//   start(i)                -> the lane state for probe i
//   step(i, lane, probe)    -> advance one level and prefetch; false once
//                              the lane is at its leaf (and at once for a
//                              lane already there)
//   finish(i, lane, probe)  -> the leaf search; writes probe i's result
//   scalar(i, probe)        -> the structure's scalar descent
//
// LockstepDescend owns the rest: a whole batch of at most kScalarBatchMax
// probes runs `scalar`; otherwise probes go kGroupProbes at a time, the
// last group partial, each stepped until no lane is still descending.

namespace cssidx {

template <typename KeyT, typename Start, typename Step, typename Finish,
          typename Scalar>
CSSIDX_ALWAYS_INLINE void LockstepDescend(std::span<const KeyT> probes,
                                          Start&& start, Step&& step,
                                          Finish&& finish, Scalar&& scalar) {
  const size_t count = probes.size();
  if (count <= kScalarBatchMax) {
    for (size_t i = 0; i < count; ++i) scalar(i, probes[i]);
    return;
  }
  using Lane = decltype(start(size_t{0}));
  for (size_t i = 0; i < count; i += kGroupProbes) {
    const size_t width = std::min(count - i, kGroupProbes);
    const KeyT* probe = probes.data() + i;
    Lane lane[kGroupProbes];
    for (size_t g = 0; g < width; ++g) lane[g] = start(i + g);
    for (bool descending = true; descending;) {
      descending = false;
      for (size_t g = 0; g < width; ++g) {
        descending |= step(i + g, lane[g], probe[g]);
      }
    }
    for (size_t g = 0; g < width; ++g) finish(i + g, lane[g], probe[g]);
  }
}

}  // namespace cssidx

#endif  // CSSIDX_CORE_LOCKSTEP_H_
