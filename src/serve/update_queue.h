#ifndef CSSIDX_SERVE_UPDATE_QUEUE_H_
#define CSSIDX_SERVE_UPDATE_QUEUE_H_

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <iterator>
#include <mutex>
#include <string>
#include <variant>
#include <vector>

#include "core/index_spec.h"
#include "workload/batch_update.h"

// The write half of the serving layer: a bounded MPSC queue of update
// batches feeding the single maintenance writer. Sessions (many producers)
// push; the writer thread (one consumer) drains EVERYTHING waiting and
// coalesces adjacent batches for the same table into one sorted batch, so
// when updates arrive faster than rebuilds complete, rebuild cost
// amortizes across the backlog instead of compounding per batch — the
// paper's batch-maintenance model made adaptive: the batch grows exactly
// when the system is too busy to keep up.
//
// Admission is configurable: kBlock parks the producer until the writer
// frees a slot (bounded memory, unbounded latency), kReject returns a
// backpressure status immediately (bounded latency, caller retries).

namespace cssidx::serve {

/// What a full queue does to the next Push.
enum class Admission {
  kBlock,   // wait for the writer to free a slot
  kReject,  // return PushResult::kRejected immediately
};

/// Producer-side counters, mutated under the queue lock; stats() copies.
struct QueueStats {
  uint64_t enqueued_batches = 0;  // accepted pushes
  uint64_t enqueued_keys = 0;     // insert + delete keys across them
  uint64_t rejected_batches = 0;  // kReject admissions that bounced
  uint64_t blocked_pushes = 0;    // kBlock admissions that had to wait
  size_t depth_high_water = 0;    // deepest the queue has been
};

/// String-keyed update batch (§2.1 domain-dictionary tables): same
/// lifecycle as the integer batches, values instead of keys.
using StringUpdateBatch = workload::BasicUpdateBatch<std::string>;

/// One queued write, destined for one table (the server's table id — the
/// queue itself doesn't interpret it, it is the coalescing group key).
/// The payload is an update batch in the destination table's value type
/// (4-byte keys, 8-byte keys, or string values), or a spec hot-swap
/// request (ADVISE ... APPLY). A swap rides the same queue so it
/// serializes with writes in arrival order, but is never folded into a
/// Coalesce group — the writer splits these out and rebuilds through
/// MaintainedIndex::RebuildWithSpec after the cycle's data batches.
struct QueuedUpdate {
  uint32_t table = 0;
  std::variant<workload::UpdateBatch, workload::UpdateBatch64,
               StringUpdateBatch, IndexSpec>
      payload;
};

class UpdateQueue {
 public:
  enum class PushResult {
    kOk,        // enqueued
    kRejected,  // full under Admission::kReject — retry later
    kClosed,    // queue closed — the server is shutting down
  };

  explicit UpdateQueue(size_t capacity, Admission admission);

  UpdateQueue(const UpdateQueue&) = delete;
  UpdateQueue& operator=(const UpdateQueue&) = delete;

  /// Producers: enqueue one update. Under kBlock a full queue parks the
  /// caller until the consumer drains (or the queue closes); under
  /// kReject it returns kRejected immediately.
  PushResult Push(QueuedUpdate update);

  /// The consumer: moves EVERYTHING currently queued into *out (appended;
  /// out is not cleared), blocking until at least one item is available.
  /// Returns false when the queue is closed and empty — the writer's
  /// signal to exit after the final drain.
  bool DrainAll(std::vector<QueuedUpdate>* out);

  /// Close the queue: no further pushes are admitted (producers get
  /// kClosed, blocked producers wake), but already-queued items remain
  /// drainable so shutdown never drops an accepted write.
  void Close();

  QueueStats stats() const;

 private:
  const size_t capacity_;
  const Admission admission_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<QueuedUpdate> queue_;
  QueueStats stats_;
  bool closed_ = false;
};

/// Folds adjacent batches (oldest first) into ONE batch whose application
/// is equivalent to applying them in order, under the engine's batch
/// semantics (deletes remove every occurrence of a key, then inserts
/// land; an insert whose key a LATER batch deletes must die, an insert
/// arriving after its key's delete must survive). The result's deletes
/// are sorted and unique; its inserts stay in arrival order (the writer
/// sorts a copy at apply time — arrival order is what keeps table-level
/// RID assignment identical to sequential application). Generic over the
/// key type — the fold only needs ordering, so 4-byte, 8-byte, and
/// string batches all coalesce through the same code.
template <typename KeyT>
workload::BasicUpdateBatch<KeyT> Coalesce(
    const std::vector<workload::BasicUpdateBatch<KeyT>>& batches) {
  workload::BasicUpdateBatch<KeyT> acc;
  for (const workload::BasicUpdateBatch<KeyT>& next : batches) {
    if (!next.deletes.empty()) {
      // A later delete kills every earlier occurrence of the key —
      // including inserts still waiting in the accumulator.
      std::vector<KeyT> doomed = next.deletes;
      std::sort(doomed.begin(), doomed.end());
      std::erase_if(acc.inserts, [&](const KeyT& k) {
        return std::binary_search(doomed.begin(), doomed.end(), k);
      });
      // Deletes accumulate as a sorted set: deleting twice equals
      // deleting once (every occurrence goes either way).
      std::vector<KeyT> merged;
      merged.reserve(acc.deletes.size() + doomed.size());
      std::set_union(acc.deletes.begin(), acc.deletes.end(), doomed.begin(),
                     doomed.end(), std::back_inserter(merged));
      merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
      acc.deletes = std::move(merged);
    }
    // Inserts append in arrival order; an insert after its key's delete
    // survives (deletes apply first), matching sequential application.
    acc.inserts.insert(acc.inserts.end(), next.inserts.begin(),
                       next.inserts.end());
  }
  return acc;
}

}  // namespace cssidx::serve

#endif  // CSSIDX_SERVE_UPDATE_QUEUE_H_
