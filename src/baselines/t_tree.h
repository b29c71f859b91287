#ifndef CSSIDX_BASELINES_T_TREE_H_
#define CSSIDX_BASELINES_T_TREE_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/index.h"
#include "core/lockstep.h"
#include "core/node_search.h"
#include "core/simd_node_search.h"
#include "util/macros.h"

// T-tree (Lehman & Carey 1986), the classic main-memory index the paper
// re-evaluates (§3.3). A balanced binary tree whose node holds many
// (key, RID) pairs covering an adjacent key range. We implement the
// *improved* variant of [LC86b] the way §6.2 describes:
//
//   * the two child references are laid out adjacent to the smallest key,
//     so the common path (compare against the min, follow a child) touches
//     one cache line;
//   * no parent pointers (not needed for search);
//   * a RID is stored per key — the paper's point is precisely that this
//     wastes half of each node, because most probes only ever read the
//     boundary keys. Only one or two keys per node participate in routing,
//     so a T-tree costs the same ~log2(n/m) + log2(m) = log2(n) cache-
//     missing comparisons as binary search despite its "wide node" look.
//
// `Entries` = (key, RID) pairs per node; nodes are built perfectly balanced
// from consecutive array chunks (batch build, per the OLAP assumption).

namespace cssidx {

template <int Entries, typename KeyT = Key>
class TTreeIndex {
  static_assert(Entries >= 2, "a T-tree node needs at least two entries");

 public:
#ifdef CSSIDX_WIDE_POINTERS
  using NodeRef = uint64_t;
#else
  using NodeRef = uint32_t;
#endif
  static constexpr NodeRef kNull = static_cast<NodeRef>(-1);

  struct Node {
    NodeRef left;
    NodeRef right;
    uint32_t count;
    KeyT keys[Entries];     // keys[0] shares a line with the child refs
    uint32_t rids[Entries];
  };
  /// The child refs and the min key: all the improved descent reads of a
  /// node. Nodes are not line-aligned, so these bytes can span two lines.
  static constexpr size_t kHeaderBytes = offsetof(Node, keys) + sizeof(KeyT);

  TTreeIndex(const KeyT* keys, size_t n) : a_(keys), n_(n) {
    size_t chunks = (n + Entries - 1) / Entries;
    nodes_.reserve(chunks);
    root_ = BuildRange(0, chunks);
  }
  explicit TTreeIndex(const std::vector<KeyT>& keys)
      : TTreeIndex(keys.data(), keys.size()) {}

  size_t LowerBound(KeyT k) const {
    // LC86b's improved search: compare only the *smallest* key per node on
    // the way down (one cache line: child refs + min share it), remember
    // the last node where we turned right (the only candidate that can
    // bound k) and the last node where we turned left (k's in-order
    // successor bound). One in-node search at the end.
    NodeRef cur = root_;
    const Node* bounding = nullptr;   // deepest node with min < k
    const Node* successor = nullptr;  // deepest node with min >= k
    while (cur != kNull) {
      const Node& node = nodes_[cur];
      if (k <= node.keys[0]) {
        successor = &node;
        cur = node.left;
      } else {
        bounding = &node;
        cur = node.right;
      }
    }
    return ResolveLowerBound(bounding, successor, k);
  }

  /// Batched LowerBound: the pointer-chasing descent that makes T-trees
  /// slow is also what kept this method on the scalar fallback path — a
  /// probe's next node is unknowable until the current header line
  /// arrives. The T-tree step on LockstepDescend (core/lockstep.h)
  /// sidesteps that: a lane is the improved search's state (current ref,
  /// bounding and successor nodes), and the lines holding each lane's
  /// next child refs and min key are prefetched the moment its ref is
  /// read, so the miss overlaps the other lanes' compares exactly as in
  /// the CSS-tree kernel. Results are identical to scalar LowerBound.
  void LowerBoundBatch(std::span<const KeyT> keys,
                       std::span<size_t> out) const {
    assert(out.size() >= keys.size());
    struct Lane {
      NodeRef cur;
      const Node* bounding;
      const Node* successor;
    };
    LockstepDescend(
        keys, [&](size_t) { return Lane{root_, nullptr, nullptr}; },
        [&](size_t, Lane& lane, KeyT probe) CSSIDX_INLINE_LAMBDA {
          if (lane.cur == kNull) return false;
          const Node& node = nodes_[lane.cur];
          if (probe <= node.keys[0]) {
            lane.successor = &node;
            lane.cur = node.left;
          } else {
            lane.bounding = &node;
            lane.cur = node.right;
          }
          if (lane.cur == kNull) return false;
          PrefetchLines(&nodes_[lane.cur], kHeaderBytes);
          return true;
        },
        [&](size_t i, const Lane& lane, KeyT probe) CSSIDX_INLINE_LAMBDA {
          out[i] = ResolveLowerBound(lane.bounding, lane.successor, probe);
        },
        [&](size_t i, KeyT probe) { out[i] = LowerBound(probe); });
  }

  /// Batched Find over the same group-probing kernel.
  void FindBatch(std::span<const KeyT> keys, std::span<int64_t> out) const {
    assert(out.size() >= keys.size());
    FindBatchViaLowerBound(*this, a_, n_, keys, out);
  }

  /// The *basic* (pre-LC86b) T-tree search, kept for the variant ablation:
  /// each node compares against both boundary keys, so right-descents
  /// touch the max key's cache line as well as the header line. The paper
  /// used the improved version because this one is "a little bit" worse.
  size_t LowerBoundBasic(KeyT k) const {
    NodeRef cur = root_;
    const Node* successor = nullptr;
    while (cur != kNull) {
      const Node& node = nodes_[cur];
      if (k <= node.keys[0]) {
        successor = &node;
        cur = node.left;
      } else if (k > node.keys[node.count - 1]) {
        cur = node.right;
      } else {
        // Bounding node found immediately: min < k <= max.
        return node.rids[SearchInNode(node, k)];
      }
    }
    return successor != nullptr ? successor->rids[0] : n_;
  }

  int64_t Find(KeyT k) const {
    size_t pos = LowerBound(k);
    if (pos < n_ && a_[pos] == k) return static_cast<int64_t>(pos);
    return kNotFound;
  }

  size_t CountEqual(KeyT k) const {
    return ::cssidx::CountEqual(*this, a_, n_, k);
  }

  template <typename Tracer>
  size_t LowerBoundTraced(KeyT k, const Tracer& tracer) const {
    NodeRef cur = root_;
    const Node* bounding = nullptr;
    const Node* successor = nullptr;
    while (cur != kNull) {
      const Node& node = nodes_[cur];
      // Header + min key live on one line (the LC86b layout win); the
      // improved search touches nothing else on the way down.
      tracer.Touch(&node, kHeaderBytes);
      if (k <= node.keys[0]) {
        successor = &node;
        cur = node.left;
      } else {
        bounding = &node;
        cur = node.right;
      }
    }
    if (bounding != nullptr) {
      size_t j = TracedLowerBound(bounding->keys, bounding->count, k, tracer);
      if (j < bounding->count) {
        tracer.Touch(&bounding->rids[j], sizeof(uint32_t));
        return bounding->rids[j];
      }
    }
    if (successor != nullptr) {
      tracer.Touch(&successor->rids[0], sizeof(uint32_t));
      return successor->rids[0];
    }
    return n_;
  }

  size_t SpaceBytes() const { return nodes_.capacity() * sizeof(Node); }
  size_t size() const { return n_; }
  size_t NumNodes() const { return nodes_.size(); }

 private:
  /// The shared finish of the improved search: one in-node search in the
  /// bounding node, else the successor's min, else n (scalar and batched
  /// descents both end here).
  CSSIDX_ALWAYS_INLINE size_t ResolveLowerBound(const Node* bounding,
                                                const Node* successor,
                                                KeyT k) const {
    if (bounding != nullptr) {
      int j = SearchInNode(*bounding, k);
      if (j < static_cast<int>(bounding->count)) {
        // min < k <= keys[j]: the left subtree is all < k, so this is the
        // global lower bound.
        return bounding->rids[j];
      }
      // k exceeds the bounding node's max: fall through to the successor.
    }
    return successor != nullptr ? successor->rids[0] : n_;
  }

  static int SearchInNode(const Node& node, KeyT k) {
    if (CSSIDX_LIKELY(node.count == Entries)) {
      return DispatchedLowerBound<Entries, 1, KeyT>(node.keys, k);
    }
    return DispatchedLowerBoundN(node.keys, static_cast<int>(node.count), k);
  }

  /// Balanced midpoint recursion over array chunks of `Entries` keys.
  NodeRef BuildRange(size_t lo_chunk, size_t hi_chunk) {
    if (lo_chunk >= hi_chunk) return kNull;
    size_t mid = lo_chunk + (hi_chunk - lo_chunk) / 2;
    size_t start = mid * Entries;
    size_t end = start + Entries < n_ ? start + Entries : n_;
    auto ref = static_cast<NodeRef>(nodes_.size());
    nodes_.emplace_back();
    {
      Node& node = nodes_.back();
      node.count = static_cast<uint32_t>(end - start);
      for (size_t i = start; i < end; ++i) {
        node.keys[i - start] = a_[i];
        node.rids[i - start] = static_cast<uint32_t>(i);
      }
    }
    NodeRef left = BuildRange(lo_chunk, mid);
    NodeRef right = BuildRange(mid + 1, hi_chunk);
    nodes_[ref].left = left;
    nodes_[ref].right = right;
    return ref;
  }

  const KeyT* a_;
  size_t n_;
  std::vector<Node> nodes_;
  NodeRef root_ = kNull;
};

}  // namespace cssidx

#endif  // CSSIDX_BASELINES_T_TREE_H_
