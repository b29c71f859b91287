#ifndef CSSIDX_BASELINES_CHAINED_HASH_H_
#define CSSIDX_BASELINES_CHAINED_HASH_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "core/index.h"
#include "core/simd_node_search.h"
#include "util/bits.h"
#include "util/macros.h"

// Chained bucket hashing (§3.5), implemented the way §6.2 describes,
// following [GBC98]: the bucket size equals the cache line size, each
// bucket holds an occupancy counter, an overflow link, and as many
// (key, RID) pairs as fit; the hash function is the key's low-order bits
// (cheap, but vulnerable to skew — a point the paper makes).
//
// Hashing is the time winner (about 3x faster than CSS-trees at the
// paper's 5M scale) but needs ~20x the space and provides no ordered
// access, so it cannot replace the sorted RID list — its space is pure
// addition (Figure 7's "direct" column).
//
// `LineBytes` should match the target cache line (32 on the paper's
// machines, 64 on modern x86-64).

namespace cssidx {

/// §3.5: "Skewed data can seriously affect the performance of hash indices
/// unless we have a relatively sophisticated hash function, which will
/// increase the computation time."
enum class HashFunction {
  /// The paper's choice: low-order bits of the key. One AND; collapses
  /// when keys share low bits (e.g. stride-aligned keys).
  kLowOrderBits,
  /// Fibonacci (multiplicative) hashing: one multiply + shift. Scrambles
  /// all input bits into the directory index — skew-resistant at a small
  /// per-probe compute cost.
  kMultiplicative,
};

template <int LineBytes = kCacheLineBytes>
class ChainedHashIndex {
  static_assert(LineBytes >= 16 && IsPowerOfTwo(LineBytes));

 public:
  static constexpr int kPairsPerBucket = (LineBytes - 8) / 8;
  static constexpr uint32_t kNoNext = 0xffffffffu;

  struct Pair {
    Key key;
    uint32_t rid;
  };
  struct alignas(LineBytes) Bucket {
    uint32_t count;
    uint32_t next;  // arena index of the overflow bucket, or kNoNext
    Pair pairs[kPairsPerBucket];
  };
  static_assert(sizeof(Bucket) == LineBytes);

  /// Builds a table with 2^dir_bits directory buckets over keys[0..n).
  /// RIDs are array positions; duplicates keep insertion (= array) order,
  /// so the first match found is the leftmost occurrence.
  ChainedHashIndex(const Key* keys, size_t n, int dir_bits,
                   HashFunction fn = HashFunction::kLowOrderBits)
      : n_(n), dir_bits_(dir_bits), mask_((1u << dir_bits) - 1), fn_(fn) {
    size_t dir_size = size_t{1} << dir_bits;
    // A slot's chain holds max(1, ceil(keys in slot / kPairsPerBucket))
    // buckets. Reserving exactly their sum leaves the arena no spare
    // capacity, so SpaceBytes counts only buckets in use.
    std::vector<uint32_t> in_slot(dir_size, 0);
    for (size_t i = 0; i < n; ++i) ++in_slot[Slot(keys[i])];
    size_t buckets = 0;
    for (uint32_t c : in_slot) {
      buckets +=
          std::max<size_t>(1, (c + kPairsPerBucket - 1) / kPairsPerBucket);
    }
    arena_.reserve(buckets);
    arena_.resize(dir_size);
    for (Bucket& b : arena_) {
      b.count = 0;
      b.next = kNoNext;
    }
    for (size_t i = 0; i < n; ++i) Insert(keys[i], static_cast<uint32_t>(i));
  }
  ChainedHashIndex(const std::vector<Key>& keys, int dir_bits)
      : ChainedHashIndex(keys.data(), keys.size(), dir_bits) {}

  int64_t Find(Key k) const { return FindInChain(Slot(k), k); }

  /// Batched Find: compute every probe's directory slot up front and
  /// prefetch the bucket lines, then scan the chains. By the time the scan
  /// reaches probe i its bucket fetch has been in flight for the whole
  /// group — the directory access pattern is random, so this is pure miss
  /// overlap.
  void FindBatch(std::span<const Key> keys, std::span<int64_t> out) const {
    assert(out.size() >= keys.size());
    constexpr size_t kGroup = 16;
    uint32_t slot[kGroup];
    for (size_t i = 0; i < keys.size(); i += kGroup) {
      size_t len = keys.size() - i < kGroup ? keys.size() - i : kGroup;
      for (size_t g = 0; g < len; ++g) {
        slot[g] = Slot(keys[i + g]);
        CSSIDX_PREFETCH(&arena_[slot[g]]);
      }
      for (size_t g = 0; g < len; ++g) {
        out[i + g] = FindInChain(slot[g], keys[i + g]);
      }
    }
  }

  /// §3.6: hashing scans the whole chain for all matches (one pass,
  /// shared with the range kernel — SIMD-dispatched on 64-byte buckets).
  size_t CountEqual(Key k) const { return EqualRangeInChain(Slot(k), k).size(); }

  /// Batched EqualRange: the same slot-precompute + bucket-prefetch group
  /// pattern as FindBatch, but each chain is scanned ONCE, yielding the
  /// leftmost match and the duplicate count together — half the chain
  /// traffic of Find followed by CountEqual. Duplicates are inserted in
  /// array order, so the first match along the chain is the leftmost array
  /// position and the run is {leftmost, leftmost + count}. Absent keys
  /// anchor their empty span at size() (hash has no insertion point).
  void EqualRangeBatch(std::span<const Key> keys,
                       std::span<PositionRange> out) const {
    assert(out.size() >= keys.size());
    constexpr size_t kGroup = 16;
    uint32_t slot[kGroup];
    for (size_t i = 0; i < keys.size(); i += kGroup) {
      size_t len = keys.size() - i < kGroup ? keys.size() - i : kGroup;
      for (size_t g = 0; g < len; ++g) {
        slot[g] = Slot(keys[i + g]);
        CSSIDX_PREFETCH(&arena_[slot[g]]);
      }
      for (size_t g = 0; g < len; ++g) {
        out[i + g] = EqualRangeInChain(slot[g], keys[i + g]);
      }
    }
  }

  template <typename Tracer>
  int64_t FindTraced(Key k, const Tracer& tracer) const {
    const Bucket* bucket = &arena_[Slot(k)];
    while (true) {
      tracer.Touch(bucket, sizeof(Bucket));
      for (uint32_t i = 0; i < bucket->count; ++i) {
        if (bucket->pairs[i].key == k) return bucket->pairs[i].rid;
      }
      if (bucket->next == kNoNext) return kNotFound;
      bucket = &arena_[bucket->next];
    }
  }

  size_t SpaceBytes() const { return arena_.capacity() * sizeof(Bucket); }
  size_t size() const { return n_; }

  /// Longest chain length in buckets — the skew diagnostic of §3.5.
  size_t MaxChainBuckets() const {
    size_t dir_size = static_cast<size_t>(mask_) + 1;
    size_t longest = 0;
    for (size_t b = 0; b < dir_size; ++b) {
      size_t len = 1;
      const Bucket* bucket = &arena_[b];
      while (bucket->next != kNoNext) {
        ++len;
        bucket = &arena_[bucket->next];
      }
      if (len > longest) longest = len;
    }
    return longest;
  }

 private:
  /// A 64-byte bucket is exactly the vector-friendly unit: 16 aligned
  /// uint32 lanes [count, next, k0, r0, ..., k6, r6]. The SIMD chain scan
  /// compares the probe against ALL lanes at once and masks the result
  /// down to the key lanes below 2 + 2*count; the lowest set lane is the
  /// earliest-inserted (= leftmost array position) match, preserving the
  /// scalar scan's order exactly.
  static constexpr bool kSimdBucket =
      LineBytes == 64 && CSSIDX_HAVE_SSE2 != 0;

#if CSSIDX_HAVE_SSE2
  /// Bitmask over the bucket's 16 lanes: bit (2 + 2*i) set iff
  /// pairs[i].key == k and i < count. Pair index = (lane - 2) / 2.
  CSSIDX_ALWAYS_INLINE static uint32_t MatchLaneBits(const Bucket& b,
                                                     Key k) {
    const auto* lanes = reinterpret_cast<const uint32_t*>(&b);
    uint32_t bits;
#if CSSIDX_HAVE_AVX2
    if (internal_node_search::g_active_path == NodeSearchPath::kAvx2) {
      const __m256i vk = _mm256_set1_epi32(static_cast<int>(k));
      __m256i lo = _mm256_load_si256(reinterpret_cast<const __m256i*>(lanes));
      __m256i hi =
          _mm256_load_si256(reinterpret_cast<const __m256i*>(lanes + 8));
      bits = static_cast<uint32_t>(
                 _mm256_movemask_ps(_mm256_castsi256_ps(
                     _mm256_cmpeq_epi32(lo, vk)))) |
             (static_cast<uint32_t>(_mm256_movemask_ps(_mm256_castsi256_ps(
                  _mm256_cmpeq_epi32(hi, vk))))
              << 8);
    } else
#endif
    {
      const __m128i vk = _mm_set1_epi32(static_cast<int>(k));
      bits = 0;
      for (int v = 0; v < 4; ++v) {
        __m128i x =
            _mm_load_si128(reinterpret_cast<const __m128i*>(lanes + 4 * v));
        bits |= static_cast<uint32_t>(_mm_movemask_ps(
                    _mm_castsi128_ps(_mm_cmpeq_epi32(x, vk))))
                << (4 * v);
      }
    }
    // Key slots are the even lanes from 2 on; occupied ones sit below
    // lane 2 + 2*count (count <= 7, so the shift is at most 16).
    return bits & 0x5554u & ((1u << (2 + 2 * b.count)) - 1u);
  }
#endif  // CSSIDX_HAVE_SSE2

  /// One pass over the chain: leftmost matching array position plus the
  /// match count. Matches appear along the chain in insertion (= array)
  /// order, so the first one seen is the leftmost.
  PositionRange EqualRangeInChain(uint32_t slot, Key k) const {
    size_t leftmost = n_;
    size_t count = 0;
    const Bucket* bucket = &arena_[slot];
#if CSSIDX_HAVE_SSE2
    if constexpr (kSimdBucket) {
      if (internal_node_search::g_active_path != NodeSearchPath::kScalar) {
        while (true) {
          uint32_t m = MatchLaneBits(*bucket, k);
          if (m != 0) {
            if (count == 0) {
              unsigned lane = static_cast<unsigned>(__builtin_ctz(m));
              leftmost = bucket->pairs[(lane - 2) / 2].rid;
            }
            count += static_cast<size_t>(__builtin_popcount(m));
          }
          if (bucket->next == kNoNext) {
            return PositionRange{leftmost, leftmost + count};
          }
          bucket = &arena_[bucket->next];
        }
      }
    }
#endif
    while (true) {
      uint32_t in_bucket = bucket->count;
      for (uint32_t i = 0; i < in_bucket; ++i) {
        if (bucket->pairs[i].key == k) {
          if (count == 0) leftmost = bucket->pairs[i].rid;
          ++count;
        }
      }
      if (bucket->next == kNoNext) break;
      bucket = &arena_[bucket->next];
    }
    return PositionRange{leftmost, leftmost + count};
  }

  int64_t FindInChain(uint32_t slot, Key k) const {
    const Bucket* bucket = &arena_[slot];
#if CSSIDX_HAVE_SSE2
    if constexpr (kSimdBucket) {
      if (internal_node_search::g_active_path != NodeSearchPath::kScalar) {
        while (true) {
          uint32_t m = MatchLaneBits(*bucket, k);
          if (m != 0) {
            unsigned lane = static_cast<unsigned>(__builtin_ctz(m));
            return bucket->pairs[(lane - 2) / 2].rid;
          }
          if (bucket->next == kNoNext) return kNotFound;
          bucket = &arena_[bucket->next];
        }
      }
    }
#endif
    while (true) {
      uint32_t count = bucket->count;
      for (uint32_t i = 0; i < count; ++i) {
        if (bucket->pairs[i].key == k) return bucket->pairs[i].rid;
      }
      if (bucket->next == kNoNext) return kNotFound;
      bucket = &arena_[bucket->next];
    }
  }

  CSSIDX_ALWAYS_INLINE uint32_t Slot(Key k) const {
    if (fn_ == HashFunction::kLowOrderBits || dir_bits_ == 0) {
      return k & mask_;
    }
    // Knuth's multiplicative constant (2^32 / golden ratio); the top
    // dir_bits_ bits of the product index the directory.
    return static_cast<uint32_t>((k * 2654435761u) >> (32 - dir_bits_)) &
           mask_;
  }

  void Insert(Key k, uint32_t rid) {
    uint32_t b = Slot(k);
    while (arena_[b].next != kNoNext) b = arena_[b].next;
    if (arena_[b].count == kPairsPerBucket) {
      auto fresh = static_cast<uint32_t>(arena_.size());
      arena_.push_back(Bucket{0, kNoNext, {}});
      arena_[b].next = fresh;
      b = fresh;
    }
    Bucket& bucket = arena_[b];
    bucket.pairs[bucket.count++] = Pair{k, rid};
  }

  size_t n_;
  int dir_bits_;
  uint32_t mask_;
  HashFunction fn_;
  std::vector<Bucket> arena_;
};

}  // namespace cssidx

#endif  // CSSIDX_BASELINES_CHAINED_HASH_H_
