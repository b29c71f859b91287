#ifndef CSSIDX_CORE_INDEX_SPEC_H_
#define CSSIDX_CORE_INDEX_SPEC_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

// IndexSpec: the value type that names an index configuration at run time.
//
// Everything outside src/core selects an index by spec — the engine's
// BuildSortIndex, the benches, the examples, and the CLIs — so the spec
// round-trips through a compact string form suitable for flags and config
// files:
//
//   spec    := ["part:" K "/"] method ["64"] [":" param] ["@t" threads]
//   method  := "bin" | "tbin" | "interp" | "ttree" | "btree" | "css"
//            | "lcss" | "hash"
//   param   := node entries (sized methods) or log2 directory size (hash)
//   K       := key-range shards of the sorted array; each shard holds an
//              independent inner index of the named method
//   threads := probe executors for batched probes; 0 = auto (one per
//              hardware thread), 1 = inline (default)
//
// e.g. "css:16" (full CSS-tree, 16 keys/node), "lcss:64", "btree:32",
// "hash:22", "css:16@t8" (same tree, batch probes sharded across 8
// threads), "part:8/css:16@t4" (sorted array split into 8 contiguous
// key-range shards, one CSS-tree per shard, batch probes routed by key
// and probe spans sharded across 4 threads). The param defaults to
// 16 keys/node (one 64-byte cache line) and a 2^22 hash directory when
// omitted. A "64" suffix on the method token ("css64:16", "btree64:32",
// "part:4/css64:16@t2") selects 8-byte keys — the paper's §5 key-width
// parameter K: a 64-byte node holds sc/K keys, so wide keys halve the
// branching factor and shift the space/time crossover. The width is a
// structure knob like part:K; hash has no 64-bit build ("hash64" is
// off the menu). Node sizes come from a fixed menu — the sizes swept in
// Figures 12/13 — because they are template parameters underneath (§6.2
// specializes per node size). The thread suffix is an execution policy,
// not a structure knob: it changes how AnyIndex shards batched probe
// spans — point (FindBatch/LowerBoundBatch) and range (EqualRangeBatch/
// CountEqualBatch) alike — never the tree built. The part prefix IS a
// structure knob: it changes what gets built (K smaller inner indexes
// plus a fence table), while every probe still reports positions in the
// whole sorted array.

namespace cssidx {

/// The eight methods of the paper's figures. Core-internal: code outside
/// src/core addresses methods through IndexSpec.
enum class Method {
  kBinarySearch,
  kTreeBinarySearch,
  kInterpolation,
  kTTree,
  kBPlusTree,
  kFullCss,
  kLevelCss,
  kHash,
};

/// Human-readable method name, matching the figures' legends.
const char* MethodName(Method method);

class IndexSpec {
 public:
  /// Defaults to the paper's sweet spot: full CSS-tree, one cache line of
  /// keys per node.
  constexpr IndexSpec() = default;
  constexpr explicit IndexSpec(Method method) : method_(method) {}
  constexpr IndexSpec(Method method, int param) : method_(method) {
    if (method == Method::kHash) {
      hash_dir_bits_ = param;
    } else {
      node_entries_ = param;
    }
  }

  /// Parses the string grammar above. Rejects unknown methods, params on
  /// unsized methods ("bin:4"), off-menu node sizes ("css:12", "lcss:24"),
  /// and out-of-range hash directories. Accepts a few long-form aliases
  /// ("binary", "interpolation", "full-css", ...).
  static std::optional<IndexSpec> Parse(std::string_view text);

  /// Canonical string form; Parse(ToString()) reproduces the spec exactly.
  std::string ToString() const;

  /// One-line usage hint for CLIs whose --spec failed to parse.
  static const char* GrammarHelp();

  /// Figure-legend name, e.g. "full CSS-tree/m=16" or "hash/dir=2^22".
  std::string DisplayName() const;

  Method method() const { return method_; }
  /// Keys (full CSS / T-tree) or 4-byte slots (level CSS / B+-tree) per
  /// node. Meaningful only for sized methods.
  int node_entries() const { return node_entries_; }
  /// log2 of the hash directory size. Meaningful only for hash.
  int hash_dir_bits() const { return hash_dir_bits_; }
  /// Executors for batched probes through AnyIndex: 1 = inline (default),
  /// 0 = one per hardware thread, N = shard large spans N ways.
  int probe_threads() const { return probe_threads_; }
  /// Key width in bytes: 4 (default, uint32_t keys) or 8 ("css64" etc.,
  /// uint64_t keys). A structure knob — it selects which BuildIndex
  /// family the spec is buildable through.
  int key_width() const { return key_width_; }
  /// Key-range shards ("part:K/" prefix). 0 = unpartitioned (default);
  /// K >= 1 builds K contiguous equi-depth shards, each holding an inner
  /// index described by the rest of the spec.
  int partitions() const { return partitions_; }
  bool partitioned() const { return partitions_ > 0; }
  /// The per-shard inner spec: same method and knobs, no part prefix, and
  /// inline probes (parallelism lives at the shard-dispatch level, so the
  /// inner kernels never re-shard their sub-spans).
  IndexSpec Inner() const {
    return WithPartitions(0).WithProbeThreads(1);
  }

  /// False only for hash (Figure 7's "RID-Ordered Access" column).
  bool ordered() const { return method_ != Method::kHash; }
  /// True for methods with a node-size knob.
  bool sized() const;
  /// True when the configuration is buildable: node size on the menu
  /// {4, 8, 16, 24, 32, 64, 128} (level CSS: powers of two only; B+-tree:
  /// every menu size), hash_dir_bits in [0, 28], probe threads in
  /// [0, 256], partitions in [0, 256], key width 4 or 8 (hash: 4 only).
  bool OnMenu() const;

  /// Copy with a different node size / directory size (for sweeps),
  /// probe-thread policy (for scaling sweeps), shard count, or key width.
  IndexSpec WithNodeEntries(int entries) const;
  IndexSpec WithHashDirBits(int bits) const;
  IndexSpec WithProbeThreads(int threads) const;
  IndexSpec WithPartitions(int partitions) const;
  IndexSpec WithKeyWidth(int bytes) const;

  friend bool operator==(const IndexSpec& a, const IndexSpec& b) {
    if (a.method_ != b.method_) return false;
    if (a.probe_threads_ != b.probe_threads_) return false;
    if (a.partitions_ != b.partitions_) return false;
    if (a.key_width_ != b.key_width_) return false;
    if (a.method_ == Method::kHash) {
      return a.hash_dir_bits_ == b.hash_dir_bits_;
    }
    return !a.sized() || a.node_entries_ == b.node_entries_;
  }
  friend bool operator!=(const IndexSpec& a, const IndexSpec& b) {
    return !(a == b);
  }

 private:
  Method method_ = Method::kFullCss;
  int node_entries_ = 16;
  int hash_dir_bits_ = 22;
  int probe_threads_ = 1;
  int partitions_ = 0;
  int key_width_ = 4;
};

/// One spec per method in the figures' legend order, default knobs.
std::vector<IndexSpec> AllSpecs();
/// Same, with explicit knobs applied to every spec.
std::vector<IndexSpec> AllSpecs(int node_entries, int hash_dir_bits);

/// The node-size menu shared by the sized methods (Figures 12/13 sweep).
const std::vector<int>& NodeSizeMenu();

}  // namespace cssidx

#endif  // CSSIDX_CORE_INDEX_SPEC_H_
