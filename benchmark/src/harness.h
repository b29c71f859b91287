#ifndef CSSBENCH_HARNESS_H_
#define CSSBENCH_HARNESS_H_

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

// Shared machinery of the cssbench binary: the run configuration, the
// seeded stateless key hash every generator derives from, latency samples,
// spans for the traced run, pregenerated statement rings, and the report
// printed as one JSON line at exit.

namespace cssbench {

/// Nanoseconds on the steady clock since the first call in this process.
uint64_t NowNs();

/// SplitMix64 finalizer.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Stateless hash of (seed, stream, i): generators derive element i of a
/// stream from it, so any statement, key or row can be regenerated from
/// its index alone — the oracles and the ladder never store inputs.
inline uint64_t Hash(uint64_t seed, uint64_t stream, uint64_t i) {
  return Mix64(Mix64(seed * 0x100000001b3ULL + stream) ^ i);
}

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double window_s = 15;
  double warmup_s = 3;
  /// Same code paths at ~1/100 of the sizes, for iterating on cssbench.
  bool smoke = false;
  /// Where the traced run writes its JSONL; empty = untraced run.
  std::string trace_path;
  /// Parent directory for buffer-pool spill files.
  std::string spill_dir = ".";

  bool traced() const { return !trace_path.empty(); }
  size_t Size(size_t full) const {
    return smoke ? (full / 100 > 0 ? full / 100 : 1) : full;
  }
  /// Requests replayed per layer by the traced run's ladder.
  size_t LadderRequests() const { return smoke ? 500 : 10000; }
};

/// Start and end (ns, NowNs clock) of the measured window; everything
/// before start is warm-up.
struct Window {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;

  static Window After(double warmup_s, double window_s);
  bool Contains(uint64_t t) const { return t >= start_ns && t < end_ns; }
  double seconds() const { return (end_ns - start_ns) * 1e-9; }
  /// Ops per second of the time they occupied: from the window's start to
  /// the end of the last op that started inside it. (Whole ops over the
  /// whole window would quantize a loop whose ops come in bursts, like
  /// olap_paged's queries between appends.)
  double Rate(uint64_t ops, uint64_t last_end_ns) const {
    return last_end_ns > start_ns
               ? static_cast<double>(ops) * 1e9 /
                     static_cast<double>(last_end_ns - start_ns)
               : 0.0;
  }
};

/// Latency samples in ns, kept as a histogram: exact below 4096 ns, then
/// 4096 sub-buckets per power of two (0.025% relative precision). Its
/// quantiles read like raw samples, while its memory stays ~1 MB at any
/// op rate — so peak RSS measures the system, not the bench's sample log.
class Samples {
 public:
  Samples() : counts_(kBuckets, 0) {}
  void Add(uint64_t ns) {
    ++counts_[Bucket(ns)];
    ++size_;
  }
  void Append(const Samples& other);
  size_t size() const { return size_; }
  /// Nearest-rank quantiles (q in [0, 1]), in ns; 0 when empty.
  std::vector<double> Quantiles(std::initializer_list<double> qs) const;

 private:
  static constexpr int kSubBits = 12;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  static constexpr int kMaxExp = 42;  // ~73 minutes; larger values clamp
  static constexpr size_t kBuckets = kSub * (kMaxExp - kSubBits + 2);

  static size_t Bucket(uint64_t ns);
  /// Midpoint of a bucket (the exact value below kSub).
  static double Value(size_t bucket);

  std::vector<uint64_t> counts_;
  size_t size_ = 0;
};

/// One timed call: which request it served, which layer's function ran,
/// and under which span. Names are string literals.
struct Span {
  uint64_t req = 0;
  const char* name = "";
  const char* parent = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t n = 0;     // keys or probes handled by the call
  uint32_t hits = 0;  // of those, how many found a key
  uint16_t thread = 0;
};

/// Per-thread span buffer, reserved in advance. When full it overwrites
/// its oldest spans, so recording costs the same through the whole window
/// and the file keeps the latest `capacity` spans.
class SpanLog {
 public:
  SpanLog(size_t capacity, uint16_t thread);
  void Add(Span span) {
    span.thread = thread_;
    spans_[next_++ % spans_.size()] = span;
  }
  /// Spans in recording order (oldest first).
  std::vector<Span> Ordered() const;

 private:
  std::vector<Span> spans_;
  uint64_t next_ = 0;
  uint16_t thread_;
};

/// Spans plus counters of one traced run, written as JSONL at exit.
class Trace {
 public:
  SpanLog& NewLog(size_t capacity, uint16_t thread);
  void Counter(const std::string& name, double value);
  bool Write(const std::string& path) const;

 private:
  std::vector<std::unique_ptr<SpanLog>> logs_;
  std::vector<std::pair<std::string, double>> counters_;
};

/// Times fn() and records it as a span in `log` (if any).
template <typename Fn>
void Timed(SpanLog* log, uint64_t req, const char* name, const char* parent,
           uint32_t n, Fn&& fn) {
  const uint64_t start = NowNs();
  const uint32_t hits = fn();
  const uint64_t end = NowNs();
  if (log != nullptr) log->Add(Span{req, name, parent, start, end, n, hits});
}

/// Statement texts generated before timing, stored back to back.
class TextRing {
 public:
  void Add(std::string_view text);
  std::string_view operator[](size_t i) const {
    const size_t begin = i == 0 ? 0 : ends_[i - 1];
    return std::string_view(text_).substr(begin, ends_[i] - begin);
  }
  size_t size() const { return ends_.size(); }
  void Reserve(size_t bytes, size_t statements);

 private:
  std::string text_;
  std::vector<size_t> ends_;
};

/// Appends the decimal form of v.
inline void AppendNumber(std::string& out, uint64_t v) {
  char buf[24];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, end);
}

/// Outcome of one run: op accounting, oracle verdicts and every metric
/// cssbench computes itself (layer metrics come from the trace).
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t checked = 0;
  std::vector<std::string> errors;  // first few mismatches, for the log
  std::vector<std::pair<std::string, double>> metrics;

  void Set(const std::string& name, double value);
  /// Records one failed op or check.
  void Fail(std::string what);
  /// Folds a thread's tallies into this report.
  void Merge(const Report& other);
};

/// Peak resident set of this process, MB.
double PeakRssMb();

/// The report as one JSON object (cssbench's last stdout line).
std::string ReportJson(const Config& config, const Report& report);

double Median(std::vector<double> v);

/// Times set-up repeatedly: setup() builds the system afresh (dropping
/// the previous one) and returns the seconds it timed. Runs it at least
/// three times and until three seconds of set-up have been timed (at most
/// 300 times): the machine's speed drifts over seconds, and a cheap set-up
/// timed only briefly would report whichever phase it hit. Returns the
/// median.
template <typename Setup>
double MedianSetup(Setup&& setup) {
  std::vector<double> seconds;
  double total = 0;
  while (seconds.size() < 3 ||
         (total < 3.0 && seconds.size() < 300)) {
    seconds.push_back(setup());
    total += seconds.back();
  }
  return Median(seconds);
}

}  // namespace cssbench

#endif  // CSSBENCH_HARNESS_H_
