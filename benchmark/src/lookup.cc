// point_hot and bulk_cold: read-only FIND (and RANGE) statements from two
// closed-loop sessions against one served table. They differ in the knob
// the paper turns — table size against the caches — and in how many keys a
// statement carries, which decides whether per-statement fixed costs or
// tree-descent misses dominate.

#include <memory>
#include <thread>

#include "ladder.h"
#include "workloads.h"

namespace cssbench {
namespace {

struct Shape {
  size_t keys;         // table size at full scale
  size_t find_keys;    // keys per FIND
  unsigned range_pct;  // share of statements that are RANGE
  unsigned hit_pct;    // share of FIND keys present in the table
  size_t ring;         // pregenerated statements at full scale
};

// 1M 8-byte keys: 8 MB of leaves (fits L3), the directory fits L2.
constexpr Shape kPointHot{1'000'000, 8, 20, 90, 65536};
// 100M 4-byte keys: 400 MB, past the L3; the ring holds 16M probe keys.
constexpr Shape kBulkCold{100'000'000, 1024, 0, 50, 16384};

constexpr uint64_t kRangeKeys = 8;  // RANGE spans ~8 keys
constexpr size_t kReaders = 2;
constexpr size_t kCheckEvery = 64;
constexpr size_t kLiveSpans = size_t{1} << 16;

template <typename KeyT>
struct Statement {
  bool range = false;
  std::vector<KeyT> keys;  // range: {lo, hi}
};

template <typename KeyT>
class Lookup {
 public:
  Lookup(const Config& config, const Shape& shape)
      : config_(config), shape_(shape) {
    keys_.seed = config.seed;
    keys_.n = config.Size(shape.keys);
    // Wide keys spread over 2^40 so they exercise the 64-bit path for
    // real; narrow keys fill the 32-bit domain.
    keys_.width = sizeof(KeyT) == 8 ? (uint64_t{1} << 20)
                                    : (uint64_t{1} << 32) / keys_.n;
  }

  void Make(uint64_t s, Statement<KeyT>& st) const {
    Rng rng{Hash(config_.seed, 2, s)};
    st.keys.clear();
    st.range = rng.Next() % 100 < shape_.range_pct;
    const uint64_t span = keys_.n * keys_.width;
    if (st.range) {
      const uint64_t lo = rng.Next() % span;
      st.keys = {static_cast<KeyT>(lo),
                 static_cast<KeyT>(lo + kRangeKeys * keys_.width)};
      return;
    }
    for (size_t j = 0; j < shape_.find_keys; ++j) {
      const uint64_t i = rng.Next() % keys_.n;
      const uint64_t r = rng.Next();
      st.keys.push_back(r % 100 < shape_.hit_pct ? keys_.Key(i)
                                                 : keys_.Absent(i, r / 100));
    }
  }

  TextRing MakeRing() const {
    const size_t statements = config_.Size(shape_.ring);
    TextRing ring;
    ring.Reserve(statements * (8 + shape_.find_keys * 14), statements);
    Statement<KeyT> st;
    std::string text;
    for (size_t s = 0; s < statements; ++s) {
      Make(s, st);
      text = st.range ? "RANGE t" : "FIND t";
      for (KeyT k : st.keys) {
        text += ' ';
        AppendNumber(text, k);
      }
      ring.Add(text);
    }
    return ring;
  }

  /// Every kCheckEvery-th statement, compared key by key against the
  /// closed-form oracle (std::lower_bound semantics on the sorted keys).
  void Check(size_t i, const serve::StatementResult& result,
             Statement<KeyT>& st, Report& report) const {
    if (i % kCheckEvery != 0) return;
    Make(i, st);
    if (st.range) {
      const uint64_t lo = keys_.LowerBound(st.keys[0]);
      const uint64_t hi = keys_.LowerBound(st.keys[1]);
      ++report.checked;
      if (result.range_begin != lo || result.count != hi - lo) {
        report.Fail("RANGE statement " + std::to_string(i) + ": got [" +
                    std::to_string(result.range_begin) + ", +" +
                    std::to_string(result.count) + "), want [" +
                    std::to_string(lo) + ", +" + std::to_string(hi - lo) +
                    ")");
      }
      return;
    }
    for (size_t j = 0; j < st.keys.size(); ++j) {
      ++report.checked;
      const int64_t want = keys_.Find(st.keys[j]);
      if (result.positions[j] != want) {
        report.Fail("FIND statement " + std::to_string(i) + " key " +
                    std::to_string(st.keys[j]) + ": got " +
                    std::to_string(result.positions[j]) + ", want " +
                    std::to_string(want));
      }
    }
  }

  /// Builds the served table from freshly generated keys (untimed);
  /// returns the seconds the build took.
  double Setup(std::unique_ptr<serve::Server>& server) const {
    server.reset();  // the previous set-up's tables go first
    std::vector<KeyT> keys = keys_.Keys(0, keys_.n);
    const uint64_t start = NowNs();
    server = std::make_unique<serve::Server>();
    const auto spec = *cssidx::IndexSpec::Parse("css:16");
    if constexpr (sizeof(KeyT) == 8) {
      server->CreateTable64("t", std::move(keys), spec);
    } else {
      server->CreateTable("t", std::move(keys), spec);
    }
    server->Start();
    return (NowNs() - start) * 1e-9;
  }

  static auto Snapshot(const serve::Server& server) {
    if constexpr (sizeof(KeyT) == 8) {
      return server.TableSnapshot64("t");
    } else {
      return server.TableSnapshot("t");
    }
  }

  Report Run(Trace* trace) {
    const TextRing ring = MakeRing();
    std::unique_ptr<serve::Server> server;
    const double setup_s =
        MedianSetup([&] { return Setup(server); });

    std::vector<SpanLog*> spans(kReaders, nullptr);
    if (trace != nullptr) {
      for (size_t r = 0; r < kReaders; ++r) {
        spans[r] = &trace->NewLog(kLiveSpans, static_cast<uint16_t>(r));
      }
    }
    const Window window = Window::After(config_.warmup_s, config_.window_s);
    std::vector<ReaderResult> readers(kReaders);
    auto read = [&](size_t r) {
      Statement<KeyT> st;
      RunReader(
          *server, ring, r * ring.size() / kReaders, window, spans[r],
          (uint64_t{r} + 1) << 40,
          [&](size_t i, const serve::StatementResult& result, Report& rep) {
            Check(i, result, st, rep);
          },
          readers[r]);
    };
    std::thread helper(read, 1);
    read(0);
    helper.join();

    ReaderResult all;
    for (const ReaderResult& r : readers) all.Merge(r);
    Report& report = all.report;
    const auto q = all.latency.Quantiles({0.5, 0.99});
    const auto snap = Snapshot(*server);
    report.Set("setup_s", setup_s);
    report.Set("ops_per_s", window.Rate(all.window_ops, all.last_end_ns));
    report.Set("op_p50_us", q[0] * 1e-3);
    report.Set("op_p99_us", q[1] * 1e-3);
    report.Set("index_bytes_per_key",
               static_cast<double>(snap->index().SpaceBytes()) /
                   static_cast<double>(snap->keys().size()));
    report.Set("peak_rss_mb", PeakRssMb());
    report.Set("harness.op_samples", static_cast<double>(all.latency.size()));
    report.Set("harness.checked_results", static_cast<double>(report.checked));

    if (trace != nullptr) Ladder(*server, ring, *trace, report);
    server->Stop();
    return std::move(report);
  }

 private:
  void Ladder(serve::Server& server, const TextRing& ring, Trace& trace,
              Report& report) const {
    const size_t reqs = std::min(config_.LadderRequests(), ring.size());
    ServeRungs(server, ring, reqs, trace, report);
    std::vector<uint64_t> ids(reqs);
    for (size_t r = 0; r < reqs; ++r) ids[r] = r;
    SnapshotRung(trace, ids, kExecute,
                 [&](uint64_t) { return Snapshot(server) != nullptr; });

    std::vector<Probe<KeyT>> probes(reqs);
    Statement<KeyT> st;
    for (size_t r = 0; r < reqs; ++r) {
      Make(r, st);
      probes[r] = Probe<KeyT>{r, st.range ? ProbeKind::kRange : ProbeKind::kFind,
                              st.keys};
    }
    const auto snap = Snapshot(server);
    IndexRung(snap->index(), probes, kExecute, trace);
    KernelRungs(snap->keys(), probes, kExecute, trace);
  }

  const Config& config_;
  const Shape shape_;
  BucketKeys<KeyT> keys_;
};

}  // namespace

Report RunPointHot(const Config& config, Trace* trace) {
  return Lookup<uint64_t>(config, kPointHot).Run(trace);
}

Report RunBulkCold(const Config& config, Trace* trace) {
  return Lookup<uint32_t>(config, kBulkCold).Run(trace);
}

}  // namespace cssbench
