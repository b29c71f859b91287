// rw_fresh: two closed-loop reader sessions beside an open-loop producer,
// on a part:16/css:16 u32 table and a css:16 string table. The producer
// runs on a fixed schedule whatever the server does; each write is timed
// from its due time, and between sends the producer polls each batch's
// marker (its largest insert) to time when a reader can first see it.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <memory>
#include <stdexcept>
#include <thread>

#include "core/maintained_index.h"
#include "domain/domain.h"
#include "ladder.h"
#include "workload/batch_update.h"
#include "workloads.h"

namespace cssbench {
namespace {

constexpr size_t kU32Keys = 16'000'000;
constexpr uint64_t kU32Width = 4;           // keys spread over [0, 64M)
// 50K distinct values at multiplicity 1-39: ~1M rows. The dictionary's
// size sets what each insert of a new value costs the writer; at this size
// the writer keeps up with the schedule, so the run measures a steady
// state rather than a backlog that grows with the window.
constexpr size_t kStringBases = 50'000;
constexpr uint64_t kMaxMult = 39;
constexpr size_t kRing = 16384;
constexpr size_t kFindKeys = 64;
constexpr size_t kCountValues = 16;
constexpr size_t kU32BatchKeys = 128;
constexpr size_t kStringBatchValues = 32;
constexpr uint64_t kU32PeriodNs = 10'000'000;       // 100 batches/s
constexpr uint64_t kStringPeriodNs = 100'000'000;   // 10 batches/s
constexpr uint64_t kStringOffsetNs = 5'000'000;     // interleave the streams
constexpr uint64_t kPollNs = 100'000;  // marker polls at most ~200us apart
constexpr uint64_t kDrainNs = 5'000'000'000;
constexpr size_t kReaders = 2;
constexpr size_t kCheckEvery = 16;
constexpr size_t kLiveSpans = size_t{1} << 16;
constexpr size_t kApplyReplays = 32;
constexpr size_t kAddBatchReplays = 16;

/// The string table's values: base b has Mult(b) rows of Value(2b).
/// Inserted values are odd, Value(2b+1): never present initially, and they
/// sort between existing values, so every insert renumbers the IDs after
/// it — the dictionary remap the writer pays for.
struct StringKeys {
  uint64_t seed = 0;
  uint64_t bases = 0;

  uint32_t Mult(uint64_t b) const {
    return static_cast<uint32_t>(1 + Hash(seed, 5, b) % kMaxMult);
  }
  static std::string Value(uint64_t x) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "v%010llu",
                  static_cast<unsigned long long>(x));
    return buf;
  }
  std::vector<std::string> Column() const {
    std::vector<std::string> out;
    for (uint64_t b = 0; b < bases; ++b) {
      for (uint32_t m = 0; m < Mult(b); ++m) out.push_back(Value(2 * b));
    }
    return out;
  }
};

/// One reader statement: FIND of u32 keys, or COUNT of string values
/// (held as the numbers x of Value(x)).
struct Statement {
  bool count = false;
  std::vector<uint64_t> values;
};

/// One write stream: pregenerated INSERT/DELETE/poll texts per batch, its
/// schedule, and the batches sent but not yet seen by a reader.
struct Stream {
  struct Sent {
    size_t batch;
    uint64_t due;
    bool in_window;
  };
  uint64_t period_ns = 0;
  uint64_t offset_ns = 0;
  bool counts = false;  // marker polled with COUNT (else FIND)
  TextRing inserts, deletes, polls;
  size_t sent = 0;
  std::deque<Sent> pending;

  uint64_t Due(uint64_t origin) const {
    return sent < inserts.size() ? origin + offset_ns + sent * period_ns
                                 : UINT64_MAX;
  }
};

class RwFresh {
 public:
  explicit RwFresh(const Config& config) : config_(config) {
    u_.seed = config.seed;
    u_.n = config.Size(kU32Keys);
    u_.width = kU32Width;
    s_.seed = config.seed;
    s_.bases = config.Size(kStringBases);
    u_batch_ = config.Size(kU32BatchKeys);
    s_batch_ = config.Size(kStringBatchValues);
    insert_base_ = u_.n * u_.width;  // above every initial key
    s_insert_lo_ = 3 * s_.bases / 4;
    // Deletes eat the lowest quarter and string inserts fill the top one;
    // the readers' middle band must outlast the longest run.
    const double run_s = config.warmup_s + config.window_s;
    const double u_batches = run_s * 1e9 / kU32PeriodNs + 1;
    const double s_batches = run_s * 1e9 / kStringPeriodNs + 1;
    if (u_batches * u_batch_ >= u_.n / 4 ||
        s_batches * s_batch_ >= s_.bases / 4) {
      throw std::invalid_argument(
          "rw_fresh: the window is too long for the tables' untouched bands");
    }
  }

  Report Run(Trace* trace);

 private:
  // Readers probe only the middle half of each table, which no write
  // touches: deletes eat the oldest (smallest) keys, inserts land above
  // the band.
  void Make(uint64_t i, Statement& st) const {
    Rng rng{Hash(config_.seed, 3, i)};
    st.values.clear();
    st.count = i % 4 == 3;
    if (st.count) {
      for (size_t j = 0; j < kCountValues; ++j) {
        const uint64_t b = s_.bases / 4 + rng.Next() % (s_.bases / 2);
        st.values.push_back(2 * b + rng.Next() % 2);
      }
      return;
    }
    for (size_t j = 0; j < kFindKeys; ++j) {
      const uint64_t i_key = u_.n / 4 + rng.Next() % (u_.n / 2);
      const uint64_t r = rng.Next();
      st.values.push_back(r % 2 == 0 ? u_.Key(i_key)
                                     : u_.Absent(i_key, r / 2));
    }
  }

  TextRing MakeRing() const {
    const size_t statements = config_.Size(kRing);
    TextRing ring;
    ring.Reserve(statements * kFindKeys * 10, statements);
    Statement st;
    std::string text;
    for (size_t i = 0; i < statements; ++i) {
      Make(i, st);
      text = st.count ? "COUNT s" : "FIND u";
      for (uint64_t v : st.values) {
        text += ' ';
        if (st.count) {
          text += StringKeys::Value(v);
        } else {
          AppendNumber(text, v);
        }
      }
      ring.Add(text);
    }
    return ring;
  }

  /// Checks one group of four statements (three FINDs and a COUNT) in
  /// every kCheckEvery, each key against the oracle.
  void Check(size_t i, const serve::StatementResult& result, Statement& st,
             Report& report) const {
    if ((i / 4) % kCheckEvery != 0) return;
    Make(i, st);
    for (size_t j = 0; j < st.values.size(); ++j) {
      ++report.checked;
      const uint64_t v = st.values[j];
      if (st.count) {
        const size_t want = v % 2 == 0 ? s_.Mult(v / 2) : 0;
        if (result.counts[j] != want) {
          report.Fail("COUNT " + StringKeys::Value(v) + ": got " +
                      std::to_string(result.counts[j]) + ", want " +
                      std::to_string(want));
        }
      } else {
        const bool want = u_.Find(v) != -1;
        if ((result.positions[j] != -1) != want) {
          report.Fail("FIND " + std::to_string(v) + ": got " +
                      std::to_string(result.positions[j]) + ", want " +
                      (want ? "present" : "absent"));
        }
      }
    }
  }

  std::vector<uint32_t> U32Inserts(size_t batch) const {
    std::vector<uint32_t> out;
    for (size_t q = 0; q < u_batch_; ++q) {
      out.push_back(static_cast<uint32_t>(insert_base_ + batch * u_batch_ + q));
    }
    return out;
  }
  std::vector<uint32_t> U32Deletes(size_t batch) const {
    return u_.Keys(batch * u_batch_, (batch + 1) * u_batch_);
  }
  std::vector<std::string> StringInserts(size_t batch) const {
    std::vector<std::string> out;
    for (size_t q = 0; q < s_batch_; ++q) {
      out.push_back(
          StringKeys::Value(2 * (s_insert_lo_ + batch * s_batch_ + q) + 1));
    }
    return out;
  }

  /// Pregenerates every batch the schedule can send in one run.
  void MakeStreams() {
    const double run_s = config_.warmup_s + config_.window_s;
    u_stream_.period_ns = kU32PeriodNs;
    s_stream_.period_ns = kStringPeriodNs;
    s_stream_.offset_ns = kStringOffsetNs;
    s_stream_.counts = true;
    const size_t u_batches = static_cast<size_t>(run_s * 1e9 / kU32PeriodNs) + 1;
    const size_t s_batches =
        static_cast<size_t>(run_s * 1e9 / kStringPeriodNs) + 1;
    std::string text;
    for (size_t j = 0; j < u_batches; ++j) {
      text = "INSERT u";
      for (uint32_t k : U32Inserts(j)) {
        text += ' ';
        AppendNumber(text, k);
      }
      u_stream_.inserts.Add(text);
      text = "DELETE u";
      for (uint32_t k : U32Deletes(j)) {
        text += ' ';
        AppendNumber(text, k);
      }
      u_stream_.deletes.Add(text);
      text = "FIND u ";
      AppendNumber(text, U32Inserts(j).back());
      u_stream_.polls.Add(text);
    }
    for (size_t m = 0; m < s_batches; ++m) {
      text = "INSERT s";
      for (const std::string& v : StringInserts(m)) text += ' ' + v;
      s_stream_.inserts.Add(text);
      text = "DELETE s";
      for (size_t q = 0; q < s_batch_; ++q) {
        text += ' ' + StringKeys::Value(2 * (m * s_batch_ + q));
      }
      s_stream_.deletes.Add(text);
      s_stream_.polls.Add("COUNT s " + StringInserts(m).back());
    }
  }

  /// Builds both tables from freshly generated inputs (untimed); returns
  /// the seconds the build took.
  double Setup(std::unique_ptr<serve::Server>& server) const {
    server.reset();
    std::vector<uint32_t> keys = u_.Keys(0, u_.n);
    std::vector<std::string> values = s_.Column();
    const uint64_t start = NowNs();
    server = std::make_unique<serve::Server>();
    server->CreateTable("u", std::move(keys),
                        *cssidx::IndexSpec::Parse("part:16/css:16"));
    server->CreateStringTable("s", std::move(values),
                              *cssidx::IndexSpec::Parse("css:16"));
    server->Start();
    return (NowNs() - start) * 1e-9;
  }

  void Send(serve::Session& session, Stream& stream, uint64_t origin,
            const Window& window, Report& report) {
    const size_t j = stream.sent;
    const uint64_t due = stream.Due(origin);
    ++stream.sent;
    const bool in_window = window.Contains(due);
    const uint64_t start = NowNs();
    const serve::StatementResult ins = session.Execute(stream.inserts[j]);
    const uint64_t inserted = NowNs();
    const serve::StatementResult del = session.Execute(stream.deletes[j]);
    const uint64_t deleted = NowNs();
    report.attempted += 2;
    if (!ins.ok()) report.Fail("INSERT batch " + std::to_string(j) + ": " + ins.error);
    if (!del.ok()) report.Fail("DELETE batch " + std::to_string(j) + ": " + del.error);
    if (in_window) {
      lag_.Add(start - due);
      ack_.Add(inserted - due);
      ack_.Add(deleted - due);
    }
    stream.pending.push_back({j, due, in_window});
  }

  /// Polls the oldest unseen batches' markers; the writer applies in
  /// order, so the first invisible marker ends the scan.
  void Poll(serve::Session& session, Stream& stream, Report& report) {
    while (!stream.pending.empty()) {
      const Stream::Sent& front = stream.pending.front();
      const serve::StatementResult r = session.Execute(stream.polls[front.batch]);
      if (!r.ok()) {
        report.Fail("marker poll: " + r.error);
        stream.pending.pop_front();
        continue;
      }
      const bool visible = stream.counts ? r.count > 0 : r.positions[0] != -1;
      if (!visible) return;
      if (front.in_window) fresh_.Add(NowNs() - front.due);
      stream.pending.pop_front();
    }
  }

  /// The open-loop producer: sends each batch when due, polls markers in
  /// between, then waits (bounded) for the last batches to show.
  void Produce(serve::Server& server, const Window& window, Report& report) {
    serve::Session session = server.OpenSession();
    const uint64_t origin =
        window.start_ns - static_cast<uint64_t>(config_.warmup_s * 1e9);
    bool started = false;
    while (true) {
      const uint64_t now = NowNs();
      if (!started && now >= window.start_ns) {
        writer0_ = server.writer_stats();
        queue0_ = server.queue_stats();
        started = true;
      }
      if (now >= window.end_ns) break;
      const uint64_t u_due = u_stream_.Due(origin);
      const uint64_t s_due = s_stream_.Due(origin);
      if (std::min(u_due, s_due) <= now) {
        Send(session, u_due <= s_due ? u_stream_ : s_stream_, origin, window,
             report);
        continue;
      }
      Poll(session, u_stream_, report);
      Poll(session, s_stream_, report);
      const uint64_t wake = std::min({u_due, s_due, NowNs() + kPollNs});
      const uint64_t after = NowNs();
      if (wake > after) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(wake - after));
      }
    }
    writer1_ = server.writer_stats();
    queue1_ = server.queue_stats();
    const uint64_t deadline = NowNs() + kDrainNs;
    while ((!u_stream_.pending.empty() || !s_stream_.pending.empty()) &&
           NowNs() < deadline) {
      Poll(session, u_stream_, report);
      Poll(session, s_stream_, report);
      std::this_thread::sleep_for(std::chrono::nanoseconds(kPollNs));
    }
    if (!u_stream_.pending.empty() || !s_stream_.pending.empty()) {
      report.Fail("write batches still invisible 5 s after the window");
    }
  }

  /// After Stop(): each table must equal its initial keys minus every
  /// deleted key plus every inserted one (the journal stays off).
  void CheckFinal(const serve::Server& server, Report& report) const {
    const auto u_snap = server.TableSnapshot("u");
    const std::vector<uint32_t>& got = u_snap->keys();
    const size_t deleted = u_stream_.sent * u_batch_;
    std::vector<uint32_t> want = u_.Keys(deleted, u_.n);
    for (size_t q = 0; q < u_stream_.sent * u_batch_; ++q) {
      want.push_back(static_cast<uint32_t>(insert_base_ + q));
    }
    ++report.checked;
    if (got != want) {
      report.Fail("u32 table: final keys differ from initial - deletes + "
                  "inserts (" + std::to_string(got.size()) + " vs " +
                  std::to_string(want.size()) + " keys)");
    }

    const auto ids = server.TableSnapshot("s");
    const auto dom = server.TableDomain("s");
    const uint64_t deleted_bases = s_stream_.sent * s_batch_;
    const uint64_t inserted_end = s_insert_lo_ + s_stream_.sent * s_batch_;
    size_t k = 0;
    bool same = true;
    for (uint64_t x = 0; x < 2 * s_.bases && same; ++x) {
      const uint64_t b = x / 2;
      const uint32_t mult =
          x % 2 == 0 ? (b < deleted_bases ? 0 : s_.Mult(b))
                     : (b >= s_insert_lo_ && b < inserted_end ? 1 : 0);
      if (mult == 0) continue;
      const std::string value = StringKeys::Value(x);
      for (uint32_t m = 0; m < mult && same; ++m, ++k) {
        same = k < ids->keys().size() && dom->Decode(ids->keys()[k]) == value;
      }
    }
    ++report.checked;
    if (!same || k != ids->keys().size()) {
      report.Fail("string table: final values differ from initial - "
                  "deletes + inserts");
    }
  }

  void Counters(const serve::Server& server, const Window& window,
                Trace& trace) const {
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const double enqueued = static_cast<double>(queue1_.enqueued_batches -
                                                queue0_.enqueued_batches);
    const double groups = static_cast<double>(writer1_.groups_published -
                                              writer0_.groups_published);
    trace.Counter("serve.queue.depth_high_water",
                  static_cast<double>(queue1_.depth_high_water));
    trace.Counter("serve.queue.blocked_push_frac",
                  ratio(static_cast<double>(queue1_.blocked_pushes -
                                            queue0_.blocked_pushes),
                        enqueued));
    trace.Counter("serve.writer.coalesce_ratio",
                  ratio(groups, static_cast<double>(writer1_.batches_applied -
                                                    writer0_.batches_applied)));
    trace.Counter(
        "serve.writer.keys_per_publish",
        ratio(static_cast<double>(writer1_.keys_inserted + writer1_.keys_deleted -
                                  writer0_.keys_inserted - writer0_.keys_deleted),
              groups));
    trace.Counter("serve.writer.drain_cycles_per_s",
                  static_cast<double>(writer1_.drain_cycles -
                                      writer0_.drain_cycles) /
                      window.seconds());
    // Maintenance stats are writer-side: read only after Stop().
    const cssidx::MaintenanceStats& u = server.TableMaintenanceStats("u");
    const cssidx::MaintenanceStats& s = server.TableMaintenanceStats("s");
    trace.Counter("core.maintained.shards_rebuilt_per_publish",
                  ratio(static_cast<double>(u.shards_rebuilt),
                        static_cast<double>(u.full_rebuilds +
                                            u.incremental_refreshes)));
    trace.Counter("core.maintained.full_rebuilds",
                  static_cast<double>(u.full_rebuilds + s.full_rebuilds));
  }

  void Ladder(serve::Server& server, const TextRing& ring, Trace& trace,
              Report& report) const;

  const Config& config_;
  BucketKeys<uint32_t> u_;
  StringKeys s_;
  size_t u_batch_ = 0;
  size_t s_batch_ = 0;
  uint64_t insert_base_ = 0;
  uint64_t s_insert_lo_ = 0;
  Stream u_stream_;
  Stream s_stream_;
  Samples ack_, fresh_, lag_;
  serve::ServerStats writer0_, writer1_;
  serve::QueueStats queue0_, queue1_;
};

Report RwFresh::Run(Trace* trace) {
  const TextRing ring = MakeRing();
  MakeStreams();
  std::unique_ptr<serve::Server> server;
  const double setup_s = MedianSetup([&] { return Setup(server); });

  std::vector<SpanLog*> spans(kReaders, nullptr);
  if (trace != nullptr) {
    for (size_t r = 0; r < kReaders; ++r) {
      spans[r] = &trace->NewLog(kLiveSpans, static_cast<uint16_t>(r));
    }
  }
  const Window window = Window::After(config_.warmup_s, config_.window_s);
  std::vector<ReaderResult> readers(kReaders);
  std::vector<std::thread> threads;
  for (size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      Statement st;
      RunReader(
          *server, ring, r * ring.size() / kReaders, window, spans[r],
          (uint64_t{r} + 1) << 40,
          [&](size_t i, const serve::StatementResult& result, Report& rep) {
            Check(i, result, st, rep);
          },
          readers[r]);
    });
  }
  Report report;
  Produce(*server, window, report);
  for (std::thread& t : threads) t.join();
  server->Stop();

  ReaderResult all;
  for (const ReaderResult& r : readers) all.Merge(r);
  report.Merge(all.report);
  CheckFinal(*server, report);

  const auto q = all.latency.Quantiles({0.5, 0.99});
  const auto u_snap = server->TableSnapshot("u");
  const auto s_snap = server->TableSnapshot("s");
  report.Set("setup_s", setup_s);
  report.Set("ops_per_s", window.Rate(all.window_ops, all.last_end_ns));
  report.Set("op_p50_us", q[0] * 1e-3);
  report.Set("op_p99_us", q[1] * 1e-3);
  report.Set("index_bytes_per_key",
             static_cast<double>(u_snap->index().SpaceBytes() +
                                 s_snap->index().SpaceBytes()) /
                 static_cast<double>(u_snap->keys().size() +
                                     s_snap->keys().size()));
  report.Set("peak_rss_mb", PeakRssMb());
  report.Set("harness.write_ack_p99_us", ack_.Quantiles({0.99})[0] * 1e-3);
  const auto fresh = fresh_.Quantiles({0.5, 0.99});
  report.Set("write_fresh_p50_ms", fresh[0] * 1e-6);
  report.Set("write_fresh_p99_ms", fresh[1] * 1e-6);
  report.Set("harness.op_samples", static_cast<double>(all.latency.size()));
  report.Set("harness.gen_lag_p99_ms", lag_.Quantiles({0.99})[0] * 1e-6);
  report.Set("harness.checked_results", static_cast<double>(report.checked));

  if (trace != nullptr) {
    Counters(*server, window, *trace);
    Ladder(*server, ring, *trace, report);
  }
  return report;
}

void RwFresh::Ladder(serve::Server& server, const TextRing& ring,
                     Trace& trace, Report& report) const {
  const size_t reqs = std::min(config_.LadderRequests(), ring.size());
  ServeRungs(server, ring, reqs, trace, report);
  std::vector<uint64_t> ids(reqs);
  for (size_t r = 0; r < reqs; ++r) ids[r] = r;
  SnapshotRung(trace, ids, kExecute, [&](uint64_t r) {
    if (r % 4 == 3) {
      return server.TableDomain("s") != nullptr &&
             server.TableSnapshot("s") != nullptr;
    }
    return server.TableSnapshot("u") != nullptr;
  });

  const auto dom = server.TableDomain("s");
  std::vector<Probe<uint32_t>> u_probes, s_probes;
  SpanLog& encode = trace.NewLog(reqs, 0);
  Statement st;
  std::vector<std::string> tokens;
  for (size_t r = 0; r < reqs; ++r) {
    Make(r, st);
    if (!st.count) {
      u_probes.push_back({r, ProbeKind::kFind,
                          std::vector<uint32_t>(st.values.begin(),
                                                st.values.end())});
      continue;
    }
    tokens.clear();
    for (uint64_t v : st.values) tokens.push_back(StringKeys::Value(v));
    Probe<uint32_t> probe{r, ProbeKind::kCount, {}};
    Timed(&encode, r, "domain.encode", kExecute,
          static_cast<uint32_t>(tokens.size()), [&] {
            uint32_t hits = 0;
            for (const std::string& t : tokens) {
              const std::optional<uint32_t> id = dom->Encode(t);
              hits += id.has_value();
              probe.keys.push_back(id.value_or(UINT32_MAX));
            }
            return hits;
          });
    s_probes.push_back(std::move(probe));
  }
  const auto u_snap = server.TableSnapshot("u");
  IndexRung(u_snap->index(), u_probes, kExecute, trace);
  IndexRung(server.TableSnapshot("s")->index(), s_probes, kExecute, trace);
  KernelRungs(u_snap->keys(), u_probes, kExecute, trace);

  // The recorded write batches, replayed through the layers the writer
  // drives: a standalone MaintainedIndex of the same spec, and the
  // string dictionary's AddBatch.
  SpanLog& writes = trace.NewLog(kApplyReplays + kAddBatchReplays, 0);
  cssidx::MaintainedIndex maintained(
      *cssidx::IndexSpec::Parse("part:16/css:16"), u_.Keys(0, u_.n));
  for (size_t j = 0; j < std::min(u_stream_.sent, kApplyReplays); ++j) {
    cssidx::workload::UpdateBatch batch;
    batch.inserts = U32Inserts(j);
    batch.deletes = U32Deletes(j);
    Timed(&writes, j, "core.maintained.apply", "",
          static_cast<uint32_t>(2 * u_batch_), [&] {
            maintained.ApplyBatch(batch);
            return 0u;
          });
  }
  auto domain = cssidx::domain::StringDomain::FromValues(s_.Column());
  for (size_t m = 0; m < std::min(s_stream_.sent, kAddBatchReplays); ++m) {
    const std::vector<std::string> fresh = StringInserts(m);
    Timed(&writes, m, "domain.add_batch", "",
          static_cast<uint32_t>(fresh.size()), [&] {
            domain.AddBatch(fresh);
            return 0u;
          });
  }
}

}  // namespace

Report RunRwFresh(const Config& config, Trace* trace) {
  return RwFresh(config).Run(trace);
}

}  // namespace cssbench
