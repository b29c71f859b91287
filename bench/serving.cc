// Mixed read/write throughput through the serving layer: N reader
// sessions issuing batched FIND statements against live snapshots while a
// producer pushes INSERT/DELETE batches through the bounded UpdateQueue
// and the single writer drains + coalesces. Three scenarios per spec:
//
//   read_only  - no writer pressure; the snapshot read path's ceiling.
//   mixed      - a rate-limited producer; sustained concurrent refresh.
//   pressure   - a saturating producer (enqueue cost is O(batch), apply
//                cost is O(n), so arrivals outrun rebuilds on ANY
//                machine): the coalescing path must show applied
//                rebuilds << enqueued batches.
//
// Reported per scenario: reader throughput (Mprobes/s), per-statement
// p50/p99 latency, and the writer-side coalescing counters. The JSON's
// "serving" block is gated (tools/bench_gates.json) on COALESCING
// EFFICIENCY (serving_coalesce: groups_published / enqueued_batches under
// pressure), not absolute throughput — the machine-transferable
// invariant — and on conservation: every row reports its lost or phantom
// batches and its publishes beyond the batches applied, both gated to 0.
//
// A "reader_scaling" block then runs read_only with 8-key FINDs at 1, 2
// and 3 readers: statements/s and its ratio to one reader. Between
// publishes a read writes no cache line another Session touches, so the
// aggregate should grow with the readers; gate serving_reader_scaling
// floors the 3-reader ratio where the machine has the cores for it
// (header field reader_scaling_gated: at least 4 hardware threads).
//
// A "domain" block then times the string dictionary a string table's
// writer grows: AddBatch of 32 new values against FromValues of the same
// dictionary, at 50K and 500K values shaped like the end-to-end rw_fresh
// workload's ("v%010llu"). Gate domain_add_batch_vs_build caps their
// ratio: a batch merges into the dictionary and must cost a small
// fraction of rebuilding it.
//
// A "parse" block times the statement front end alone: a reused
// Statement::Parse, as a Session runs it, on FIND texts shaped like the
// end-to-end point_hot (8 keys below 2^40) and bulk_cold (1024 keys below
// 2^32) statements, in ns per key, beside a std::from_chars loop that
// reads the same texts' keys. Gate statement_parse_vs_from_chars caps
// their ratio: the parse reads each key once, so it should cost about
// what the standard library's integer reader does.
//
// A "load" block last times a table load: Server::CreateTable of n keys
// that arrive already in order against BuildIndex of the same keys, best
// of 5. A load checks the keys' order in one pass and sorts only when the
// check fails, so loading sorted keys should cost little more than the
// directory build (§2.2's one-pass bottom-up build). Gates
// serving_load_vs_build (css:16) and serving_part_load_vs_build
// (part:16/css:16) cap the two rows' ratios; a part:16/css:16 load's
// shards alias the loaded array, so it copies no key either.
//
//   $ ./bench_serving [--n=2000000] [--readers=2] [--find-batch=256]
//                     [--update-keys=256] [--duration-ms=500]
//                     [--spec=css:16] [--json=BENCH_serving.json] [--quick]

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/builder.h"
#include "domain/domain.h"
#include "harness.h"
#include "serve/server.h"
#include "serve/statement.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

using namespace cssidx;

struct ScenarioResult {
  bool pressure = false;
  uint64_t statements = 0;
  double seconds = 0;
  double p50_us = 0;
  double p99_us = 0;
  serve::QueueStats queue;
  serve::ServerStats writer;

  double StatementsPerSec() const {
    return seconds > 0 ? static_cast<double>(statements) / seconds : 0;
  }
};

double Percentile(std::vector<double>& sorted_us, double p) {
  if (sorted_us.empty()) return 0;
  size_t i = static_cast<size_t>(p * static_cast<double>(sorted_us.size()));
  return sorted_us[std::min(i, sorted_us.size() - 1)];
}

ScenarioResult RunScenario(const std::string& scenario, const IndexSpec& spec,
                           size_t n, int readers, size_t find_batch,
                           size_t update_keys, int duration_ms, uint64_t seed) {
  const bool writes = scenario != "read_only";
  const bool pressure = scenario == "pressure";

  serve::Server::Options options;
  options.queue_capacity = 64;
  options.admission = serve::Admission::kBlock;
  serve::Server server(options);
  Pcg32 seed_rng(seed);
  const uint32_t domain = static_cast<uint32_t>(2 * n);
  std::vector<uint32_t> initial(n);
  for (auto& k : initial) k = seed_rng.Below(domain);
  server.CreateTable("t", std::move(initial), spec);
  server.Start();

  // Pregenerated FIND statements (~50% hits), a ring per reader, so the
  // timed loop is Execute alone.
  constexpr size_t kRing = 1024;
  std::vector<std::vector<std::string>> rings(readers);
  for (auto& ring : rings) {
    for (size_t s = 0; s < kRing; ++s) {
      std::string statement = "FIND t";
      for (size_t i = 0; i < find_batch; ++i) {
        statement += " " + std::to_string(seed_rng.Below(domain));
      }
      ring.push_back(std::move(statement));
    }
  }

  std::atomic<bool> stop{false};
  struct ReaderTally {
    uint64_t statements = 0;
    uint64_t sink = 0;
    std::vector<double> latencies;
  };
  std::vector<ReaderTally> tallies(readers);

  std::vector<std::thread> threads;
  for (int t = 0; t < readers; ++t) {
    threads.emplace_back([&, t] {
      // The tally stays thread-local until the window closes: a counter
      // on a line another reader writes would be the very contention the
      // reader_scaling block measures.
      serve::Session session = server.OpenSession();
      ReaderTally tally;
      for (size_t s = 0; !stop.load(std::memory_order_relaxed);
           s = (s + 1) % kRing) {
        Timer timer;
        serve::StatementResult result = session.Execute(rings[t][s]);
        double us = timer.Seconds() * 1e6;
        if (!result.ok()) break;
        tally.sink += static_cast<uint64_t>(result.positions.back() + 1);
        ++tally.statements;
        tally.latencies.push_back(us);
      }
      tallies[t] = std::move(tally);
    });
  }

  std::thread producer;
  if (writes) {
    producer = std::thread([&] {
      serve::Session session = server.OpenSession();
      Pcg32 rng(seed + 7);
      std::string statement;
      while (!stop.load(std::memory_order_relaxed)) {
        for (const char* verb : {"INSERT", "DELETE"}) {
          statement = std::string(verb) + " t";
          for (size_t i = 0; i < update_keys / 2; ++i) {
            statement += " " + std::to_string(rng.Below(domain));
          }
          if (!session.Execute(statement).ok()) return;
        }
        if (!pressure) {
          // Rate-limited: a trickle the writer can keep up with.
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
      }
    });
  }

  Timer wall;
  std::this_thread::sleep_for(std::chrono::milliseconds(duration_ms));
  stop.store(true);
  double seconds = wall.Seconds();
  for (auto& t : threads) t.join();
  if (producer.joinable()) producer.join();
  server.Stop();  // drains every accepted write

  ScenarioResult result;
  result.pressure = pressure;
  result.seconds = seconds;
  std::vector<double> all_latencies;
  for (const ReaderTally& tally : tallies) {
    result.statements += tally.statements;
    bench::g_sink = bench::g_sink + tally.sink;
    all_latencies.insert(all_latencies.end(), tally.latencies.begin(),
                         tally.latencies.end());
  }
  std::sort(all_latencies.begin(), all_latencies.end());
  result.p50_us = Percentile(all_latencies, 0.50);
  result.p99_us = Percentile(all_latencies, 0.99);
  result.queue = server.queue_stats();
  result.writer = server.writer_stats();
  return result;
}

// Best of 5: a fresh array's page faults make single AddBatch timings
// noisy on virtual machines.
constexpr int kDomainRepeats = 5;
constexpr size_t kDomainBatch = 32;  // rw_fresh's string batch

struct DomainResult {
  double build_ms = 0;
  double add_ms = 0;
};

std::string DomainValue(uint64_t x) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "v%010llu",
                static_cast<unsigned long long>(x));
  return buf;
}

/// FromValues over `values` distinct even-numbered values in ascending
/// order, then AddBatch of kDomainBatch odd-numbered ones from the middle
/// of the range, which renumbers half the old IDs.
DomainResult RunDomain(size_t values) {
  std::vector<std::string> column;
  for (uint64_t x = 0; x < values; ++x) column.push_back(DomainValue(2 * x));
  std::vector<std::string> fresh;
  for (uint64_t q = 0; q < kDomainBatch; ++q) {
    fresh.push_back(DomainValue(2 * (values / 2 + q) + 1));
  }
  DomainResult result{1e300, 1e300};
  for (int r = 0; r < kDomainRepeats; ++r) {
    std::vector<std::string> input = column;
    Timer build;
    auto dictionary = domain::StringDomain::FromValues(std::move(input));
    result.build_ms = std::min(result.build_ms, build.Millis());
    Timer add;
    const std::vector<uint32_t> remap = dictionary.AddBatch(fresh);
    result.add_ms = std::min(result.add_ms, add.Millis());
    bench::g_sink = bench::g_sink + remap.back() + dictionary.size();
  }
  return result;
}

constexpr int kParseRepeats = 5;

struct ParseResult {
  double parse_ns_per_key = 1e300;
  double from_chars_ns_per_key = 1e300;
};

/// A reused Statement::Parse over FIND texts of `keys` keys drawn below
/// `bound`, against std::from_chars reading the same texts' keys, best of
/// kParseRepeats passes over the texts; about 1M keys per pass.
ParseResult RunParse(size_t keys, uint64_t bound, uint64_t seed) {
  Pcg32 rng(seed);
  const size_t texts = std::max<size_t>(1, (size_t{1} << 20) / keys);
  std::vector<std::string> ring(texts);
  for (std::string& text : ring) {
    text = "FIND t";
    for (size_t i = 0; i < keys; ++i) {
      text += " " + std::to_string(rng.Next64() % bound);
    }
  }
  const double total_keys = static_cast<double>(texts * keys);
  ParseResult result;
  serve::Statement statement;
  for (int r = 0; r < kParseRepeats; ++r) {
    uint64_t sink = 0;
    Timer parse;
    for (const std::string& text : ring) {
      if (!statement.Parse(text)) std::abort();
      sink += statement.max_key;
    }
    result.parse_ns_per_key =
        std::min(result.parse_ns_per_key, parse.Nanos() / total_keys);

    Timer from_chars;
    for (const std::string& text : ring) {
      const char* p = text.data() + 6;  // past "FIND t"
      const char* end = text.data() + text.size();
      while (p < end) {
        uint64_t key = 0;
        p = std::from_chars(p + 1, end, key).ptr;  // past the blank
        sink = std::max(sink, key);
      }
    }
    result.from_chars_ns_per_key =
        std::min(result.from_chars_ns_per_key, from_chars.Nanos() / total_keys);
    bench::g_sink = bench::g_sink + sink;
  }
  return result;
}

constexpr int kLoadRepeats = 5;

struct LoadResult {
  double load_ms = 1e300;
  double build_ms = 1e300;
};

/// CreateTable of n ascending keys, the input moved in, against BuildIndex
/// over the same keys. Building the input vector is not timed.
LoadResult RunLoad(const IndexSpec& spec, size_t n) {
  std::vector<uint32_t> keys(n);
  for (size_t i = 0; i < n; ++i) keys[i] = static_cast<uint32_t>(2 * i);
  LoadResult result;
  for (int r = 0; r < kLoadRepeats; ++r) {
    Timer build;
    const AnyIndex index = BuildIndex(spec, keys);
    result.build_ms = std::min(result.build_ms, build.Millis());
    bench::g_sink = bench::g_sink + index.SpaceBytes();

    std::vector<uint32_t> input = keys;
    serve::Server server;
    Timer load;
    server.CreateTable("t", std::move(input), spec);
    result.load_ms = std::min(result.load_ms, load.Millis());
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  auto options = bench::Options::Parse(argc, argv);
  CliArgs args(argc, argv);
  const size_t n = options.N(500'000, 2'000'000);
  int readers = static_cast<int>(args.GetInt("readers", 2));
  size_t find_batch = static_cast<size_t>(args.GetInt("find-batch", 256));
  size_t update_keys = static_cast<size_t>(args.GetInt("update-keys", 256));
  int duration_ms =
      static_cast<int>(args.GetInt("duration-ms", options.quick ? 250 : 500));
  std::string spec_text = args.GetString("spec", "css:16");
  auto spec = IndexSpec::Parse(spec_text);
  if (!spec) {
    std::printf("bad --spec: %s\n", IndexSpec::GrammarHelp());
    return 1;
  }

  bench::Report report("serving", n);
  report.header()
      .Set("readers", readers)
      .Set("find_batch", find_batch)
      .Set("update_keys", update_keys)
      .Set("duration_ms", duration_ms)
      .Set("reader_scaling_gated", ThreadPool::HardwareThreads() >= 4);
  for (const char* scenario : {"read_only", "mixed", "pressure"}) {
    const ScenarioResult r =
        RunScenario(scenario, *spec, n, readers, find_batch, update_keys,
                    duration_ms, options.seed);
    const serve::QueueStats& queue = r.queue;
    const serve::ServerStats& writer = r.writer;
    const double coalesce =
        queue.enqueued_batches == 0
            ? 0.0
            : static_cast<double>(writer.groups_published) /
                  static_cast<double>(queue.enqueued_batches);
    report.AddRow("serving")
        .Set("scenario", scenario)
        .Set("pressure", r.pressure)
        .Set("spec", spec->ToString())
        .Set("readers", readers)
        .Set("statements", r.statements)
        .Set("probes", r.statements * find_batch)
        .Set("mprobes_per_sec", r.StatementsPerSec() * find_batch / 1e6)
        .Set("p50_us", r.p50_us, 1)
        .Set("p99_us", r.p99_us, 1)
        .Set("enqueued_batches", queue.enqueued_batches)
        .Set("batches_applied", writer.batches_applied)
        .Set("groups_published", writer.groups_published)
        .Set("coalesce_ratio", coalesce, 4)
        .Set("queue_high_water", queue.depth_high_water)
        .Set("rejected_batches", queue.rejected_batches)
        // Accepted batches never applied, or applied batches never
        // accepted.
        .Set("lost_or_phantom_batches",
             std::max(queue.enqueued_batches, writer.batches_applied) -
                 std::min(queue.enqueued_batches, writer.batches_applied))
        // A coalesced group publishes one version, so this must stay 0.
        .Set("publishes_beyond_applied",
             writer.groups_published -
                 std::min(writer.groups_published, writer.batches_applied));
  }

  // Aggregate read throughput against the reader count: short statements,
  // so a shared cache line written per statement would show as lost
  // scaling. Each round runs 1, 2 and 3 readers back to back and divides
  // within the round; a row reports the median over kScalingRounds rounds.
  // A single window swings by up to 2x on a shared VM, and a ratio of two
  // best-of-N windows taken in different rounds inherits that swing.
  constexpr size_t kScalingBatch = 8;
  constexpr int kScalingRounds = 5;
  constexpr int kMaxReaders = 3;
  // [readers - 1][round]: statements/s, and its ratio to the same round's
  // 1-reader rate.
  std::vector<std::vector<double>> per_sec(kMaxReaders), vs_1(kMaxReaders);
  for (int round = 0; round < kScalingRounds; ++round) {
    double one_reader = 0;
    for (int r = 1; r <= kMaxReaders; ++r) {
      const double rate =
          RunScenario("read_only", *spec, n, r, kScalingBatch, update_keys,
                      duration_ms, options.seed)
              .StatementsPerSec();
      if (r == 1) one_reader = rate;
      per_sec[r - 1].push_back(rate);
      vs_1[r - 1].push_back(rate / one_reader);
    }
  }
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  for (int r = 1; r <= kMaxReaders; ++r) {
    report.AddRow("reader_scaling")
        .Set("scenario", "read_only")
        .Set("readers", r)
        .Set("find_batch", kScalingBatch)
        .Set("rounds", kScalingRounds)
        .Set("statements_per_sec", median(per_sec[r - 1]), 0)
        .Set("scaling_vs_1", median(vs_1[r - 1]));
  }

  for (size_t values : {50'000, 500'000}) {
    const DomainResult d = RunDomain(values);
    report.AddRow("domain")
        .Set("values", values)
        .Set("batch", kDomainBatch)
        .Set("build_ms", d.build_ms)
        .Set("add_ms", d.add_ms)
        .Set("add_vs_build", d.add_ms / d.build_ms, 4);
  }

  // point_hot's and bulk_cold's FIND shapes.
  for (const auto& [keys, bound] :
       {std::pair<size_t, uint64_t>{8, uint64_t{1} << 40},
        std::pair<size_t, uint64_t>{1024, uint64_t{1} << 32}}) {
    const ParseResult p = RunParse(keys, bound, options.seed);
    report.AddRow("parse")
        .Set("batch", keys)
        .Set("key_bound", bound)
        .Set("parse_ns_per_key", p.parse_ns_per_key, 2)
        .Set("from_chars_ns_per_key", p.from_chars_ns_per_key, 2)
        .Set("parse_vs_from_chars",
             p.parse_ns_per_key / p.from_chars_ns_per_key, 4);
  }

  for (const char* load_spec : {"css:16", "part:16/css:16"}) {
    const LoadResult l = RunLoad(*IndexSpec::Parse(load_spec), n);
    report.AddRow("load")
        .Set("spec", load_spec)
        .Set("keys", n)
        .Set("load_ms", l.load_ms)
        .Set("build_ms", l.build_ms)
        .Set("load_vs_build", l.load_ms / l.build_ms, 4);
  }
  return report.Emit(options) ? 0 : 1;
}
