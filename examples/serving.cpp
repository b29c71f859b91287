// Serving-layer quickstart: a long-lived Server owning two key-column
// tables, a writer thread draining the bounded update queue, and sessions
// speaking the tiny statement grammar. Shows the full concurrency
// contract end to end:
//
//   - reads (FIND/COUNT/RANGE) resolve against ONE snapshot and report
//     the version they saw,
//   - writes (INSERT/DELETE) enqueue and return; the writer coalesces the
//     backlog so one refreshed version can absorb many batches,
//   - JOIN pins one snapshot per side and reports both versions,
//   - a parse error comes back with the grammar help, not an exception.
//
//   $ ./serving [--n=200000] [--spec=part:4/css:16]

#include <cstdio>
#include <string>
#include <vector>

#include "serve/server.h"
#include "util/cli.h"
#include "util/rng.h"

int main(int argc, char** argv) {
  using namespace cssidx;
  CliArgs args(argc, argv);
  size_t n = static_cast<size_t>(args.GetInt("n", 200'000));
  std::string spec_text = args.GetString("spec", "part:4/css:16");
  auto spec = IndexSpec::Parse(spec_text);
  if (!spec) {
    std::printf("bad --spec: %s\n", IndexSpec::GrammarHelp());
    return 1;
  }

  // A server owns its tables; the table set is fixed before Start() so
  // sessions can resolve names without locks. "orders" holds n keys,
  // "customers" a smaller domain the orders join into.
  serve::Server::Options options;
  options.queue_capacity = 32;
  options.admission = serve::Admission::kBlock;
  serve::Server server(options);
  Pcg32 rng(17);
  std::vector<uint32_t> orders(n);
  for (auto& k : orders) k = rng.Below(50'000);
  std::vector<uint32_t> customers(10'000);
  for (size_t i = 0; i < customers.size(); ++i) {
    customers[i] = static_cast<uint32_t>(i * 5);
  }
  server.CreateTable("orders", std::move(orders), *spec);
  server.CreateTable("customers", std::move(customers), *spec);
  server.Start();
  std::printf("serving 2 tables under spec %s\n\n", spec->ToString().c_str());

  // Any number of sessions run concurrently; each is one client's
  // statement executor. Here two sessions share one thread for clarity.
  serve::Session reader = server.OpenSession();
  serve::Session writer = server.OpenSession();

  auto show = [](const char* text, const serve::StatementResult& r) {
    if (!r.ok()) {
      std::printf("%-34s -> error: %s\n", text, r.error.c_str());
      return;
    }
    std::printf("%-34s -> count=%llu v%llu", text,
                static_cast<unsigned long long>(r.count),
                static_cast<unsigned long long>(r.version));
    if (r.version2 != 0) {
      std::printf(" (inner v%llu)",
                  static_cast<unsigned long long>(r.version2));
    }
    if (!r.positions.empty()) {
      std::printf(" positions[0]=%lld",
                  static_cast<long long>(r.positions[0]));
    }
    std::printf("\n");
  };

  // Reads: each resolves against one snapshot; the reported version says
  // exactly which state the numbers describe.
  show("FIND orders 100 200 300", reader.Execute("FIND orders 100 200 300"));
  const serve::StatementResult count_before =
      reader.Execute("COUNT orders 100");
  show("COUNT orders 100", count_before);
  show("RANGE orders 1000 2000", reader.Execute("RANGE orders 1000 2000"));
  show("JOIN orders customers", reader.Execute("JOIN orders customers"));

  // Writes enqueue and return immediately; the writer thread drains,
  // coalesces per table, and publishes one refreshed version per cycle.
  std::printf("\n");
  show("INSERT orders 100 100 100", writer.Execute("INSERT orders 100 100 100"));
  show("DELETE orders 200", writer.Execute("DELETE orders 200"));
  server.Stop();  // drains every accepted write before returning

  // Post-drain reads see the new version: 100 gained three copies, 200
  // is gone entirely (DELETE removes every occurrence of a key).
  const serve::StatementResult count_100 = reader.Execute("COUNT orders 100");
  const serve::StatementResult count_200 = reader.Execute("COUNT orders 200");
  show("COUNT orders 100", count_100);
  show("COUNT orders 200", count_200);
  if (!count_100.ok() || !count_200.ok() ||
      count_100.count != count_before.count + 3 || count_200.count != 0) {
    std::printf("CONSISTENCY ERROR\n");
    return 1;
  }

  // Malformed input is a result, not an exception.
  serve::StatementResult bad = reader.Execute("RANGE orders backwards");
  std::printf("\nRANGE orders backwards -> %s\n%s\n", bad.error.c_str(),
              serve::StatementGrammarHelp());

  const serve::ServerStats stats = server.writer_stats();
  const serve::QueueStats queue = server.queue_stats();
  std::printf(
      "writer: %llu batches in %llu cycles -> %llu versions published "
      "(%llu keys in, %llu keys out); queue high-water %zu\n",
      static_cast<unsigned long long>(stats.batches_applied),
      static_cast<unsigned long long>(stats.drain_cycles),
      static_cast<unsigned long long>(stats.groups_published),
      static_cast<unsigned long long>(stats.keys_inserted),
      static_cast<unsigned long long>(stats.keys_deleted),
      queue.depth_high_water);
  std::printf("session stats: reader %llu statements / %llu probes, "
              "writer %llu enqueued\n",
              static_cast<unsigned long long>(reader.stats().statements),
              static_cast<unsigned long long>(reader.stats().probes),
              static_cast<unsigned long long>(writer.stats().writes_enqueued));
  return 0;
}
