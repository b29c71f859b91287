#include "serve/server.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <variant>
#include <vector>

#include "gtest/gtest.h"
#include "serve/statement.h"
#include "serve/update_queue.h"
#include "util/rng.h"
#include "workload/batch_update.h"
#include "workload/key_gen.h"

// The serving layer's concurrency suite. The load-bearing tests run real
// reader threads against a live writer and verify every recorded probe
// bit-exactly against a serial oracle replayed from the journal — the
// snapshot-consistency contract, checked at every version a reader
// actually saw. Runs in the TSan CI lane, so sizes stay modest.

namespace cssidx::serve {
namespace {

/// A key's statement token: the number, or a string value as is.
std::string Token(uint64_t key) { return std::to_string(key); }
const std::string& Token(const std::string& value) { return value; }

template <typename KeyT>
std::string KeysStatement(const char* verb, const char* table,
                          const std::vector<KeyT>& keys) {
  std::string text = std::string(verb) + " " + table;
  for (const KeyT& k : keys) text += " " + Token(k);
  return text;
}

/// A journal entry's batches, for a table whose values are ValueT.
template <typename ValueT>
const std::vector<workload::BasicUpdateBatch<ValueT>>& Batches(
    const AppliedGroup& group) {
  return std::get<std::vector<workload::BasicUpdateBatch<ValueT>>>(
      group.applied);
}

// ------------------------------------------------------------- statements

TEST(Statement, ParsesEveryVerb) {
  auto find = ParseStatement("FIND t 1 2 3");
  ASSERT_TRUE(find.has_value());
  EXPECT_EQ(find->verb, Verb::kFind);
  EXPECT_EQ(find->table, "t");
  EXPECT_EQ(find->keys, (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_EQ(find->key_tokens,
            (std::vector<std::string_view>{"1", "2", "3"}));
  EXPECT_EQ(find->first_non_numeric, 3u);  // every key numeric
  EXPECT_EQ(find->max_key, 3u);

  auto count = ParseStatement("COUNT orders 42");
  ASSERT_TRUE(count.has_value());
  EXPECT_EQ(count->verb, Verb::kCount);

  auto range = ParseStatement("RANGE t 10 20");
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(range->verb, Verb::kRange);
  EXPECT_EQ(range->lo, 10u);
  EXPECT_EQ(range->hi, 20u);
  EXPECT_TRUE(range->bounds_numeric);
  EXPECT_TRUE(range->keys.empty());

  auto join = ParseStatement("JOIN outer inner");
  ASSERT_TRUE(join.has_value());
  EXPECT_EQ(join->verb, Verb::kJoin);
  EXPECT_EQ(join->table, "outer");
  EXPECT_EQ(join->table2, "inner");

  auto insert = ParseStatement("  INSERT \t t  7 ");
  ASSERT_TRUE(insert.has_value());
  EXPECT_EQ(insert->verb, Verb::kInsert);
  EXPECT_EQ(insert->keys, (std::vector<uint64_t>{7}));

  auto del = ParseStatement("DELETE t 4294967295");
  ASSERT_TRUE(del.has_value());
  EXPECT_EQ(del->keys, (std::vector<uint64_t>{4294967295u}));
}

TEST(Statement, GrammarIsKeyWidthAgnostic) {
  // The regression this locks down: the old grammar parsed keys as
  // uint32, so "FIND t 4294967296" died at PARSE time and 64-bit tables
  // were unreachable through statements. Now any decimal up to 2^64-1
  // parses; whether it fits is the TABLE's call, at execute time.
  auto wide = ParseStatement("FIND t 4294967296");
  ASSERT_TRUE(wide.has_value());
  EXPECT_EQ(wide->keys, (std::vector<uint64_t>{4294967296ull}));
  ASSERT_EQ(wide->first_non_numeric, 1u);
  EXPECT_EQ(wide->max_key, 4294967296ull);

  auto max64 = ParseStatement("FIND t 18446744073709551615");
  ASSERT_TRUE(max64.has_value());
  EXPECT_EQ(max64->keys[0], 18446744073709551615ull);

  // Non-numeric tokens are string-table keys, kept raw.
  auto raw = ParseStatement("FIND t alpha -1");
  ASSERT_TRUE(raw.has_value());
  EXPECT_EQ(raw->key_tokens, (std::vector<std::string_view>{"alpha", "-1"}));
  EXPECT_EQ(raw->first_non_numeric, 0u);  // neither key numeric
  EXPECT_EQ(raw->max_key, 0u);

  // RANGE keeps raw bound tokens for string tables.
  auto srange = ParseStatement("RANGE t aardvark zebra");
  ASSERT_TRUE(srange.has_value());
  EXPECT_FALSE(srange->bounds_numeric);
  EXPECT_EQ(srange->lo_token, "aardvark");
  EXPECT_EQ(srange->hi_token, "zebra");

  // Only one key shape fails at parse time: a digit string too wide for
  // ANY table — with a message distinct from a malformed statement.
  std::string error;
  EXPECT_FALSE(
      ParseStatement("FIND t 18446744073709551616", &error).has_value());
  EXPECT_NE(error.find("out of range"), std::string::npos);
  EXPECT_NE(error.find("2^64-1"), std::string::npos);
  EXPECT_FALSE(
      ParseStatement("RANGE t 0 99999999999999999999", &error).has_value());
  EXPECT_NE(error.find("out of range"), std::string::npos);
}

TEST(Statement, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(ParseStatement("", &error).has_value());
  EXPECT_FALSE(ParseStatement("   ", &error).has_value());
  EXPECT_FALSE(ParseStatement("SELECT t 1", &error).has_value());
  EXPECT_NE(error.find("SELECT"), std::string::npos);
  EXPECT_FALSE(ParseStatement("FIND", &error).has_value());
  EXPECT_FALSE(ParseStatement("FIND t", &error).has_value());
  EXPECT_FALSE(ParseStatement("RANGE t 1", &error).has_value());
  EXPECT_FALSE(ParseStatement("RANGE t 1 2 3", &error).has_value());
  EXPECT_FALSE(ParseStatement("JOIN t", &error).has_value());
  EXPECT_FALSE(ParseStatement("JOIN a b c", &error).has_value());
  EXPECT_NE(std::string(StatementGrammarHelp()).find("RANGE"),
            std::string::npos);
}

// -------------------------------------------------------------- coalescing

TEST(Coalesce, EquivalentToSequentialApplicationOnRandomBatches) {
  Pcg32 rng(0xc0a1);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<uint32_t> initial(200);
    for (auto& k : initial) k = rng.Below(60);
    std::sort(initial.begin(), initial.end());

    std::vector<workload::UpdateBatch> batches(1 + rng.Below(6));
    for (auto& b : batches) {
      b.inserts.resize(rng.Below(8));
      for (auto& k : b.inserts) k = rng.Below(60);
      b.deletes.resize(rng.Below(8));
      for (auto& k : b.deletes) k = rng.Below(60);
    }

    std::vector<uint32_t> sequential = initial;
    for (const auto& b : batches) {
      sequential = workload::ApplyBatch(sequential, b);
    }
    workload::UpdateBatch merged = Coalesce(batches);
    EXPECT_TRUE(std::is_sorted(merged.deletes.begin(), merged.deletes.end()));
    EXPECT_EQ(std::adjacent_find(merged.deletes.begin(), merged.deletes.end()),
              merged.deletes.end());
    std::vector<uint32_t> coalesced = workload::ApplyBatch(initial, merged);
    ASSERT_EQ(coalesced, sequential) << "trial " << trial;
  }
}

TEST(Coalesce, InsertAfterDeleteSurvivesAndBeforeDies) {
  workload::UpdateBatch first{{5, 7}, {}};
  workload::UpdateBatch second{{}, {5}};
  workload::UpdateBatch third{{5}, {}};
  workload::UpdateBatch merged = Coalesce(std::vector{first, second, third});
  // The first 5 dies to the later delete; the last 5 survives it.
  EXPECT_EQ(merged.inserts, (std::vector<uint32_t>{7, 5}));
  EXPECT_EQ(merged.deletes, (std::vector<uint32_t>{5}));
}

// ------------------------------------------------------- queue admission

TEST(UpdateQueue, RejectAdmissionBouncesWhenFull) {
  Server::Options options;
  options.queue_capacity = 2;
  options.admission = Admission::kReject;
  Server server(options);
  server.CreateTable("t", {1, 2, 3});
  Session session = server.OpenSession();

  EXPECT_TRUE(session.Execute("INSERT t 10").ok());
  EXPECT_TRUE(session.Execute("INSERT t 11").ok());
  StatementResult bounced = session.Execute("INSERT t 12");
  EXPECT_EQ(bounced.status, StatementStatus::kRejected);
  EXPECT_EQ(session.stats().writes_enqueued, 2u);
  EXPECT_EQ(session.stats().writes_rejected, 1u);
  EXPECT_EQ(server.queue_stats().rejected_batches, 1u);

  // The accepted writes (and only those) apply on Start; reads keep
  // working after Stop, writes get kClosed.
  server.Start();
  server.Stop();
  EXPECT_EQ(server.TableSnapshot("t")->keys(),
            (std::vector<uint32_t>{1, 2, 3, 10, 11}));
  EXPECT_TRUE(session.Execute("FIND t 10").ok());
  EXPECT_EQ(session.Execute("INSERT t 13").status, StatementStatus::kClosed);
}

TEST(UpdateQueue, BlockAdmissionParksProducerUntilDrained) {
  Server::Options options;
  options.queue_capacity = 1;
  options.admission = Admission::kBlock;
  Server server(options);
  server.CreateTable("t", {});

  std::thread producer([&] {
    Session session = server.OpenSession();
    EXPECT_TRUE(session.Execute("INSERT t 1").ok());
    EXPECT_TRUE(session.Execute("INSERT t 2").ok());  // parks: queue full
    EXPECT_TRUE(session.Execute("INSERT t 3").ok());
  });
  // Wait until the producer is provably parked on the full queue, then
  // start the writer, whose drain frees the slot.
  while (server.queue_stats().blocked_pushes == 0) {
    std::this_thread::yield();
  }
  server.Start();
  producer.join();
  server.Stop();
  EXPECT_EQ(server.TableSnapshot("t")->keys(),
            (std::vector<uint32_t>{1, 2, 3}));
  EXPECT_GE(server.queue_stats().blocked_pushes, 1u);
  EXPECT_EQ(server.queue_stats().enqueued_batches, 3u);
}

TEST(Server, BacklogCoalescesIntoOneRebuild) {
  // Eight batches queued before the writer exists = a deep backlog the
  // moment it starts: ONE drain cycle, ONE coalesced application, ONE
  // published version — and the final state equals applying the eight
  // batches one by one.
  Server::Options options;
  options.queue_capacity = 64;
  options.journal = true;
  Server server(options);
  Pcg32 rng(0xbac1);
  std::vector<uint32_t> initial(500);
  for (auto& k : initial) k = rng.Below(120);
  server.CreateTable("t", initial);

  std::vector<workload::UpdateBatch> batches(8);
  Session session = server.OpenSession();
  for (auto& b : batches) {
    b.inserts.resize(5);
    for (auto& k : b.inserts) k = rng.Below(120);
    b.deletes.resize(5);
    for (auto& k : b.deletes) k = rng.Below(120);
    ASSERT_TRUE(session.Execute(KeysStatement("INSERT", "t", b.inserts)).ok());
    ASSERT_TRUE(session.Execute(KeysStatement("DELETE", "t", b.deletes)).ok());
  }
  server.Start();
  server.Stop();

  std::vector<uint32_t> oracle = initial;
  std::sort(oracle.begin(), oracle.end());
  for (const auto& b : batches) {
    oracle = workload::ApplyBatch(oracle, {b.inserts, {}});
    oracle = workload::ApplyBatch(oracle, {{}, b.deletes});
  }
  EXPECT_EQ(server.TableSnapshot("t")->keys(), oracle);

  ServerStats stats = server.writer_stats();
  EXPECT_EQ(stats.drain_cycles, 1u);
  EXPECT_EQ(stats.batches_applied, 16u);
  EXPECT_EQ(stats.groups_published, 1u);
  EXPECT_EQ(server.TableMaintenanceStats("t").batches, 1u);
  EXPECT_EQ(server.queue_stats().depth_high_water, 16u);
  ASSERT_EQ(server.applied_groups().size(), 1u);
  EXPECT_EQ(Batches<uint32_t>(server.applied_groups()[0]).size(), 16u);
  EXPECT_EQ(server.applied_groups()[0].sequence, 2u);
  EXPECT_EQ(server.TableSnapshot("t")->sequence(), 2u);
}

// ------------------------------------------------- statement-layer e2e

TEST(Server, DeleteEverythingAndInsertFromEmptyThroughStatements) {
  Server server;
  server.CreateTable("t", {9, 3, 9, 3, 5});
  server.Start();
  Session session = server.OpenSession();
  // DELETE removes every copy of each key.
  ASSERT_TRUE(session.Execute("DELETE t 3 5 9").ok());
  // Insert-from-empty, including a key that was just deleted.
  ASSERT_TRUE(session.Execute("INSERT t 9 1 9").ok());
  server.Stop();
  EXPECT_EQ(server.TableSnapshot("t")->keys(),
            (std::vector<uint32_t>{1, 9, 9}));

  StatementResult find = session.Execute("FIND t 9 2");
  ASSERT_TRUE(find.ok());
  EXPECT_EQ(find.positions, (std::vector<int64_t>{1, -1}));
  StatementResult count = session.Execute("COUNT t 9 1 5");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.counts, (std::vector<size_t>{2, 1, 0}));
  EXPECT_EQ(count.count, 3u);
  StatementResult range = session.Execute("RANGE t 1 10");
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range.count, 3u);
  EXPECT_EQ(range.range_begin, 0u);
  EXPECT_EQ(range.range_end, 3u);
  // Every read resolved against the same published version.
  EXPECT_EQ(find.version, range.version);

  StatementResult bad = session.Execute("FIND nope 1");
  EXPECT_EQ(bad.status, StatementStatus::kUnknownTable);
  StatementResult garbage = session.Execute("FROB t 1");
  EXPECT_EQ(garbage.status, StatementStatus::kParseError);
  EXPECT_EQ(session.stats().parse_errors, 1u);
  EXPECT_GE(session.stats().probes, 7u);
}

TEST(Server, TableRegistryRules) {
  Server server;
  server.CreateTable("t", {1});
  EXPECT_THROW(server.CreateTable("t", {2}), std::invalid_argument);
  EXPECT_THROW(server.CreateTable64("t", {2}), std::invalid_argument);
  EXPECT_THROW(server.CreateStringTable("t", {"x"}), std::invalid_argument);
  EXPECT_THROW(server.CreateTable("bad", {1}, IndexSpec().WithNodeEntries(12)),
               std::invalid_argument);
  EXPECT_THROW(server.TableSnapshot("nope"), std::out_of_range);
  server.Start();
  EXPECT_THROW(server.CreateTable("late", {1}), std::logic_error);
  EXPECT_THROW(server.Start(), std::logic_error);
  server.Stop();
  server.Stop();  // idempotent
}

// ------------------------------------------------ key width at execute

TEST(Server, ThirtyTwoBitTableChecksKeysAtTheWidthBoundary) {
  // The regression pair from the grammar widening: 4294967295 (2^32-1)
  // is a legitimate 32-bit key and must work everywhere; 4294967296
  // (2^32) parses fine but cannot live in a 32-bit table, so execute
  // rejects it with a message distinct from "not a number".
  Server server;
  server.CreateTable("t", {1, 4294967295u});
  Session session = server.OpenSession();

  StatementResult max_ok = session.Execute("FIND t 4294967295");
  ASSERT_TRUE(max_ok.ok());
  EXPECT_EQ(max_ok.positions, (std::vector<int64_t>{1}));

  StatementResult too_wide = session.Execute("FIND t 4294967296");
  EXPECT_EQ(too_wide.status, StatementStatus::kBadKey);
  EXPECT_NE(too_wide.error.find("out of range for 32-bit table"),
            std::string::npos);
  EXPECT_NE(too_wide.error.find("4294967295"), std::string::npos);
  EXPECT_EQ(session.Execute("COUNT t 4294967296").status,
            StatementStatus::kBadKey);
  StatementResult insert_wide = session.Execute("INSERT t 4294967296");
  EXPECT_EQ(insert_wide.status, StatementStatus::kBadKey);
  EXPECT_EQ(session.stats().writes_enqueued, 0u);

  StatementResult not_numeric = session.Execute("FIND t xyz");
  EXPECT_EQ(not_numeric.status, StatementStatus::kBadKey);
  EXPECT_NE(not_numeric.error.find("integer keys"), std::string::npos);

  // RANGE bounds stay width-independent instead of erroring: [lo, hi)
  // with hi past the table's max clamps to end-of-array, so the max key
  // is reachable through an exclusive upper bound.
  StatementResult whole = session.Execute("RANGE t 0 4294967296");
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(whole.count, 2u);
  StatementResult just_max = session.Execute("RANGE t 4294967295 4294967296");
  ASSERT_TRUE(just_max.ok());
  EXPECT_EQ(just_max.range_begin, 1u);
  EXPECT_EQ(just_max.range_end, 2u);
  EXPECT_EQ(session.Execute("RANGE t a b").status, StatementStatus::kBadKey);
}

TEST(Server, KeyTypingNamesTheFirstFailingKey) {
  // A statement holding both a non-numeric key and one too wide for the
  // table fails on whichever comes first, on every key verb; a string
  // table takes both as tokens, and a digit string past 2^64-1 is a parse
  // error on every table, wherever it sits.
  Server server;
  server.CreateTable("t", {1, 2});
  server.CreateTable64("w", {1, 2});
  server.CreateStringTable("s", {"a", "b"});
  Session session = server.OpenSession();
  const std::string kTooWide64 =
      "key '18446744073709551616' out of range: exceeds "
      "18446744073709551615 (2^64-1)";
  struct Case {
    const char* keys;
    StatementStatus t, w, s;  // status on the 32-bit, 64-bit, string table
    std::string t_error, w_error;
  };
  const Case cases[] = {
      {"3 abc 4294967296", StatementStatus::kBadKey, StatementStatus::kBadKey,
       StatementStatus::kOk, "bad key 'abc': table 't' holds integer keys",
       "bad key 'abc': table 'w' holds integer keys"},
      {"3 4294967296 abc", StatementStatus::kBadKey, StatementStatus::kBadKey,
       StatementStatus::kOk,
       "key '4294967296' out of range for 32-bit table 't' (max 4294967295)",
       "bad key 'abc': table 'w' holds integer keys"},
      {"abc 18446744073709551616", StatementStatus::kParseError,
       StatementStatus::kParseError, StatementStatus::kParseError, kTooWide64,
       kTooWide64},
      {"18446744073709551616 abc", StatementStatus::kParseError,
       StatementStatus::kParseError, StatementStatus::kParseError, kTooWide64,
       kTooWide64},
  };
  for (const char* verb : {"FIND", "COUNT", "INSERT", "DELETE"}) {
    for (const Case& c : cases) {
      const std::string keys = std::string(" ") + c.keys;
      const StatementResult t = session.Execute(verb + (" t" + keys));
      EXPECT_EQ(t.status, c.t) << verb << keys;
      EXPECT_EQ(t.error, c.t_error) << verb << keys;
      const StatementResult w = session.Execute(verb + (" w" + keys));
      EXPECT_EQ(w.status, c.w) << verb << keys;
      EXPECT_EQ(w.error, c.w_error) << verb << keys;
      const StatementResult s = session.Execute(verb + (" s" + keys));
      EXPECT_EQ(s.status, c.s) << verb << keys;
      EXPECT_EQ(s.error, c.s == StatementStatus::kOk ? "" : kTooWide64)
          << verb << keys;
    }
  }
  // Only the string-table writes were accepted (two verbs, two cases).
  EXPECT_EQ(session.stats().writes_enqueued, 4u);
}

TEST(Server, SixtyFourBitTableEndToEnd) {
  constexpr uint64_t kMax = 18446744073709551615ull;
  Server server;
  server.CreateTable64("w",
                       {5, 4294967295ull, 4294967296ull, 4294967301ull, kMax},
                       *IndexSpec::Parse("css64:16"));
  EXPECT_THROW(server.TableSnapshot("w"), std::out_of_range);
  Session session = server.OpenSession();

  // Probes above 2^32 — unreachable before key width became a spec
  // dimension — and at the very top of the 64-bit space.
  StatementResult find = session.Execute("FIND w 4294967296 6 " +
                                         std::to_string(kMax));
  ASSERT_TRUE(find.ok());
  EXPECT_EQ(find.positions, (std::vector<int64_t>{2, -1, 4}));
  StatementResult count = session.Execute("COUNT w 4294967295 4294967296");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.count, 2u);
  StatementResult range = session.Execute("RANGE w 4294967295 4294967302");
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range.range_begin, 1u);
  EXPECT_EQ(range.range_end, 4u);
  EXPECT_EQ(session.Execute("FIND w xyz").status, StatementStatus::kBadKey);

  server.Start();
  ASSERT_TRUE(session.Execute("INSERT w 4294967297").ok());
  ASSERT_TRUE(session.Execute("DELETE w 5").ok());
  server.Stop();
  EXPECT_EQ(server.TableSnapshot64("w")->keys(),
            (std::vector<uint64_t>{4294967295ull, 4294967296ull,
                                   4294967297ull, 4294967301ull, kMax}));
  StatementResult after = session.Execute("FIND w 4294967297");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.positions, (std::vector<int64_t>{2}));
}

// ------------------------------------------------------------ bulk load

/// Key ranks in every order a bulk load must accept: sorted, reverse,
/// shuffled, all equal, sorted runs of duplicates, and a single key.
std::vector<std::pair<std::string, std::vector<uint32_t>>> LoadOrders() {
  constexpr uint32_t kN = 1500;
  std::vector<uint32_t> sorted(kN), runs(kN);
  for (uint32_t i = 0; i < kN; ++i) {
    sorted[i] = i;
    runs[i] = i / 7;
  }
  std::vector<uint32_t> reverse(sorted.rbegin(), sorted.rend());
  std::vector<uint32_t> shuffled = runs;
  Pcg32 rng(24);
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.Below(static_cast<uint32_t>(i))]);
  }
  return {{"sorted", sorted},
          {"reverse", reverse},
          {"shuffled", shuffled},
          {"all_equal", std::vector<uint32_t>(kN, 11)},
          {"duplicate_runs", runs},
          {"single", {42}}};
}

/// Odd keys from the ranks, so the even ones between them probe as absent.
/// The 8-byte table's keys sit above 2^32.
template <typename KeyT>
KeyT LoadKey(uint32_t rank) {
  const KeyT key = 2 * KeyT{rank} + 1;
  if constexpr (sizeof(KeyT) == 8) return key + (uint64_t{1} << 32);
  return key;
}
template <>
std::string LoadKey<std::string>(uint32_t rank) {
  return "v" + std::to_string(2 * uint64_t{rank} + 1);  // not numeric order
}

/// FIND, COUNT and RANGE on a freshly loaded table against a serial oracle
/// on `want`, the table's keys sorted: every loaded key, the absent keys
/// beside each, and ranges between neighbouring probes.
template <typename KeyT>
void ExpectReadsMatchSortedOracle(Session& session, const std::string& table,
                                  const std::vector<KeyT>& want,
                                  const std::vector<uint32_t>& ranks) {
  std::vector<KeyT> probes;
  for (uint32_t rank : ranks) {
    for (uint32_t r : {rank, rank + 1}) {
      probes.push_back(LoadKey<KeyT>(r));
      if constexpr (std::is_same_v<KeyT, std::string>) {
        probes.push_back(LoadKey<KeyT>(r) + "0");  // absent, sorts after
      } else {
        probes.push_back(LoadKey<KeyT>(r) - 1);  // absent
      }
    }
  }
  std::sort(probes.begin(), probes.end());
  probes.erase(std::unique(probes.begin(), probes.end()), probes.end());

  StatementResult find =
      session.Execute(KeysStatement("FIND", table.c_str(), probes));
  ASSERT_TRUE(find.ok()) << find.error;
  StatementResult count =
      session.Execute(KeysStatement("COUNT", table.c_str(), probes));
  ASSERT_TRUE(count.ok()) << count.error;
  ASSERT_EQ(find.positions.size(), probes.size());
  ASSERT_EQ(count.counts.size(), probes.size());
  for (size_t i = 0; i < probes.size(); ++i) {
    const auto [lo, hi] = std::equal_range(want.begin(), want.end(), probes[i]);
    const int64_t position = lo == hi ? -1 : lo - want.begin();
    ASSERT_EQ(find.positions[i], position) << table << " FIND " << Token(probes[i]);
    ASSERT_EQ(count.counts[i], static_cast<size_t>(hi - lo))
        << table << " COUNT " << Token(probes[i]);
  }
  for (size_t i = 0; i + 1 < probes.size(); i += 3) {
    const size_t j = std::min(i + 5, probes.size() - 1);
    StatementResult range = session.Execute(
        "RANGE " + table + " " + Token(probes[i]) + " " + Token(probes[j]));
    ASSERT_TRUE(range.ok()) << range.error;
    const auto begin = static_cast<size_t>(
        std::lower_bound(want.begin(), want.end(), probes[i]) - want.begin());
    const auto end = static_cast<size_t>(
        std::lower_bound(want.begin(), want.end(), probes[j]) - want.begin());
    ASSERT_EQ(range.range_begin, begin) << table << " RANGE " << i;
    ASSERT_EQ(range.range_end, end) << table << " RANGE " << i;
  }
}

TEST(Server, LoadInAnyKeyOrderMatchesSortedOracle) {
  // Every load path checks its input's order and sorts only when the
  // check fails; whatever the input order, the loaded table must be the
  // sorted input, and answer reads like it.
  for (const auto& [order, ranks] : LoadOrders()) {
    SCOPED_TRACE(order);
    std::vector<uint32_t> keys32;
    std::vector<uint64_t> keys64;
    std::vector<std::string> values;
    for (uint32_t rank : ranks) {
      keys32.push_back(LoadKey<uint32_t>(rank));
      keys64.push_back(LoadKey<uint64_t>(rank));
      values.push_back(LoadKey<std::string>(rank));
    }
    std::vector<uint32_t> want32 = keys32;
    std::sort(want32.begin(), want32.end());
    std::vector<uint64_t> want64 = keys64;
    std::sort(want64.begin(), want64.end());
    std::vector<std::string> want_values = values;
    std::sort(want_values.begin(), want_values.end());
    const domain::StringDomain oracle_dictionary =
        domain::StringDomain::FromValues(values);
    std::vector<uint32_t> want_ids =
        oracle_dictionary.EncodeColumn(values, nullptr);
    std::sort(want_ids.begin(), want_ids.end());

    Server server;
    server.CreateTable("u", keys32);
    server.CreateTable64("w", keys64);
    server.CreateStringTable("s", values);
    EXPECT_EQ(server.TableSnapshot("u")->keys(), want32);
    EXPECT_EQ(server.TableSnapshot64("w")->keys(), want64);
    EXPECT_EQ(server.TableDomain("s")->values(), oracle_dictionary.values());
    EXPECT_EQ(server.TableSnapshot("s")->keys(), want_ids);

    Session session = server.OpenSession();
    ExpectReadsMatchSortedOracle(session, "u", want32, ranks);
    ExpectReadsMatchSortedOracle(session, "w", want64, ranks);
    ExpectReadsMatchSortedOracle(session, "s", want_values, ranks);
  }
}

// ------------------------------------------------------- string tables

TEST(Server, StringTableEndToEnd) {
  Server server;
  server.CreateStringTable("fruit", {"cherry", "apple", "banana", "apple"});
  server.CreateStringTable("basket", {"banana", "durian", "banana"});
  server.CreateTable("nums", {1, 2});
  EXPECT_THROW(server.TableSnapshot64("fruit"), std::out_of_range);
  EXPECT_THROW(server.TableDomain("nums"), std::out_of_range);
  EXPECT_EQ(server.TableDomain("fruit")->size(), 3u);
  Session session = server.OpenSession();

  // Point probes on raw tokens: the session encodes through the domain,
  // probes the ID index, and an unknown value is simply absent.
  StatementResult find = session.Execute("FIND fruit apple banana durian");
  ASSERT_TRUE(find.ok());
  EXPECT_EQ(find.positions, (std::vector<int64_t>{0, 2, -1}));
  StatementResult count = session.Execute("COUNT fruit apple durian");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.counts, (std::vector<size_t>{2, 0}));

  // Range predicates map through LowerBoundId (§2.1: IDs are
  // order-preserving), so bounds need not be values in the domain.
  StatementResult range = session.Execute("RANGE fruit apple banana");
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range.range_begin, 0u);
  EXPECT_EQ(range.range_end, 2u);
  StatementResult prefix = session.Execute("RANGE fruit b d");
  ASSERT_TRUE(prefix.ok());
  EXPECT_EQ(prefix.count, 2u);  // banana, cherry

  server.Start();
  // "blueberry" is new to the dictionary: the writer grows a copy of the
  // domain, remaps the snapshot's IDs, and publishes dictionary + index
  // as one version.
  ASSERT_TRUE(session.Execute("INSERT fruit blueberry apple").ok());
  ASSERT_TRUE(session.Execute("DELETE fruit cherry").ok());
  server.Stop();

  EXPECT_EQ(server.TableDomain("fruit")->size(), 4u);
  StatementResult after = session.Execute("FIND fruit blueberry cherry");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.positions, (std::vector<int64_t>{4, -1}));
  StatementResult apples = session.Execute("COUNT fruit apple");
  ASSERT_TRUE(apples.ok());
  EXPECT_EQ(apples.count, 3u);

  // JOIN translates outer IDs into the inner dictionary; values absent
  // from the inner side contribute nothing. fruit holds {apple x3,
  // banana, blueberry}; basket holds {banana x2, durian}.
  StatementResult join = session.Execute("JOIN fruit basket");
  ASSERT_TRUE(join.ok());
  EXPECT_EQ(join.count, 2u);  // banana matches twice
  StatementResult join_back = session.Execute("JOIN basket fruit");
  ASSERT_TRUE(join_back.ok());
  EXPECT_EQ(join_back.count, 2u);
  StatementResult mixed = session.Execute("JOIN fruit nums");
  EXPECT_EQ(mixed.status, StatementStatus::kBadKey);
  EXPECT_NE(mixed.error.find("same key type"), std::string::npos);
}

TEST(Server, StringTableWriterMatchesSerialOracleUnderBacklog) {
  // Several queued string batches — mixing brand-new values, re-inserts,
  // and deletes of both — coalesce into one application. The final
  // column must equal the serial replay on a multiset of strings.
  Server::Options options;
  options.queue_capacity = 64;
  options.journal = true;
  Server server(options);
  const std::vector<std::string> initial = {"pear", "fig", "pear", "lime"};
  server.CreateStringTable("t", initial);
  Session session = server.OpenSession();
  ASSERT_TRUE(session.Execute("INSERT t date fig").ok());
  ASSERT_TRUE(session.Execute("DELETE t pear date").ok());  // kills queued date
  ASSERT_TRUE(session.Execute("INSERT t date kiwi kiwi").ok());
  server.Start();
  server.Stop();

  // Serial oracle: {pear x2, fig, lime} +date +fig; -pear(all) -date;
  // +date +kiwi x2  =>  {date, fig x2, kiwi x2, lime}.
  const auto dom = server.TableDomain("t");
  // The dictionary never shrinks: pear stays though its rows are gone.
  ASSERT_EQ(dom->size(), 5u);  // date fig kiwi lime pear
  std::vector<std::string> decoded;
  for (uint32_t id : server.TableSnapshot("t")->keys()) {
    decoded.push_back(dom->Decode(id));
  }
  EXPECT_EQ(decoded, (std::vector<std::string>{"date", "fig", "fig", "kiwi",
                                               "kiwi", "lime"}));

  // The journal's string batches, replayed serially on the initial
  // multiset, give the same final column.
  std::vector<std::string> replayed = initial;
  std::sort(replayed.begin(), replayed.end());
  for (const AppliedGroup& group : server.applied_groups()) {
    for (const StringUpdateBatch& batch : Batches<std::string>(group)) {
      replayed = workload::ApplyBatch(replayed, batch);
    }
  }
  EXPECT_EQ(replayed, decoded);
}

TEST(Server, StringBatchesMatchTheSerialReplayTokenForToken) {
  // The writer encodes each token once against the current dictionary,
  // maps known IDs through the remap and encodes only fresh values in the
  // grown one. One publish per batch, starting from an empty dictionary:
  // all-new values, known values only, mixes with in-batch duplicates,
  // and deletes of values the dictionary never held. After each, the
  // column must be the serial multiset replay, and the dictionary every
  // value ever inserted.
  const std::vector<std::pair<bool, std::vector<std::string>>> batches = {
      {true, {"d", "b", "d", "a"}},  {true, {"b", "b", "c"}},
      {false, {"zz", "a"}},          {true, {"a", "e", "a", "zz", "aa"}},
      {false, {"b", "e", "nope"}},   {true, {"c", "c"}},
      {true, {"f", "0", "f"}}};
  for (const char* spec_text : {"css:16", "part:4/css:16"}) {
    SCOPED_TRACE(spec_text);
    Server server;
    server.CreateStringTable("t", {}, *IndexSpec::Parse(spec_text));
    server.Start();
    Session session = server.OpenSession();
    std::vector<std::string> replayed;
    std::set<std::string> inserted;
    for (size_t b = 0; b < batches.size(); ++b) {
      const auto& [insert, values] = batches[b];
      ASSERT_TRUE(session
                      .Execute(KeysStatement(insert ? "INSERT" : "DELETE",
                                             "t", values))
                      .ok());
      while (server.writer_stats().batches_applied < b + 1) {
        std::this_thread::yield();
      }
      StringUpdateBatch batch;
      (insert ? batch.inserts : batch.deletes) = values;
      replayed = workload::ApplyBatch(replayed, batch);
      if (insert) inserted.insert(values.begin(), values.end());

      const auto dictionary = server.TableDomain("t");
      EXPECT_EQ(dictionary->values(),
                std::vector<std::string>(inserted.begin(), inserted.end()))
          << "batch " << b;
      std::vector<std::string> decoded;
      for (std::span<const uint32_t> segment :
           server.TableSnapshot("t")->Segments()) {
        for (uint32_t id : segment) decoded.push_back(dictionary->Decode(id));
      }
      EXPECT_EQ(decoded, replayed) << "batch " << b;
    }
    server.Stop();
  }
}

TEST(Server, StringBatchThatGrowsTheDictionaryCountsLikeAnyBatch) {
  // Inserting values the dictionary has never seen rebuilds the ID index
  // over a grown dictionary. That batch must still count in the
  // maintenance stats and in the probe-stats update rate ADVISE reads —
  // exactly as the same insert counts on an integer table — while the
  // group stays one rebuild and one publish.
  Server::Options options;
  options.collect_stats = true;
  Server server(options);
  server.CreateStringTable("s", {"a", "c", "e"});
  server.CreateTable("u", {1, 3, 5});
  Session session = server.OpenSession();
  ASSERT_TRUE(session.Execute("INSERT s b d").ok());
  ASSERT_TRUE(session.Execute("INSERT u 2 4").ok());
  server.Start();
  server.Stop();

  ASSERT_EQ(server.TableDomain("s")->size(), 5u);  // the dictionary grew
  for (const char* table : {"s", "u"}) {
    SCOPED_TRACE(table);
    const MaintenanceStats& stats = server.TableMaintenanceStats(table);
    EXPECT_EQ(stats.batches, 1u);
    EXPECT_EQ(stats.keys_inserted, 2u);
    EXPECT_EQ(stats.full_rebuilds, 1u);
    const WorkloadProfile profile = server.TableWorkloadProfile(table);
    EXPECT_EQ(profile.update_batches, 1u);
    EXPECT_EQ(profile.keys_inserted, 2u);
    EXPECT_GT(profile.UpdateRate(), 0.0);
  }
  EXPECT_EQ(server.writer_stats().groups_published, 2u);
  std::vector<std::string> decoded;
  const auto dom = server.TableDomain("s");
  for (uint32_t id : server.TableSnapshot("s")->keys()) {
    decoded.push_back(dom->Decode(id));
  }
  EXPECT_EQ(decoded, (std::vector<std::string>{"a", "b", "c", "d", "e"}));
}

// ------------------------------------- concurrent differential (TSan'd)

template <typename KeyT>
struct RecordedRead {
  char kind = 'F';  // F[ind] / C[ount] / R[ange]
  uint64_t version = 0;
  std::vector<KeyT> keys;              // FIND/COUNT
  KeyT lo{}, hi{};                     // RANGE
  std::vector<int64_t> positions;      // FIND
  std::vector<size_t> counts;          // COUNT
  size_t range_begin = 0, range_end = 0;
  uint64_t count = 0;
};

/// Replays the journal into a map: version -> full sorted key state of
/// `table` as of that version. Version 1 is the initial build; a spec
/// swap's version keeps the state before it.
template <typename KeyT>
std::map<uint64_t, std::vector<KeyT>> OracleStates(
    const Server& server, uint32_t table, std::vector<KeyT> initial) {
  std::sort(initial.begin(), initial.end());
  std::map<uint64_t, std::vector<KeyT>> states;
  states[1] = initial;
  std::vector<KeyT> current = std::move(initial);
  for (const AppliedGroup& group : server.applied_groups()) {
    if (group.table != table) continue;
    if (!std::holds_alternative<IndexSpec>(group.applied)) {
      for (const auto& batch : Batches<KeyT>(group)) {
        current = workload::ApplyBatch(current, batch);
      }
    }
    states[group.sequence] = current;
  }
  return states;
}

template <typename KeyT>
void VerifyAgainstOracle(const std::vector<RecordedRead<KeyT>>& reads,
                         const std::map<uint64_t, std::vector<KeyT>>& states,
                         const std::string& label) {
  for (size_t i = 0; i < reads.size(); ++i) {
    const RecordedRead<KeyT>& r = reads[i];
    auto it = states.find(r.version);
    ASSERT_NE(it, states.end())
        << label << " read " << i << ": unknown version " << r.version;
    const std::vector<KeyT>& keys = it->second;
    if (r.kind == 'F') {
      for (size_t k = 0; k < r.keys.size(); ++k) {
        auto lb = std::lower_bound(keys.begin(), keys.end(), r.keys[k]);
        int64_t expected =
            (lb != keys.end() && *lb == r.keys[k]) ? lb - keys.begin() : -1;
        ASSERT_EQ(r.positions[k], expected)
            << label << " read " << i << " key " << r.keys[k]
            << " at version " << r.version;
      }
    } else if (r.kind == 'C') {
      for (size_t k = 0; k < r.keys.size(); ++k) {
        size_t expected =
            std::upper_bound(keys.begin(), keys.end(), r.keys[k]) -
            std::lower_bound(keys.begin(), keys.end(), r.keys[k]);
        ASSERT_EQ(r.counts[k], expected)
            << label << " read " << i << " key " << r.keys[k]
            << " at version " << r.version;
      }
    } else {
      size_t begin = std::lower_bound(keys.begin(), keys.end(), r.lo) -
                     keys.begin();
      size_t end = std::lower_bound(keys.begin(), keys.end(), r.hi) -
                   keys.begin();
      if (r.hi <= r.lo) begin = end = 0;
      ASSERT_EQ(r.range_begin, begin) << label << " read " << i;
      ASSERT_EQ(r.range_end, end) << label << " read " << i;
      ASSERT_EQ(r.count, end - begin) << label << " read " << i;
    }
  }
}

/// The acceptance gate: N reader threads hammer FIND/COUNT/RANGE while
/// producers push INSERT/DELETE through a tight queue (so the writer
/// coalesces under real pressure), journal on. Afterwards every recorded
/// probe must be bit-identical to the serial oracle at the version the
/// read reported. Values are value(x) for x below 500, strictly
/// increasing in x; reads probe x up to 520 so some miss. On a string
/// table the `initial_size` values cover only part of that range, so
/// inserts bring values the dictionary has never seen: it grows and
/// every ID renumbers while readers probe. IDs preserve order, so the
/// oracle is the sorted multiset of the values themselves.
template <typename ValueT, typename MakeValue>
void RunConcurrentReadersDifferential(const char* spec_text, MakeValue value,
                                      size_t initial_size = 2'000) {
  SCOPED_TRACE(spec_text);
  constexpr bool kStrings = std::is_same_v<ValueT, std::string>;
  Server::Options options;
  options.queue_capacity = 4;  // tight: forces blocking + deep coalesces
  options.admission = Admission::kBlock;
  options.journal = true;
  Server server(options);
  Pcg32 seed_rng(0xd1f);
  std::vector<ValueT> initial(initial_size);
  for (auto& k : initial) k = value(seed_rng.Below(500));
  const IndexSpec spec = *IndexSpec::Parse(spec_text);
  uint32_t table_id = 0;
  if constexpr (kStrings) {
    table_id = server.CreateStringTable("t", initial, spec);
  } else if constexpr (sizeof(ValueT) == 8) {
    table_id = server.CreateTable64("t", initial, spec);
  } else {
    table_id = server.CreateTable("t", initial, spec);
  }
  server.Start();

  std::atomic<bool> writers_done{false};
  std::vector<std::thread> producers;
  for (int p = 0; p < 2; ++p) {
    producers.emplace_back([&, p] {
      Session session = server.OpenSession();
      Pcg32 rng(0x9000 + p);
      for (int s = 0; s < 40; ++s) {
        std::vector<ValueT> keys(6);
        for (auto& k : keys) k = value(rng.Below(500));
        const char* verb = (s % 2 == p % 2) ? "INSERT" : "DELETE";
        ASSERT_TRUE(session.Execute(KeysStatement(verb, "t", keys)).ok());
      }
    });
  }

  std::vector<std::vector<RecordedRead<ValueT>>> recorded(3);
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Session session = server.OpenSession();
      Pcg32 rng(0x4ead + t);
      // Keep reading until the producers finish, then a few more
      // statements against the final drained state. A Session's cached
      // pin never goes back: its versions never decrease.
      uint64_t last_version = 0;
      for (int s = 0; s < 150 || (!writers_done.load() && s < 100'000); ++s) {
        RecordedRead<ValueT> r;
        r.version = 0;
        switch (s % 3) {
          case 0: {
            r.kind = 'F';
            r.keys.resize(8);
            for (auto& k : r.keys) k = value(rng.Below(520));
            StatementResult res =
                session.Execute(KeysStatement("FIND", "t", r.keys));
            ASSERT_TRUE(res.ok());
            r.version = res.version;
            r.positions = std::move(res.positions);
            break;
          }
          case 1: {
            r.kind = 'C';
            r.keys.resize(8);
            for (auto& k : r.keys) k = value(rng.Below(520));
            StatementResult res =
                session.Execute(KeysStatement("COUNT", "t", r.keys));
            ASSERT_TRUE(res.ok());
            r.version = res.version;
            r.counts = std::move(res.counts);
            break;
          }
          default: {
            r.kind = 'R';
            r.lo = value(rng.Below(520));
            r.hi = value(rng.Below(520));
            StatementResult res = session.Execute("RANGE t " + Token(r.lo) +
                                                  " " + Token(r.hi));
            ASSERT_TRUE(res.ok());
            r.version = res.version;
            r.range_begin = res.range_begin;
            r.range_end = res.range_end;
            r.count = res.count;
            break;
          }
        }
        ASSERT_GE(r.version, last_version) << "reader " << t << " at " << s;
        last_version = r.version;
        recorded[t].push_back(std::move(r));
      }
    });
  }

  for (auto& p : producers) p.join();
  writers_done.store(true);
  for (auto& r : readers) r.join();
  server.Stop();

  // Sanity on the pressure itself: everything accepted was applied.
  QueueStats queue = server.queue_stats();
  ServerStats writer = server.writer_stats();
  EXPECT_EQ(queue.enqueued_batches, 80u);
  EXPECT_EQ(writer.batches_applied, 80u);
  EXPECT_LE(writer.groups_published, writer.batches_applied);

  auto states = OracleStates(server, table_id, initial);
  for (int t = 0; t < 3; ++t) {
    VerifyAgainstOracle(recorded[t], states,
                        std::string(spec_text) + " reader " +
                            std::to_string(t));
  }
  // Final published state equals the full serial application.
  if constexpr (kStrings) {
    const auto snapshot = server.TableSnapshot("t");
    const auto& dictionary = *server.TableDomain("t");
    std::vector<std::string> decoded;
    for (uint32_t id : snapshot->keys()) {
      decoded.push_back(dictionary.Decode(id));
    }
    EXPECT_EQ(decoded, states.rbegin()->second);
    // The dictionary did grow under the readers.
    std::sort(initial.begin(), initial.end());
    EXPECT_GT(dictionary.size(), static_cast<size_t>(
        std::unique(initial.begin(), initial.end()) - initial.begin()));
  } else if constexpr (sizeof(ValueT) == 8) {
    EXPECT_EQ(server.TableSnapshot64("t")->keys(), states.rbegin()->second);
  } else {
    EXPECT_EQ(server.TableSnapshot("t")->keys(), states.rbegin()->second);
  }
}

/// A string value for x: zero-padded, so the order follows x.
std::string StringValue(uint32_t x) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "v%03u", x);
  return buf;
}

TEST(Server, ConcurrentReadersSeeOracleStateAtEveryVersion) {
  // For an ordered spec, a partitioned spec, and hash at 4 bytes, and a
  // partitioned 8-byte table whose keys straddle 2^32.
  for (const char* spec_text : {"css:16", "part:8/css:16", "hash:10"}) {
    RunConcurrentReadersDifferential<uint32_t>(spec_text,
                                               [](uint32_t x) { return x; });
  }
  RunConcurrentReadersDifferential<uint64_t>(
      "part:8/css64:16",
      [](uint32_t x) { return (uint64_t{1} << 32) - 250 + x; });
}

TEST(Server, ConcurrentReadersSeeOracleStateOnAGrowingStringTable) {
  // 200 initial values leave most of the 500 unseen, so most insert
  // batches grow the dictionary; the rest apply shard-incrementally.
  for (const char* spec_text : {"css:16", "part:8/css:16"}) {
    RunConcurrentReadersDifferential<std::string>(spec_text, StringValue, 200);
  }
}

TEST(Server, JoinIsConsistentAcrossTwoSnapshots) {
  Server::Options options;
  options.queue_capacity = 4;
  options.journal = true;
  Server server(options);
  Pcg32 seed_rng(0x10ad);
  std::vector<uint32_t> outer_keys(400), inner_keys(600);
  for (auto& k : outer_keys) k = seed_rng.Below(80);
  for (auto& k : inner_keys) k = seed_rng.Below(80);
  const uint32_t outer_id = server.CreateTable("outer", outer_keys);
  const uint32_t inner_id = server.CreateTable("inner", inner_keys);
  server.Start();

  std::thread producer([&] {
    Session session = server.OpenSession();
    Pcg32 rng(0x77aa);
    for (int s = 0; s < 30; ++s) {
      std::vector<uint32_t> keys(4);
      for (auto& k : keys) k = rng.Below(80);
      const char* table = (s % 2 == 0) ? "outer" : "inner";
      const char* verb = (s % 3 == 0) ? "DELETE" : "INSERT";
      ASSERT_TRUE(session.Execute(KeysStatement(verb, table, keys)).ok());
    }
  });

  struct RecordedJoin {
    uint64_t version = 0, version2 = 0;
    uint64_t count = 0;
  };
  std::vector<RecordedJoin> joins;
  Session session = server.OpenSession();
  for (int s = 0; s < 60; ++s) {
    StatementResult res = session.Execute("JOIN outer inner");
    ASSERT_TRUE(res.ok());
    joins.push_back({res.version, res.version2, res.count});
  }
  producer.join();
  server.Stop();

  auto outer_states = OracleStates(server, outer_id, outer_keys);
  auto inner_states = OracleStates(server, inner_id, inner_keys);
  for (size_t i = 0; i < joins.size(); ++i) {
    const auto& outer_state = outer_states.at(joins[i].version);
    const auto& inner_state = inner_states.at(joins[i].version2);
    uint64_t expected = 0;
    for (uint32_t k : outer_state) {
      expected += std::upper_bound(inner_state.begin(), inner_state.end(), k) -
                  std::lower_bound(inner_state.begin(), inner_state.end(), k);
    }
    ASSERT_EQ(joins[i].count, expected) << "join " << i;
  }
}

// ------------------------------------------------ cached pins and parsing

/// Spins until `sequence()` reaches `target`: a wait on the published
/// version itself, never a sleep.
template <typename Sequence>
void WaitForSequence(Sequence&& sequence, uint64_t target) {
  while (sequence() < target) std::this_thread::yield();
}

TEST(Server, SessionSeesEachPublishAfterItsCachedPin) {
  // A Session that read a table at version v caches that pin. After the
  // writer publishes, its next statement must re-pin: version >= v+1 and
  // the new key visible. One table per key path; the string insert
  // brings a value the dictionary has never seen, so the dictionary
  // grows and every ID renumbers.
  Server server;
  server.CreateTable("u", {10, 20, 30});
  server.CreateTable64("w", {uint64_t{1} << 40, (uint64_t{1} << 40) + 2});
  server.CreateStringTable("s", {"ada", "cobol", "forth"});
  server.Start();
  Session reader = server.OpenSession();
  Session writer = server.OpenSession();

  const StatementResult u0 = reader.Execute("FIND u 25");
  ASSERT_TRUE(u0.ok());
  EXPECT_EQ(u0.positions, (std::vector<int64_t>{-1}));
  ASSERT_TRUE(writer.Execute("INSERT u 25").ok());
  WaitForSequence([&] { return server.TableSnapshot("u")->sequence(); },
                  u0.version + 1);
  const StatementResult u1 = reader.Execute("FIND u 25");
  ASSERT_TRUE(u1.ok());
  EXPECT_GE(u1.version, u0.version + 1);
  EXPECT_EQ(u1.positions, (std::vector<int64_t>{2}));

  const std::string wide = std::to_string((uint64_t{1} << 40) + 1);
  const StatementResult w0 = reader.Execute("COUNT w " + wide);
  ASSERT_TRUE(w0.ok());
  EXPECT_EQ(w0.count, 0u);
  ASSERT_TRUE(writer.Execute("INSERT w " + wide).ok());
  WaitForSequence([&] { return server.TableSnapshot64("w")->sequence(); },
                  w0.version + 1);
  const StatementResult w1 = reader.Execute("COUNT w " + wide);
  ASSERT_TRUE(w1.ok());
  EXPECT_GE(w1.version, w0.version + 1);
  EXPECT_EQ(w1.count, 1u);

  const StatementResult s0 = reader.Execute("RANGE s basic c");
  ASSERT_TRUE(s0.ok());
  EXPECT_EQ(s0.count, 0u);
  ASSERT_TRUE(writer.Execute("INSERT s basic").ok());
  WaitForSequence([&] { return server.TableSnapshot("s")->sequence(); },
                  s0.version + 1);
  EXPECT_EQ(server.TableDomain("s")->size(), 4u);
  const StatementResult s1 = reader.Execute("FIND s basic forth");
  ASSERT_TRUE(s1.ok());
  EXPECT_GE(s1.version, s0.version + 1);
  EXPECT_EQ(s1.positions, (std::vector<int64_t>{1, 3}));
  const StatementResult s2 = reader.Execute("RANGE s basic c");
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(s2.count, 1u);
  server.Stop();
}

TEST(Server, JoinRepinsItsInnerSideAfterAPublish) {
  Server server;
  server.CreateTable("outer", {1, 2, 3});
  server.CreateTable("inner", {2, 9});
  server.CreateStringTable("so", {"ada", "cobol"});
  server.CreateStringTable("si", {"cobol", "forth"});
  server.Start();
  Session reader = server.OpenSession();
  Session writer = server.OpenSession();

  const StatementResult j0 = reader.Execute("JOIN outer inner");
  ASSERT_TRUE(j0.ok());
  EXPECT_EQ(j0.count, 1u);
  ASSERT_TRUE(writer.Execute("INSERT inner 3 3").ok());
  WaitForSequence([&] { return server.TableSnapshot("inner")->sequence(); },
                  j0.version2 + 1);
  const StatementResult j1 = reader.Execute("JOIN outer inner");
  ASSERT_TRUE(j1.ok());
  EXPECT_EQ(j1.version, j0.version);
  EXPECT_GE(j1.version2, j0.version2 + 1);
  EXPECT_EQ(j1.count, 3u);

  // The string inner side grows its dictionary: the outer's IDs must be
  // translated through the inner's new one.
  const StatementResult k0 = reader.Execute("JOIN so si");
  ASSERT_TRUE(k0.ok());
  EXPECT_EQ(k0.count, 1u);
  ASSERT_TRUE(writer.Execute("INSERT si ada basic").ok());
  WaitForSequence([&] { return server.TableSnapshot("si")->sequence(); },
                  k0.version2 + 1);
  const StatementResult k1 = reader.Execute("JOIN so si");
  ASSERT_TRUE(k1.ok());
  EXPECT_GE(k1.version2, k0.version2 + 1);
  EXPECT_EQ(k1.count, 2u);

  // A self-join pins the table once for both sides.
  const StatementResult self = reader.Execute("JOIN inner inner");
  ASSERT_TRUE(self.ok());
  EXPECT_EQ(self.version, self.version2);
  EXPECT_EQ(self.count, 6u);  // 2, 3, 3, 9: 1 + 4 + 1
  server.Stop();
}

TEST(Server, CachedPinRetainsAtMostOneOldVersion) {
  Server server;
  server.CreateTable("t", {1, 2, 3});
  server.CreateStringTable("s", {"ada", "cobol"});
  server.Start();
  Session writer = server.OpenSession();
  // Waits for the writer to publish and return from the drain cycle, so
  // only Sessions can still hold an old version.
  uint64_t published = 0;
  const auto write = [&](const char* table, const std::string& statement) {
    const uint64_t target = server.TableSnapshot(table)->sequence() + 1;
    ASSERT_TRUE(writer.Execute(statement).ok());
    WaitForSequence([&] { return server.TableSnapshot(table)->sequence(); },
                    target);
    ++published;
    while (server.writer_stats().groups_published < published) {
      std::this_thread::yield();
    }
  };

  Session reader = server.OpenSession();
  ASSERT_EQ(reader.Execute("FIND t 1").version, 1u);
  std::weak_ptr<const MaintainedIndex::Version> v1 = server.TableSnapshot("t");
  write("t", "INSERT t 4");
  EXPECT_FALSE(v1.expired());  // the reader's cached pin
  ASSERT_EQ(reader.Execute("FIND t 4").version, 2u);
  EXPECT_TRUE(v1.expired());  // one statement later, released

  // A string table's version owns the dictionary it was published with:
  // after an insert that grows the dictionary, one re-pin releases both.
  ASSERT_EQ(reader.Execute("FIND s ada").version, 1u);
  std::weak_ptr<const MaintainedIndex::Version> s1 = server.TableSnapshot("s");
  std::weak_ptr<const domain::StringDomain> d1 = server.TableDomain("s");
  write("s", "INSERT s basic");
  EXPECT_FALSE(s1.expired());
  EXPECT_FALSE(d1.expired());
  ASSERT_EQ(reader.Execute("FIND s basic").version, 2u);
  EXPECT_TRUE(s1.expired());
  EXPECT_TRUE(d1.expired());

  // An idle Session keeps its pin until it is destroyed.
  std::weak_ptr<const MaintainedIndex::Version> v2 = server.TableSnapshot("t");
  {
    Session idle = server.OpenSession();
    ASSERT_EQ(idle.Execute("COUNT t 4").version, 2u);
    write("t", "DELETE t 4");
    ASSERT_EQ(reader.Execute("COUNT t 4").version, 3u);
    EXPECT_FALSE(v2.expired());
  }
  EXPECT_TRUE(v2.expired());
  server.Stop();
}

bool SameResult(const StatementResult& a, const StatementResult& b) {
  return a.status == b.status && a.error == b.error &&
         a.version == b.version && a.version2 == b.version2 &&
         a.positions == b.positions && a.counts == b.counts &&
         a.range_begin == b.range_begin && a.range_end == b.range_end &&
         a.count == b.count && a.advice == b.advice &&
         a.recommended_spec == b.recommended_spec && a.applied == b.applied;
}

TEST(Session, ReusedStatementAnswersLikeAFreshSession) {
  // One Session parses every statement into the same Statement. Whatever
  // the previous statement left behind (more keys, string bounds, an
  // APPLY, a failed parse), each result must equal a fresh Session's.
  Server::Options options;
  options.collect_stats = true;
  options.allow_spec_swap = true;
  Server server(options);
  server.CreateTable("t", {1, 2, 2, 3, 5, 8});
  server.CreateTable("t2", {2, 3, 3, 13});
  server.CreateTable("a", workload::DistinctSortedKeys(1'000, 3, 4));
  server.CreateStringTable("s", {"ada", "cobol", "forth", "lisp"});
  // Not started: writes queue up unapplied, so every table stays at
  // version 1 and both Sessions read the same state.
  const std::vector<std::string> statements = {
      "FIND t 1 2 3 4 5 6 7 8",
      "RANGE s basic go",
      "FIND t 5",
      "FIND s lisp ada zz",
      "RANGE t 1",
      "FIND t 99999999999999999999",
      "FIND t alpha",
      "RANGE t 2 9",
      "JOIN t t2",
      "JOIN s t",
      "ADVISE a APPLY",
      "ADVISE a",
      "COUNT t 2 3",
      "INSERT t 7",
      "INSERT s pascal",
      "DELETE t 4294967296",
      "FIND nosuch 1",
      "",
      "COUNT s cobol",
  };
  Session reused = server.OpenSession();
  for (const std::string& text : statements) {
    Session fresh = server.OpenSession();
    const StatementResult expected = fresh.Execute(text);
    const StatementResult got = reused.Execute(text);
    EXPECT_TRUE(SameResult(got, expected))
        << "'" << text << "': " << got.error << " vs " << expected.error;
  }
  EXPECT_EQ(reused.stats().statements, statements.size());
  EXPECT_EQ(reused.stats().parse_errors, 3u);

  // Error messages, byte for byte.
  EXPECT_EQ(reused.Execute("RANGE t 1").error, "RANGE takes <lo> <hi>");
  EXPECT_EQ(reused.Execute("FIND t 99999999999999999999").error,
            "key '99999999999999999999' out of range: exceeds "
            "18446744073709551615 (2^64-1)");
  EXPECT_EQ(reused.Execute("FIND t alpha").error,
            "bad key 'alpha': table 't' holds integer keys");
  EXPECT_EQ(reused.Execute("DELETE t 4294967296").error,
            "key '4294967296' out of range for 32-bit table 't' (max "
            "4294967295)");
  EXPECT_EQ(reused.Execute("RANGE t a b").error,
            "bad bounds 'a' 'b': table 't' holds integer keys");
  EXPECT_EQ(reused.Execute("JOIN s t").error,
            "JOIN requires both tables to hold the same key type: 's' and "
            "'t' differ");
  EXPECT_EQ(reused.Execute("JOIN t nosuch").error, "unknown table nosuch");
  EXPECT_EQ(reused.Execute("FIND nosuch 1").error, "unknown table nosuch");
  EXPECT_EQ(reused.Execute("  ").error, "empty statement");
  EXPECT_EQ(reused.Execute("SELECT t").error, "unknown verb 'SELECT'");
  EXPECT_EQ(reused.Execute("FIND").error, "missing table name");
  EXPECT_EQ(reused.Execute("FIND t").error, "expected at least one key");
  EXPECT_EQ(reused.Execute("JOIN t").error,
            "JOIN takes exactly two table names");
  EXPECT_EQ(reused.Execute("ADVISE t APPLY NOW").error,
            "ADVISE takes a table name and an optional APPLY");
}

// ------------------------------------------------------------- the advisor

TEST(Statement, AdviseParsesWithOptionalApply) {
  auto advise = ParseStatement("ADVISE t");
  ASSERT_TRUE(advise.has_value());
  EXPECT_EQ(advise->verb, Verb::kAdvise);
  EXPECT_EQ(advise->table, "t");
  EXPECT_FALSE(advise->apply);

  auto apply = ParseStatement("ADVISE t APPLY");
  ASSERT_TRUE(apply.has_value());
  EXPECT_TRUE(apply->apply);

  std::string error;
  EXPECT_FALSE(ParseStatement("ADVISE t NOW", &error).has_value());
  EXPECT_NE(error.find("APPLY"), std::string::npos);
  EXPECT_FALSE(ParseStatement("ADVISE t APPLY NOW").has_value());
}

TEST(Server, AdviseNeedsStatsAndApplyNeedsTheSwapFlag) {
  // Without collect_stats there is no profile to advise from.
  {
    Server server;
    server.CreateTable("t", workload::DistinctSortedKeys(1'000, 3, 4));
    Session session = server.OpenSession();
    StatementResult res = session.Execute("ADVISE t");
    EXPECT_EQ(res.status, StatementStatus::kUnsupported);
    EXPECT_NE(res.error.find("collect_stats"), std::string::npos);
  }
  // With stats but no swap flag, ADVISE reports and APPLY is refused.
  Server::Options options;
  options.collect_stats = true;
  Server server(options);
  server.CreateTable("t", workload::DistinctSortedKeys(1'000, 3, 4));
  server.CreateTable64("wide", {5, 9, 1, 7});
  server.CreateStringTable("s", {"ada", "cobol", "forth"});
  Session session = server.OpenSession();

  EXPECT_EQ(session.Execute("ADVISE nosuch").status,
            StatementStatus::kUnknownTable);
  for (const char* table : {"t", "wide", "s"}) {
    StatementResult res = session.Execute(std::string("ADVISE ") + table);
    ASSERT_EQ(res.status, StatementStatus::kOk) << table << ": " << res.error;
    EXPECT_FALSE(res.recommended_spec.empty()) << table;
    EXPECT_FALSE(res.advice.empty()) << table;
    EXPECT_FALSE(res.applied) << table;
    EXPECT_TRUE(IndexSpec::Parse(res.recommended_spec).has_value())
        << res.recommended_spec;
  }
  StatementResult apply = session.Execute("ADVISE t APPLY");
  EXPECT_EQ(apply.status, StatementStatus::kUnsupported);
  EXPECT_NE(apply.error.find("allow_spec_swap"), std::string::npos);
}

TEST(Server, AdviseApplyHotSwapsUnderLiveReadersBitIdentically) {
  Server::Options options;
  options.collect_stats = true;
  options.allow_spec_swap = true;
  options.journal = true;
  Server server(options);
  auto keys = workload::DistinctSortedKeys(20'000, 17, 4);
  server.CreateTable("t", keys);  // sorted input: position of keys[i] is i
  server.Start();

  // The probe set every reader replays, with its ground-truth positions —
  // the swap rebuilds the same key array, so answers must never change.
  std::vector<uint32_t> probe_keys;
  std::vector<int64_t> expected;
  for (size_t i = 0; i < 16; ++i) {
    size_t pos = i * 1'000 + 117;
    probe_keys.push_back(keys[pos]);
    expected.push_back(static_cast<int64_t>(pos));
  }
  probe_keys.push_back(keys.back() + 1);  // absent
  expected.push_back(-1);
  const std::string find = KeysStatement("FIND", "t", probe_keys);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  auto reader = [&] {
    Session session = server.OpenSession();
    while (!stop.load(std::memory_order_relaxed)) {
      StatementResult res = session.Execute(find);
      EXPECT_EQ(res.status, StatementStatus::kOk);
      EXPECT_EQ(res.positions, expected);
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::thread r1(reader), r2(reader);

  Session session = server.OpenSession();
  // Feed the collector, then swap.
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(session.Execute(find).ok());
  }
  StatementResult applied = session.Execute("ADVISE t APPLY");
  ASSERT_EQ(applied.status, StatementStatus::kOk) << applied.error;
  ASSERT_TRUE(applied.applied);
  ASSERT_FALSE(applied.recommended_spec.empty());

  // No data writes are queued, so the first published group IS the swap.
  while (server.writer_stats().groups_published == 0) {
    std::this_thread::yield();
  }
  // Let the readers cross the swap a few more times.
  uint64_t seen = reads.load(std::memory_order_relaxed);
  while (reads.load(std::memory_order_relaxed) < seen + 20) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  r1.join();
  r2.join();

  StatementResult after = session.Execute(find);
  ASSERT_EQ(after.status, StatementStatus::kOk);
  EXPECT_EQ(after.positions, expected);
  server.Stop();

  // Exactly one publish, and it is the respec marker; the table now serves
  // under the recommended spec.
  ASSERT_EQ(server.applied_groups().size(), 1u);
  const AppliedGroup& group = server.applied_groups().front();
  EXPECT_TRUE(std::holds_alternative<IndexSpec>(group.applied));
  EXPECT_EQ(std::get<IndexSpec>(group.applied).ToString(),
            applied.recommended_spec);
  EXPECT_EQ(std::get_if<std::vector<workload::UpdateBatch>>(&group.applied),
            nullptr);
  EXPECT_EQ(server.TableSpec("t").ToString(), applied.recommended_spec);
  EXPECT_EQ(server.TableMaintenanceStats("t").spec_swaps, 1u);
  EXPECT_EQ(server.writer_stats().groups_published, 1u);

  // The collector kept observing across the swap: the profile holds the
  // pre-swap statements plus everything the readers issued.
  WorkloadProfile profile = server.TableWorkloadProfile("t");
  EXPECT_GE(profile.point_probes,
            probe_keys.size() * (reads.load() + 32));
}

TEST(Server, AdviseApplyOnAStringTableCarriesItsDictionary) {
  // A hot swap rebuilds the same IDs under the recommended spec as one
  // publish, and the new version carries the dictionary forward: every
  // key decodes to the value it held before the swap.
  Server::Options options;
  options.collect_stats = true;
  options.allow_spec_swap = true;
  options.journal = true;
  Server server(options);
  std::vector<std::string> values;
  for (uint32_t i = 0; i < 3'000; ++i) values.push_back(StringValue(i % 700));
  server.CreateStringTable("s", values, *IndexSpec::Parse("part:4/css:16"));
  const auto before = server.TableSnapshot("s");
  const auto dictionary = server.TableDomain("s");
  std::vector<std::string> decoded_before;
  for (uint32_t id : before->keys()) {
    decoded_before.push_back(dictionary->Decode(id));
  }

  Session session = server.OpenSession();
  const std::string find = "FIND s v005 v123 v699 v700";
  const StatementResult found = session.Execute(find);
  ASSERT_TRUE(found.ok());
  for (int i = 0; i < 31; ++i) ASSERT_TRUE(session.Execute(find).ok());
  const StatementResult applied = session.Execute("ADVISE s APPLY");
  ASSERT_EQ(applied.status, StatementStatus::kOk) << applied.error;
  ASSERT_TRUE(applied.applied);
  server.Start();
  server.Stop();

  const auto after = server.TableSnapshot("s");
  EXPECT_EQ(after->sequence(), before->sequence() + 1);
  EXPECT_EQ(server.TableSpec("s").ToString(), applied.recommended_spec);
  EXPECT_EQ(server.TableDomain("s"), dictionary);  // the same dictionary
  std::vector<std::string> decoded_after;
  for (uint32_t id : after->keys()) {
    decoded_after.push_back(server.TableDomain("s")->Decode(id));
  }
  EXPECT_EQ(decoded_after, decoded_before);
  ASSERT_EQ(server.applied_groups().size(), 1u);
  EXPECT_TRUE(
      std::holds_alternative<IndexSpec>(server.applied_groups()[0].applied));
  EXPECT_EQ(server.writer_stats().groups_published, 1u);
  const StatementResult refound = session.Execute(find);
  ASSERT_TRUE(refound.ok());
  EXPECT_EQ(refound.version, after->sequence());
  EXPECT_EQ(refound.positions, found.positions);
}

}  // namespace
}  // namespace cssidx::serve
