// The bench harness is part of the reproduction deliverable (it defines
// the measurement protocol), so its pieces get the same test treatment:
// option parsing, the min-of-repeats timer contract, table rendering, and
// the JSON report the bench gates read.

#include "../bench/harness.h"

#include <limits>
#include <string>
#include <vector>

#include "baselines/binary_search.h"
#include "gtest/gtest.h"
#include "workload/key_gen.h"

namespace cssidx::bench {
namespace {

Options ParseArgs(std::vector<const char*> args) {
  args.insert(args.begin(), "bench");
  return Options::Parse(static_cast<int>(args.size()),
                        const_cast<char**>(args.data()));
}

TEST(Harness, OptionDefaultsMatchPaperProtocol) {
  Options o = ParseArgs({});
  EXPECT_EQ(o.lookups, 100'000u);  // §6.1: 100,000 searches
  EXPECT_EQ(o.repeats, 3);
  EXPECT_FALSE(o.quick);
  EXPECT_FALSE(o.full);
}

TEST(Harness, OptionOverrides) {
  Options o = ParseArgs({"--n=500", "--lookups=10", "--repeats=5", "--quick",
                         "--seed=9"});
  EXPECT_EQ(o.n, 500u);
  EXPECT_EQ(o.lookups, 10u);
  EXPECT_EQ(o.repeats, 5);
  EXPECT_TRUE(o.quick);
  EXPECT_EQ(o.seed, 9u);
}

TEST(Harness, MinFindSecondsReturnsPositiveTime) {
  auto keys = workload::DistinctSortedKeys(10'000, 1, 4);
  BinarySearchIndex index(keys);
  std::vector<Key> lookups(keys.begin(), keys.begin() + 1000);
  uint64_t sink_before = g_sink;
  double sec = MinFindSeconds(index, lookups, 2);
  EXPECT_GT(sec, 0.0);
  EXPECT_LT(sec, 5.0);
  // The sink must have absorbed results (anti-DCE contract).
  EXPECT_NE(g_sink, sink_before);
}

TEST(Harness, TableFormatsNumbersAndBytes) {
  EXPECT_EQ(Table::Num(0.123456, 3), "0.123");
  EXPECT_EQ(Table::Num(2.0), "2");
  EXPECT_EQ(Table::Bytes(512), "512 B");
  EXPECT_EQ(Table::Bytes(2048), "2.0 KB");
  EXPECT_EQ(Table::Bytes(2.5e6), "2.50 MB");
}

TEST(Harness, TablePrintsHumanAndCsvBlocks) {
  Table t({"a", "b"});
  t.AddRow({"1", "x"});
  t.AddRow({"2", "y"});
  testing::internal::CaptureStdout();
  t.Print("demo");
  std::string out = testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("== demo =="), std::string::npos);
  EXPECT_NE(out.find("csv,a,b"), std::string::npos);
  EXPECT_NE(out.find("csv,1,x"), std::string::npos);
  EXPECT_NE(out.find("csv,2,y"), std::string::npos);
}

TEST(Harness, ReportWritesHeaderThenBlocksOfRows) {
  Report report("demo", 42);
  report.header().Set("spec", "css:16");
  report.AddRow("rows").Set("a", 1).Set("ok", true).Set("x", 0.5, 2);
  report.AddRow("other").Set("s", "q\"uo\\te\n");
  report.AddRow("rows").Set("a", uint64_t{2}).Set(
      "x", std::numeric_limits<double>::infinity());
  const std::string json = report.Json();
  EXPECT_EQ(json.find("{\n  \"bench\": \"demo\",\n  \"n\": 42,\n"), 0u);
  EXPECT_NE(json.find("\"hardware_threads\": "), std::string::npos);
  EXPECT_NE(json.find("\"node_search_path\": \""), std::string::npos);
  EXPECT_NE(json.find("\"spec\": \"css:16\",\n  \"rows\": [\n"
                      "    {\"a\": 1, \"ok\": true, \"x\": 0.50},\n"
                      "    {\"a\": 2, \"x\": null}\n  ],\n"
                      "  \"other\": [\n"
                      "    {\"s\": \"q\\\"uo\\\\te\\u000a\"}\n  ]\n}\n"),
            std::string::npos)
      << json;
}

TEST(Harness, ReportWriteFailsOnUnwritablePath) {
  Report report("demo", 1);
  testing::internal::CaptureStdout();
  EXPECT_FALSE(report.Write("/nonexistent-dir/report.json"));
  EXPECT_NE(testing::internal::GetCapturedStdout().find("cannot write"),
            std::string::npos);
}

}  // namespace
}  // namespace cssidx::bench
