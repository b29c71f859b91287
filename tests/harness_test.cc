// The bench harness is part of the reproduction deliverable (it defines
// the measurement protocol), so its pieces get the same test treatment:
// option parsing, the min-of-repeats timer contract, and the report: its
// text tables and the JSON the bench gates read.

#include "../bench/harness.h"

#include <chrono>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

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
  EXPECT_EQ(o.json, "");  // BENCH_<bench>.json
}

TEST(Harness, OptionOverrides) {
  Options o = ParseArgs({"--n=500", "--lookups=10", "--repeats=5", "--quick",
                         "--seed=9", "--json=out.json"});
  EXPECT_EQ(o.n, 500u);
  EXPECT_EQ(o.lookups, 10u);
  EXPECT_EQ(o.repeats, 5);
  EXPECT_TRUE(o.quick);
  EXPECT_EQ(o.seed, 9u);
  EXPECT_EQ(o.json, "out.json");
}

TEST(Harness, NPrefersExplicitThenQuickThenDefault) {
  EXPECT_EQ(ParseArgs({}).N(10, 20), 20u);
  EXPECT_EQ(ParseArgs({"--quick"}).N(10, 20), 10u);
  EXPECT_EQ(ParseArgs({"--quick", "--n=7"}).N(10, 20), 7u);
}

TEST(Harness, MinSecondsReturnsTheMinimumAndFeedsTheSink) {
  // Only the first run sleeps, so the minimum is a later one.
  int run = 0;
  uint64_t sink_before = g_sink;
  double sec = MinSeconds(3, [&] {
    if (run == 0) std::this_thread::sleep_for(std::chrono::milliseconds(100));
    return ++run * 1000;
  });
  EXPECT_EQ(run, 3);
  EXPECT_GE(sec, 0.0);
  EXPECT_LT(sec, 0.05);
  // The sink absorbed the three results (anti-DCE contract).
  EXPECT_EQ(g_sink - sink_before, uint64_t{6000});
}

TEST(Harness, ReportPrintsHeaderThenOneColumnPerFieldInFirstSeenOrder) {
  Report report("demo", 42);
  report.header().Set("spec", "css:16");
  report.AddRow("rows").Set("a", 1).Set("name", "x");
  report.AddRow("other").Set("s", "q");
  report.AddRow("rows").Set("wide_field", 0.5, 2).Set("a", 22);
  testing::internal::CaptureStdout();
  report.Print();
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_EQ(out.find("# bench: demo\n# n: 42\n# hardware_threads: "), 0u)
      << out;
  EXPECT_NE(out.find("\n# node_search_path: "), std::string::npos) << out;
  EXPECT_NE(out.find("\n# spec: css:16\n\n== rows ==\n"
                     "a   name  wide_field\n"
                     "1   x     -\n"
                     "22  -     0.50\n"
                     "\n== other ==\n"
                     "s\n"
                     "q\n"),
            std::string::npos)
      << out;
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
