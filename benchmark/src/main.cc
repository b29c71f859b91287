// cssbench: one workload per process, the load generated in-process.
//
//   cssbench --workload=<point_hot|bulk_cold|rw_fresh|olap_paged> --seed=<s>
//            [--seconds=15] [--smoke]
//            [--trace=<file.jsonl>] [--spill-dir=<dir>]
//
// Prints one JSON object on stdout: op accounting, oracle verdicts, and
// the metrics this process measures itself. With --trace it also writes
// the spans and counters run.py turns into per-layer metrics. Exits 1 if
// any op failed or any check disagreed, 2 on bad usage.

#include <malloc.h>

#include <cstdio>
#include <exception>
#include <string>

#include "util/cli.h"
#include "workloads.h"

int main(int argc, char** argv) {
  using namespace cssbench;
  // Pin glibc's mmap threshold. Left alone it adapts to the history of
  // frees (up to 32 MB), so whether a large buffer is a fresh page-aligned
  // mapping or a recycled heap chunk — and with it the buffer's cache-line
  // alignment and its page faults — would depend on how many set-ups ran.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  cssidx::CliArgs args(argc, argv);
  Config config;
  config.workload = args.GetString("workload", "");
  config.seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  config.smoke = args.GetBool("smoke");
  config.window_s = args.GetDouble("seconds", config.smoke ? 2.0 : 15.0);
  config.warmup_s = config.smoke ? 0.5 : 3.0;
  config.trace_path = args.GetString("trace", "");
  config.spill_dir = args.GetString("spill-dir", ".");
  if (!(config.window_s > 0)) {
    std::fprintf(stderr, "cssbench: --seconds must be > 0\n");
    return 2;
  }

  Report (*run)(const Config&, Trace*) = nullptr;
  if (config.workload == "point_hot") run = RunPointHot;
  if (config.workload == "bulk_cold") run = RunBulkCold;
  if (config.workload == "rw_fresh") run = RunRwFresh;
  if (config.workload == "olap_paged") run = RunOlapPaged;
  if (run == nullptr) {
    std::fprintf(stderr,
                 "cssbench: --workload must be point_hot, bulk_cold, "
                 "rw_fresh or olap_paged (got '%s')\n",
                 config.workload.c_str());
    return 2;
  }

  Trace trace;
  Report report;
  try {
    report = run(config, config.traced() ? &trace : nullptr);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cssbench: %s\n", e.what());
    return 2;
  }
  if (config.traced() && !trace.Write(config.trace_path)) {
    std::fprintf(stderr, "cssbench: cannot write %s\n",
                 config.trace_path.c_str());
    return 2;
  }
  std::printf("%s\n", ReportJson(config, report).c_str());
  return report.failed == 0 ? 0 : 1;
}
