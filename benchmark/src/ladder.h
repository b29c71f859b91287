#ifndef CSSBENCH_LADDER_H_
#define CSSBENCH_LADDER_H_

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "analytic/time_model.h"
#include "cachesim/cache_config.h"
#include "cachesim/cache_sim.h"
#include "core/builder.h"
#include "core/css_tree.h"
#include "core/index_spec.h"
#include "harness.h"
#include "serve/server.h"
#include "serve/statement.h"

// The pieces the workloads share: the closed-loop reader session, and the
// rungs of the traced run's layer ladder. A rung replays the recorded
// requests through ONE layer's public function, timing each call as a
// span with the request's id, so run.py can line every layer up against
// the Execute (or query) span of the same request.

namespace cssbench {

namespace serve = cssidx::serve;

inline constexpr const char* kExecute = "serve.session.execute";
inline constexpr size_t kSimProbes = 4096;

/// What a recorded request asks of the index.
enum class ProbeKind { kFind, kCount, kRange };

/// The AnyIndex rung's span per ProbeKind: the batch function it calls.
inline constexpr const char* kIndexRungNames[] = {
    "core.any_index.find", "core.any_index.count",
    "core.any_index.lower_bound"};

/// One recorded request's probe keys. kRange holds {lo, hi}.
template <typename KeyT>
struct Probe {
  uint64_t req = 0;
  ProbeKind kind = ProbeKind::kFind;
  std::vector<KeyT> keys;
};

/// One closed-loop reader's tallies: every op counts toward the report;
/// only ops started inside the window toward latency and throughput.
struct ReaderResult {
  Report report;
  Samples latency;
  uint64_t window_ops = 0;
  uint64_t last_end_ns = 0;

  void Merge(const ReaderResult& other) {
    report.Merge(other.report);
    latency.Append(other.latency);
    window_ops += other.window_ops;
    last_end_ns = std::max(last_end_ns, other.last_end_ns);
  }
};

/// A closed-loop in-process session: executes ring statements back to
/// back from `first`, each waiting for its reply, until the window
/// closes. Ops before the window are warm-up — executed and checked, not
/// timed. check(ring_index, result, report) compares a result against the
/// workload's oracle (and decides which results it samples).
template <typename Check>
void RunReader(serve::Server& server, const TextRing& ring, size_t first,
               const Window& window, SpanLog* spans, uint64_t req_base,
               Check&& check, ReaderResult& out) {
  serve::Session session = server.OpenSession();
  for (size_t i = first % ring.size();; i = i + 1 == ring.size() ? 0 : i + 1) {
    const uint64_t start = NowNs();
    if (start >= window.end_ns) break;
    serve::StatementResult result = session.Execute(ring[i]);
    const uint64_t end = NowNs();
    ++out.report.attempted;
    if (start >= window.start_ns) {
      out.latency.Add(end - start);
      ++out.window_ops;
      out.last_end_ns = end;
      if (spans != nullptr) {
        spans->Add(Span{req_base + out.window_ops, kExecute, "", start, end});
      }
    }
    if (!result.ok()) {
      out.report.Fail("statement " + std::to_string(i) + ": " + result.error);
      continue;
    }
    check(i, result, out.report);
  }
}

/// Records the cost of timing an empty call, which every child span
/// carries and self time must not count.
inline void SpanOverhead(Trace& trace) {
  Samples empty;
  for (int i = 0; i < 10001; ++i) {
    const uint64_t start = NowNs();
    const uint64_t end = NowNs();
    empty.Add(end - start);
  }
  trace.Counter("harness.span_overhead_ns", empty.Quantiles({0.5})[0]);
}

/// Rungs over the serving front end: Session::Execute, then
/// ParseStatement, on the same statement texts (requests 0..reqs-1 of the
/// ring).
inline void ServeRungs(serve::Server& server, const TextRing& ring,
                       size_t reqs, Trace& trace, Report& report) {
  SpanOverhead(trace);
  SpanLog& log = trace.NewLog(2 * reqs, 0);
  serve::Session session = server.OpenSession();
  for (size_t r = 0; r < reqs; ++r) {
    Timed(&log, r, kExecute, "", 0, [&] {
      const bool ok = session.Execute(ring[r]).ok();
      if (!ok) report.Fail("ladder execute " + std::to_string(r));
      return 0u;
    });
  }
  for (size_t r = 0; r < reqs; ++r) {
    std::optional<serve::Statement> parsed;
    Timed(&log, r, "serve.statement.parse", kExecute, 0, [&] {
      parsed = serve::ParseStatement(ring[r]);
      return 0u;
    });
    if (!parsed) report.Fail("ladder parse " + std::to_string(r));
  }
}

/// Times fn(req) per request: once alone (the cost inside a statement,
/// which self time subtracts), then from two threads at once (thread ids 1
/// and 2) — the snapshot pointer copy serializes on a mutex, so
/// contention is part of what the metric reports.
template <typename Fn>
void SnapshotRung(Trace& trace, const std::vector<uint64_t>& reqs,
                  const char* parent, Fn&& fn) {
  SpanLog& solo = trace.NewLog(reqs.size(), 0);
  SpanLog& mine = trace.NewLog(reqs.size(), 1);
  SpanLog& other = trace.NewLog(reqs.size(), 2);
  auto run = [&](SpanLog& log) {
    for (uint64_t r : reqs) {
      Timed(&log, r, "core.maintained.snapshot", parent, 0, [&] {
        fn(r);
        return 0u;
      });
    }
  };
  run(solo);
  std::thread helper([&] { run(other); });
  run(mine);
  helper.join();
}

/// Output buffers reused across probes, so no rung times an allocation.
struct ProbeScratch {
  std::vector<int64_t> found;
  std::vector<size_t> out;
};

/// The probe a request makes, through any AnyIndex; returns the hits.
template <typename KeyT>
uint32_t ProbeIndex(const cssidx::BasicAnyIndex<KeyT>& index,
                    const Probe<KeyT>& p, ProbeScratch& scratch) {
  const size_t n = p.keys.size();
  uint32_t hits = 0;
  switch (p.kind) {
    case ProbeKind::kFind:
      scratch.found.resize(n);
      index.FindBatch(p.keys, scratch.found);
      for (int64_t f : scratch.found) hits += f != cssidx::kNotFound;
      break;
    case ProbeKind::kCount:
      scratch.out.resize(n);
      index.CountEqualBatch(p.keys, scratch.out);
      for (size_t c : scratch.out) hits += c > 0;
      break;
    case ProbeKind::kRange:
      scratch.out.resize(n);
      index.LowerBoundBatch(p.keys, scratch.out);
      break;
  }
  return hits;
}

template <typename KeyT>
uint32_t KeyCount(const Probe<KeyT>& p) {
  return static_cast<uint32_t>(p.keys.size());
}

/// The rung under the snapshot: the served version's AnyIndex.
template <typename KeyT>
void IndexRung(const cssidx::BasicAnyIndex<KeyT>& index,
               const std::vector<Probe<KeyT>>& probes, const char* parent,
               Trace& trace) {
  SpanLog& log = trace.NewLog(probes.size(), 0);
  ProbeScratch scratch;
  for (const Probe<KeyT>& p : probes) {
    Timed(&log, p.req, kIndexRungNames[static_cast<int>(p.kind)], parent,
          KeyCount(p), [&] { return ProbeIndex(index, p, scratch); });
  }
}

/// Rungs beside the served index, over the same sorted keys: the
/// templated full CSS-tree (the kernel); part:16/css:16 against a bare
/// css:16 (the routing cost); and the cold cache simulation of the kernel
/// next to the §5 model.
template <typename KeyT>
void KernelRungs(const std::vector<KeyT>& keys,
                 const std::vector<Probe<KeyT>>& probes, const char* parent,
                 Trace& trace) {
  SpanLog& log = trace.NewLog(3 * probes.size(), 0);
  const cssidx::BasicCssTree<KeyT, 16, 17> tree(keys);
  ProbeScratch scratch;
  std::vector<size_t>& out = scratch.out;
  for (const Probe<KeyT>& p : probes) {
    Timed(&log, p.req, "core.css_tree.lower_bound", parent, KeyCount(p), [&] {
      out.resize(p.keys.size());
      tree.LowerBoundBatch(p.keys, out);
      uint32_t hits = 0;
      for (size_t i = 0; i < out.size(); ++i) {
        hits += out[i] < keys.size() && keys[out[i]] == p.keys[i];
      }
      return hits;
    });
  }

  auto spec = [](const char* text) {
    return cssidx::IndexSpec::Parse(text)->WithKeyWidth(sizeof(KeyT));
  };
  const auto part = cssidx::BuildIndexT<KeyT>(spec("part:16/css:16"),
                                              keys.data(), keys.size());
  const auto bare =
      cssidx::BuildIndexT<KeyT>(spec("css:16"), keys.data(), keys.size());
  for (const Probe<KeyT>& p : probes) {
    Timed(&log, p.req, "core.partitioned.part", parent, KeyCount(p),
          [&] { return ProbeIndex(part, p, scratch); });
    Timed(&log, p.req, "core.partitioned.bare", parent, KeyCount(p),
          [&] { return ProbeIndex(bare, p, scratch); });
  }

  // Cold probes: the hierarchy is flushed before each one, so the count
  // is the paper's misses per lookup, deterministic for a given tree.
  cssidx::cachesim::CacheHierarchy sim(cssidx::cachesim::ModernHierarchy());
  const cssidx::cachesim::SimTracer tracer{&sim};
  size_t simulated = 0;
  for (const Probe<KeyT>& p : probes) {
    for (KeyT k : p.keys) {
      if (simulated == kSimProbes) break;
      sim.FlushContents();
      tree.LowerBoundTraced(k, tracer);
      ++simulated;
    }
  }
  const double per = simulated > 0 ? 1.0 / static_cast<double>(simulated) : 0;
  trace.Counter("core.css_tree.sim_l1_misses_per_probe",
                static_cast<double>(sim.Level(0).misses()) * per);
  trace.Counter("core.css_tree.sim_l2_misses_per_probe",
                static_cast<double>(sim.Level(1).misses()) * per);
  // Directory levels plus the leaf, each one node of 16 keys.
  trace.Counter("analytic.model_misses_per_probe",
                (tree.layout().levels + 1) *
                    cssidx::analytic::MissesPerNode(16.0 * sizeof(KeyT),
                                                    64.0));
}

}  // namespace cssbench

#endif  // CSSBENCH_LADDER_H_
