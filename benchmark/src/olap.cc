// olap_paged: the engine library with no serving layer in front. A paged
// fact table whose buffer pool holds just under a quarter of its pages
// (so even one column no longer fits, and the sort-index build takes the
// external-merge path), a flat dimension table, and one closed-loop thread
// running a fixed round of decision-support queries while late rows are
// appended beside them.

#include <deque>
#include <map>
#include <memory>

#include "engine/query.h"
#include "engine/table.h"
#include "ladder.h"
#include "workloads.h"

namespace cssbench {
namespace {

using cssidx::engine::Rid;
using cssidx::engine::Table;

constexpr size_t kFactRows = 8'000'000;
constexpr uint32_t kDays = 4096;
constexpr size_t kCustomers = 1'000'000;
constexpr uint32_t kRegions = 16;
constexpr uint32_t kMaxAmount = 10000;
constexpr size_t kDimRows = 262'144;
constexpr size_t kFilterRows = 4096;
constexpr size_t kWindows = 16;            // day windows per range query
constexpr uint32_t kWindowDays = 4;
constexpr size_t kCountRanges = 64;        // CountRange queries per round
constexpr uint32_t kCustomerSpan = 64;
constexpr uint64_t kGroupByEvery = 16;     // rounds
constexpr uint64_t kAppendEvery = 64;      // queries
constexpr size_t kAppendRows = 8192;
constexpr size_t kPageBytes = size_t{1} << 16;
constexpr size_t kLiveSpans = size_t{1} << 16;
constexpr const char* kRangeAgg = "engine.query.range_agg";
constexpr const char* kCountRange = "engine.query.count_range";

struct PoolDelta {
  double pins = 0, hits = 0, faults = 0, evictions = 0, spill_writes = 0;
  void Add(const cssidx::store::BufferStats& a,
           const cssidx::store::BufferStats& b) {
    pins += static_cast<double>(b.pins - a.pins);
    hits += static_cast<double>(b.hits - a.hits);
    faults += static_cast<double>(b.faults - a.faults);
    evictions += static_cast<double>(b.evictions - a.evictions);
    spill_writes += static_cast<double>(b.spill_writes - a.spill_writes);
  }
};

/// One fact row's columns, derived from (seed, stream, index).
struct Row {
  uint32_t day, customer, amount, region;
};

class Olap {
 public:
  explicit Olap(const Config& config)
      : config_(config),
        rows_(config.Size(kFactRows)),
        customers_(config.Size(kCustomers)),
        dim_rows_(config.Size(kDimRows)),
        filter_rows_(config.Size(kFilterRows)),
        append_rows_(config.Size(kAppendRows)) {}

  Report Run(Trace* trace);

 private:
  Row MakeRow(uint64_t stream, uint64_t i, uint32_t day) const {
    return Row{day,
               static_cast<uint32_t>(Hash(config_.seed, stream + 1, i) %
                                     customers_),
               static_cast<uint32_t>(1 + Hash(config_.seed, stream + 2, i) %
                                             kMaxAmount),
               static_cast<uint32_t>(Hash(config_.seed, stream + 3, i) %
                                     kRegions)};
  }

  /// The oracle: histograms the bench keeps itself, updated with every
  /// row it loads or appends.
  void Count(const Row& r) {
    ++day_count_[r.day];
    day_sum_[r.day] += r.amount;
    ++customer_count_[r.customer];
    ++region_count_[r.region];
    region_sum_[r.region] += r.amount;
  }

  /// Fact rows arrive in day order, as loads append them; late rows
  /// (appended during the run) carry past days.
  void Generate() {
    day_count_.assign(kDays, 0);
    day_sum_.assign(kDays, 0);
    customer_count_.assign(customers_, 0);
    region_count_.assign(kRegions, 0);
    region_sum_.assign(kRegions, 0);
    for (const char* c : {"day", "customer", "amount", "region"}) {
      fact_columns_[c].reserve(rows_);
    }
    for (size_t i = 0; i < rows_; ++i) {
      const Row r = MakeRow(10, i, static_cast<uint32_t>(i * kDays / rows_));
      fact_columns_["day"].push_back(r.day);
      fact_columns_["customer"].push_back(r.customer);
      fact_columns_["amount"].push_back(r.amount);
      fact_columns_["region"].push_back(r.region);
      Count(r);
    }
    for (size_t j = 0; j < dim_rows_; ++j) {
      dim_id_.push_back(static_cast<uint32_t>(j));
      dim_segment_.push_back(static_cast<uint32_t>(Hash(config_.seed, 14, j) % 8));
    }
    for (size_t j = 0; j < filter_rows_; ++j) {
      filter_.push_back(static_cast<uint32_t>(
          Hash(config_.seed, 15, j) % std::min(dim_rows_, customers_)));
    }
  }

  /// Builds the three tables and the fact sort indexes (dropping the
  /// previous set-up's); returns the seconds it took.
  double Setup() {
    filter_table_.reset();
    dim_.reset();
    fact_.reset();
    // A quarter of the fact table's pages, minus one: no single column
    // fits the pool, so both fact sort indexes build by external merge.
    const size_t column_pages =
        (rows_ + kPageBytes / 4 - 1) / (kPageBytes / 4);
    const size_t pool_pages = std::max<size_t>(1, 4 * column_pages / 4 - 1);
    const uint64_t start = NowNs();
    fact_ = std::make_unique<Table>(
        cssidx::engine::TableOptions{kPageBytes, pool_pages, config_.spill_dir});
    for (const auto& [name, values] : fact_columns_) {
      fact_->AddColumn(name, values);
    }
    const auto spec = *cssidx::IndexSpec::Parse("css:16");
    const uint64_t build = NowNs();
    fact_->BuildSortIndex("day", spec);
    fact_->BuildSortIndex("customer", spec);
    build_s_.push_back((NowNs() - build) * 1e-9);
    dim_ = std::make_unique<Table>();
    dim_->AddColumn("id", dim_id_);
    dim_->AddColumn("segment", dim_segment_);
    dim_->BuildSortIndex("id", spec);
    filter_table_ = std::make_unique<Table>();
    filter_table_->AddColumn("customer", filter_);
    return (NowNs() - start) * 1e-9;
  }

  /// Times one query and records it as a span named `name`. run(log, req)
  /// makes the engine calls (a composite query records a span per call);
  /// check() then compares the results with the oracle after the clock has
  /// stopped. False once the window has closed.
  template <typename Run, typename Check>
  bool Query(const char* name, Run&& run, Check&& check) {
    const uint64_t start = NowNs();
    if (start >= window_.end_ns) return false;
    const bool measured = start >= window_.start_ns;
    SpanLog* log = measured ? live_ : nullptr;
    const uint64_t req = ++queries_;
    const cssidx::store::BufferStats before = fact_->PoolStats();
    run(log, req);
    const uint64_t end = NowNs();
    ++report_.attempted;
    if (measured) {
      latency_.Add(end - start);
      ++window_ops_;
      last_end_ns_ = end;
      pool_.Add(before, fact_->PoolStats());
      if (log != nullptr) log->Add(Span{req, name, "", start, end});
    }
    check();
    if (queries_ % kAppendEvery == 0) Append(log);
    return true;
  }

  void Expect(bool ok, const std::string& what) {
    ++report_.checked;
    if (!ok) report_.Fail(what);
  }

  bool RangeAgg(uint64_t round) {
    std::vector<std::pair<uint32_t, uint32_t>> bounds;
    for (size_t w = 0; w < kWindows; ++w) {
      const auto d = static_cast<uint32_t>(
          Hash(config_.seed, 30, round * kWindows + w) % (kDays - kWindowDays));
      bounds.emplace_back(d, d + kWindowDays);
    }
    std::vector<std::vector<Rid>> rids;
    std::vector<cssidx::engine::Aggregates> aggs;
    auto run = [&](SpanLog* log, uint64_t req) {
      Timed(log, req, "engine.query.select_range_batch", kRangeAgg, kWindows,
            [&] {
              rids = cssidx::engine::SelectRangeBatch(*fact_, "day", bounds);
              return 0u;
            });
      for (const std::vector<Rid>& r : rids) {
        Timed(log, req, "engine.query.aggregate", kRangeAgg,
              static_cast<uint32_t>(r.size()), [&] {
                aggs.push_back(cssidx::engine::Aggregate(*fact_, "amount", r));
                return 0u;
              });
      }
    };
    auto check = [&] {
      for (size_t w = 0; w < bounds.size(); ++w) {
        uint64_t count = 0, sum = 0;
        for (uint32_t d = bounds[w].first; d < bounds[w].second; ++d) {
          count += day_count_[d];
          sum += day_sum_[d];
        }
        rids_ += rids[w].size();
        Expect(rids[w].size() == count && aggs[w].count == count &&
                   aggs[w].sum == sum,
               "day window [" + std::to_string(bounds[w].first) + ", " +
                   std::to_string(bounds[w].second) + "): got " +
                   std::to_string(rids[w].size()) + " rows, sum " +
                   std::to_string(aggs[w].sum) + "; want " +
                   std::to_string(count) + ", " + std::to_string(sum));
      }
    };
    return Query(kRangeAgg, run, check);
  }

  /// The i-th CountRange predicate: kCustomerSpan customers from a
  /// seeded start.
  std::pair<uint32_t, uint32_t> CustomerRange(uint64_t i) const {
    const auto lo = static_cast<uint32_t>(Hash(config_.seed, 31, i) %
                                          (customers_ - kCustomerSpan));
    return {lo, lo + kCustomerSpan};
  }

  bool CountRange() {
    const auto [lo, hi] = CustomerRange(queries_);
    size_t got = 0;
    auto run = [&](SpanLog* log, uint64_t req) {
      got = cssidx::engine::CountRange(*fact_, "customer", lo, hi);
      if (log != nullptr) {
        ranges_.push_back({req, lo, hi});
        if (ranges_.size() > config_.LadderRequests()) ranges_.pop_front();
      }
    };
    auto check = [&] {
      uint64_t want = 0;
      for (uint32_t c = lo; c < hi; ++c) want += customer_count_[c];
      Expect(got == want, "CountRange(customer, " + std::to_string(lo) + ", " +
                              std::to_string(hi) + "): got " +
                              std::to_string(got) + ", want " +
                              std::to_string(want));
    };
    return Query(kCountRange, run, check);
  }

  bool Join() {
    size_t pairs = 0;
    auto run = [&](SpanLog*, uint64_t) {
      pairs = cssidx::engine::IndexedJoin(*filter_table_, "customer", *fact_,
                                          "customer")
                  .size();
    };
    auto check = [&] {
      uint64_t want = 0;
      for (uint32_t c : filter_) want += customer_count_[c];
      rids_ += pairs;
      Expect(pairs == want, "IndexedJoin pairs: got " + std::to_string(pairs) +
                                ", want " + std::to_string(want));
    };
    return Query("engine.query.indexed_join", run, check);
  }

  bool GroupBy() {
    std::vector<cssidx::engine::Aggregates> groups;
    auto run = [&](SpanLog*, uint64_t) {
      groups = cssidx::engine::GroupBy(*fact_, "region", "amount", kRegions);
    };
    auto check = [&] {
      for (uint32_t g = 0; g < kRegions; ++g) {
        Expect(groups[g].count == region_count_[g] &&
                   groups[g].sum == region_sum_[g],
               "GroupBy region " + std::to_string(g));
      }
    };
    return Query("engine.query.group_by", run, check);
  }

  /// Late rows: past days, appended beside the queries; every sort index
  /// refreshes through its MaintainedIndex.
  void Append(SpanLog* log) {
    const uint64_t a = appends_++;
    std::map<std::string, std::vector<uint32_t>> batch;
    for (size_t q = 0; q < append_rows_; ++q) {
      const uint64_t i = a * append_rows_ + q;
      const Row r = MakeRow(20, i, static_cast<uint32_t>(
                                       Hash(config_.seed, 20, i) % kDays));
      batch["day"].push_back(r.day);
      batch["customer"].push_back(r.customer);
      batch["amount"].push_back(r.amount);
      batch["region"].push_back(r.region);
      Count(r);
    }
    Timed(log, a, "engine.table.append", "",
          static_cast<uint32_t>(append_rows_), [&] {
            fact_->AppendRows(batch);
            return 0u;
          });
  }

  void Counters(Trace& trace) const {
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const double ops = static_cast<double>(window_ops_);
    trace.Counter("store.buffer.hit_ratio", ratio(pool_.hits, pool_.pins));
    trace.Counter("store.buffer.faults_per_query", ratio(pool_.faults, ops));
    trace.Counter("store.buffer.evictions_per_query",
                  ratio(pool_.evictions, ops));
    trace.Counter("store.buffer.spill_writes", pool_.spill_writes);
    const auto& day = fact_->GetSortIndex("day");
    const auto& customer = fact_->GetSortIndex("customer");
    trace.Counter("core.external_build.runs",
                  static_cast<double>(day.external_runs() +
                                      customer.external_runs()));
    trace.Counter("core.external_build.build_s", Median(build_s_));
    trace.Counter("engine.query.rids_per_query",
                  ratio(static_cast<double>(rids_), ops));
    const auto& d = day.maintained().stats();
    const auto& c = customer.maintained().stats();
    trace.Counter("core.maintained.full_rebuilds",
                  static_cast<double>(d.full_rebuilds + c.full_rebuilds));
    trace.Counter(
        "core.maintained.shards_rebuilt_per_publish",
        ratio(static_cast<double>(d.shards_rebuilt + c.shards_rebuilt),
              static_cast<double>(d.full_rebuilds + d.incremental_refreshes +
                                  c.full_rebuilds + c.incremental_refreshes)));
  }

  /// The index-side ladder under CountRange: SortIndex::LowerBound on the
  /// recorded bounds, the snapshot and the AnyIndex. The kernel rungs run
  /// on the version set-up built and on the first predicates of the
  /// sequence, not on what the appends and the window's timing left, so
  /// their simulated miss counts repeat exactly.
  void Ladder(Trace& trace,
              const cssidx::MaintainedIndex::Version& at_setup) {
    const cssidx::engine::SortIndex& index = fact_->GetSortIndex("customer");
    SpanLog& log = trace.NewLog(ranges_.size(), 0);
    std::vector<uint64_t> ids;
    std::vector<Probe<uint32_t>> probes;
    for (const auto& [req, lo, hi] : ranges_) {
      Timed(&log, req, "engine.sort_index.lower_bound", kCountRange, 2, [&] {
        return static_cast<uint32_t>(index.LowerBound(hi) >
                                     index.LowerBound(lo));
      });
      ids.push_back(req);
      probes.push_back({req, ProbeKind::kRange, {lo, hi}});
    }
    SnapshotRung(trace, ids, kCountRange, [&](uint64_t) {
      return index.maintained().Snapshot() != nullptr;
    });
    IndexRung(index.maintained().Snapshot()->index(), probes, kCountRange,
              trace);
    std::vector<Probe<uint32_t>> fixed;
    for (uint64_t i = 0; i < config_.LadderRequests(); ++i) {
      const auto [lo, hi] = CustomerRange(i);
      fixed.push_back({i, ProbeKind::kRange, {lo, hi}});
    }
    KernelRungs(at_setup.keys(), fixed, kCountRange, trace);
  }

  struct RangeRec {
    uint64_t req;
    uint32_t lo, hi;
  };

  const Config& config_;
  const size_t rows_, customers_, dim_rows_, filter_rows_, append_rows_;
  std::map<std::string, std::vector<uint32_t>> fact_columns_;
  std::vector<uint32_t> dim_id_, dim_segment_, filter_;
  std::vector<uint64_t> day_count_, day_sum_, customer_count_, region_count_,
      region_sum_;
  std::unique_ptr<Table> fact_, dim_, filter_table_;
  std::vector<double> build_s_;

  Window window_;
  SpanLog* live_ = nullptr;
  Report report_;
  Samples latency_;
  PoolDelta pool_;
  uint64_t queries_ = 0, window_ops_ = 0, last_end_ns_ = 0, appends_ = 0,
           rids_ = 0;
  std::deque<RangeRec> ranges_;
};

Report Olap::Run(Trace* trace) {
  Generate();
  const double setup_s = MedianSetup([&] { return Setup(); });
  std::shared_ptr<const cssidx::MaintainedIndex::Version> at_setup;
  if (trace != nullptr) {
    live_ = &trace->NewLog(kLiveSpans, 0);
    at_setup = fact_->GetSortIndex("customer").maintained().Snapshot();
  }
  window_ = Window::After(config_.warmup_s, config_.window_s);
  for (uint64_t round = 0;; ++round) {
    if (!RangeAgg(round)) break;
    bool open = true;
    for (size_t c = 0; c < kCountRanges && open; ++c) open = CountRange();
    if (!open || !Join()) break;
    if (round % kGroupByEvery == kGroupByEvery - 1 && !GroupBy()) break;
  }

  const auto q = latency_.Quantiles({0.5, 0.99});
  size_t index_bytes = 0, index_keys = 0;
  for (const auto* index :
       {&fact_->GetSortIndex("day"), &fact_->GetSortIndex("customer"),
        &dim_->GetSortIndex("id")}) {
    const auto snap = index->maintained().Snapshot();
    index_bytes += snap->index().SpaceBytes();
    index_keys += snap->keys().size();
  }
  report_.Set("setup_s", setup_s);
  report_.Set("ops_per_s", window_.Rate(window_ops_, last_end_ns_));
  report_.Set("op_p50_us", q[0] * 1e-3);
  report_.Set("op_p99_us", q[1] * 1e-3);
  report_.Set("index_bytes_per_key", static_cast<double>(index_bytes) /
                                         static_cast<double>(index_keys));
  report_.Set("peak_rss_mb", PeakRssMb());
  report_.Set("harness.op_samples", static_cast<double>(latency_.size()));
  report_.Set("harness.checked_results", static_cast<double>(report_.checked));
  if (trace != nullptr) {
    Counters(*trace);
    Ladder(*trace, *at_setup);
  }
  return report_;
}

}  // namespace

Report RunOlapPaged(const Config& config, Trace* trace) {
  return Olap(config).Run(trace);
}

}  // namespace cssbench
