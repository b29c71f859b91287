#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "core/simd_node_search.h"

namespace cssbench {
namespace {

void AppendJsonString(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  out += '"';
}

void AppendJsonNumber(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";  // surfaces as a missing value, never as a fake number
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

}  // namespace

uint64_t NowNs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

Window Window::After(double warmup_s, double window_s) {
  Window w;
  w.start_ns = NowNs() + static_cast<uint64_t>(warmup_s * 1e9);
  w.end_ns = w.start_ns + static_cast<uint64_t>(window_s * 1e9);
  return w;
}

size_t Samples::Bucket(uint64_t ns) {
  if (ns < kSub) return static_cast<size_t>(ns);
  int exp = 63 - __builtin_clzll(ns);
  if (exp > kMaxExp) {
    exp = kMaxExp;
    ns = (uint64_t{2} << kMaxExp) - 1;
  }
  const uint64_t sub = (ns >> (exp - kSubBits)) & (kSub - 1);
  return static_cast<size_t>(kSub * static_cast<uint64_t>(exp - kSubBits + 1) +
                             sub);
}

double Samples::Value(size_t bucket) {
  if (bucket < kSub) return static_cast<double>(bucket);
  const int exp = static_cast<int>(bucket / kSub) - 1 + kSubBits;
  const double width = std::ldexp(1.0, exp - kSubBits);
  return static_cast<double>(kSub + bucket % kSub) * width + width / 2;
}

void Samples::Append(const Samples& other) {
  for (size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  size_ += other.size_;
}

std::vector<double> Samples::Quantiles(std::initializer_list<double> qs) const {
  std::vector<double> out;
  for (double q : qs) {
    if (size_ == 0) {
      out.push_back(0);
      continue;
    }
    const uint64_t rank = std::min<uint64_t>(
        size_ - 1, static_cast<uint64_t>(q * static_cast<double>(size_)));
    uint64_t seen = 0;
    size_t b = 0;
    while (seen + counts_[b] <= rank) seen += counts_[b++];
    out.push_back(Value(b));
  }
  return out;
}

SpanLog::SpanLog(size_t capacity, uint16_t thread)
    : spans_(std::max<size_t>(capacity, 1)), thread_(thread) {}

std::vector<Span> SpanLog::Ordered() const {
  std::vector<Span> out;
  const uint64_t cap = spans_.size();
  const uint64_t first = next_ > cap ? next_ - cap : 0;
  for (uint64_t i = first; i < next_; ++i) out.push_back(spans_[i % cap]);
  return out;
}

SpanLog& Trace::NewLog(size_t capacity, uint16_t thread) {
  logs_.push_back(std::make_unique<SpanLog>(capacity, thread));
  return *logs_.back();
}

void Trace::Counter(const std::string& name, double value) {
  counters_.emplace_back(name, value);
}

bool Trace::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::string line;
  for (const auto& [name, value] : counters_) {
    line = "{\"kind\":\"counter\",\"name\":";
    AppendJsonString(line, name);
    line += ",\"value\":";
    AppendJsonNumber(line, value);
    out << line << "}\n";
  }
  for (const auto& log : logs_) {
    for (const Span& s : log->Ordered()) {
      line = "{\"kind\":\"span\",\"req\":";
      AppendNumber(line, s.req);
      line += ",\"name\":";
      AppendJsonString(line, s.name);
      line += ",\"parent\":";
      AppendJsonString(line, s.parent);
      line += ",\"thread\":";
      AppendNumber(line, s.thread);
      line += ",\"start_ns\":";
      AppendNumber(line, s.start_ns);
      line += ",\"end_ns\":";
      AppendNumber(line, s.end_ns);
      line += ",\"n\":";
      AppendNumber(line, s.n);
      line += ",\"hits\":";
      AppendNumber(line, s.hits);
      out << line << "}\n";
    }
  }
  return static_cast<bool>(out);
}

void TextRing::Add(std::string_view text) {
  text_.append(text);
  ends_.push_back(text_.size());
}

void TextRing::Reserve(size_t bytes, size_t statements) {
  text_.reserve(bytes);
  ends_.reserve(statements);
}

void Report::Set(const std::string& name, double value) {
  for (auto& [n, v] : metrics) {
    if (n == name) {
      v = value;
      return;
    }
  }
  metrics.emplace_back(name, value);
}

void Report::Fail(std::string what) {
  ++failed;
  if (errors.size() < 8) errors.push_back(std::move(what));
}

void Report::Merge(const Report& other) {
  attempted += other.attempted;
  failed += other.failed;
  checked += other.checked;
  for (const std::string& e : other.errors) {
    if (errors.size() < 8) errors.push_back(e);
  }
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

std::string ReportJson(const Config& config, const Report& report) {
  std::string out = "{\"workload\":";
  AppendJsonString(out, config.workload);
  out += ",\"seed\":";
  AppendNumber(out, config.seed);
  out += ",\"smoke\":";
  out += config.smoke ? "true" : "false";
  out += ",\"traced\":";
  out += config.traced() ? "true" : "false";
  out += ",\"window_s\":";
  AppendJsonNumber(out, config.window_s);
  out += ",\"warmup_s\":";
  AppendJsonNumber(out, config.warmup_s);
  out += ",\"compiler\":";
  AppendJsonString(out, __VERSION__);
  out += ",\"flags\":";
  AppendJsonString(out, CSSBENCH_FLAGS);
  out += ",\"node_search_path\":";
  AppendJsonString(out,
                   cssidx::NodeSearchPathName(cssidx::ActiveNodeSearchPath()));
  out += ",\"correct\":";
  out += report.failed == 0 ? "true" : "false";
  out += ",\"attempted\":";
  AppendNumber(out, report.attempted);
  out += ",\"failed\":";
  AppendNumber(out, report.failed);
  out += ",\"checked\":";
  AppendNumber(out, report.checked);
  out += ",\"errors\":[";
  for (size_t i = 0; i < report.errors.size(); ++i) {
    if (i > 0) out += ',';
    AppendJsonString(out, report.errors[i]);
  }
  out += "],\"metrics\":{";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    if (i > 0) out += ',';
    AppendJsonString(out, report.metrics[i].first);
    out += ':';
    AppendJsonNumber(out, report.metrics[i].second);
  }
  out += "}}";
  return out;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

}  // namespace cssbench
