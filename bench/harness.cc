#include "harness.h"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "core/simd_node_search.h"
#include "util/thread_pool.h"

namespace cssidx::bench {

volatile uint64_t g_sink = 0;

Options Options::Parse(int argc, char** argv) {
  CliArgs args(argc, argv);
  Options o;
  o.n = static_cast<size_t>(args.GetInt("n", 0));
  o.lookups = static_cast<size_t>(args.GetInt("lookups", 100'000));
  o.repeats = static_cast<int>(args.GetInt("repeats", 3));
  o.quick = args.GetBool("quick", false);
  o.full = args.GetBool("full", false);
  o.seed = static_cast<uint64_t>(args.GetInt("seed", 17));
  return o;
}

Table::Table(std::vector<std::string> columns) : columns_(std::move(columns)) {}

void Table::AddRow(const std::vector<std::string>& cells) {
  rows_.push_back(cells);
}

std::string Table::Num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
  return buf;
}

std::string Table::Bytes(double bytes) {
  char buf[64];
  if (bytes >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2f MB", bytes / 1e6);
  } else if (bytes >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1f KB", bytes / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f B", bytes);
  }
  return buf;
}

void Table::Print(const std::string& title) const {
  std::vector<size_t> widths(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) widths[c] = columns_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      if (row[c].size() > widths[c]) widths[c] = row[c].size();
    }
  }
  std::printf("\n== %s ==\n", title.c_str());
  for (size_t c = 0; c < columns_.size(); ++c) {
    std::printf("%-*s  ", static_cast<int>(widths[c]), columns_[c].c_str());
  }
  std::printf("\n");
  for (size_t c = 0; c < columns_.size(); ++c) {
    std::printf("%s  ", std::string(widths[c], '-').c_str());
  }
  std::printf("\n");
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      std::printf("%-*s  ", static_cast<int>(widths[c]), row[c].c_str());
    }
    std::printf("\n");
  }
  // CSV block for plotting.
  std::ostringstream csv;
  csv << "csv,";
  for (size_t c = 0; c < columns_.size(); ++c) {
    csv << columns_[c] << (c + 1 < columns_.size() ? "," : "\n");
  }
  for (const auto& row : rows_) {
    csv << "csv,";
    for (size_t c = 0; c < row.size(); ++c) {
      csv << row[c] << (c + 1 < row.size() ? "," : "\n");
    }
  }
  std::printf("%s", csv.str().c_str());
  std::fflush(stdout);
}

namespace {

std::string JsonString(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
      continue;
    }
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + '"';
}

// `open`, then `parts` separated by `sep`, then `close`.
std::string Join(std::string_view open, const std::vector<std::string>& parts,
                 std::string_view sep, std::string_view close) {
  std::string out(open);
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  out += close;
  return out;
}

}  // namespace

Report::Fields& Report::Fields::SetJson(std::string_view name,
                                        std::string_view json) {
  fields_.push_back(JsonString(name) + ": " + std::string(json));
  return *this;
}

Report::Fields& Report::Fields::Set(std::string_view name,
                                    std::string_view value) {
  return SetJson(name, JsonString(value));
}

Report::Fields& Report::Fields::Set(std::string_view name, bool value) {
  return SetJson(name, value ? "true" : "false");
}

Report::Fields& Report::Fields::Set(std::string_view name, double value,
                                    int decimals) {
  if (!std::isfinite(value)) return SetJson(name, "null");
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return SetJson(name, buf);
}

Report::Report(std::string_view bench, size_t n) {
  header_.Set("bench", bench)
      .Set("n", n)
      .Set("hardware_threads", ThreadPool::HardwareThreads())
      .Set("node_search_path", NodeSearchPathName(DetectedNodeSearchPath()));
}

Report::Fields& Report::AddRow(std::string_view block) {
  auto it = std::find_if(blocks_.begin(), blocks_.end(),
                         [&](const auto& b) { return b.first == block; });
  if (it == blocks_.end()) {
    it = blocks_.insert(blocks_.end(), {std::string(block), {}});
  }
  return it->second.emplace_back();
}

std::string Report::Json() const {
  std::vector<std::string> entries = header_.fields_;
  for (const auto& [name, rows] : blocks_) {
    std::vector<std::string> lines;
    for (const Fields& row : rows) {
      lines.push_back(Join("{", row.fields_, ", ", "}"));
    }
    entries.push_back(JsonString(name) +
                      Join(": [\n    ", lines, ",\n    ", "\n  ]"));
  }
  return Join("{\n  ", entries, ",\n  ", "\n}\n");
}

bool Report::Write(const std::string& path) const {
  const std::string json = Json();
  FILE* file = std::fopen(path.c_str(), "w");
  bool ok = file != nullptr &&
            std::fwrite(json.data(), 1, json.size(), file) == json.size();
  if (file != nullptr && std::fclose(file) != 0) ok = false;
  std::printf(ok ? "\nwrote %s\n" : "cannot write %s\n", path.c_str());
  return ok;
}

void PrintHeader(const std::string& figure, const std::string& description,
                 const Options& options) {
  std::printf("######################################################\n");
  std::printf("# %s\n# %s\n", figure.c_str(), description.c_str());
  std::printf("# lookups=%zu repeats=%d%s%s\n", options.lookups,
              options.repeats, options.quick ? " (quick)" : "",
              options.full ? " (full paper scale)" : "");
  std::printf("######################################################\n");
  std::fflush(stdout);
}

}  // namespace cssidx::bench
