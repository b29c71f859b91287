#include "harness.h"

#include <cmath>
#include <cstdio>

#include "cachesim/cache_sim.h"
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
  o.json = args.GetString("json", "");
  return o;
}

MissCounts SimulateMisses(std::string_view spec, const std::vector<Key>& keys,
                          const std::vector<Key>& lookups,
                          const std::vector<cachesim::CacheConfig>& configs) {
  MissCounts mc;
  Visit(spec, keys, [&](const auto& index) {
    if constexpr (requires(cachesim::SimTracer t) {
                    index.LowerBoundTraced(Key{}, t);
                  }) {
      for (bool cold : {true, false}) {
        cachesim::CacheHierarchy h(configs);
        cachesim::SimTracer tracer{&h};
        for (Key k : lookups) {
          if (cold) h.FlushContents();
          index.LowerBoundTraced(k, tracer);
        }
        const auto per_lookup = [&](int level) {
          return static_cast<double>(h.Level(level).misses()) /
                 static_cast<double>(lookups.size());
        };
        (cold ? mc.cold_l1 : mc.warm_l1) = per_lookup(0);
        (cold ? mc.cold_l2 : mc.warm_l2) = per_lookup(1);
      }
    } else {
      throw std::invalid_argument("no traced lookup for spec " +
                                  std::string(spec));
    }
  });
  return mc;
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
                                        std::string json, std::string text) {
  if (text.empty()) text = json;
  fields_.push_back({std::string(name), std::move(json), std::move(text)});
  return *this;
}

Report::Fields& Report::Fields::Set(std::string_view name,
                                    std::string_view value) {
  return SetJson(name, JsonString(value), std::string(value));
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

Report::Report(std::string_view bench, size_t n) : bench_(bench) {
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
  auto members = [](const Fields& fields) {
    std::vector<std::string> out;
    for (const auto& f : fields.fields_) {
      out.push_back(JsonString(f.name) + ": " + f.json);
    }
    return out;
  };
  std::vector<std::string> entries = members(header_);
  for (const auto& [name, rows] : blocks_) {
    std::vector<std::string> lines;
    for (const Fields& row : rows) {
      lines.push_back(Join("{", members(row), ", ", "}"));
    }
    entries.push_back(JsonString(name) +
                      Join(": [\n    ", lines, ",\n    ", "\n  ]"));
  }
  return Join("{\n  ", entries, ",\n  ", "\n}\n");
}

void Report::Print() const {
  for (const auto& f : header_.fields_) {
    std::printf("# %s: %s\n", f.name.c_str(), f.text.c_str());
  }
  for (const auto& [name, rows] : blocks_) {
    std::vector<std::string> columns;
    for (const Fields& row : rows) {
      for (const auto& f : row.fields_) {
        if (std::find(columns.begin(), columns.end(), f.name) ==
            columns.end()) {
          columns.push_back(f.name);
        }
      }
    }
    // The column names, then one line per row; a missing field prints "-".
    std::vector<std::vector<std::string>> lines{columns};
    for (const Fields& row : rows) {
      std::vector<std::string>& line = lines.emplace_back();
      for (const std::string& column : columns) {
        auto it = std::find_if(row.fields_.begin(), row.fields_.end(),
                               [&](const auto& f) { return f.name == column; });
        line.push_back(it == row.fields_.end() ? "-" : it->text);
      }
    }
    std::vector<size_t> widths(columns.size());
    for (const auto& line : lines) {
      for (size_t c = 0; c < line.size(); ++c) {
        widths[c] = std::max(widths[c], line[c].size());
      }
    }
    std::printf("\n== %s ==\n", name.c_str());
    for (const auto& line : lines) {
      std::string text;
      for (size_t c = 0; c < line.size(); ++c) {
        if (c > 0) text += "  ";
        text += line[c];
        if (c + 1 < line.size()) text.append(widths[c] - line[c].size(), ' ');
      }
      std::printf("%s\n", text.c_str());
    }
  }
  std::fflush(stdout);
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

bool Report::Emit(const Options& options) const {
  Print();
  return Write(options.json.empty() ? "BENCH_" + bench_ + ".json"
                                    : options.json);
}

}  // namespace cssidx::bench
