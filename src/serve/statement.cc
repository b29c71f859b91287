#include "serve/statement.h"

#include <limits>
#include <utility>

namespace cssidx::serve {
namespace {

/// A cursor over a statement's tokens: runs of anything but blanks
/// (space, tab).
class Tokens {
 public:
  explicit Tokens(std::string_view text) : text_(text) {}

  /// The next token, or an empty view once the text is used up (a token
  /// is never empty).
  std::string_view Next() {
    while (pos_ < text_.size() && IsBlank(text_[pos_])) ++pos_;
    const size_t begin = pos_;
    while (pos_ < text_.size() && !IsBlank(text_[pos_])) ++pos_;
    return text_.substr(begin, pos_ - begin);
  }

 private:
  static bool IsBlank(char c) { return c == ' ' || c == '\t'; }

  std::string_view text_;
  size_t pos_ = 0;
};

enum class NumberParse {
  kOk,          // all digits, fits in uint64
  kNotNumeric,  // has a non-digit — a raw token (string-table key)
  kOutOfRange,  // all digits but exceeds 2^64-1
};

NumberParse ParseU64(std::string_view token, uint64_t* out) {
  if (token.empty()) return NumberParse::kNotNumeric;
  uint64_t value = 0;
  for (char c : token) {
    if (c < '0' || c > '9') return NumberParse::kNotNumeric;
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (std::numeric_limits<uint64_t>::max() - digit) / 10) {
      return NumberParse::kOutOfRange;
    }
    value = value * 10 + digit;
  }
  *out = value;
  return NumberParse::kOk;
}

bool Fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

std::string OutOfRangeMessage(std::string_view token) {
  return "key '" + std::string(token) +
         "' out of range: exceeds 18446744073709551615 (2^64-1)";
}

bool ParseVerb(std::string_view token, Verb* verb) {
  static constexpr std::pair<std::string_view, Verb> kVerbs[] = {
      {"FIND", Verb::kFind},     {"COUNT", Verb::kCount},
      {"RANGE", Verb::kRange},   {"JOIN", Verb::kJoin},
      {"INSERT", Verb::kInsert}, {"DELETE", Verb::kDelete},
      {"ADVISE", Verb::kAdvise}};
  for (const auto& [name, value] : kVerbs) {
    if (token == name) {
      *verb = value;
      return true;
    }
  }
  return false;
}

}  // namespace

bool Statement::Parse(std::string_view text, std::string* error) {
  // Reset every field; the vectors keep their capacity for the next key
  // list.
  table = table2 = lo_token = hi_token = {};
  key_tokens.clear();
  keys.clear();
  keys_numeric.clear();
  lo = hi = 0;
  bounds_numeric = apply = false;

  Tokens tokens(text);
  const std::string_view verb_token = tokens.Next();
  if (verb_token.empty()) return Fail(error, "empty statement");
  if (!ParseVerb(verb_token, &verb)) {
    return Fail(error, "unknown verb '" + std::string(verb_token) + "'");
  }
  table = tokens.Next();
  if (table.empty()) return Fail(error, "missing table name");

  switch (verb) {
    case Verb::kAdvise: {
      const std::string_view option = tokens.Next();
      apply = option == "APPLY" && tokens.Next().empty();
      if (!option.empty() && !apply) {
        return Fail(error, "ADVISE takes a table name and an optional APPLY");
      }
      return true;
    }
    case Verb::kJoin:
      table2 = tokens.Next();
      if (table2.empty() || !tokens.Next().empty()) {
        return Fail(error, "JOIN takes exactly two table names");
      }
      return true;
    case Verb::kRange: {
      lo_token = tokens.Next();
      hi_token = tokens.Next();
      if (hi_token.empty() || !tokens.Next().empty()) {
        return Fail(error, "RANGE takes <lo> <hi>");
      }
      const NumberParse lo_parse = ParseU64(lo_token, &lo);
      const NumberParse hi_parse = ParseU64(hi_token, &hi);
      if (lo_parse == NumberParse::kOutOfRange) {
        return Fail(error, OutOfRangeMessage(lo_token));
      }
      if (hi_parse == NumberParse::kOutOfRange) {
        return Fail(error, OutOfRangeMessage(hi_token));
      }
      bounds_numeric =
          lo_parse == NumberParse::kOk && hi_parse == NumberParse::kOk;
      return true;
    }
    default: {
      // FIND/COUNT/INSERT/DELETE: one or more keys. A key token is kept
      // raw (string tables) and parsed as uint64 when it is a decimal
      // number; only a digit string too wide for ANY table is a parse
      // error, with a message distinct from a malformed statement.
      for (std::string_view token = tokens.Next(); !token.empty();
           token = tokens.Next()) {
        uint64_t key = 0;
        const NumberParse parse = ParseU64(token, &key);
        if (parse == NumberParse::kOutOfRange) {
          return Fail(error, OutOfRangeMessage(token));
        }
        key_tokens.push_back(token);
        keys.push_back(key);
        keys_numeric.push_back(parse == NumberParse::kOk);
      }
      if (key_tokens.empty()) return Fail(error, "expected at least one key");
      return true;
    }
  }
}

std::optional<Statement> ParseStatement(std::string_view text,
                                        std::string* error) {
  std::optional<Statement> stmt(std::in_place);
  if (!stmt->Parse(text, error)) return std::nullopt;
  return stmt;
}

const char* StatementGrammarHelp() {
  return "FIND   <table> <key>...   positions of each key (-1 = absent)\n"
         "COUNT  <table> <key>...   per-key multiplicities + total\n"
         "RANGE  <table> <lo> <hi>  count + position span of [lo, hi)\n"
         "JOIN   <outer> <inner>    equi-join pair cardinality\n"
         "INSERT <table> <key>...   enqueue an insert batch\n"
         "DELETE <table> <key>...   enqueue a delete batch (every copy)\n"
         "ADVISE <table> [APPLY]    advisor recommendation; APPLY enqueues\n"
         "the hot-swap (needs collect_stats + allow_spec_swap)\n"
         "keys: decimal uint64 for integer tables (32-bit tables reject\n"
         "values above 4294967295 at execute), raw tokens for string\n"
         "tables\n";
}

}  // namespace cssidx::serve
