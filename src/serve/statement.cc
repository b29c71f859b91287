#include "serve/statement.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <utility>

namespace cssidx::serve {
namespace {

bool IsBlank(char c) { return c == ' ' || c == '\t'; }

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

  /// Where the next token's search starts.
  size_t pos() const { return pos_; }

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

enum class NumberParse {
  kOk,          // all digits, fits in uint64
  kNotNumeric,  // has a non-digit — a raw token (string-table key)
  kOutOfRange,  // its digits up to the first non-digit exceed 2^64-1
};

// ---- SWAR over 8-byte little-endian words: byte i of the word is
// text[pos + i], so the first byte is the least significant.

constexpr uint64_t kOnes = 0x0101010101010101ull;
constexpr uint64_t kHighBits = 0x8080808080808080ull;

uint64_t Load8(const char* p) {
  uint64_t word = 0;
  std::memcpy(&word, p, sizeof(word));
  if constexpr (std::endian::native == std::endian::big) {
    word = __builtin_bswap64(word);
  }
  return word;
}

/// The high bit of every byte of `word` that is not an ASCII digit. With
/// the high bit cleared first, no byte's add carries into its neighbour.
uint64_t NonDigitBytes(uint64_t word) {
  const uint64_t offset = word ^ (0x30 * kOnes);  // digits -> 0..9
  return (((offset & ~kHighBits) + (0x76 * kOnes)) | offset) & kHighBits;
}

/// The value of eight digit values (bytes 0..9, most significant first):
/// pairs, then quads, then the eight, in three multiplies (Langdale &
/// Lemire, "Parsing Gigabytes of JSON per Second").
uint64_t EightDigits(uint64_t digits) {
  constexpr uint64_t kMask = 0x000000FF000000FFull;
  constexpr uint64_t kMul1 = 100 + (1000000ull << 32);
  constexpr uint64_t kMul2 = 1 + (10000ull << 32);
  digits = digits * 10 + (digits >> 8);
  return ((digits & kMask) * kMul1 + ((digits >> 16) & kMask) * kMul2) >> 32;
}

constexpr uint64_t kPow10[9] = {1,      10,      100,      1000,     10000,
                                100000, 1000000, 10000000, 100000000};

/// Whether a run of decimal digits names a value <= 2^64-1. Every run of
/// at most 19 digits does, so the scan asks only about longer ones.
bool DigitsFit(std::string_view digits) {
  constexpr std::string_view kMax = "18446744073709551615";
  const size_t first = digits.find_first_not_of('0');
  if (first == std::string_view::npos) return true;
  digits.remove_prefix(first);
  return digits.size() < kMax.size() ||
         (digits.size() == kMax.size() && digits <= kMax);
}

/// Reads the token that starts at text[pos], a non-blank byte, as a
/// decimal uint64 in one pass, and returns the token's end. Digits convert
/// eight at a time while eight bytes remain, and the byte that stops a
/// word's digit run is the token's end unless it is a non-blank. A token
/// is kNotNumeric at its first non-digit, unless the digits before it
/// already exceed 2^64-1 (kOutOfRange); `*value` is left alone unless the
/// token is all digits.
size_t ScanKey(std::string_view text, size_t pos, uint64_t* value,
               NumberParse* parse) {
  const char* s = text.data();
  const size_t n = text.size();
  const size_t begin = pos;
  uint64_t v = 0;  // mod 2^64; exact while at most 19 digits are read
  while (n - pos >= 8) {
    const uint64_t word = Load8(s + pos);
    const uint64_t stops = NonDigitBytes(word);
    const uint64_t digits = word - 0x30 * kOnes;
    if (stops == 0) {
      v = v * kPow10[8] + EightDigits(digits);
      pos += 8;
      continue;
    }
    // Borrows of the subtraction run towards the later bytes, past the
    // digits kept here; the shift pads with leading zero digits.
    const int k = std::countr_zero(stops) / 8;
    if (k > 0) v = v * kPow10[k] + EightDigits(digits << (64 - 8 * k));
    pos += k;
    break;
  }
  if (n - pos < 8) {
    while (pos < n && static_cast<unsigned char>(s[pos] - '0') < 10) {
      v = v * 10 + static_cast<uint64_t>(s[pos] - '0');
      ++pos;
    }
  }
  const std::string_view digits(s + begin, pos - begin);
  const bool fits = digits.size() <= 19 || DigitsFit(digits);
  if (pos == n || IsBlank(s[pos])) {
    *parse = fits ? NumberParse::kOk : NumberParse::kOutOfRange;
    *value = v;
    return pos;
  }
  *parse = fits ? NumberParse::kNotNumeric : NumberParse::kOutOfRange;
  while (pos < n && !IsBlank(s[pos])) ++pos;
  return pos;
}

/// ScanKey over a whole token.
NumberParse ParseU64(std::string_view token, uint64_t* out) {
  NumberParse parse = NumberParse::kNotNumeric;
  if (!token.empty()) ScanKey(token, 0, out, &parse);
  return parse;
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
  first_non_numeric = 0;
  max_key = lo = hi = 0;
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
      // error, with a message distinct from a malformed statement. Each
      // key is read once, by ScanKey, which finds its end and its value
      // together.
      const size_t n = text.size();
      size_t pos = tokens.pos();
      size_t non_numeric = SIZE_MAX;
      for (;;) {
        while (pos < n && IsBlank(text[pos])) ++pos;
        if (pos == n) break;
        uint64_t key = 0;
        NumberParse parse = NumberParse::kOk;
        const size_t end = ScanKey(text, pos, &key, &parse);
        const std::string_view token(text.data() + pos, end - pos);
        if (parse == NumberParse::kOutOfRange) {
          return Fail(error, OutOfRangeMessage(token));
        }
        if (parse == NumberParse::kNotNumeric) {
          non_numeric = std::min(non_numeric, keys.size());
        }
        max_key = std::max(max_key, key);
        key_tokens.push_back(token);
        keys.push_back(key);
        pos = end;
      }
      first_non_numeric = std::min(non_numeric, keys.size());
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
