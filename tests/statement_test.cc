#include "serve/statement.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "util/rng.h"

// Differential tests of Statement::Parse against a reference parser: the
// plain two-pass tokenizer (find a token's end, then read its digits one
// at a time with an overflow check on each) that the one-pass key scan
// replaced. Every field and every error string must match, on boundary
// tables and on a seeded byte-mutation loop. Each text is parsed from an
// exact-size heap copy, so a sanitizer build reports any 8-byte load that
// reaches past the end of a statement.

namespace cssidx::serve {
namespace {

// ------------------------------------------------------- the reference

struct RefStatement {
  Verb verb = Verb::kFind;
  std::string_view table, table2;
  std::vector<std::string_view> key_tokens;
  std::vector<uint64_t> keys;
  std::vector<bool> keys_numeric;
  std::string_view lo_token, hi_token;
  uint64_t lo = 0, hi = 0;
  bool bounds_numeric = false;
  bool apply = false;
};

class RefTokens {
 public:
  explicit RefTokens(std::string_view text) : text_(text) {}

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

enum class RefNumber { kOk, kNotNumeric, kOutOfRange };

RefNumber RefParseU64(std::string_view token, uint64_t* out) {
  if (token.empty()) return RefNumber::kNotNumeric;
  uint64_t value = 0;
  for (char c : token) {
    if (c < '0' || c > '9') return RefNumber::kNotNumeric;
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (std::numeric_limits<uint64_t>::max() - digit) / 10) {
      return RefNumber::kOutOfRange;
    }
    value = value * 10 + digit;
  }
  *out = value;
  return RefNumber::kOk;
}

std::string RefOutOfRange(std::string_view token) {
  return "key '" + std::string(token) +
         "' out of range: exceeds 18446744073709551615 (2^64-1)";
}

/// Returns the error, or "" on success.
std::string RefParse(std::string_view text, RefStatement* st) {
  RefTokens tokens(text);
  const std::string_view verb_token = tokens.Next();
  if (verb_token.empty()) return "empty statement";
  static constexpr std::pair<std::string_view, Verb> kVerbs[] = {
      {"FIND", Verb::kFind},     {"COUNT", Verb::kCount},
      {"RANGE", Verb::kRange},   {"JOIN", Verb::kJoin},
      {"INSERT", Verb::kInsert}, {"DELETE", Verb::kDelete},
      {"ADVISE", Verb::kAdvise}};
  bool known = false;
  for (const auto& [name, value] : kVerbs) {
    if (verb_token == name) {
      st->verb = value;
      known = true;
    }
  }
  if (!known) return "unknown verb '" + std::string(verb_token) + "'";
  st->table = tokens.Next();
  if (st->table.empty()) return "missing table name";
  switch (st->verb) {
    case Verb::kAdvise: {
      const std::string_view option = tokens.Next();
      st->apply = option == "APPLY" && tokens.Next().empty();
      if (!option.empty() && !st->apply) {
        return "ADVISE takes a table name and an optional APPLY";
      }
      return "";
    }
    case Verb::kJoin:
      st->table2 = tokens.Next();
      if (st->table2.empty() || !tokens.Next().empty()) {
        return "JOIN takes exactly two table names";
      }
      return "";
    case Verb::kRange: {
      st->lo_token = tokens.Next();
      st->hi_token = tokens.Next();
      if (st->hi_token.empty() || !tokens.Next().empty()) {
        return "RANGE takes <lo> <hi>";
      }
      const RefNumber lo = RefParseU64(st->lo_token, &st->lo);
      const RefNumber hi = RefParseU64(st->hi_token, &st->hi);
      if (lo == RefNumber::kOutOfRange) return RefOutOfRange(st->lo_token);
      if (hi == RefNumber::kOutOfRange) return RefOutOfRange(st->hi_token);
      st->bounds_numeric = lo == RefNumber::kOk && hi == RefNumber::kOk;
      return "";
    }
    default: {
      for (std::string_view token = tokens.Next(); !token.empty();
           token = tokens.Next()) {
        uint64_t key = 0;
        const RefNumber parse = RefParseU64(token, &key);
        if (parse == RefNumber::kOutOfRange) return RefOutOfRange(token);
        st->key_tokens.push_back(token);
        st->keys.push_back(key);
        st->keys_numeric.push_back(parse == RefNumber::kOk);
      }
      if (st->key_tokens.empty()) return "expected at least one key";
      return "";
    }
  }
}

// ------------------------------------------------------- the comparison

/// `text` copied into a heap block of exactly its size: no terminator and
/// no slack a load past the end could read unnoticed.
class ExactText {
 public:
  explicit ExactText(std::string_view text)
      : bytes_(new char[text.size()]), size_(text.size()) {
    if (size_ > 0) std::memcpy(bytes_.get(), text.data(), size_);
  }
  std::string_view view() const { return {bytes_.get(), size_}; }

 private:
  std::unique_ptr<char[]> bytes_;
  size_t size_;
};

std::string Printable(std::string_view text) {
  std::string out;
  for (unsigned char c : text) {
    if (c >= 0x20 && c < 0x7F && c != '\\') {
      out += static_cast<char>(c);
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\x%02x", c);
      out += buf;
    }
  }
  return out;
}

/// Parses `text` into `reused` (as a Session does) and into the
/// reference, and checks that they agree on success, on the error, and on
/// every field of a parsed statement. Returns whether they agreed.
bool MatchesReference(std::string_view source, Statement& reused) {
  const ExactText exact(source);
  const std::string_view text = exact.view();
  RefStatement ref;
  const std::string ref_error = RefParse(text, &ref);
  std::string error;
  const bool ok = reused.Parse(text, &error);
  const std::string label = "text '" + Printable(text) + "'";
  EXPECT_EQ(ok, ref_error.empty()) << label << ": " << error;
  if (!ok || !ref_error.empty()) {
    EXPECT_EQ(error, ref_error) << label;
    return !ok && error == ref_error;
  }
  size_t first_non_numeric = ref.keys.size();
  uint64_t max_key = 0;
  for (size_t i = 0; i < ref.keys.size(); ++i) {
    if (!ref.keys_numeric[i]) {
      first_non_numeric = std::min(first_non_numeric, i);
    } else {
      max_key = std::max(max_key, ref.keys[i]);
    }
  }
  const bool same =
      reused.verb == ref.verb && reused.table == ref.table &&
      reused.table2 == ref.table2 && reused.key_tokens == ref.key_tokens &&
      reused.keys == ref.keys &&
      reused.first_non_numeric == first_non_numeric &&
      reused.max_key == max_key && reused.lo_token == ref.lo_token &&
      reused.hi_token == ref.hi_token && reused.lo == ref.lo &&
      reused.hi == ref.hi && reused.bounds_numeric == ref.bounds_numeric &&
      reused.apply == ref.apply;
  EXPECT_TRUE(same) << label;
  // Every token views the parsed text itself.
  for (std::string_view token : reused.key_tokens) {
    EXPECT_TRUE(token.data() >= text.data() &&
                token.data() + token.size() <= text.data() + text.size())
        << label;
  }
  // A fresh statement parses the same as the reused one.
  const std::optional<Statement> fresh = ParseStatement(text);
  EXPECT_TRUE(fresh.has_value() && fresh->keys == reused.keys &&
              fresh->first_non_numeric == reused.first_non_numeric &&
              fresh->max_key == reused.max_key)
      << label;
  return same;
}

// ------------------------------------------------------- the corpus

constexpr std::string_view kKeyVerbs[] = {"FIND", "COUNT", "INSERT",
                                          "DELETE"};

/// Bytes at and around the edges of the digit range and of the blanks.
constexpr char kEdgeBytes[] = {'/',  ':',    '\t',   '\n',   '\0', ' ',
                               '0',  '9',    'a',    '-',    '\x80',
                               '\xb9', '\xff', '\x1f', '\x0b'};

/// Digit tokens of 1-25 digits in several shapes, and the values at the
/// edge of uint64.
std::vector<std::string> DigitTokens() {
  std::vector<std::string> tokens = {
      "18446744073709551615",   // 2^64 - 1
      "18446744073709551616",   // 2^64
      "10000000000000000000",   // 10^19
      "9999999999999999999",    // the largest 19 digits
      "99999999999999999999",   // 20 nines
      "18446744073709551610",   "28446744073709551615",
      "000018446744073709551615", "000018446744073709551616",
      "0000000000000000000000001", "0", "00", "4294967295", "4294967296",
  };
  for (size_t len = 1; len <= 25; ++len) {
    tokens.push_back(std::string(len, '9'));
    tokens.push_back("1" + std::string(len - 1, '0'));
    tokens.push_back(std::string(len - 1, '0') + "7");
    std::string mixed;
    for (size_t i = 0; i < len; ++i) mixed += static_cast<char>('1' + i % 9);
    tokens.push_back(mixed);
  }
  return tokens;
}

/// Statements that place `token` at every offset modulo 8, in each key
/// position a verb has, ending the text or followed by more.
std::vector<std::string> Placements(const std::string& token) {
  std::vector<std::string> texts;
  for (int pad = 1; pad <= 8; ++pad) {
    const std::string gap(pad, ' ');
    for (std::string_view verb : kKeyVerbs) {
      const std::string head = std::string(verb) + " t" + gap;
      texts.push_back(head + token);
      texts.push_back(head + token + " 1");
      texts.push_back(head + "12" + gap + token + "\t5 x");
      texts.push_back(head + "ab " + token + " ");
    }
    texts.push_back("RANGE t" + gap + token + " 5");
    texts.push_back("RANGE t 5" + gap + token);
    texts.push_back("RANGE t" + gap + token + " " + token);
  }
  return texts;
}

std::vector<std::string> Corpus() {
  std::vector<std::string> texts;
  for (const std::string& token : DigitTokens()) {
    for (std::string& text : Placements(token)) texts.push_back(text);
    // An edge byte before, inside or after the digits.
    for (char edge : kEdgeBytes) {
      for (size_t at = 0; at <= token.size(); at += 3) {
        std::string edged = token;
        edged.insert(at, 1, edge);
        texts.push_back("FIND t " + edged);
        texts.push_back("DELETE t 1 " + edged + " 2");
        texts.push_back("RANGE t " + edged + " 9");
      }
      texts.push_back("COUNT t " + token + std::string(1, edge));
    }
  }
  const std::vector<std::string> others = {
      "", " ", "\t\t", "FIND", "FIND t", "FIND t ", "SELECT t 1", "find t 1",
      "RANGE t 1", "RANGE t 1 2 3", "RANGE t a b", "RANGE t 99999999999999999999x 1",
      "JOIN a", "JOIN a b", "JOIN a b c", "ADVISE t", "ADVISE t APPLY",
      "ADVISE t APPLY NOW", "ADVISE t apply", "FIND t alpha -1 +1 1e5",
      "INSERT s v0000012345 v0000012346\tv0000012347",
      "FIND t 1\n2", std::string("FIND t 1\0 2", 11),
      "FIND t 12345678 123456789 1234567 12345678901234567",
      "FIND t 99999999999999999999abc", "FIND t abc99999999999999999999",
      "FIND t 12345678abcdefgh 12345678", "COUNT t 0000000000000000000000000",
  };
  texts.insert(texts.end(), others.begin(), others.end());
  return texts;
}

TEST(StatementParse, MatchesReferenceOnBoundaryTable) {
  Statement reused;
  size_t mismatches = 0;
  const std::vector<std::string> corpus = Corpus();
  for (const std::string& text : corpus) {
    mismatches += !MatchesReference(text, reused);
    if (mismatches > 20) break;  // the first few name the fault
  }
  EXPECT_EQ(mismatches, 0u) << "of " << corpus.size() << " texts";
}

TEST(StatementParse, EdgeValuesReadExactly) {
  Statement st;
  ASSERT_TRUE(st.Parse("FIND t 18446744073709551615 0 007 10000000000000000000"));
  EXPECT_EQ(st.keys, (std::vector<uint64_t>{18446744073709551615ull, 0, 7,
                                            10000000000000000000ull}));
  EXPECT_EQ(st.max_key, 18446744073709551615ull);
  EXPECT_EQ(st.first_non_numeric, 4u);

  std::string error;
  EXPECT_FALSE(st.Parse("FIND t 18446744073709551616", &error));
  EXPECT_EQ(error,
            "key '18446744073709551616' out of range: exceeds "
            "18446744073709551615 (2^64-1)");
  ASSERT_TRUE(st.Parse("FIND t 0000000018446744073709551615"));
  EXPECT_EQ(st.keys[0], 18446744073709551615ull);

  // A non-numeric key after numeric ones; the reused statement forgets
  // the earlier parse's facts.
  ASSERT_TRUE(st.Parse("COUNT t 5 x 9"));
  EXPECT_EQ(st.first_non_numeric, 1u);
  EXPECT_EQ(st.max_key, 9u);
  EXPECT_EQ(st.keys, (std::vector<uint64_t>{5, 0, 9}));
  ASSERT_TRUE(st.Parse("RANGE t 3 4"));
  EXPECT_TRUE(st.keys.empty());
  EXPECT_EQ(st.max_key, 0u);
}

/// One random edit of `text`: overwrite, insert or delete a byte, copy a
/// slice elsewhere, or cut the tail.
void Mutate(Pcg32& rng, std::string& text) {
  static constexpr std::string_view kAlphabet = "0123456789  \t/:a9";
  const auto pick_byte = [&]() -> char {
    switch (rng.Below(3)) {
      case 0:
        return kEdgeBytes[rng.Below(sizeof(kEdgeBytes))];
      case 1:
        return kAlphabet[rng.Below(kAlphabet.size())];
      default:
        return static_cast<char>(rng.Below(256));
    }
  };
  const auto at = [&](size_t extra) {
    return static_cast<size_t>(rng.Below(static_cast<uint32_t>(text.size() + extra)));
  };
  switch (text.empty() ? 1 : rng.Below(5)) {
    case 0:
      text[at(0)] = pick_byte();
      return;
    case 1:
      text.insert(at(1), 1, pick_byte());
      return;
    case 2:
      text.erase(at(0), 1);
      return;
    case 3: {
      const size_t from = at(0);
      const size_t len = 1 + rng.Below(12);
      text.insert(at(1), text.substr(from, len));
      return;
    }
    default:
      text.resize(at(0));
      return;
  }
}

TEST(StatementParse, MatchesReferenceUnderByteMutation) {
  Pcg32 rng(20191902);
  const std::vector<std::string> corpus = Corpus();
  Statement reused;
  size_t mismatches = 0;
  constexpr int kRounds = 60000;
  for (int round = 0; round < kRounds && mismatches <= 20; ++round) {
    std::string text = corpus[rng.Below(static_cast<uint32_t>(corpus.size()))];
    const uint32_t edits = 1 + rng.Below(4);
    for (uint32_t e = 0; e < edits; ++e) Mutate(rng, text);
    mismatches += !MatchesReference(text, reused);
  }
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
}  // namespace cssidx::serve
