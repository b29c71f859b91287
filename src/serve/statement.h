#ifndef CSSIDX_SERVE_STATEMENT_H_
#define CSSIDX_SERVE_STATEMENT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

// The serving layer's statement surface: one executor per verb, in the
// spirit of SimpleRA's per-verb executor architecture, shrunk to the six
// verbs a read-mostly index server needs. Statements are a flat token
// grammar — verb, table name(s), key operands — because the point of
// this layer is the concurrency contract (each statement resolves against
// ONE snapshot), not query planning.
//
//   FIND   <table> <key>...         positions of each key (kNotFound = -1)
//   COUNT  <table> <key>...         per-key multiplicities + total
//   RANGE  <table> <lo> <hi>        count + position span of [lo, hi)
//   JOIN   <outer> <inner>          equi-join pair cardinality
//   INSERT <table> <key>...         enqueue an insert batch
//   DELETE <table> <key>...         enqueue a delete batch (every copy)
//   ADVISE <table> [APPLY]          advisor recommendation for the table;
//                                   APPLY enqueues the hot-swap (flagged)
//
// Key operands are width-agnostic at parse time: the grammar does not
// know whether a table holds 4-byte keys, 8-byte keys, or strings (the
// §2.1 domain-dictionary path), so every operand is kept as its raw
// token AND, when the token is a decimal number, as a parsed uint64.
// The only parse-time key error is a digit string exceeding 2^64-1 —
// reported with a distinct out-of-range message, never a generic "bad
// key". Width checks against a table narrower than the parsed value
// (e.g. 2^32 sent to a 32-bit table) happen at execute time, again with
// a distinct out-of-range message.

namespace cssidx::serve {

enum class Verb { kFind, kCount, kRange, kJoin, kInsert, kDelete, kAdvise };

/// One parsed statement. Every text field is a view into the text it was
/// parsed from: a Statement is valid only while that text lives and stays
/// unchanged. A Session owns one and re-parses into it for every
/// statement, so its vectors keep their capacity and a read statement
/// allocates nothing per key.
struct Statement {
  Verb verb = Verb::kFind;
  std::string_view table;   // first table operand
  std::string_view table2;  // JOIN only: the inner table
  // FIND/COUNT/INSERT/DELETE operands, raw. String tables probe on the
  // token itself; numeric tables use the parsed form below.
  std::vector<std::string_view> key_tokens;
  // keys[i] is key_tokens[i] parsed as decimal uint64 when that token is a
  // decimal number; 0 (and not meaningful) otherwise.
  std::vector<uint64_t> keys;
  // The typing facts an integer table checks at execute time, recorded
  // by the parse so that check is O(1): the index of the first key that
  // is not a decimal number (keys.size() when every key is one), and the
  // largest parsed value (0 when none parsed).
  size_t first_non_numeric = 0;
  uint64_t max_key = 0;
  std::string_view lo_token, hi_token;  // RANGE only, raw
  uint64_t lo = 0, hi = 0;  // parsed forms, valid iff bounds_numeric
  bool bounds_numeric = false;
  bool apply = false;  // ADVISE only: enqueue the recommended hot-swap

  /// Parses `text` into this statement in place. A key list is read in
  /// one pass: each key's bytes are scanned and converted together, eight
  /// at a time where eight remain. Returns false on malformed input and,
  /// when `error` is non-null, sets it to a one-line description of what
  /// went wrong; the fields are then unspecified.
  bool Parse(std::string_view text, std::string* error = nullptr);
};

/// Parses one statement into a fresh Statement (which views `text`).
/// Returns nullopt on malformed input, with the error as in Parse.
std::optional<Statement> ParseStatement(std::string_view text,
                                        std::string* error = nullptr);

/// The grammar, one verb per line — what a client sees on a parse error.
const char* StatementGrammarHelp();

}  // namespace cssidx::serve

#endif  // CSSIDX_SERVE_STATEMENT_H_
