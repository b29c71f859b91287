#include "serve/server.h"

#include <algorithm>
#include <limits>
#include <span>
#include <type_traits>
#include <utility>

#include "advisor/advisor.h"

// Session: the statement executors. One template over the table's key
// type serves every table; a string table differs only by the dictionary
// its snapshot carries, which turns tokens into IDs on the way in.

namespace cssidx::serve {
namespace {

void Fail(StatementResult& result, StatementStatus status,
          std::string message) {
  result.status = status;
  result.error = std::move(message);
}

/// Types a statement's numeric operands against a KeyT table, storing
/// them narrowed into `out` when it is non-null. Key typing happens here,
/// at execute time, against the table the statement names — the grammar
/// is width-agnostic — with one message per failure mode: non-numeric
/// key on an integer table vs. a number past the table's width. The
/// parse's typing facts settle a statement that types in O(1); only a
/// failing one walks its keys, to name the first key that fails.
template <typename KeyT>
bool TypeKeys(const Statement& stmt, KeyT* out, StatementResult& result) {
  constexpr uint64_t kMax = std::numeric_limits<KeyT>::max();
  const size_t n = stmt.keys.size();
  if (stmt.first_non_numeric == n && stmt.max_key <= kMax) {
    if (out != nullptr) std::copy(stmt.keys.begin(), stmt.keys.end(), out);
    return true;
  }
  // Keys before the first non-numeric one are all parsed values.
  const size_t i = static_cast<size_t>(
      std::find_if(stmt.keys.begin(),
                   stmt.keys.begin() + stmt.first_non_numeric,
                   [](uint64_t key) { return key > kMax; }) -
      stmt.keys.begin());
  const std::string token(stmt.key_tokens[i]);
  if (i == stmt.first_non_numeric) {
    Fail(result, StatementStatus::kBadKey,
         "bad key '" + token + "': table '" + std::string(stmt.table) +
             "' holds integer keys");
  } else {
    Fail(result, StatementStatus::kBadKey,
         "key '" + token + "' out of range for " +
             std::to_string(8 * sizeof(KeyT)) + "-bit table '" +
             std::string(stmt.table) + "' (max " + std::to_string(kMax) + ")");
  }
  return false;
}

/// A FIND/COUNT's operands as KeyT keys (`result` set if one doesn't fit):
/// 8-byte keys in place, 4-byte keys narrowed into `scratch`, a string
/// table's raw tokens encoded into `scratch` (kAbsentId if unseen).
/// String tables hold 4-byte IDs, so an 8-byte table has no dictionary.
template <typename KeyT>
std::span<const KeyT> ProbeKeys(const Statement& stmt,
                                const domain::StringDomain* dictionary,
                                std::vector<Key>& scratch,
                                StatementResult& result) {
  if constexpr (std::is_same_v<KeyT, uint64_t>) {  // the parsed width
    TypeKeys<KeyT>(stmt, nullptr, result);
    return stmt.keys;
  } else {
    scratch.resize(stmt.key_tokens.size());
    if (dictionary == nullptr) {
      TypeKeys(stmt, scratch.data(), result);
      return scratch;
    }
    dictionary->EncodeBatch(stmt.key_tokens, scratch);
    return scratch;
  }
}

}  // namespace

StatementResult Session::Execute(std::string_view text) {
  ++stats_.statements;
  // One result, filled in place by whichever path runs: no copy or move
  // of it on the way out.
  StatementResult result;
  std::string error;
  if (!statement_.Parse(text, &error)) {
    ++stats_.parse_errors;
    Fail(result, StatementStatus::kParseError, std::move(error));
  } else if (const Server::Table* table =
                 server_->FindTable(statement_.table)) {
    const auto id = static_cast<uint32_t>(table - server_->tables_.data());
    // The one per-statement dispatch: the table's key type picks the
    // executor; nothing below branches per key.
    std::visit(
        [&](const auto& keyed) { ExecuteOn(statement_, id, keyed, result); },
        *table);
  } else {
    Fail(result, StatementStatus::kUnknownTable,
         "unknown table " + std::string(statement_.table));
  }
  return result;
}

template <typename KeyT>
void Session::ExecuteOn(const Statement& stmt, uint32_t id,
                        const Server::Keyed<KeyT>& table,
                        StatementResult& result) {
  switch (stmt.verb) {
    case Verb::kFind:
    case Verb::kCount: {
      const auto [version, dictionary] = Pin(table, id);
      const auto keys = ProbeKeys<KeyT>(stmt, dictionary, probe_keys_, result);
      if (!result.ok()) return;
      if (stmt.verb == Verb::kFind) {
        result.positions.resize(keys.size());
        version->index().FindBatch(keys, result.positions);
      } else {
        result.counts.resize(keys.size());
        version->index().CountEqualBatch(keys, result.counts);
        for (size_t c : result.counts) result.count += c;
      }
      result.version = version->sequence();
      stats_.probes += keys.size();
      return;
    }
    case Verb::kRange: {
      const auto [version, dictionary] = Pin(table, id);
      // The bounds as ordered images: the parsed values, or on a string
      // table the ID image of the value range (§2.1: IDs are
      // order-preserving), so bounds need not be in the dictionary. The
      // range is empty when the bounds themselves are out of order; bounds
      // whose images coincide still report the position they share.
      uint64_t lo = stmt.lo, hi = stmt.hi;
      bool ordered = hi > lo;
      if (dictionary != nullptr) {
        lo = dictionary->LowerBoundId(stmt.lo_token);
        hi = dictionary->LowerBoundId(stmt.hi_token);
        ordered = stmt.hi_token > stmt.lo_token;
      } else if (!stmt.bounds_numeric) {
        return Fail(result, StatementStatus::kBadKey,
                    "bad bounds '" + std::string(stmt.lo_token) + "' '" +
                        std::string(stmt.hi_token) + "': table '" +
                        std::string(stmt.table) + "' holds integer keys");
      }
      // A bound past the table's max key clamps to end-of-array, so
      // "RANGE t 0 4294967296" covers a whole 32-bit table.
      const auto position = [&](uint64_t bound) {
        return bound > std::numeric_limits<KeyT>::max()
                   ? version->size()
                   : version->LowerBound(static_cast<KeyT>(bound));
      };
      if (ordered) {
        result.range_begin = position(lo);
        result.range_end = position(hi);
        result.count = result.range_end - result.range_begin;
      }
      result.version = version->sequence();
      stats_.probes += 2;
      return;
    }
    case Verb::kJoin: {
      const Server::Table* inner_table = server_->FindTable(stmt.table2);
      if (inner_table == nullptr) {
        return Fail(result, StatementStatus::kUnknownTable,
                    "unknown table " + std::string(stmt.table2));
      }
      const auto* inner = std::get_if<Server::Keyed<KeyT>>(inner_table);
      if (inner == nullptr || inner->strings != table.strings) {
        return Fail(result, StatementStatus::kBadKey,
                    "JOIN requires both tables to hold the same key type: '" +
                        std::string(stmt.table) + "' and '" +
                        std::string(stmt.table2) + "' differ");
      }
      // Both sides pinned to one snapshot each; the outer's sorted keys
      // stream, segment by segment, through the inner's CountEqualBatch a
      // block at a time, so the pair cardinality is consistent-as-of
      // (version, version2). Two string tables have two dictionaries, so
      // outer IDs are translated into the inner's ID space first. A
      // self-join pins once: both sides share one cached pin, which a
      // second Pin could replace.
      const auto inner_id =
          static_cast<uint32_t>(inner_table - server_->tables_.data());
      const auto [outer, outer_dictionary] = Pin(table, id);
      const auto [probed, inner_dictionary] =
          inner_id == id ? std::pair(outer, outer_dictionary)
                         : Pin(*inner, inner_id);
      std::vector<uint32_t> translate;
      if (outer_dictionary != nullptr) {
        translate = domain::TranslateIds(*outer_dictionary, *inner_dictionary);
      }
      constexpr size_t kBlock = 4096;
      std::vector<size_t> counts(std::min(outer->size(), kBlock));
      std::vector<KeyT> translated(outer_dictionary ? counts.size() : 0);
      for (std::span<const KeyT> segment : outer->Segments()) {
        for (size_t base = 0; base < segment.size(); base += kBlock) {
          std::span<const KeyT> probes =
              segment.subspan(base, std::min(segment.size() - base, kBlock));
          if (outer_dictionary != nullptr) {
            for (size_t i = 0; i < probes.size(); ++i) {
              translated[i] = translate[probes[i]];
            }
            probes = std::span<const KeyT>(translated.data(), probes.size());
          }
          const std::span<size_t> block(counts.data(), probes.size());
          probed->index().CountEqualBatch(probes, block);
          for (size_t c : block) result.count += c;
        }
      }
      result.version = outer->sequence();
      result.version2 = probed->sequence();
      stats_.probes += outer->size();
      return;
    }
    case Verb::kAdvise: {
      // The profile lives on the table's collector (string tables advise
      // on their ID index — same probes, same mix). Model-only here: the
      // writer, not the session, pays any rebuild.
      const auto& collector = table.index->stats_collector();
      if (!collector) {
        return Fail(
            result, StatementStatus::kUnsupported,
            "ADVISE needs stats collection (Server::Options::collect_stats)");
      }
      const advisor::AdvisorOptions opts{
          .space_budget_bytes = server_->options_.advise_space_budget_bytes,
          .key_width = static_cast<int>(sizeof(KeyT))};
      const auto* version = Pin(table, id).first;
      advisor::Recommendation rec =
          advisor::Advise(collector->Profile(), version->size(), opts);
      if (!rec.ok) {
        return Fail(result, StatementStatus::kUnsupported, rec.error);
      }
      result.version = version->sequence();
      result.advice = rec.rationale;
      result.recommended_spec = rec.spec.ToString();
      if (!stmt.apply) return;
      if (!server_->options_.allow_spec_swap) {
        return Fail(result, StatementStatus::kUnsupported,
                    "ADVISE APPLY needs Server::Options::allow_spec_swap");
      }
      Enqueue(QueuedUpdate{id, rec.spec}, result);
      result.applied = result.ok();
      return;
    }
    case Verb::kInsert:
    case Verb::kDelete: {
      QueuedUpdate update{id, {}};
      const bool insert = stmt.verb == Verb::kInsert;
      if (table.strings) {
        StringUpdateBatch batch;
        (insert ? batch.inserts : batch.deletes)
            .assign(stmt.key_tokens.begin(), stmt.key_tokens.end());
        update.payload = std::move(batch);
      } else {
        workload::BasicUpdateBatch<KeyT> batch;
        std::vector<KeyT>& keys = insert ? batch.inserts : batch.deletes;
        keys.resize(stmt.keys.size());
        if (!TypeKeys(stmt, keys.data(), result)) return;
        update.payload = std::move(batch);
      }
      Enqueue(std::move(update), result);
      return;
    }
  }
}

void Session::Enqueue(QueuedUpdate update, StatementResult& result) {
  const UpdateQueue::PushResult pushed =
      server_->queue_.Push(std::move(update));
  if (pushed == UpdateQueue::PushResult::kOk) {
    ++stats_.writes_enqueued;
  } else if (pushed == UpdateQueue::PushResult::kRejected) {
    ++stats_.writes_rejected;
    Fail(result, StatementStatus::kRejected, "queue full");
  } else {
    ++stats_.writes_rejected;
    Fail(result, StatementStatus::kClosed, "server stopped");
  }
}

}  // namespace cssidx::serve
