#ifndef CSSIDX_SERVE_SERVER_H_
#define CSSIDX_SERVE_SERVER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "core/index_spec.h"
#include "core/maintained_index.h"
#include "domain/domain.h"
#include "serve/statement.h"
#include "serve/update_queue.h"

// The serving layer's front end: a long-lived Server owning key-column
// tables (each a MaintainedIndex — the paper's sort-index representation,
// where position i IS the record identifier), one writer thread draining
// the bounded UpdateQueue, and N Sessions executing statements.
//
// The concurrency contract, end to end:
//   - Every read statement resolves against ONE snapshot per table it
//     touches, so its results are consistent-as-of that version —
//     reported back as the result's sequence number. Readers never block
//     on maintenance.
//   - Every table, string tables included, publishes one way: the
//     MaintainedIndex's pointer swap, then a bump (release) of its
//     publish epoch, which sits on a cache line of its own. A string
//     table's version carries the dictionary its IDs were encoded with,
//     so one swap publishes both and no reader can pair a dictionary
//     with another version's IDs. A Session keeps one cached pin per
//     table it has read: the epoch it pinned at and the owning pointer.
//     A read does one acquire load of the epoch and re-pins (a short
//     mutex-guarded pointer copy) only when it has moved, so a statement
//     sees the latest version published before its load. Between
//     publishes a read takes no lock and writes no cache line another
//     Session touches (with Options::collect_stats off: the stats
//     collector is one shared set of counters per table).
//   - The cost of that: an idle Session keeps at most one old version
//     alive per table it has read, until its next statement on that
//     table or its destruction.
//   - Writes (INSERT/DELETE) enqueue and return; the single writer
//     drains the whole backlog per cycle, coalesces adjacent batches for
//     the same table into one sorted batch, and publishes one refreshed
//     version per table per cycle — shard-incremental for "part:K/"
//     specs. Under pressure the backlog grows and the coalesced batch
//     with it, so published versions per enqueued batch drops: rebuild
//     cost amortizes exactly when the system falls behind.
//   - Each published version equals the serial application of an exact
//     prefix of the accepted batches (the optional journal records which
//     prefix, for differential tests).

namespace cssidx::serve {

class Session;

/// Writer-thread counters. Snapshot via Server::writer_stats() (copied
/// under a lock the writer takes once per drain cycle).
struct ServerStats {
  uint64_t drain_cycles = 0;      // DrainAll wakeups that found work
  uint64_t batches_applied = 0;   // accepted batches consumed from queue
  uint64_t groups_published = 0;  // versions published (rebuild count)
  uint64_t keys_inserted = 0;     // insert keys applied
  uint64_t keys_deleted = 0;      // delete keys applied (post-coalesce)
};

/// Journal entry (Options::journal): one publish. After it, table `table`
/// is at version `sequence`, and its state equals the initial keys plus
/// every batch journaled for it so far, applied in order.
/// Read only after Stop() — the join synchronizes.
struct AppliedGroup {
  uint32_t table = 0;
  uint64_t sequence = 0;
  /// What the publish applied: the coalesced batches in arrival order, in
  /// the table's value type (4-byte keys, 8-byte keys, string values) —
  /// or, for a spec hot-swap (ADVISE ... APPLY), the spec the unchanged
  /// keys were rebuilt onto. Differential replays skip swaps (state is
  /// invariant), but they witness that exactly one publish happened per
  /// swap.
  std::variant<std::vector<workload::UpdateBatch>,
               std::vector<workload::UpdateBatch64>,
               std::vector<StringUpdateBatch>, IndexSpec>
      applied;
};

/// Result of one statement. `version` is the snapshot sequence the reads
/// resolved against (JOIN reports the inner table as `version2`).
enum class StatementStatus {
  kOk,
  kParseError,    // error holds the message; see StatementGrammarHelp()
  kUnknownTable,  // error names the missing table
  kRejected,      // write bounced off a full queue (Admission::kReject)
  kClosed,        // write arrived after Stop()
  kBadKey,        // key doesn't fit the table: out of the table's width
                  // (distinct out-of-range message) or non-numeric on an
                  // integer table; error says which key and why
  kUnsupported,   // ADVISE without collect_stats, or APPLY without
                  // allow_spec_swap; error names the missing option
};

struct StatementResult {
  StatementStatus status = StatementStatus::kOk;
  std::string error;
  uint64_t version = 0;
  uint64_t version2 = 0;             // JOIN: inner table's snapshot
  std::vector<int64_t> positions;    // FIND: per-key, -1 = absent
  std::vector<size_t> counts;        // COUNT: per-key multiplicities
  size_t range_begin = 0, range_end = 0;  // RANGE: position span
  uint64_t count = 0;  // COUNT total / RANGE size / JOIN cardinality
  std::string advice;           // ADVISE: the advisor's rationale line
  std::string recommended_spec; // ADVISE: winning spec, string form
  bool applied = false;         // ADVISE APPLY: hot-swap enqueued

  bool ok() const { return status == StatementStatus::kOk; }
};

class Server {
 public:
  struct Options {
    size_t queue_capacity = 64;
    Admission admission = Admission::kBlock;
    /// Record every coalesced application for differential replay.
    bool journal = false;
    /// Attach a ProbeStatsCollector to every table, feeding ADVISE.
    bool collect_stats = false;
    /// Let ADVISE ... APPLY hot-swap a table's spec through the writer
    /// thread (one publish, readers never block). Off by default: a
    /// swap changes performance shape under live traffic.
    bool allow_spec_swap = false;
    /// Space budget handed to the advisor (index bytes beyond the
    /// sorted keys); 0 = unlimited.
    uint64_t advise_space_budget_bytes = 0;
  };

  Server();  // default Options
  explicit Server(const Options& options);
  ~Server();  // Stop()s if still running

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Registers a key-column table and returns its id. Keys may come in
  /// any order: the load checks their order in one pass and sorts only
  /// when the check fails, so keys already in ascending order load in
  /// O(n) — one pass plus the index build. The table set is immutable
  /// once Start() is called — that is what lets sessions resolve names
  /// lock-free. Throws std::logic_error after Start,
  /// std::invalid_argument for off-menu specs or duplicate names.
  uint32_t CreateTable(const std::string& name, std::vector<uint32_t> keys,
                       const IndexSpec& spec = IndexSpec());

  /// 8-byte-key table (§5's key-width parameter through the full serving
  /// stack). The spec's key width is forced to 8, so "css:16" and
  /// "css64:16" both mean the same wide-key tree here.
  uint32_t CreateTable64(const std::string& name, std::vector<uint64_t> keys,
                         const IndexSpec& spec = IndexSpec());

  /// String-keyed table (§2.1): the values feed an order-preserving
  /// StringDomain, the key column stores 4-byte domain IDs, and the index
  /// is built over the IDs — so statements probe on raw string tokens,
  /// range predicates map through LowerBoundId, and the index machinery
  /// never sees a string. `values` is the key column in any order
  /// (duplicates allowed; the domain stores each distinct value once). It
  /// is sorted in place only when out of order, and one run-length pass
  /// over the sorted values yields both the dictionary and the ID column,
  /// so values already in order load in O(n) string comparisons.
  uint32_t CreateStringTable(const std::string& name,
                             std::vector<std::string> values,
                             const IndexSpec& spec = IndexSpec());

  /// Launches the writer thread. Statements may be executed before Start
  /// — reads serve version 1, writes queue up — but nothing is applied
  /// until the writer runs.
  void Start();

  /// Closes the queue, lets the writer drain every accepted write, and
  /// joins it. Blocked producers wake with kClosed. Idempotent.
  void Stop();

  Session OpenSession();

  // Introspection (tests, bench, example).
  QueueStats queue_stats() const { return queue_.stats(); }
  ServerStats writer_stats() const;
  /// The journal (Options::journal). Call only after Stop().
  const std::vector<AppliedGroup>& applied_groups() const { return journal_; }
  /// Current snapshot of a table's index (by name; throws if unknown or
  /// 8-byte). A string table's version holds its IDs, and its payload()
  /// is the dictionary they were encoded with.
  std::shared_ptr<const MaintainedIndex::Version> TableSnapshot(
      const std::string& name) const;
  /// Current snapshot of an 8-byte table's index.
  std::shared_ptr<const MaintainedIndex64::Version> TableSnapshot64(
      const std::string& name) const;
  /// The dictionary of one TableSnapshot of a string table (throws
  /// otherwise): the version's payload, shared, so it stays valid after
  /// an insert of a new value publishes a grown one.
  std::shared_ptr<const domain::StringDomain> TableDomain(
      const std::string& name) const;
  const MaintenanceStats& TableMaintenanceStats(
      const std::string& name) const;
  /// Observed workload of a table (Options::collect_stats). Throws if
  /// stats were never enabled.
  WorkloadProfile TableWorkloadProfile(const std::string& name) const;
  /// The spec a table currently serves under. A hot-swap rewrites it on
  /// the writer thread, so read this before Start() or after Stop()
  /// (tests), or from the writer itself.
  const IndexSpec& TableSpec(const std::string& name) const;

 private:
  friend class Session;

  /// One Session's cached pin of one table (see the contract above).
  struct TablePin {
    uint64_t epoch = 0;  // publish epochs start at 1: 0 is "never pinned"
    std::shared_ptr<const void> version;  // owns the pinned Version
  };

  /// A table whose key type is KeyT: its maintained index, whose versions
  /// carry the dictionary when it is a string table (KeyT = 4-byte IDs).
  template <typename KeyT>
  struct Keyed {
    using Version = typename BasicMaintainedIndex<KeyT>::Version;

    std::unique_ptr<BasicMaintainedIndex<KeyT>> index;
    bool strings = false;

    /// One statement's view through a Session's cached pin: one acquire
    /// load of the publish epoch, and a Snapshot() only when it has
    /// moved. Returns the version and its dictionary (null unless a
    /// string table), valid until `pin` is next re-pinned.
    std::pair<const Version*, const domain::StringDomain*> Pin(
        TablePin& pin) const {
      const uint64_t epoch = index->PublishEpoch();
      if (epoch != pin.epoch) pin = TablePin{epoch, index->Snapshot()};
      const auto* version = static_cast<const Version*>(pin.version.get());
      return {version, static_cast<const domain::StringDomain*>(
                           version->payload().get())};
    }
  };

  /// The key type is decided once, by CreateTable*.
  using Table = std::variant<Keyed<Key>, Keyed<Key64>>;

  /// Shared tail of the CreateTable* family: validates, builds, registers.
  template <typename KeyT>
  uint32_t AddTable(const std::string& name, const IndexSpec& spec,
                    std::vector<KeyT> keys,
                    std::shared_ptr<const domain::StringDomain> dictionary);

  /// nullptr when the name is unknown. Safe lock-free: tables_ is
  /// immutable after Start().
  const Table* FindTable(std::string_view name) const;
  /// FindTable that throws std::out_of_range for an unknown name.
  const Table& GetTable(std::string_view name) const;

  void WriterLoop();
  /// Writer thread: one table's share of a drain cycle. Its data batches
  /// (of the table's value type) coalesce into one publish; then the last
  /// spec swap requested, if on the menu, publishes once more.
  template <typename ValueT, typename KeyT>
  void ApplyGroup(Keyed<KeyT>& table, uint32_t id,
                  std::vector<QueuedUpdate>& updates, ServerStats* delta);

  const Options options_;
  UpdateQueue queue_;
  std::vector<Table> tables_;
  std::map<std::string, uint32_t, std::less<>> table_ids_;
  std::thread writer_;
  bool started_ = false;

  mutable std::mutex stats_mu_;
  ServerStats stats_;
  std::vector<AppliedGroup> journal_;  // writer-appended; read after Stop
};

/// Per-client statement executor. Cheap to create, holds no locks; one
/// Session is for ONE thread (its stats, parsed statement and cached pins
/// are unsynchronized), but any number of Sessions run concurrently
/// against the same Server. Its cached pins keep at most one version per
/// table alive; destroying the Session releases them.
class Session {
 public:
  struct SessionStats {
    uint64_t statements = 0;
    uint64_t probes = 0;           // keys/bounds resolved by reads
    uint64_t writes_enqueued = 0;
    uint64_t writes_rejected = 0;  // includes kClosed
    uint64_t parse_errors = 0;
  };

  /// Parses and executes one statement against the server.
  StatementResult Execute(std::string_view text);

  const SessionStats& stats() const { return stats_; }

 private:
  friend class Server;
  explicit Session(Server* server) : server_(server) {}

  /// The verb executors, one template over the table's key type.
  template <typename KeyT>
  void ExecuteOn(const Statement& stmt, uint32_t id,
                 const Server::Keyed<KeyT>& table, StatementResult& result);
  /// Queues a write (or hot-swap); a refused push fails `result`.
  void Enqueue(QueuedUpdate update, StatementResult& result);
  /// Table `id`'s view for this statement, through its cached pin.
  template <typename KeyT>
  auto Pin(const Server::Keyed<KeyT>& table, uint32_t id) {
    if (id >= pins_.size()) pins_.resize(server_->tables_.size());
    return table.Pin(pins_[id]);
  }

  Server* server_;
  SessionStats stats_;
  Statement statement_;  // re-parsed in place by every Execute
  std::vector<Server::TablePin> pins_;  // by table id, grown on first use
  std::vector<Key> probe_keys_;  // a 4-byte table's FIND/COUNT keys
};

}  // namespace cssidx::serve

#endif  // CSSIDX_SERVE_SERVER_H_
