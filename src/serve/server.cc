#include "serve/server.h"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string_view>
#include <type_traits>
#include <utility>

#include "util/sort.h"

namespace cssidx::serve {

Server::Server() : Server(Options()) {}

Server::Server(const Options& options)
    : options_(options),
      queue_(options.queue_capacity, options.admission) {}

Server::~Server() { Stop(); }

template <typename KeyT>
uint32_t Server::AddTable(
    const std::string& name, const IndexSpec& spec, std::vector<KeyT> keys,
    std::shared_ptr<const domain::StringDomain> dictionary) {
  if (started_) {
    throw std::logic_error("table " + name + " created after Start: the "
                           "table set is immutable once the server runs");
  }
  if (table_ids_.count(name) != 0) {
    throw std::invalid_argument("duplicate table name " + name);
  }
  SortUnlessOrdered(keys.begin(), keys.end());
  Keyed<KeyT> table;
  table.strings = dictionary != nullptr;
  table.index = std::make_unique<BasicMaintainedIndex<KeyT>>(
      spec, std::move(keys), std::move(dictionary));
  if (!table.index->ok()) {
    throw std::invalid_argument("index spec off the menu: " +
                                spec.ToString());
  }
  if (options_.collect_stats) table.index->EnableStats();
  const auto id = static_cast<uint32_t>(tables_.size());
  tables_.push_back(std::move(table));
  table_ids_[name] = id;
  return id;
}

uint32_t Server::CreateTable(const std::string& name,
                             std::vector<uint32_t> keys,
                             const IndexSpec& spec) {
  return AddTable(name, spec, std::move(keys), nullptr);
}

uint32_t Server::CreateTable64(const std::string& name,
                               std::vector<uint64_t> keys,
                               const IndexSpec& spec) {
  return AddTable(name, spec.WithKeyWidth(8), std::move(keys), nullptr);
}

uint32_t Server::CreateStringTable(const std::string& name,
                                   std::vector<std::string> values,
                                   const IndexSpec& spec) {
  // The dictionary stores each distinct value once; the key column keeps
  // every occurrence. A table's keys are stored sorted, so sorting the
  // values first makes the ID column each distinct value's ID repeated by
  // its multiplicity: one run-length pass yields both, with no copy of
  // the values and no dictionary search per cell.
  SortUnlessOrdered(values.begin(), values.end());
  std::vector<uint32_t> ids;
  auto dictionary = std::make_shared<const domain::StringDomain>(
      domain::StringDomain::FromSortedColumn(std::move(values), &ids));
  return AddTable(name, spec.WithKeyWidth(4), std::move(ids),
                  std::move(dictionary));
}

void Server::Start() {
  if (started_) throw std::logic_error("Server already started");
  started_ = true;
  writer_ = std::thread(&Server::WriterLoop, this);
}

void Server::Stop() {
  queue_.Close();
  if (writer_.joinable()) writer_.join();
}

Session Server::OpenSession() { return Session(this); }

ServerStats Server::writer_stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

std::shared_ptr<const MaintainedIndex::Version> Server::TableSnapshot(
    const std::string& name) const {
  const auto* table = std::get_if<Keyed<Key>>(&GetTable(name));
  if (table == nullptr) {
    throw std::out_of_range("table " + name +
                            " holds 8-byte keys; use TableSnapshot64");
  }
  return table->index->Snapshot();
}

std::shared_ptr<const MaintainedIndex64::Version> Server::TableSnapshot64(
    const std::string& name) const {
  const auto* table = std::get_if<Keyed<Key64>>(&GetTable(name));
  if (table == nullptr) {
    throw std::out_of_range("table " + name + " does not hold 8-byte keys");
  }
  return table->index->Snapshot();
}

std::shared_ptr<const domain::StringDomain> Server::TableDomain(
    const std::string& name) const {
  const auto* table = std::get_if<Keyed<Key>>(&GetTable(name));
  if (table == nullptr || !table->strings) {
    throw std::out_of_range("table " + name + " is not a string table");
  }
  return std::static_pointer_cast<const domain::StringDomain>(
      table->index->Snapshot()->payload());
}

const MaintenanceStats& Server::TableMaintenanceStats(
    const std::string& name) const {
  return std::visit([](const auto& t) -> auto& { return t.index->stats(); },
                    GetTable(name));
}

WorkloadProfile Server::TableWorkloadProfile(const std::string& name) const {
  const auto& collector = std::visit(
      [](const auto& t) -> auto& { return t.index->stats_collector(); },
      GetTable(name));
  if (!collector) {
    throw std::logic_error("stats not enabled for table " + name +
                           " (Server::Options::collect_stats)");
  }
  return collector->Profile();
}

const IndexSpec& Server::TableSpec(const std::string& name) const {
  return std::visit([](const auto& t) -> auto& { return t.index->spec(); },
                    GetTable(name));
}

const Server::Table* Server::FindTable(std::string_view name) const {
  auto it = table_ids_.find(name);
  return it == table_ids_.end() ? nullptr : &tables_[it->second];
}

const Server::Table& Server::GetTable(std::string_view name) const {
  const Table* table = FindTable(name);
  if (table == nullptr) {
    throw std::out_of_range("unknown table " + std::string(name));
  }
  return *table;
}

namespace {

/// The IDs of `values` in `dictionary` (domain::kAbsentId where absent).
std::vector<Key> EncodeAll(const domain::StringDomain& dictionary,
                           const std::vector<std::string>& values) {
  const std::vector<std::string_view> tokens(values.begin(), values.end());
  std::vector<Key> ids(values.size());
  dictionary.EncodeBatch(tokens, ids);
  return ids;
}

/// Writer: one coalesced batch on a string table (§2.1), as one publish
/// of the IDs together with the dictionary they are encoded in.
void ApplyStringBatch(MaintainedIndex& index, const StringUpdateBatch& merged) {
  const auto snapshot = index.Snapshot();
  const auto& dictionary =
      *static_cast<const domain::StringDomain*>(snapshot->payload().get());
  // Every token is encoded once, against the current dictionary. Deletes
  // never grow the domain: a value absent from the dictionary has no
  // rows, so its delete is a no-op and is dropped here.
  std::vector<Key> inserts = EncodeAll(dictionary, merged.inserts);
  std::vector<Key> deletes = EncodeAll(dictionary, merged.deletes);
  std::erase(deletes, domain::kAbsentId);
  std::vector<std::string> fresh_values;
  for (size_t i = 0; i < inserts.size(); ++i) {
    if (inserts[i] == domain::kAbsentId) {
      fresh_values.push_back(merged.inserts[i]);
    }
  }
  // Inserts of values the dictionary has never seen grow it and renumber
  // its IDs (§2.1's batch-update model): present IDs map through the
  // remap, and only the fresh values are encoded in the grown dictionary.
  std::vector<uint32_t> remap;
  std::shared_ptr<const domain::StringDomain> grown;
  if (!fresh_values.empty()) {
    grown = std::make_shared<const domain::StringDomain>(
        dictionary.Grown(fresh_values, &remap));
    const std::vector<Key> fresh_ids = EncodeAll(*grown, fresh_values);
    size_t f = 0;
    for (Key& id : inserts) {
      id = id == domain::kAbsentId ? fresh_ids[f++] : remap[id];
    }
    for (Key& id : deletes) id = remap[id];
  }
  std::sort(inserts.begin(), inserts.end());
  std::sort(deletes.begin(), deletes.end());
  if (!grown) {
    // Every value already has an ID: apply like any integer batch
    // (shard-incremental for part:K specs).
    index.ApplySortedBatch(std::move(inserts), std::move(deletes));
    return;
  }
  // The remap is strictly increasing (the dictionary is order-preserving),
  // so the relabelled snapshot keys are still sorted and feed straight
  // into the sorted-batch merge; the ID index is rebuilt over the result —
  // renumbering invalidates every shard anyway, so there is nothing
  // incremental to salvage.
  std::vector<Key> relabelled;
  relabelled.reserve(snapshot->size());
  for (std::span<const Key> segment : snapshot->Segments()) {
    for (Key id : segment) relabelled.push_back(remap[id]);
  }
  index.RebuildWithSortedBatch(std::move(relabelled), std::move(inserts),
                               std::move(deletes), std::move(grown));
}

}  // namespace

void Server::WriterLoop() {
  std::vector<QueuedUpdate> drained;
  while (queue_.DrainAll(&drained)) {
    ServerStats delta{.drain_cycles = 1, .batches_applied = drained.size()};
    // Group the backlog per table, preserving arrival order within and
    // across groups (first-appearance order), then coalesce each group
    // into ONE sorted batch: one version published per table per cycle,
    // however deep the backlog got.
    std::vector<uint32_t> order;
    std::map<uint32_t, std::vector<QueuedUpdate>> groups;
    for (QueuedUpdate& update : drained) {
      auto [it, fresh] = groups.try_emplace(update.table);
      if (fresh) order.push_back(update.table);
      it->second.push_back(std::move(update));
    }
    for (uint32_t id : order) {
      std::visit(
          [&]<typename KeyT>(Keyed<KeyT>& table) {
            if constexpr (std::is_same_v<KeyT, Key>) {
              if (table.strings) {
                return ApplyGroup<std::string>(table, id, groups[id], &delta);
              }
            }
            ApplyGroup<KeyT>(table, id, groups[id], &delta);
          },
          tables_[id]);
    }
    drained.clear();
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.drain_cycles += delta.drain_cycles;
    stats_.batches_applied += delta.batches_applied;
    stats_.groups_published += delta.groups_published;
    stats_.keys_inserted += delta.keys_inserted;
    stats_.keys_deleted += delta.keys_deleted;
  }
}

template <typename ValueT, typename KeyT>
void Server::ApplyGroup(Keyed<KeyT>& table, uint32_t id,
                        std::vector<QueuedUpdate>& updates,
                        ServerStats* delta) {
  // Spec-swap requests ride the queue (so they serialize with writes) but
  // never fold into a Coalesce group: the cycle's data applies first, then
  // the last requested swap — the swap sees every write that preceded it.
  std::vector<workload::BasicUpdateBatch<ValueT>> batches;
  batches.reserve(updates.size());
  std::optional<IndexSpec> respec;
  for (QueuedUpdate& u : updates) {
    if (const IndexSpec* spec = std::get_if<IndexSpec>(&u.payload)) {
      respec = *spec;
    } else {
      batches.push_back(
          std::move(std::get<workload::BasicUpdateBatch<ValueT>>(u.payload)));
    }
  }
  if (!batches.empty()) {
    workload::BasicUpdateBatch<ValueT> merged = Coalesce(batches);
    delta->keys_inserted += merged.inserts.size();
    delta->keys_deleted += merged.deletes.size();
    const uint64_t before = table.index->sequence();
    if constexpr (std::is_same_v<ValueT, std::string>) {
      ApplyStringBatch(*table.index, merged);
    } else {
      std::sort(merged.inserts.begin(), merged.inserts.end());
      table.index->ApplySortedBatch(std::move(merged.inserts),
                                    std::move(merged.deletes));
    }
    const uint64_t after = table.index->sequence();
    if (after != before) ++delta->groups_published;
    if (options_.journal) {
      journal_.push_back(AppliedGroup{id, after, std::move(batches)});
    }
  }
  if (!respec || !table.index->RebuildWithSpec(*respec)) return;
  ++delta->groups_published;
  if (options_.journal) {
    journal_.push_back(AppliedGroup{id, table.index->sequence(), *respec});
  }
}

}  // namespace cssidx::serve
