#include "serve/registry.hpp"

#include <stdexcept>
#include <utility>

namespace bmf::serve {

ModelRegistry::ModelRegistry(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0)
    throw std::invalid_argument("ModelRegistry: capacity must be >= 1");
}

std::uint64_t ModelRegistry::publish(const std::string& name,
                                     FittedModel model) {
  return publish_ticketed(name, std::move(model)).version;
}

PublishTicket ModelRegistry::publish_ticketed(const std::string& name,
                                              FittedModel model) {
  auto entry = std::make_shared<ModelEntry>();
  entry->name = name;
  entry->model = std::move(model);

  sync::ExclusiveLock lock(mu_);
  Record& record = records_[name];
  entry->version = record.next_version++;
  record.versions.try_emplace(
      entry->version, entry, clock_.fetch_add(1, std::memory_order_relaxed) + 1);
  ++entries_;
  PublishTicket ticket{entry->version, ++mutation_seq_,
                       evict_locked(entry.get())};
  mutation_seq_ += ticket.evicted.size();
  return ticket;
}

bool ModelRegistry::restore(const std::string& name, std::uint64_t version,
                            FittedModel model) {
  auto entry = std::make_shared<ModelEntry>();
  entry->name = name;
  entry->version = version;
  entry->model = std::move(model);

  sync::ExclusiveLock lock(mu_);
  Record& record = records_[name];
  if (record.next_version <= version) record.next_version = version + 1;
  const auto [it, inserted] = record.versions.try_emplace(
      version, entry, clock_.fetch_add(1, std::memory_order_relaxed) + 1);
  if (!inserted) return false;
  ++entries_;
  evict_locked(entry.get());
  return true;
}

void ModelRegistry::set_version_floor(const std::string& name,
                                      std::uint64_t next_version) {
  sync::ExclusiveLock lock(mu_);
  Record& record = records_[name];
  if (record.next_version < next_version) record.next_version = next_version;
}

void ModelRegistry::seed_mutation_seq(std::uint64_t seq) {
  sync::ExclusiveLock lock(mu_);
  if (mutation_seq_ < seq) mutation_seq_ = seq;
}

RegistrySnapshot ModelRegistry::snapshot_state() const {
  sync::SharedLock lock(mu_);
  RegistrySnapshot snap;
  snap.last_seq = mutation_seq_;
  snap.next_versions.reserve(records_.size());
  for (const auto& [name, record] : records_) {
    snap.next_versions.emplace_back(name, record.next_version);
    for (const auto& [version, slot] : record.versions)
      snap.entries.push_back(slot.entry);
  }
  return snap;
}

std::shared_ptr<const ModelEntry> ModelRegistry::latest(
    const std::string& name) const {
  sync::SharedLock lock(mu_);
  auto it = records_.find(name);
  if (it == records_.end() || it->second.versions.empty()) return nullptr;
  Slot& slot = it->second.versions.rbegin()->second;
  slot.last_used.store(clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                       std::memory_order_relaxed);
  return slot.entry;
}

std::shared_ptr<const ModelEntry> ModelRegistry::at(
    const std::string& name, std::uint64_t version) const {
  sync::SharedLock lock(mu_);
  auto it = records_.find(name);
  if (it == records_.end()) return nullptr;
  auto vit = it->second.versions.find(version);
  if (vit == it->second.versions.end()) return nullptr;
  vit->second.last_used.store(
      clock_.fetch_add(1, std::memory_order_relaxed) + 1,
      std::memory_order_relaxed);
  return vit->second.entry;
}

std::size_t ModelRegistry::evict(const std::string& name,
                                 std::uint64_t version) {
  return evict_ticketed(name, version).removed;
}

EvictTicket ModelRegistry::evict_ticketed(const std::string& name,
                                          std::uint64_t version) {
  sync::ExclusiveLock lock(mu_);
  auto it = records_.find(name);
  if (it == records_.end()) return {0, mutation_seq_};
  std::size_t removed = 0;
  if (version == 0) {
    removed = it->second.versions.size();
    it->second.versions.clear();
  } else {
    removed = it->second.versions.erase(version);
  }
  entries_ -= removed;
  // The Record (and its next_version counter) stays, mirroring LRU
  // eviction: version numbers are never reused. Only an evict that
  // removed something consumes a mutation seq — a no-op leaves no trace
  // in the registry, so it must leave none in the WAL ordering either.
  return {removed, removed > 0 ? ++mutation_seq_ : mutation_seq_};
}

std::vector<ModelInfo> ModelRegistry::list() const {
  sync::SharedLock lock(mu_);
  std::vector<ModelInfo> rows;
  rows.reserve(records_.size());
  for (const auto& [name, record] : records_) {
    if (record.versions.empty()) continue;
    const Slot& newest = record.versions.rbegin()->second;
    ModelInfo info;
    info.name = name;
    info.latest_version = newest.entry->version;
    info.retained = record.versions.size();
    info.dimension = newest.entry->model.model.basis().dimension();
    info.num_terms = newest.entry->model.model.num_terms();
    rows.push_back(std::move(info));
  }
  return rows;
}

std::size_t ModelRegistry::size() const {
  sync::SharedLock lock(mu_);
  return entries_;
}

std::vector<std::shared_ptr<const ModelEntry>> ModelRegistry::evict_locked(
    const ModelEntry* spare) {
  std::vector<std::shared_ptr<const ModelEntry>> evicted;
  while (entries_ > capacity_) {
    std::map<std::string, Record>::iterator victim_record = records_.end();
    std::map<std::uint64_t, Slot>::iterator victim_slot;
    std::uint64_t oldest = 0;
    bool found = false;
    for (auto rit = records_.begin(); rit != records_.end(); ++rit) {
      for (auto vit = rit->second.versions.begin();
           vit != rit->second.versions.end(); ++vit) {
        if (vit->second.entry.get() == spare) continue;
        const std::uint64_t used =
            vit->second.last_used.load(std::memory_order_relaxed);
        if (!found || used < oldest) {
          oldest = used;
          victim_record = rit;
          victim_slot = vit;
          found = true;
        }
      }
    }
    if (!found) break;  // only the just-published entry remains
    evicted.push_back(std::move(victim_slot->second.entry));
    victim_record->second.versions.erase(victim_slot);
    --entries_;
    // Keep the Record (and its next_version counter) even when empty so a
    // republished name continues its monotonic version sequence.
  }
  return evicted;
}

}  // namespace bmf::serve
