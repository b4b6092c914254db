// In-memory versioned model registry: the daemon's source of truth.
//
// Publication scheme: publishing under a name assigns the next monotonic
// version for that name (1, 2, 3, ... — never reused, even after eviction)
// and installs an immutable, refcounted ModelEntry. Readers resolve a name
// (latest) or an exact (name, version) to a shared_ptr<const ModelEntry>
// under a short *shared* lock (writers — publish and its eviction — take
// the lock exclusive, so concurrent resolves never serialize on each
// other); evaluation then proceeds entirely on the snapshot, so a
// concurrent publish hot-swaps the "latest" pointer without ever
// invalidating an in-flight evaluation — an evicted or superseded entry
// dies only when its last reader drops it.
//
// Memory bound: the registry retains at most `capacity` entries across all
// names. On overflow the least-recently-*used* entry (resolved or
// published longest ago) is evicted; the entry being published is never
// the victim. An evicted (name, version) resolves to nullptr afterwards,
// like a version that never existed — clients distinguish the two by the
// monotonicity of published versions.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "serve/fitted_model.hpp"
#include "sync/mutex.hpp"

namespace bmf::serve {

/// An immutable published model. Handed out by shared_ptr; safe to read
/// from any thread for as long as the pointer is held.
struct ModelEntry {
  std::string name;
  std::uint64_t version = 0;
  FittedModel model;
};

/// Snapshot row returned by list() (one per live name).
struct ModelInfo {
  std::string name;
  std::uint64_t latest_version = 0;  // highest version currently retained
  std::uint64_t retained = 0;        // number of retained versions
  std::uint64_t dimension = 0;       // R of the latest retained version
  std::uint64_t num_terms = 0;       // M of the latest retained version
};

/// Result of a ticketed mutation: what happened plus the registry's
/// linearization stamp for it. `seq` is assigned under the exclusive lock,
/// so sorting WAL records by seq reconstructs the exact order in which the
/// registry applied concurrent publishes and evicts (src/store replays in
/// that order, not file order).
struct PublishTicket {
  std::uint64_t version = 0;
  std::uint64_t seq = 0;
  /// Entries the publish evicted to stay within capacity, in eviction
  /// order: the i-th one's eviction is stamped seq + 1 + i.
  std::vector<std::shared_ptr<const ModelEntry>> evicted;
};
struct EvictTicket {
  std::size_t removed = 0;
  std::uint64_t seq = 0;
};

/// Coherent copy of the durable registry state, taken under one shared
/// lock — the payload a store compaction snapshots.
struct RegistrySnapshot {
  /// Mutation seq the snapshot covers (every mutation with seq <= last_seq
  /// is reflected in the fields below).
  std::uint64_t last_seq = 0;
  /// (name, next_version) for every name ever published, including names
  /// whose versions are all evicted — the never-reuse invariant.
  std::vector<std::pair<std::string, std::uint64_t>> next_versions;
  std::vector<std::shared_ptr<const ModelEntry>> entries;
};

class ModelRegistry {
 public:
  /// `capacity` >= 1 bounds the total retained entries (all names).
  explicit ModelRegistry(std::size_t capacity = 64);

  /// Publish a new version of `name`; returns the assigned version.
  /// Evicts the LRU entry (never the new one) while over capacity.
  std::uint64_t publish(const std::string& name, FittedModel model);

  /// publish/evict variants that also hand back the mutation seq, for
  /// callers that log the mutation to a durable store.
  PublishTicket publish_ticketed(const std::string& name, FittedModel model);
  EvictTicket evict_ticketed(const std::string& name,
                             std::uint64_t version = 0);

  /// Boot-time hydration: install an exact (name, version) recovered from
  /// the store, raising the name's next_version above it. Returns false
  /// (and installs nothing) when the version is already present. Counts
  /// as a use for LRU purposes; over capacity the usual LRU trim runs,
  /// sparing the entry just restored. Does not advance the mutation seq —
  /// restores replay history instead of creating it.
  bool restore(const std::string& name, std::uint64_t version,
               FittedModel model);

  /// Raise `name`'s next_version to at least `next_version` (no-op when
  /// already higher). Hydration uses this for names whose versions were
  /// all evicted before the crash.
  void set_version_floor(const std::string& name, std::uint64_t next_version);

  /// Raise the mutation seq to at least `seq`, so post-recovery mutations
  /// sort after every replayed WAL record. Call once after hydration.
  void seed_mutation_seq(std::uint64_t seq);

  RegistrySnapshot snapshot_state() const;

  /// Highest retained version of `name`, or nullptr if the name is unknown
  /// (or every version of it has been evicted).
  std::shared_ptr<const ModelEntry> latest(const std::string& name) const;

  /// Exact (name, version), or nullptr if unknown/evicted.
  std::shared_ptr<const ModelEntry> at(const std::string& name,
                                       std::uint64_t version) const;

  /// Drop retained versions of `name`: the exact `version`, or every
  /// version when `version` is 0. Returns the number of entries removed
  /// (0 when nothing matched — eviction is idempotent). The name's
  /// monotonic version counter survives, so a later publish continues the
  /// sequence instead of reusing an evicted version number.
  std::size_t evict(const std::string& name, std::uint64_t version = 0);

  /// One row per name that still retains at least one version, sorted by
  /// name (std::map order — deterministic).
  std::vector<ModelInfo> list() const;

  /// Total retained entries across all names.
  std::size_t size() const;

  std::size_t capacity() const { return capacity_; }

 private:
  struct Slot {
    Slot(std::shared_ptr<const ModelEntry> e, std::uint64_t stamp)
        : entry(std::move(e)), last_used(stamp) {}
    std::shared_ptr<const ModelEntry> entry;
    /// LRU clock stamp. Atomic so resolve paths (latest/at) can stamp it
    /// under a *shared* lock — the map structure is read-only there, and
    /// concurrent resolves of the same slot race only on this counter.
    std::atomic<std::uint64_t> last_used;
  };
  struct Record {
    std::uint64_t next_version = 1;  // survives eviction: versions never reuse
    std::map<std::uint64_t, Slot> versions;
  };

  /// Drop LRU entries until size <= capacity, sparing `spare`; returns
  /// them in eviction order.
  std::vector<std::shared_ptr<const ModelEntry>> evict_locked(
      const ModelEntry* spare) BMF_REQUIRES(mu_);

  /// Reader/writer capability (DESIGN.md §11): publish/evict take it
  /// exclusive; latest/at/list/size — the serving hot path, hit once per
  /// evaluate — take it shared and run concurrently across workers.
  mutable sync::SharedMutex mu_;
  std::size_t capacity_;
  /// LRU clock. Atomic (not guarded): shared-lock readers advance it.
  mutable std::atomic<std::uint64_t> clock_{0};
  /// Linearization stamp for durable mutations (see PublishTicket).
  std::uint64_t mutation_seq_ BMF_GUARDED_BY(mu_) = 0;
  // mutable: latest()/at() are logically const lookups but stamp last_used.
  mutable std::map<std::string, Record> records_ BMF_GUARDED_BY(mu_);
  std::size_t entries_ BMF_GUARDED_BY(mu_) = 0;
};

}  // namespace bmf::serve
