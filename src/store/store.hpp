// Crash-durable persistence for published models: an append-only WAL of
// publish/evict records plus periodically compacted snapshots, living in
// one directory:
//
//   DIR/wal.log        current WAL (truncated to zero at each compaction)
//   DIR/snapshot.bmfs  latest compacted snapshot ("BMFS", CRC-32C)
//   DIR/snapshot.tmp   in-flight snapshot (renamed into place atomically)
//
// Durability contract (the server acks a publish only after
// append_publish returns):
//
//   always     fsync the WAL before returning — an acked publish survives
//              kill -9 and power loss.
//   never      leave syncing to the kernel (plus flush() on shutdown) —
//              contents survive process death (page cache) but not power
//              loss.
//
// This is the only code in the tree that makes bytes durable; its fsync,
// write and rename calls route through src/fault so the crash matrix can
// kill it at any of them.
//
// Recovery = load snapshot (ignored wholesale if corrupt) + replay WAL
// records sorted by registry seq, skipping those the snapshot already
// covers; a torn tail is physically truncated at the first bad record.
// Compaction takes the registry state via callback *while holding the
// store lock*, so every record in the WAL being discarded is covered by
// the snapshot replacing it (appends are blocked; completed appends imply
// completed registry installs).
//
// The store speaks (name, version, blob) only — it never decodes BMFB —
// so it depends on src/fault and src/sync alone and the serve layer stays
// the single owner of model semantics.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "store/log_format.hpp"
#include "sync/mutex.hpp"

namespace bmf::store {

enum class SyncPolicy : std::uint8_t {
  kAlways = 0,
  kNever = 1,
};

const char* to_string(SyncPolicy policy);
/// Accepts "always" | "never"; throws std::invalid_argument.
SyncPolicy parse_sync_policy(const std::string& text);

struct StoreOptions {
  SyncPolicy sync = SyncPolicy::kAlways;
  /// WAL size at which wants_compaction() turns on.
  std::size_t snapshot_wal_bytes = std::size_t{4} << 20;
};

/// Counters surfaced through kStoreInfo / `bmf_client store-ls`.
struct StoreStats {
  std::uint64_t wal_bytes = 0;          // current WAL file size
  std::uint64_t wal_records = 0;        // records in the current WAL
  std::uint64_t appends = 0;            // appends since construction
  std::uint64_t syncs = 0;              // WAL fsyncs issued
  std::uint64_t snapshots_written = 0;  // compactions since construction
  std::uint64_t last_snapshot_seq = 0;  // seq the latest snapshot covers
  std::uint64_t records_replayed = 0;   // WAL records applied at recover()
  std::uint64_t truncation_events = 0;  // torn tails cut + snapshots rejected
};

class ModelStore {
 public:
  /// Opens (creating if needed) the store directory and WAL. Throws
  /// StoreError when the directory or WAL cannot be opened.
  explicit ModelStore(std::string dir, StoreOptions options = {});
  ~ModelStore();

  ModelStore(const ModelStore&) = delete;
  ModelStore& operator=(const ModelStore&) = delete;

  struct RecoveredModel {
    std::string name;
    std::uint64_t version = 0;
    std::vector<std::uint8_t> blob;  // BMFB bytes, exactly as published
  };

  struct Recovery {
    /// Live set after snapshot + replay (publishes minus evicts), in
    /// deterministic (name, version) order.
    std::vector<RecoveredModel> models;
    /// Version floors per name — includes names with zero live models.
    std::vector<std::pair<std::string, std::uint64_t>> next_versions;
    /// Highest seq seen anywhere; the registry's mutation counter must
    /// resume above this so new WAL records sort after replayed ones.
    std::uint64_t max_seq = 0;
    std::uint64_t records_replayed = 0;
    std::uint64_t truncation_events = 0;
    bool snapshot_loaded = false;
  };

  /// Scan snapshot + WAL, truncating a torn tail in place. Call exactly
  /// once, before any append. Throws StoreError only on I/O failure —
  /// corruption is tolerated and counted, never fatal.
  Recovery recover();

  /// Append one record and apply the sync policy; the caller must not ack
  /// the client until this returns. Throws StoreError on failure, in
  /// which case the record is not durable (a partial append is rolled
  /// back off the WAL so the file stays scannable). A name over
  /// kMaxNameBytes or a record body over kMaxRecordBodyBytes cannot be
  /// encoded and throws before any byte is written. append_publish also
  /// logs the (name, version) entries the publish evicted to stay within
  /// the registry's capacity, the i-th stamped seq + 1 + i, in the same
  /// write and the same fsync.
  void append_publish(
      std::uint64_t seq, const std::string& name, std::uint64_t version,
      const std::uint8_t* blob, std::size_t size,
      const std::vector<std::pair<std::string, std::uint64_t>>& evicted = {});
  void append_evict(std::uint64_t seq, const std::string& name,
                    std::uint64_t version);

  /// True once the WAL has outgrown snapshot_wal_bytes. Lock-free.
  bool wants_compaction() const noexcept;

  /// Write a snapshot of `state()` and truncate the WAL. `state` runs
  /// under the store lock with appends blocked — it must capture
  /// everything the discarded WAL could hold (the server passes the
  /// registry's own snapshot). Throws StoreError on failure — including a
  /// name or blob too long to encode — and the previous snapshot and WAL
  /// stay intact in that case.
  void compact(const std::function<Snapshot()>& state);

  /// fsync pending WAL bytes regardless of policy (shutdown path).
  void flush();

  StoreStats stats() const;

  const std::string& dir() const { return dir_; }
  SyncPolicy sync_policy() const { return options_.sync; }

 private:
  void write_all_locked(int fd, const std::uint8_t* data, std::size_t size,
                        const char* what) BMF_REQUIRES(mu_);
  /// Write `records` encoded records and apply the sync policy, rolling a
  /// failed append back off the WAL.
  void append_locked(const std::vector<std::uint8_t>& bytes,
                     std::size_t records) BMF_REQUIRES(mu_);
  void sync_wal_locked() BMF_REQUIRES(mu_);

  std::string dir_;
  StoreOptions options_;
  std::string wal_path_;
  std::string snapshot_path_;
  std::string snapshot_tmp_path_;

  mutable sync::Mutex mu_;
  int dir_fd_ BMF_GUARDED_BY(mu_) = -1;
  int wal_fd_ BMF_GUARDED_BY(mu_) = -1;
  bool recovered_ BMF_GUARDED_BY(mu_) = false;
  bool dirty_ BMF_GUARDED_BY(mu_) = false;  // unsynced WAL bytes exist

  /// wal_bytes_ doubles as the wants_compaction() signal, read without
  /// the lock from the serve fast path.
  std::atomic<std::uint64_t> wal_bytes_{0};
  std::uint64_t wal_records_ BMF_GUARDED_BY(mu_) = 0;
  std::uint64_t appends_ BMF_GUARDED_BY(mu_) = 0;
  std::uint64_t syncs_ BMF_GUARDED_BY(mu_) = 0;
  std::uint64_t snapshots_written_ BMF_GUARDED_BY(mu_) = 0;
  std::uint64_t last_snapshot_seq_ BMF_GUARDED_BY(mu_) = 0;
  std::uint64_t records_replayed_ BMF_GUARDED_BY(mu_) = 0;
  std::uint64_t truncation_events_ BMF_GUARDED_BY(mu_) = 0;
};

}  // namespace bmf::store
