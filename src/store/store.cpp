#include "store/store.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <map>
#include <system_error>

#include "fault/fault.hpp"

namespace bmf::store {

namespace {

std::string errno_text() {
  return std::generic_category().message(errno);
}

[[noreturn]] void fail(const char* what, const std::string& path) {
  throw StoreError(std::string("store: ") + what + " '" + path +
                   "': " + errno_text());
}

/// fsync with EINTR retry, through the fault layer.
void fsync_fd(int fd, const char* what, const std::string& path) {
  for (;;) {
    if (fault::sys_fsync(fd) == 0) return;
    if (errno == EINTR) continue;
    fail(what, path);
  }
}

/// Read a whole fd (from its current offset) into memory.
std::vector<std::uint8_t> read_fd(int fd, const char* what,
                                  const std::string& path) {
  std::vector<std::uint8_t> out;
  std::uint8_t buf[1 << 16];
  for (;;) {
    const ssize_t rc = fault::sys_read(fd, buf, sizeof buf);
    if (rc < 0) {
      if (errno == EINTR) continue;
      fail(what, path);
    }
    if (rc == 0) return out;
    out.insert(out.end(), buf, buf + rc);
  }
}

/// Load `path` fully; false when it does not exist.
bool read_file(const std::string& path, std::vector<std::uint8_t>& out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return false;
    fail("open", path);
  }
  try {
    out = read_fd(fd, "read", path);
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  return true;
}

}  // namespace

const char* to_string(SyncPolicy policy) {
  switch (policy) {
    case SyncPolicy::kAlways:
      return "always";
    case SyncPolicy::kNever:
      return "never";
  }
  return "?";
}

SyncPolicy parse_sync_policy(const std::string& text) {
  if (text == "always") return SyncPolicy::kAlways;
  if (text == "never") return SyncPolicy::kNever;
  throw std::invalid_argument(
      "store sync policy must be always|never, got '" + text + "'");
}

ModelStore::ModelStore(std::string dir, StoreOptions options)
    : dir_(std::move(dir)),
      options_(options),
      wal_path_(dir_ + "/wal.log"),
      snapshot_path_(dir_ + "/snapshot.bmfs"),
      snapshot_tmp_path_(dir_ + "/snapshot.tmp") {
  if (::mkdir(dir_.c_str(), 0755) != 0 && errno != EEXIST)
    fail("mkdir", dir_);
  sync::LockGuard lock(mu_);
  dir_fd_ = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd_ < 0) fail("open directory", dir_);
  wal_fd_ = ::open(wal_path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (wal_fd_ < 0) {
    ::close(dir_fd_);
    dir_fd_ = -1;
    fail("open", wal_path_);
  }
}

ModelStore::~ModelStore() {
  try {
    flush();
  } catch (const StoreError&) {
    // Destructor: nothing sane to do with a failing disk here.
  }
  sync::LockGuard lock(mu_);
  if (wal_fd_ >= 0) ::close(wal_fd_);
  if (dir_fd_ >= 0) ::close(dir_fd_);
  wal_fd_ = dir_fd_ = -1;
}

ModelStore::Recovery ModelStore::recover() {
  sync::LockGuard lock(mu_);
  if (recovered_) throw StoreError("store: recover() called twice");
  Recovery out;

  // A leftover snapshot.tmp is a compaction that died before its rename —
  // never valid state, drop it.
  ::unlink(snapshot_tmp_path_.c_str());

  Snapshot snap;
  bool have_snapshot = false;
  {
    std::vector<std::uint8_t> bytes;
    if (read_file(snapshot_path_, bytes)) {
      if (decode_snapshot(bytes.data(), bytes.size(), snap)) {
        have_snapshot = true;
      } else {
        // Corrupt snapshot: degrade to WAL-only replay rather than refuse
        // to boot. Counted so store-ls makes the damage visible.
        ++out.truncation_events;
      }
    }
  }

  std::vector<std::uint8_t> wal = read_fd(wal_fd_, "read", wal_path_);
  WalScan scan = scan_wal(wal.data(), wal.size(), kMaxRecordBodyBytes);
  if (scan.torn) {
    // Physically cut the torn tail so the next boot (and every append
    // from now on) sees a clean end of log.
    if (::ftruncate(wal_fd_, static_cast<off_t>(scan.valid_bytes)) != 0)
      fail("truncate", wal_path_);
    fsync_fd(wal_fd_, "fsync", wal_path_);
    ++out.truncation_events;
  }
  if (::lseek(wal_fd_, static_cast<off_t>(scan.valid_bytes), SEEK_SET) < 0)
    fail("seek", wal_path_);

  // Fold snapshot + WAL into the live set. Replay order is seq order (the
  // registry's linearization), not file order: concurrent appends can
  // land in the file slightly out of order.
  std::map<std::string, std::uint64_t> floors;
  std::map<std::string, std::map<std::uint64_t, std::vector<std::uint8_t>>>
      live;
  const std::uint64_t snap_seq = have_snapshot ? snap.last_seq : 0;
  std::uint64_t max_seq = snap_seq;
  if (have_snapshot) {
    out.snapshot_loaded = true;
    for (auto& [name, next_version] : snap.next_versions)
      floors[name] = std::max(floors[name], next_version);
    for (SnapshotModel& m : snap.models)
      live[std::move(m.name)][m.version] = std::move(m.blob);
  }
  std::stable_sort(scan.records.begin(), scan.records.end(),
                   [](const WalRecord& a, const WalRecord& b) {
                     return a.seq < b.seq;
                   });
  for (WalRecord& r : scan.records) {
    max_seq = std::max(max_seq, r.seq);
    if (r.seq <= snap_seq) continue;  // duplicate of snapshot content
    ++out.records_replayed;
    if (r.kind == RecordKind::kPublish) {
      std::uint64_t& floor = floors[r.name];
      floor = std::max(floor, r.version + 1);
      live[std::move(r.name)][r.version] = std::move(r.blob);
    } else if (r.version == 0) {
      auto it = live.find(r.name);
      if (it != live.end()) live.erase(it);
    } else {
      auto it = live.find(r.name);
      if (it != live.end()) it->second.erase(r.version);
    }
  }

  for (auto& [name, versions] : live)
    for (auto& [version, blob] : versions)
      out.models.push_back({name, version, std::move(blob)});
  out.next_versions.assign(floors.begin(), floors.end());
  out.max_seq = max_seq;

  recovered_ = true;
  wal_bytes_.store(scan.valid_bytes, std::memory_order_relaxed);
  wal_records_ = scan.records.size();
  records_replayed_ = out.records_replayed;
  truncation_events_ = out.truncation_events;
  last_snapshot_seq_ = snap_seq;
  return out;
}

void ModelStore::write_all_locked(int fd, const std::uint8_t* data,
                                  std::size_t size, const char* what) {
  while (size > 0) {
    const ssize_t rc = fault::sys_write(fd, data, size);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw StoreError(std::string("store: ") + what + ": " + errno_text());
    }
    data += rc;
    size -= static_cast<std::size_t>(rc);
  }
}

void ModelStore::sync_wal_locked() {
  if (!dirty_) return;
  fsync_fd(wal_fd_, "wal fsync", wal_path_);
  ++syncs_;
  dirty_ = false;
}

void ModelStore::append_locked(const std::vector<std::uint8_t>& bytes,
                               std::size_t records) {
  if (!recovered_) throw StoreError("store: append before recover()");
  const std::uint64_t offset = wal_bytes_.load(std::memory_order_relaxed);
  try {
    write_all_locked(wal_fd_, bytes.data(), bytes.size(), "wal append");
    dirty_ = true;
    if (options_.sync == SyncPolicy::kAlways) sync_wal_locked();
  } catch (...) {
    // The caller will NOT ack this record, so it must not replay either:
    // take it (or the partial prefix a failed write left) back off the
    // log, keeping the tail clean for the next append. Earlier (acked)
    // records keep their durability from their own appends. If even the
    // truncate fails, recovery's torn-tail scan handles it at next boot.
    if (::ftruncate(wal_fd_, static_cast<off_t>(offset)) == 0)
      ::lseek(wal_fd_, static_cast<off_t>(offset), SEEK_SET);
    throw;
  }
  wal_bytes_.store(offset + bytes.size(), std::memory_order_relaxed);
  wal_records_ += records;
  ++appends_;
}

void ModelStore::append_publish(
    std::uint64_t seq, const std::string& name, std::uint64_t version,
    const std::uint8_t* blob, std::size_t size,
    const std::vector<std::pair<std::string, std::uint64_t>>& evicted) {
  // Encoded before the lock: the blob is copied once, and the lock covers
  // only the write, the fsync and the rollback.
  std::vector<std::uint8_t> bytes;
  append_record(bytes, RecordKind::kPublish, seq, name, version,
                {blob, size});
  for (std::size_t i = 0; i < evicted.size(); ++i)
    append_record(bytes, RecordKind::kEvict, seq + 1 + i, evicted[i].first,
                  evicted[i].second, {});
  sync::LockGuard lock(mu_);
  append_locked(bytes, 1 + evicted.size());
}

void ModelStore::append_evict(std::uint64_t seq, const std::string& name,
                              std::uint64_t version) {
  std::vector<std::uint8_t> bytes;
  append_record(bytes, RecordKind::kEvict, seq, name, version, {});
  sync::LockGuard lock(mu_);
  append_locked(bytes, 1);
}

bool ModelStore::wants_compaction() const noexcept {
  return wal_bytes_.load(std::memory_order_relaxed) >=
         options_.snapshot_wal_bytes;
}

void ModelStore::compact(const std::function<Snapshot()>& state) {
  sync::LockGuard lock(mu_);
  if (!recovered_) throw StoreError("store: compact before recover()");
  // With appends blocked, every record in the WAL belongs to a registry
  // mutation that completed before this point — so the state captured now
  // covers everything the truncation below discards.
  const Snapshot snap = state();
  const std::vector<std::uint8_t> bytes = encode_snapshot(snap);

  const int fd = ::open(snapshot_tmp_path_.c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) fail("open", snapshot_tmp_path_);
  try {
    write_all_locked(fd, bytes.data(), bytes.size(), "snapshot write");
    fsync_fd(fd, "fsync", snapshot_tmp_path_);
  } catch (...) {
    ::close(fd);
    ::unlink(snapshot_tmp_path_.c_str());
    throw;
  }
  ::close(fd);
  for (;;) {
    if (fault::sys_rename(snapshot_tmp_path_.c_str(),
                          snapshot_path_.c_str()) == 0)
      break;
    if (errno == EINTR) continue;
    const int saved = errno;
    ::unlink(snapshot_tmp_path_.c_str());
    errno = saved;
    fail("rename", snapshot_tmp_path_);
  }
  fsync_fd(dir_fd_, "fsync directory", dir_);

  // The snapshot is durable; the WAL it covers can go. A crash between
  // the rename above and this truncate leaves a stale WAL whose records
  // all have seq <= snap.last_seq — recovery skips them.
  if (::ftruncate(wal_fd_, 0) != 0) fail("truncate", wal_path_);
  if (::lseek(wal_fd_, 0, SEEK_SET) < 0) fail("seek", wal_path_);
  fsync_fd(wal_fd_, "fsync", wal_path_);

  wal_bytes_.store(0, std::memory_order_relaxed);
  wal_records_ = 0;
  dirty_ = false;
  last_snapshot_seq_ = snap.last_seq;
  ++snapshots_written_;
}

void ModelStore::flush() {
  sync::LockGuard lock(mu_);
  if (wal_fd_ >= 0 && recovered_) sync_wal_locked();
}

StoreStats ModelStore::stats() const {
  sync::LockGuard lock(mu_);
  StoreStats out;
  out.wal_bytes = wal_bytes_.load(std::memory_order_relaxed);
  out.wal_records = wal_records_;
  out.appends = appends_;
  out.syncs = syncs_;
  out.snapshots_written = snapshots_written_;
  out.last_snapshot_seq = last_snapshot_seq_;
  out.records_replayed = records_replayed_;
  out.truncation_events = truncation_events_;
  return out;
}

}  // namespace bmf::store
