// Unit tests for the durable model store (src/store): WAL record and
// snapshot byte formats, torn-tail truncation, seq-ordered replay,
// duplicate tolerance, snapshot/WAL disagreement, fsync policies,
// oversized fields, concurrent appends, and the stats counters surfaced
// through store-ls.
#include "store/store.hpp"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "store/log_format.hpp"

namespace bmf::store {
namespace {

/// mkdtemp-backed store directory, recursively removed on scope exit.
struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/bmf-store-test-XXXXXX";
    char* made = ::mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    if (made != nullptr) path = made;
  }
  ~TempDir() {
    if (path.empty()) return;
    ::unlink((path + "/wal.log").c_str());
    ::unlink((path + "/snapshot.bmfs").c_str());
    ::unlink((path + "/snapshot.tmp").c_str());
    ::rmdir(path.c_str());
  }
};

std::vector<std::uint8_t> blob_of(const std::string& text) {
  return std::vector<std::uint8_t>(text.begin(), text.end());
}

std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::vector<std::uint8_t> out;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  EXPECT_GE(fd, 0);
  if (fd < 0) return out;
  std::uint8_t buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof buf)) > 0) out.insert(out.end(), buf, buf + n);
  ::close(fd);
  return out;
}

void write_file_bytes(const std::string& path,
                      const std::vector<std::uint8_t>& bytes, bool append) {
  const int flags = O_WRONLY | O_CREAT | (append ? O_APPEND : O_TRUNC);
  const int fd = ::open(path.c_str(), flags | O_CLOEXEC, 0644);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::write(fd, bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  ::close(fd);
}

// ---- log_format ------------------------------------------------------------

TEST(LogFormat, RecordsRoundTripThroughScan) {
  std::vector<std::uint8_t> wal;
  append_record(wal, RecordKind::kPublish, 1, "dac", 1,
                blob_of("model-bytes"));
  append_record(wal, RecordKind::kEvict, 2, "dac", 1, {});

  const WalScan scan = scan_wal(wal.data(), wal.size(), 1 << 20);
  EXPECT_FALSE(scan.torn);
  EXPECT_EQ(scan.valid_bytes, wal.size());
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.records[0].kind, RecordKind::kPublish);
  EXPECT_EQ(scan.records[0].seq, 1u);
  EXPECT_EQ(scan.records[0].name, "dac");
  EXPECT_EQ(scan.records[0].version, 1u);
  EXPECT_EQ(scan.records[0].blob, blob_of("model-bytes"));
  EXPECT_EQ(scan.records[1].kind, RecordKind::kEvict);
  EXPECT_EQ(scan.records[1].seq, 2u);
  EXPECT_TRUE(scan.records[1].blob.empty());
}

TEST(LogFormat, TornTailStopsAtTheLastCompleteRecord) {
  std::vector<std::uint8_t> wal;
  append_record(wal, RecordKind::kPublish, 1, "a", 1, blob_of("first"));
  const std::size_t first_end = wal.size();
  append_record(wal, RecordKind::kPublish, 2, "b", 1, blob_of("second"));
  for (std::size_t cut = first_end + 1; cut < wal.size(); ++cut) {
    const WalScan scan = scan_wal(wal.data(), cut, 1 << 20);
    EXPECT_TRUE(scan.torn) << "cut=" << cut;
    EXPECT_EQ(scan.valid_bytes, first_end) << "cut=" << cut;
    ASSERT_EQ(scan.records.size(), 1u) << "cut=" << cut;
    EXPECT_EQ(scan.records[0].name, "a");
  }
}

TEST(LogFormat, BitFlipFailsTheCrcAndTearsTheLog) {
  std::vector<std::uint8_t> wal;
  append_record(wal, RecordKind::kPublish, 1, "a", 1, blob_of("first"));
  const std::size_t first_end = wal.size();
  append_record(wal, RecordKind::kPublish, 2, "b", 1, blob_of("second"));
  wal[first_end + kRecordHeaderBytes + 3] ^= 0x40;  // body of record 2
  const WalScan scan = scan_wal(wal.data(), wal.size(), 1 << 20);
  EXPECT_TRUE(scan.torn);
  EXPECT_EQ(scan.valid_bytes, first_end);
  EXPECT_EQ(scan.records.size(), 1u);
}

TEST(LogFormat, AbsurdLengthPrefixIsCorruptionNotAnAllocation) {
  // A zero-filled or garbage tail must not drive a multi-GB read. Lengths
  // below the minimum body or above max_record_bytes both tear the log.
  std::vector<std::uint8_t> wal;
  append_record(wal, RecordKind::kPublish, 1, "a", 1, blob_of("x"));
  const std::size_t first_end = wal.size();
  wal.insert(wal.end(), 64, std::uint8_t{0});  // zero page "tail"
  WalScan scan = scan_wal(wal.data(), wal.size(), 1 << 20);
  EXPECT_TRUE(scan.torn);
  EXPECT_EQ(scan.valid_bytes, first_end);

  std::vector<std::uint8_t> huge(wal.begin(), wal.begin() + first_end);
  huge.insert(huge.end(), {0xFF, 0xFF, 0xFF, 0x7F, 1, 2, 3, 4});
  scan = scan_wal(huge.data(), huge.size(), 1 << 20);
  EXPECT_TRUE(scan.torn);
  EXPECT_EQ(scan.valid_bytes, first_end);
}

TEST(LogFormat, SnapshotRoundTrips) {
  Snapshot snap;
  snap.last_seq = 42;
  snap.next_versions = {{"dac", 4}, {"gone", 2}};
  snap.models.push_back({"dac", 3, blob_of("v3-bytes")});
  const std::vector<std::uint8_t> bytes = encode_snapshot(snap);

  Snapshot out;
  ASSERT_TRUE(decode_snapshot(bytes.data(), bytes.size(), out));
  EXPECT_EQ(out.last_seq, 42u);
  ASSERT_EQ(out.next_versions.size(), 2u);
  EXPECT_EQ(out.next_versions[0].first, "dac");
  EXPECT_EQ(out.next_versions[0].second, 4u);
  EXPECT_EQ(out.next_versions[1].first, "gone");
  ASSERT_EQ(out.models.size(), 1u);
  EXPECT_EQ(out.models[0].name, "dac");
  EXPECT_EQ(out.models[0].version, 3u);
  EXPECT_EQ(out.models[0].blob, blob_of("v3-bytes"));
}

TEST(LogFormat, SnapshotCorruptionIsDetectedNeverThrown) {
  Snapshot snap;
  snap.last_seq = 7;
  snap.models.push_back({"m", 1, blob_of("payload")});
  const std::vector<std::uint8_t> good = encode_snapshot(snap);
  Snapshot out;

  for (std::size_t i = 0; i < good.size(); ++i) {
    std::vector<std::uint8_t> flipped = good;
    flipped[i] ^= 0x01;
    // Any single-bit flip anywhere must be rejected (magic, header, CRC,
    // or body — the CRC covers the body, the header is validated field by
    // field).
    EXPECT_FALSE(decode_snapshot(flipped.data(), flipped.size(), out))
        << "flip at byte " << i;
  }
  for (std::size_t cut = 0; cut < good.size(); ++cut)
    EXPECT_FALSE(decode_snapshot(good.data(), cut, out)) << "cut=" << cut;
  EXPECT_TRUE(decode_snapshot(good.data(), good.size(), out));
}

TEST(LogFormat, Crc32cMatchesKnownVector) {
  // RFC 3720 test vector: CRC-32C of 32 zero bytes.
  const std::uint8_t zeros[32] = {};
  EXPECT_EQ(crc32c(zeros, sizeof zeros), 0x8A9136AAu);
  const char* abc = "123456789";
  EXPECT_EQ(crc32c(abc, 9), 0xE3069283u);
}

TEST(LogFormat, LongestNameRoundTripsAndOneMoreByteThrows) {
  // Names carry a u16 length prefix: 65,535 bytes is the last length that
  // encodes; one more used to wrap to 0 and write an unparseable record.
  const std::string longest(kMaxNameBytes, 'n');
  std::vector<std::uint8_t> wal;
  append_record(wal, RecordKind::kPublish, 1, longest, 1, blob_of("x"));
  const WalScan scan = scan_wal(wal.data(), wal.size(), kMaxRecordBodyBytes);
  EXPECT_FALSE(scan.torn);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].name, longest);

  Snapshot snap;
  snap.next_versions = {{longest, 2}};
  snap.models.push_back({longest, 1, blob_of("x")});
  const std::vector<std::uint8_t> bytes = encode_snapshot(snap);
  Snapshot out;
  ASSERT_TRUE(decode_snapshot(bytes.data(), bytes.size(), out));
  EXPECT_EQ(out.models.at(0).name, longest);

  const std::string overlong(kMaxNameBytes + 1, 'n');
  EXPECT_THROW(append_record(wal, RecordKind::kPublish, 2, overlong, 1,
                             blob_of("x")),
               StoreError);
  Snapshot bad_floor;
  bad_floor.next_versions = {{overlong, 2}};
  EXPECT_THROW(encode_snapshot(bad_floor), StoreError);
  Snapshot bad_model;
  bad_model.models.push_back({overlong, 1, blob_of("x")});
  EXPECT_THROW(encode_snapshot(bad_model), StoreError);
}

// ---- ModelStore ------------------------------------------------------------

TEST(ModelStore, FreshDirectoryRecoversEmpty) {
  TempDir dir;
  ModelStore store(dir.path);
  const ModelStore::Recovery rec = store.recover();
  EXPECT_TRUE(rec.models.empty());
  EXPECT_TRUE(rec.next_versions.empty());
  EXPECT_EQ(rec.max_seq, 0u);
  EXPECT_EQ(rec.records_replayed, 0u);
  EXPECT_EQ(rec.truncation_events, 0u);
  EXPECT_FALSE(rec.snapshot_loaded);
}

TEST(ModelStore, AppendsSurviveReopen) {
  TempDir dir;
  const std::vector<std::uint8_t> blob = blob_of("published-bytes");
  {
    ModelStore store(dir.path);
    store.recover();
    store.append_publish(1, "dac", 1, blob.data(), blob.size());
    store.append_publish(2, "dac", 2, blob.data(), blob.size());
    store.append_evict(3, "dac", 1);
  }
  ModelStore store(dir.path);
  const ModelStore::Recovery rec = store.recover();
  ASSERT_EQ(rec.models.size(), 1u);
  EXPECT_EQ(rec.models[0].name, "dac");
  EXPECT_EQ(rec.models[0].version, 2u);
  EXPECT_EQ(rec.models[0].blob, blob);
  ASSERT_EQ(rec.next_versions.size(), 1u);
  EXPECT_EQ(rec.next_versions[0].second, 3u);  // never reuse v1/v2
  EXPECT_EQ(rec.max_seq, 3u);
  EXPECT_EQ(rec.records_replayed, 3u);
}

TEST(ModelStore, ReplayAppliesSeqOrderNotFileOrder) {
  // File order publish(1) evict-all(3) publish(2) — a concurrency-shaped
  // interleave. Seq order folds the evict last: nothing must survive, or
  // an evicted model resurrects.
  TempDir dir;
  const std::vector<std::uint8_t> blob = blob_of("b");
  {
    ModelStore store(dir.path);
    store.recover();
    store.append_publish(1, "m", 1, blob.data(), blob.size());
    store.append_evict(3, "m", 0);
    store.append_publish(2, "m", 2, blob.data(), blob.size());
  }
  ModelStore store(dir.path);
  const ModelStore::Recovery rec = store.recover();
  EXPECT_TRUE(rec.models.empty());
  ASSERT_EQ(rec.next_versions.size(), 1u);
  EXPECT_EQ(rec.next_versions[0].second, 3u);  // floor survives the evict
  EXPECT_EQ(rec.max_seq, 3u);
}

TEST(ModelStore, DuplicateRecordsReplayIdempotently) {
  TempDir dir;
  const std::vector<std::uint8_t> blob = blob_of("same");
  {
    ModelStore store(dir.path);
    store.recover();
    store.append_publish(1, "m", 1, blob.data(), blob.size());
  }
  // A retried append after a lost ack lands the identical record twice.
  const std::vector<std::uint8_t> wal = file_bytes(dir.path + "/wal.log");
  write_file_bytes(dir.path + "/wal.log", wal, /*append=*/true);

  ModelStore store(dir.path);
  const ModelStore::Recovery rec = store.recover();
  ASSERT_EQ(rec.models.size(), 1u);
  EXPECT_EQ(rec.models[0].version, 1u);
  EXPECT_EQ(rec.models[0].blob, blob);
}

TEST(ModelStore, TornTailIsTruncatedInPlace) {
  TempDir dir;
  const std::vector<std::uint8_t> blob = blob_of("kept");
  std::size_t clean_size = 0;
  {
    ModelStore store(dir.path);
    store.recover();
    store.append_publish(1, "m", 1, blob.data(), blob.size());
    clean_size = store.stats().wal_bytes;
  }
  // Simulate a crash mid-append: garbage past the last complete record.
  write_file_bytes(dir.path + "/wal.log", blob_of("\x13garbage-tail"),
                   /*append=*/true);

  {
    ModelStore store(dir.path);
    const ModelStore::Recovery rec = store.recover();
    EXPECT_EQ(rec.truncation_events, 1u);
    ASSERT_EQ(rec.models.size(), 1u);
    EXPECT_EQ(rec.models[0].blob, blob);
    // Physically truncated: the file is clean again.
    EXPECT_EQ(file_bytes(dir.path + "/wal.log").size(), clean_size);
    // And the write offset is right: a new append lands after the first.
    store.append_publish(2, "m", 2, blob.data(), blob.size());
  }
  ModelStore store(dir.path);
  const ModelStore::Recovery rec = store.recover();
  EXPECT_EQ(rec.truncation_events, 0u);
  EXPECT_EQ(rec.models.size(), 2u);
}

TEST(ModelStore, CompactionFoldsTheWalIntoASnapshot) {
  TempDir dir;
  const std::vector<std::uint8_t> blob = blob_of("snapped");
  {
    ModelStore store(dir.path);
    store.recover();
    store.append_publish(1, "m", 1, blob.data(), blob.size());
    store.append_evict(2, "gone", 0);
    EXPECT_FALSE(store.wants_compaction());
    store.compact([&] {
      Snapshot snap;
      snap.last_seq = 2;
      snap.next_versions = {{"gone", 5}, {"m", 2}};
      snap.models.push_back({"m", 1, blob});
      return snap;
    });
    const StoreStats stats = store.stats();
    EXPECT_EQ(stats.wal_bytes, 0u);
    EXPECT_EQ(stats.wal_records, 0u);
    EXPECT_EQ(stats.snapshots_written, 1u);
    EXPECT_EQ(stats.last_snapshot_seq, 2u);
  }
  ModelStore store(dir.path);
  const ModelStore::Recovery rec = store.recover();
  EXPECT_TRUE(rec.snapshot_loaded);
  ASSERT_EQ(rec.models.size(), 1u);
  EXPECT_EQ(rec.models[0].blob, blob);
  ASSERT_EQ(rec.next_versions.size(), 2u);
  EXPECT_EQ(rec.next_versions[0].first, "gone");
  EXPECT_EQ(rec.next_versions[0].second, 5u);  // evicted name keeps floor
  EXPECT_EQ(rec.max_seq, 2u);
  EXPECT_EQ(rec.records_replayed, 0u);  // all covered by the snapshot
}

TEST(ModelStore, StaleWalRecordsBehindTheSnapshotAreSkipped) {
  // A crash between the snapshot rename and the WAL truncate leaves the
  // old records on disk with seq <= last_seq; replay must skip them or
  // evicted state resurrects.
  TempDir dir;
  const std::vector<std::uint8_t> blob = blob_of("stale");
  std::vector<std::uint8_t> old_wal;
  {
    ModelStore store(dir.path);
    store.recover();
    store.append_publish(1, "m", 1, blob.data(), blob.size());
    old_wal = file_bytes(dir.path + "/wal.log");
    store.compact([&] {
      Snapshot snap;
      snap.last_seq = 1;
      snap.next_versions = {{"m", 2}};
      // Registry says v1 was since evicted: snapshot holds no models.
      return snap;
    });
  }
  write_file_bytes(dir.path + "/wal.log", old_wal, /*append=*/false);

  ModelStore store(dir.path);
  const ModelStore::Recovery rec = store.recover();
  EXPECT_TRUE(rec.snapshot_loaded);
  EXPECT_TRUE(rec.models.empty());  // the stale publish did not resurrect
  EXPECT_EQ(rec.records_replayed, 0u);
  EXPECT_EQ(rec.max_seq, 1u);
}

TEST(ModelStore, CorruptSnapshotDegradesToWalOnlyReplay) {
  TempDir dir;
  const std::vector<std::uint8_t> blob = blob_of("walled");
  {
    ModelStore store(dir.path);
    store.recover();
    store.append_publish(1, "old", 1, blob.data(), blob.size());
    store.compact([&] {
      Snapshot snap;
      snap.last_seq = 1;
      snap.next_versions = {{"old", 2}};
      snap.models.push_back({"old", 1, blob});
      return snap;
    });
    store.append_publish(2, "new", 1, blob.data(), blob.size());
  }
  // Media error eats the snapshot body.
  std::vector<std::uint8_t> snap_bytes =
      file_bytes(dir.path + "/snapshot.bmfs");
  snap_bytes[snap_bytes.size() / 2] ^= 0xFF;
  write_file_bytes(dir.path + "/snapshot.bmfs", snap_bytes, /*append=*/false);

  ModelStore store(dir.path);
  const ModelStore::Recovery rec = store.recover();
  EXPECT_FALSE(rec.snapshot_loaded);
  EXPECT_EQ(rec.truncation_events, 1u);  // the rejection is visible
  ASSERT_EQ(rec.models.size(), 1u);      // WAL-only: post-compaction state
  EXPECT_EQ(rec.models[0].name, "new");
  EXPECT_EQ(rec.records_replayed, 1u);
}

TEST(ModelStore, LeftoverSnapshotTmpIsDiscardedAtBoot) {
  TempDir dir;
  write_file_bytes(dir.path + "/snapshot.tmp", blob_of("half-written"),
                   /*append=*/false);
  {
    // TempDir created the path only in this process; ModelStore mkdirs it.
    ModelStore store(dir.path);
    store.recover();
  }
  EXPECT_EQ(::access((dir.path + "/snapshot.tmp").c_str(), F_OK), -1);
}

TEST(ModelStore, SyncPolicyAlwaysSyncsEveryAppend) {
  TempDir dir;
  StoreOptions options;
  options.sync = SyncPolicy::kAlways;
  ModelStore store(dir.path, options);
  store.recover();
  const std::vector<std::uint8_t> blob = blob_of("b");
  store.append_publish(1, "m", 1, blob.data(), blob.size());
  store.append_publish(2, "m", 2, blob.data(), blob.size());
  EXPECT_EQ(store.stats().syncs, 2u);
  EXPECT_EQ(store.stats().appends, 2u);
}

TEST(ModelStore, SyncPolicyNeverSyncsOnlyOnFlush) {
  TempDir dir;
  StoreOptions options;
  options.sync = SyncPolicy::kNever;
  ModelStore store(dir.path, options);
  store.recover();
  const std::vector<std::uint8_t> blob = blob_of("b");
  store.append_publish(1, "m", 1, blob.data(), blob.size());
  EXPECT_EQ(store.stats().syncs, 0u);
  store.flush();
  EXPECT_EQ(store.stats().syncs, 1u);
  store.flush();  // nothing dirty: no extra fsync
  EXPECT_EQ(store.stats().syncs, 1u);
}

TEST(ModelStore, WantsCompactionTripsAtTheConfiguredSize) {
  TempDir dir;
  StoreOptions options;
  options.snapshot_wal_bytes = 64;
  ModelStore store(dir.path, options);
  store.recover();
  EXPECT_FALSE(store.wants_compaction());
  const std::vector<std::uint8_t> blob(128, std::uint8_t{7});
  store.append_publish(1, "m", 1, blob.data(), blob.size());
  EXPECT_TRUE(store.wants_compaction());
  store.compact([] { return Snapshot{}; });
  EXPECT_FALSE(store.wants_compaction());
}

TEST(ModelStore, GuardsAgainstMisuse) {
  TempDir dir;
  ModelStore store(dir.path);
  const std::vector<std::uint8_t> blob = blob_of("b");
  EXPECT_THROW(store.append_publish(1, "m", 1, blob.data(), blob.size()),
               StoreError);
  EXPECT_THROW(store.compact([] { return Snapshot{}; }), StoreError);
  store.recover();
  EXPECT_THROW(store.recover(), StoreError);
}

TEST(ModelStore, OverlongNameIsRejectedBeforeTheWalChanges) {
  // Regression: a 65,536-byte name used to be acked, then read back as a
  // torn tail at the next boot, taking every later acked record with it.
  TempDir dir;
  const std::vector<std::uint8_t> blob = blob_of("b");
  const std::string overlong(kMaxNameBytes + 1, 'a');
  {
    ModelStore store(dir.path);
    store.recover();
    store.append_publish(1, "m", 1, blob.data(), blob.size());
    const std::vector<std::uint8_t> before = file_bytes(dir.path + "/wal.log");
    EXPECT_THROW(
        store.append_publish(2, overlong, 1, blob.data(), blob.size()),
        StoreError);
    EXPECT_THROW(store.append_evict(2, overlong, 0), StoreError);
    EXPECT_EQ(file_bytes(dir.path + "/wal.log"), before);
    EXPECT_EQ(store.stats().wal_bytes, before.size());
    EXPECT_EQ(store.stats().appends, 1u);
    store.append_publish(2, "m", 2, blob.data(), blob.size());
  }
  ModelStore store(dir.path);
  const ModelStore::Recovery rec = store.recover();
  EXPECT_EQ(rec.truncation_events, 0u);
  EXPECT_EQ(rec.records_replayed, 2u);
  ASSERT_EQ(rec.models.size(), 2u);
  EXPECT_EQ(rec.models[0].version, 1u);
  EXPECT_EQ(rec.models[1].version, 2u);
}

TEST(ModelStore, CompactionRejectsAnOverlongNameAndKeepsTheWal) {
  // Regression: the snapshot used to be written (and the WAL truncated)
  // with a wrapped name length, so the next boot rejected the snapshot
  // and recovered nothing, acked models included.
  TempDir dir;
  const std::vector<std::uint8_t> blob = blob_of("b");
  {
    ModelStore store(dir.path);
    store.recover();
    store.append_publish(1, "m", 1, blob.data(), blob.size());
    const std::uint64_t wal_bytes = store.stats().wal_bytes;
    EXPECT_THROW(store.compact([&] {
      Snapshot snap;
      snap.last_seq = 1;
      snap.next_versions = {{"m", 2}, {std::string(kMaxNameBytes + 1, 'a'), 1}};
      snap.models.push_back({"m", 1, blob});
      return snap;
    }),
                 StoreError);
    EXPECT_EQ(store.stats().snapshots_written, 0u);
    EXPECT_EQ(store.stats().wal_bytes, wal_bytes);
    EXPECT_EQ(::access((dir.path + "/snapshot.bmfs").c_str(), F_OK), -1);
    EXPECT_EQ(::access((dir.path + "/snapshot.tmp").c_str(), F_OK), -1);
  }
  ModelStore store(dir.path);
  const ModelStore::Recovery rec = store.recover();
  EXPECT_FALSE(rec.snapshot_loaded);
  EXPECT_EQ(rec.truncation_events, 0u);
  ASSERT_EQ(rec.models.size(), 1u);
  EXPECT_EQ(rec.models[0].blob, blob);
}

TEST(ModelStore, ConcurrentAppendsAllSurviveReopen) {
  // bmf_served's workers append from several threads at once; seqs come
  // from one counter, so the file order may differ from the seq order.
  constexpr int kThreads = 4;
  constexpr int kAppendsPerThread = 50;
  TempDir dir;
  {
    ModelStore store(dir.path);
    store.recover();
    std::atomic<std::uint64_t> next_seq{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
      threads.emplace_back([&, t] {
        const std::string name = "model-" + std::to_string(t);
        for (int i = 1; i <= kAppendsPerThread; ++i) {
          const std::vector<std::uint8_t> blob =
              blob_of(name + "-v" + std::to_string(i));
          store.append_publish(next_seq.fetch_add(1) + 1, name,
                               static_cast<std::uint64_t>(i), blob.data(),
                               blob.size());
        }
      });
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(store.stats().appends,
              static_cast<std::uint64_t>(kThreads * kAppendsPerThread));
  }
  ModelStore store(dir.path);
  const ModelStore::Recovery rec = store.recover();
  EXPECT_EQ(rec.truncation_events, 0u);
  EXPECT_EQ(rec.max_seq, 200u);
  EXPECT_EQ(rec.records_replayed, 200u);
  ASSERT_EQ(rec.models.size(), 200u);
  for (const ModelStore::RecoveredModel& m : rec.models)
    EXPECT_EQ(m.blob, blob_of(m.name + "-v" + std::to_string(m.version)));
}

TEST(ModelStore, ParseSyncPolicyRoundTrips) {
  EXPECT_EQ(parse_sync_policy("always"), SyncPolicy::kAlways);
  EXPECT_THROW(parse_sync_policy("interval"), std::invalid_argument);
  EXPECT_EQ(parse_sync_policy("never"), SyncPolicy::kNever);
  EXPECT_STREQ(to_string(SyncPolicy::kAlways), "always");
  EXPECT_STREQ(to_string(SyncPolicy::kNever), "never");
  EXPECT_THROW(parse_sync_policy("sometimes"), std::invalid_argument);
}

}  // namespace
}  // namespace bmf::store
