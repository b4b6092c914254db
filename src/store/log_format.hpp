// On-disk byte formats for the durable model store (src/store):
//
//   WAL record   u32 body_len | u32 crc32c(body) | body
//     body       u8 kind | u64 seq | u16 name_len | name | u64 version |
//                u32 blob_len | blob
//
//   Snapshot     "BMFS" | u16 format | u16 reserved | u32 crc32c(body) |
//                u32 body_len | body
//     body       u64 last_seq | u32 name_count |
//                name_count × (u16 name_len | name | u64 next_version) |
//                u32 model_count |
//                model_count × (u16 name_len | name | u64 version |
//                               u32 blob_len | blob)
//
// All integers little-endian. `blob` is the published model exactly as
// received on the wire (BMFB bytes, which carry their own CRC-32/IEEE);
// the record/snapshot CRC here is CRC-32C (Castagnoli) so a flipped bit
// in either layer is caught by at least one polynomial. `seq` is the
// registry's linearization stamp: recovery applies records sorted by seq
// (the file order can lag the registry order when concurrent appends
// interleave) and skips any record already covered by the snapshot
// (`seq <= last_seq`), which makes duplicate replays idempotent.
//
// The snapshot's next_versions table lists EVERY name the registry has
// ever published — including names whose versions are all evicted — so
// the never-reuse-a-version invariant (DESIGN.md §8) survives compaction
// and restart.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace bmf::store {

/// Every failure the store reports: I/O errors, misuse, and fields too long
/// for the byte formats below.
class StoreError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// CRC-32C (Castagnoli, reflected poly 0x82F63B78), distinct from the
/// CRC-32/IEEE used by the BMFB model codec.
std::uint32_t crc32c(const void* data, std::size_t size) noexcept;

inline constexpr std::size_t kRecordHeaderBytes = 8;  // u32 len + u32 crc
/// Smallest well-formed record body: kind + seq + name_len + version +
/// blob_len with an empty name and blob.
inline constexpr std::size_t kMinRecordBodyBytes = 1 + 8 + 2 + 8 + 4;
/// Largest record body ModelStore's recovery scan accepts; a longer length
/// prefix reads as corruption.
inline constexpr std::size_t kMaxRecordBodyBytes = std::size_t{256} << 20;
/// Names are length-prefixed with a u16 in records and snapshots.
inline constexpr std::size_t kMaxNameBytes = 0xFFFF;

enum class RecordKind : std::uint8_t {
  kPublish = 1,
  kEvict = 2,
};

/// One record as scan_wal returns it.
struct WalRecord {
  RecordKind kind = RecordKind::kPublish;
  std::uint64_t seq = 0;
  std::string name;
  /// Publish: the assigned version. Evict: the exact version, or 0 for
  /// "every retained version of name".
  std::uint64_t version = 0;
  /// Publish only (empty for evict): the BMFB model bytes.
  std::vector<std::uint8_t> blob;
};

/// Serialize one record (header + CRC'd body) onto the end of `out`,
/// copying `blob` once, straight from the caller's bytes (empty for
/// evict). Throws StoreError when the name exceeds kMaxNameBytes or the
/// body would exceed kMaxRecordBodyBytes: a record the scan would reject
/// must never reach the log.
void append_record(std::vector<std::uint8_t>& out, RecordKind kind,
                   std::uint64_t seq, const std::string& name,
                   std::uint64_t version, std::span<const std::uint8_t> blob);

struct WalScan {
  std::vector<WalRecord> records;  // valid records, in file order
  std::size_t valid_bytes = 0;     // offset just past the last valid record
  bool torn = false;               // invalid bytes followed valid_bytes
};

/// Walk a WAL image front to back, stopping at the first record that is
/// incomplete, oversized (> max_record_bytes), CRC-mismatched, or
/// structurally malformed — everything before that point is trusted,
/// everything after is a torn tail the caller should truncate away.
/// Never throws: a WAL is untrusted input after a crash.
WalScan scan_wal(const std::uint8_t* data, std::size_t size,
                 std::size_t max_record_bytes);

struct SnapshotModel {
  std::string name;
  std::uint64_t version = 0;
  std::vector<std::uint8_t> blob;  // BMFB bytes
};

struct Snapshot {
  /// Registry mutation seq the snapshot covers: WAL records with
  /// seq <= last_seq are already folded in and skipped on replay.
  std::uint64_t last_seq = 0;
  /// (name, next_version) for every name ever published.
  std::vector<std::pair<std::string, std::uint64_t>> next_versions;
  std::vector<SnapshotModel> models;
};

/// Throws StoreError when a name exceeds kMaxNameBytes or a blob or the
/// body exceeds UINT32_MAX bytes.
std::vector<std::uint8_t> encode_snapshot(const Snapshot& snap);

/// Returns false (leaving `out` unspecified) on any structural or CRC
/// problem. A bad snapshot is ignored rather than fatal: recovery
/// degrades to replaying whatever the surviving WAL holds instead of
/// refusing to boot on a media error.
bool decode_snapshot(const std::uint8_t* data, std::size_t size,
                     Snapshot& out);

}  // namespace bmf::store
