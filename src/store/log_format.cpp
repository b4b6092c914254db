#include "store/log_format.hpp"

#include <cstring>
#include <string>

namespace bmf::store {

namespace {

// Software slice-by-one table. The store appends at publish/evict rate
// (operator actions, not the evaluate hot path), so table lookup
// throughput is ample; SSE4.2 crc32 would buy nothing measurable here.
struct Crc32cTable {
  std::uint32_t t[256];
  Crc32cTable() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) ? 0x82F63B78u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
  }
};

const Crc32cTable& crc_table() {
  static const Crc32cTable table;
  return table;
}

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void patch_u32(std::vector<std::uint8_t>& out, std::size_t at,
               std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * i));
}

[[noreturn]] void too_long(const char* what, std::size_t size,
                           std::size_t bound) {
  throw StoreError(std::string("store: ") + what + " of " +
                   std::to_string(size) + " exceeds the bound of " +
                   std::to_string(bound));
}

/// A length for a u32 field; a silent wrap would write a file the decoder
/// rejects, so an oversized value throws instead.
std::uint32_t checked_u32(std::size_t v, const char* what) {
  if (v > UINT32_MAX) too_long(what, v, UINT32_MAX);
  return static_cast<std::uint32_t>(v);
}

void put_name(std::vector<std::uint8_t>& out, const std::string& name) {
  if (name.size() > kMaxNameBytes)
    too_long("name length", name.size(), kMaxNameBytes);
  put_u16(out, static_cast<std::uint16_t>(name.size()));
  out.insert(out.end(), name.begin(), name.end());
}

/// Bounds-checked little-endian cursor. Every getter reports failure by
/// returning false — scan/decode treat any failure as corruption.
struct Cursor {
  const std::uint8_t* p;
  std::size_t left;

  bool u8(std::uint8_t& v) {
    if (left < 1) return false;
    v = p[0];
    p += 1;
    left -= 1;
    return true;
  }
  bool u16(std::uint16_t& v) {
    if (left < 2) return false;
    v = static_cast<std::uint16_t>(p[0] | (p[1] << 8));
    p += 2;
    left -= 2;
    return true;
  }
  bool u32(std::uint32_t& v) {
    if (left < 4) return false;
    v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    p += 4;
    left -= 4;
    return true;
  }
  bool u64(std::uint64_t& v) {
    if (left < 8) return false;
    v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    p += 8;
    left -= 8;
    return true;
  }
  bool str(std::string& v) {
    std::uint16_t n = 0;
    if (!u16(n) || left < n) return false;
    v.assign(reinterpret_cast<const char*>(p), n);
    p += n;
    left -= n;
    return true;
  }
  bool blob(std::vector<std::uint8_t>& v) {
    std::uint32_t n = 0;
    if (!u32(n) || left < n) return false;
    v.assign(p, p + n);
    p += n;
    left -= n;
    return true;
  }
};

bool parse_record_body(const std::uint8_t* body, std::size_t size,
                       WalRecord& out) {
  Cursor c{body, size};
  std::uint8_t kind = 0;
  if (!c.u8(kind)) return false;
  if (kind != static_cast<std::uint8_t>(RecordKind::kPublish) &&
      kind != static_cast<std::uint8_t>(RecordKind::kEvict))
    return false;
  out.kind = static_cast<RecordKind>(kind);
  if (!c.u64(out.seq) || !c.str(out.name) || !c.u64(out.version) ||
      !c.blob(out.blob))
    return false;
  return c.left == 0;  // trailing garbage inside a CRC'd body = corruption
}

}  // namespace

std::uint32_t crc32c(const void* data, std::size_t size) noexcept {
  const Crc32cTable& table = crc_table();
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i)
    c = table.t[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

void append_record(std::vector<std::uint8_t>& out, RecordKind kind,
                   std::uint64_t seq, const std::string& name,
                   std::uint64_t version, std::span<const std::uint8_t> blob) {
  const std::size_t body_bytes =
      kMinRecordBodyBytes + name.size() + blob.size();
  if (body_bytes > kMaxRecordBodyBytes)
    too_long("record body", body_bytes, kMaxRecordBodyBytes);
  const std::size_t header_at = out.size();
  put_u32(out, 0);  // body_len, patched below
  put_u32(out, 0);  // crc, patched below
  const std::size_t body_at = out.size();
  out.push_back(static_cast<std::uint8_t>(kind));
  put_u64(out, seq);
  put_name(out, name);
  put_u64(out, version);
  put_u32(out, static_cast<std::uint32_t>(blob.size()));
  out.insert(out.end(), blob.begin(), blob.end());
  const std::size_t body_len = out.size() - body_at;
  patch_u32(out, header_at, static_cast<std::uint32_t>(body_len));
  patch_u32(out, header_at + 4, crc32c(out.data() + body_at, body_len));
}

WalScan scan_wal(const std::uint8_t* data, std::size_t size,
                 std::size_t max_record_bytes) {
  WalScan scan;
  std::size_t off = 0;
  while (off + kRecordHeaderBytes <= size) {
    Cursor header{data + off, kRecordHeaderBytes};
    std::uint32_t body_len = 0;
    std::uint32_t crc = 0;
    header.u32(body_len);
    header.u32(crc);
    // An implausible length is corruption, not a huge record: without
    // this bound a flipped length bit would swallow the rest of the file
    // (or "prove" every following record torn).
    if (body_len < kMinRecordBodyBytes || body_len > max_record_bytes) break;
    if (off + kRecordHeaderBytes + body_len > size) break;  // torn tail
    const std::uint8_t* body = data + off + kRecordHeaderBytes;
    if (crc32c(body, body_len) != crc) break;
    WalRecord record;
    if (!parse_record_body(body, body_len, record)) break;
    scan.records.push_back(std::move(record));
    off += kRecordHeaderBytes + body_len;
  }
  scan.valid_bytes = off;
  scan.torn = off < size;
  return scan;
}

namespace {
constexpr std::uint8_t kSnapshotMagic[4] = {'B', 'M', 'F', 'S'};
constexpr std::uint16_t kSnapshotFormat = 1;
constexpr std::size_t kSnapshotHeaderBytes = 4 + 2 + 2 + 4 + 4;
}  // namespace

std::vector<std::uint8_t> encode_snapshot(const Snapshot& snap) {
  std::vector<std::uint8_t> out;
  for (std::uint8_t byte : kSnapshotMagic) out.push_back(byte);
  put_u16(out, kSnapshotFormat);
  put_u16(out, 0);  // reserved
  put_u32(out, 0);  // crc, patched below
  put_u32(out, 0);  // body_len, patched below
  const std::size_t body_at = out.size();
  put_u64(out, snap.last_seq);
  put_u32(out, static_cast<std::uint32_t>(snap.next_versions.size()));
  for (const auto& [name, next_version] : snap.next_versions) {
    put_name(out, name);
    put_u64(out, next_version);
  }
  put_u32(out, static_cast<std::uint32_t>(snap.models.size()));
  for (const SnapshotModel& m : snap.models) {
    put_name(out, m.name);
    put_u64(out, m.version);
    put_u32(out, checked_u32(m.blob.size(), "blob length"));
    out.insert(out.end(), m.blob.begin(), m.blob.end());
  }
  const std::size_t body_len = out.size() - body_at;
  patch_u32(out, 8, crc32c(out.data() + body_at, body_len));
  patch_u32(out, 12, checked_u32(body_len, "snapshot body"));
  return out;
}

bool decode_snapshot(const std::uint8_t* data, std::size_t size,
                     Snapshot& out) {
  if (size < kSnapshotHeaderBytes) return false;
  if (std::memcmp(data, kSnapshotMagic, 4) != 0) return false;
  Cursor header{data + 4, kSnapshotHeaderBytes - 4};
  std::uint16_t format = 0;
  std::uint16_t reserved = 0;
  std::uint32_t crc = 0;
  std::uint32_t body_len = 0;
  header.u16(format);
  header.u16(reserved);
  header.u32(crc);
  header.u32(body_len);
  if (format != kSnapshotFormat) return false;
  if (reserved != 0) return false;  // format 1 defines reserved as zero
  if (size - kSnapshotHeaderBytes != body_len) return false;
  const std::uint8_t* body = data + kSnapshotHeaderBytes;
  if (crc32c(body, body_len) != crc) return false;

  out = Snapshot{};
  Cursor c{body, body_len};
  std::uint32_t name_count = 0;
  if (!c.u64(out.last_seq) || !c.u32(name_count)) return false;
  // No reserve(count): counts are untrusted, and each iteration consumes
  // bytes, so a corrupt huge count fails on the first short read instead
  // of attempting a multi-gigabyte allocation.
  for (std::uint32_t i = 0; i < name_count; ++i) {
    std::string name;
    std::uint64_t next_version = 0;
    if (!c.str(name) || !c.u64(next_version)) return false;
    out.next_versions.emplace_back(std::move(name), next_version);
  }
  std::uint32_t model_count = 0;
  if (!c.u32(model_count)) return false;
  for (std::uint32_t i = 0; i < model_count; ++i) {
    SnapshotModel m;
    if (!c.str(m.name) || !c.u64(m.version) || !c.blob(m.blob)) return false;
    out.models.push_back(std::move(m));
  }
  return c.left == 0;
}

}  // namespace bmf::store
