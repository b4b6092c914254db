// Versioned binary model format ("BMFB"): the persistence layer behind the
// registry and the publish/evaluate protocol. Complements the line-oriented
// text format of src/io/model_io (which stays the human-readable interchange
// format) with a checksummed, byte-exact binary encoding of a FittedModel.
//
// Layout (all integers little-endian; doubles as IEEE-754 bit patterns, so
// round-trips are byte-exact, -0.0/denormals/extreme exponents included):
//
//   offset  size  field
//        0     4  magic "BMFB"
//        4     2  format version (kFormatVersion)
//        6     2  reserved, must be 0
//        8     4  payload byte count P
//       12     4  CRC-32 (IEEE 802.3, poly 0xEDB88320) of the P payload bytes
//       16     P  payload:
//                   u8        prior provenance (0 none / 1 ZM / 2 NZM)
//                   u64       tau bit pattern
//                   u64       K  (late-stage sample count)
//                   u64       R  (variation-space dimension)
//                   u64       M  (basis term count)
//                   M x u64   coefficient bit patterns
//                   M x term: u32 factor count F, then F x (u32 var, u32 deg)
//
// deserialize_model rejects — with a structured ServeError — bad magic and
// truncated blobs (kCorruptModel), unsupported format versions
// (kVersionMismatch), CRC mismatches (kCorruptModel), and semantically
// invalid payloads (factor var >= R, degree 0, trailing bytes: kCorruptModel).
// serialize(deserialize(b)) == b for every blob serialize can produce.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/error.hpp"
#include "serve/fitted_model.hpp"

namespace bmf::serve {

/// Format version written by serialize_model; deserialize_model accepts
/// exactly this version (there is no older binary version to migrate).
inline constexpr std::uint16_t kFormatVersion = 1;

/// Hard bound on an accepted blob (guards length fields read off the wire
/// before any allocation happens). 1 GiB covers R ~ 10^7 linear terms.
inline constexpr std::size_t kMaxModelBytes = std::size_t{1} << 30;

/// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) of `size` bytes.
/// Exposed for tests and for tools that want to verify a file in place.
std::uint32_t crc32(const void* data, std::size_t size);

/// Encode `model` into the BMFB blob described above.
std::vector<std::uint8_t> serialize_model(const FittedModel& model);

/// Decode a BMFB blob. Throws ServeError (see header comment) on any
/// malformation; never returns a partially-populated model.
FittedModel deserialize_model(const std::uint8_t* data, std::size_t size);
FittedModel deserialize_model(const std::vector<std::uint8_t>& blob);

/// True iff `data` starts with the BMFB magic (sniffing helper: lets tools
/// accept both the text and the binary format by content, not extension).
bool looks_like_binary_model(const std::uint8_t* data, std::size_t size);

}  // namespace bmf::serve
