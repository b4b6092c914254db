#include "serve/model_codec.hpp"

#include <array>

#include "basis/basis_set.hpp"
#include "serve/bytes.hpp"

namespace bmf::serve {

namespace {

constexpr std::array<std::uint8_t, 4> kMagic = {'B', 'M', 'F', 'B'};
constexpr std::size_t kHeaderBytes = 16;

constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    table[i] = c;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kCrcTable = make_crc_table();

[[noreturn]] void corrupt(const std::string& message) {
  throw ServeError(Status::kCorruptModel, "deserialize_model", message);
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i)
    c = kCrcTable[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> serialize_model(const FittedModel& model) {
  const basis::BasisSet& basis = model.model.basis();
  const linalg::Vector& coeffs = model.model.coefficients();

  ByteWriter payload;
  payload.u8(static_cast<std::uint8_t>(model.provenance));
  payload.f64(model.tau);
  payload.u64(model.num_samples);
  payload.u64(basis.dimension());
  payload.u64(basis.size());
  for (double c : coeffs) payload.f64(c);
  for (std::size_t m = 0; m < basis.size(); ++m) {
    const auto& factors = basis.term(m).factors;
    payload.u32(static_cast<std::uint32_t>(factors.size()));
    for (const auto& f : factors) {
      payload.u32(static_cast<std::uint32_t>(f.var));
      payload.u32(f.degree);
    }
  }

  const std::vector<std::uint8_t>& body = payload.bytes();
  if (kHeaderBytes + body.size() > kMaxModelBytes)
    throw ServeError(Status::kTooLarge, "serialize_model",
                     "encoded model of " + std::to_string(body.size()) +
                         " payload bytes exceeds the " +
                         std::to_string(kMaxModelBytes) + "-byte bound");

  ByteWriter blob;
  blob.raw(kMagic.data(), kMagic.size());
  blob.u16(kFormatVersion);
  blob.u16(0);  // reserved
  blob.u32(static_cast<std::uint32_t>(body.size()));
  blob.u32(crc32(body.data(), body.size()));
  blob.raw(body.data(), body.size());
  return blob.take();
}

FittedModel deserialize_model(const std::uint8_t* data, std::size_t size) {
  if (size > kMaxModelBytes)
    throw ServeError(Status::kTooLarge, "deserialize_model",
                     "blob of " + std::to_string(size) +
                         " bytes exceeds the " +
                         std::to_string(kMaxModelBytes) + "-byte bound");
  if (!looks_like_binary_model(data, size))
    corrupt("bad magic (not a BMFB model blob)");

  ByteReader header(data, size, Status::kCorruptModel, "deserialize_model");
  header.raw(kMagic.size());  // magic, already verified
  const std::uint16_t version = header.u16();
  if (version != kFormatVersion)
    throw ServeError(Status::kVersionMismatch, "deserialize_model",
                     "format version " + std::to_string(version) +
                         " (this build reads version " +
                         std::to_string(kFormatVersion) + ")");
  if (header.u16() != 0) corrupt("nonzero reserved field");
  const std::uint32_t payload_size = header.u32();
  const std::uint32_t stored_crc = header.u32();
  if (payload_size != size - kHeaderBytes)
    corrupt("payload size field says " + std::to_string(payload_size) +
            " byte(s), blob carries " + std::to_string(size - kHeaderBytes));
  const std::uint8_t* payload = data + kHeaderBytes;
  const std::uint32_t actual_crc = crc32(payload, payload_size);
  if (actual_crc != stored_crc)
    corrupt("CRC-32 mismatch: stored " + std::to_string(stored_crc) +
            ", computed " + std::to_string(actual_crc));

  ByteReader r(payload, payload_size, Status::kCorruptModel,
               "deserialize_model");
  const std::uint8_t provenance_byte = r.u8();
  if (provenance_byte > static_cast<std::uint8_t>(PriorProvenance::kNonzeroMean))
    corrupt("unknown prior provenance " + std::to_string(provenance_byte));
  FittedModel fitted;
  fitted.provenance = static_cast<PriorProvenance>(provenance_byte);
  fitted.tau = r.f64();
  fitted.num_samples = r.u64();
  const std::uint64_t dimension = r.u64();
  const std::uint64_t num_terms = r.u64();
  // Each term costs >= 12 bytes (coefficient + factor count); reject counts
  // the remaining payload cannot possibly hold before allocating.
  if (num_terms > payload_size / 12)
    corrupt("term count " + std::to_string(num_terms) +
            " impossible for a " + std::to_string(payload_size) +
            "-byte payload");

  linalg::Vector coeffs(num_terms);
  for (std::uint64_t m = 0; m < num_terms; ++m) coeffs[m] = r.f64();

  std::vector<basis::BasisTerm> terms(num_terms);
  for (std::uint64_t m = 0; m < num_terms; ++m) {
    const std::uint32_t num_factors = r.u32();
    if (num_factors > r.remaining() / 8)
      corrupt("factor count " + std::to_string(num_factors) +
              " of term " + std::to_string(m) + " overruns the payload");
    terms[m].factors.reserve(num_factors);
    for (std::uint32_t i = 0; i < num_factors; ++i) {
      const std::uint32_t var = r.u32();
      const std::uint32_t degree = r.u32();
      if (var >= dimension)
        corrupt("term " + std::to_string(m) + " references variable " +
                std::to_string(var) + " of a dimension-" +
                std::to_string(dimension) + " model");
      if (degree == 0)
        corrupt("term " + std::to_string(m) + " has a degree-0 factor");
      if (degree > basis::kMaxFactorDegree)
        corrupt("term " + std::to_string(m) + " has a degree-" +
                std::to_string(degree) + " factor (bound " +
                std::to_string(basis::kMaxFactorDegree) + ")");
      terms[m].factors.push_back({var, degree});
    }
  }
  r.expect_done();

  fitted.model = basis::PerformanceModel(
      basis::BasisSet(dimension, std::move(terms)), std::move(coeffs));
  return fitted;
}

FittedModel deserialize_model(const std::vector<std::uint8_t>& blob) {
  return deserialize_model(blob.data(), blob.size());
}

bool looks_like_binary_model(const std::uint8_t* data, std::size_t size) {
  if (size < kMagic.size()) return false;
  for (std::size_t i = 0; i < kMagic.size(); ++i)
    if (data[i] != kMagic[i]) return false;
  return true;
}

}  // namespace bmf::serve
