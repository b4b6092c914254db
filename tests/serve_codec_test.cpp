#include "serve/model_codec.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <string>

#include "stats/rng.hpp"

namespace bmf::serve {
namespace {

FittedModel make_model(std::uint64_t seed = 7) {
  auto b = basis::BasisSet::total_degree(4, 3);
  stats::Rng rng(seed);
  linalg::Vector coeffs(b.size());
  for (double& c : coeffs) c = rng.normal();
  // Exercise tricky double encodings.
  coeffs[0] = -0.0;
  coeffs[1] = 1e-310;  // subnormal
  coeffs[2] = 1.0e308;
  FittedModel fitted;
  fitted.model = basis::PerformanceModel(b, coeffs);
  fitted.provenance = PriorProvenance::kNonzeroMean;
  fitted.tau = 0.034125;
  fitted.num_samples = 60;
  return fitted;
}

TEST(ServeCodec, RoundTripPreservesEverything) {
  const FittedModel m = make_model();
  const auto blob = serialize_model(m);
  const FittedModel r = deserialize_model(blob);
  EXPECT_EQ(r.provenance, m.provenance);
  EXPECT_EQ(r.tau, m.tau);
  EXPECT_EQ(r.num_samples, m.num_samples);
  ASSERT_EQ(r.model.num_terms(), m.model.num_terms());
  EXPECT_EQ(r.model.basis().dimension(), m.model.basis().dimension());
  for (std::size_t i = 0; i < m.model.num_terms(); ++i) {
    EXPECT_EQ(r.model.basis().term(i), m.model.basis().term(i)) << i;
    // Bit-exact comparison, including the signed zero.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.model.coefficients()[i]),
              std::bit_cast<std::uint64_t>(m.model.coefficients()[i]))
        << i;
  }
}

TEST(ServeCodec, ReserializationIsByteExact) {
  const auto blob = serialize_model(make_model());
  const auto again = serialize_model(deserialize_model(blob));
  EXPECT_EQ(blob, again);
}

TEST(ServeCodec, DetectsMagic) {
  const auto blob = serialize_model(make_model());
  EXPECT_TRUE(looks_like_binary_model(blob.data(), blob.size()));
  const std::uint8_t text[] = {'b', 'm', 'f', '-'};
  EXPECT_FALSE(looks_like_binary_model(text, sizeof(text)));
  EXPECT_FALSE(looks_like_binary_model(blob.data(), 2));
}

TEST(ServeCodec, RejectsBadMagic) {
  auto blob = serialize_model(make_model());
  blob[0] = 'X';
  try {
    deserialize_model(blob);
    FAIL() << "expected ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.status(), Status::kCorruptModel);
    EXPECT_EQ(e.context(), "deserialize_model");
  }
}

TEST(ServeCodec, RejectsCorruptedPayload) {
  auto blob = serialize_model(make_model());
  // Flip one bit in the middle of the payload: CRC must catch it.
  blob[blob.size() / 2] ^= 0x10;
  try {
    deserialize_model(blob);
    FAIL() << "expected ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.status(), Status::kCorruptModel);
    EXPECT_NE(e.message().find("CRC"), std::string::npos) << e.message();
  }
}

TEST(ServeCodec, RejectsCorruptedCrcField) {
  auto blob = serialize_model(make_model());
  blob[12] ^= 0xFF;  // the stored CRC itself
  EXPECT_THROW(deserialize_model(blob), ServeError);
}

TEST(ServeCodec, RejectsVersionMismatch) {
  auto blob = serialize_model(make_model());
  blob[4] = 0x7F;  // format version low byte
  try {
    deserialize_model(blob);
    FAIL() << "expected ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.status(), Status::kVersionMismatch);
    EXPECT_NE(e.message().find("version 127"), std::string::npos)
        << e.message();
  }
}

TEST(ServeCodec, RejectsTruncation) {
  const auto blob = serialize_model(make_model());
  // Every proper prefix must be rejected, never loaded as a partial model.
  for (std::size_t cut : {std::size_t{0}, std::size_t{3}, std::size_t{15},
                          std::size_t{16}, blob.size() / 2,
                          blob.size() - 1}) {
    EXPECT_THROW(deserialize_model(blob.data(), cut), ServeError) << cut;
  }
}

TEST(ServeCodec, RejectsTrailingBytes) {
  auto blob = serialize_model(make_model());
  blob.push_back(0);
  EXPECT_THROW(deserialize_model(blob), ServeError);
}

TEST(ServeCodec, RejectsBadFactors) {
  FittedModel m = make_model();
  const auto blob = serialize_model(m);
  // Hand-corrupt a factor's variable index beyond the dimension, then
  // re-stamp the CRC so only the semantic check can object.
  auto bad = blob;
  // Payload layout: 1 + 8 + 8 + 8 + 8 = 33 bytes of scalars, then M
  // coefficients; the factor table follows. Find the first nonzero factor
  // count and bump its first var to 0xFFFFFFFF.
  const std::size_t coeff_end =
      16 + 33 + 8 * m.model.num_terms();  // header + scalars + coefficients
  std::size_t p = coeff_end;
  for (std::size_t t = 0; t < m.model.num_terms(); ++t) {
    std::uint32_t nf = 0;
    for (int i = 0; i < 4; ++i)
      nf |= std::uint32_t{bad[p + static_cast<std::size_t>(i)]} << (8 * i);
    p += 4;
    if (nf > 0) {
      for (int i = 0; i < 4; ++i)
        bad[p + static_cast<std::size_t>(i)] = 0xFF;
      break;
    }
  }
  const std::uint32_t crc = crc32(bad.data() + 16, bad.size() - 16);
  for (int i = 0; i < 4; ++i)
    bad[12 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(crc >> (8 * i));
  try {
    deserialize_model(bad);
    FAIL() << "expected ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.status(), Status::kCorruptModel);
    EXPECT_NE(e.message().find("variable"), std::string::npos) << e.message();
  }
}

// A constant plus one factor of the given degree: an 81-byte blob.
FittedModel one_factor_model(unsigned degree) {
  FittedModel fitted;
  fitted.model = basis::PerformanceModel(
      basis::BasisSet(1, {basis::BasisTerm{}, basis::BasisTerm{{{0, degree}}}}),
      {0.5, 1.0});
  return fitted;
}

TEST(ServeCodec, RejectsFactorDegreeOverBound) {
  // Evaluation sizes a (degree + 1) x 64-double table per variable: a
  // degree-2^20 factor decoded here used to cost a 1-row evaluate 512 MiB
  // and over half a second, and degree 2^32 - 1 asked for 2 TiB.
  const FittedModel at_bound = one_factor_model(basis::kMaxFactorDegree);
  const FittedModel r = deserialize_model(serialize_model(at_bound));
  EXPECT_EQ(r.model.basis().term(1), at_bound.model.basis().term(1));
  for (const unsigned degree :
       {basis::kMaxFactorDegree + 1, 1u << 20, 0xFFFFFFFFu}) {
    const auto blob = serialize_model(one_factor_model(degree));
    ASSERT_EQ(blob.size(), 81u);
    try {
      deserialize_model(blob);
      FAIL() << "degree " << degree << " decoded";
    } catch (const ServeError& e) {
      EXPECT_EQ(e.status(), Status::kCorruptModel);
      EXPECT_NE(e.message().find("degree-" + std::to_string(degree)),
                std::string::npos)
          << e.message();
    }
  }
}

TEST(ServeCodec, Crc32KnownAnswer) {
  // IEEE 802.3 check value for "123456789".
  const char* s = "123456789";
  EXPECT_EQ(crc32(s, 9), 0xCBF43926u);
  EXPECT_EQ(crc32(s, 0), 0u);
}

TEST(ServeCodec, ProvenanceStrings) {
  EXPECT_STREQ(to_string(PriorProvenance::kNone), "none");
  EXPECT_STREQ(to_string(PriorProvenance::kZeroMean), "BMF-ZM");
  EXPECT_STREQ(to_string(PriorProvenance::kNonzeroMean), "BMF-NZM");
}

}  // namespace
}  // namespace bmf::serve
