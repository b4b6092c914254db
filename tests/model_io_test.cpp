#include "io/model_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "stats/rng.hpp"

namespace bmf::io {
namespace {

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(ModelIo, RoundTripLinearModel) {
  const std::string path = temp_path("linear.bmfmodel");
  basis::PerformanceModel m(basis::BasisSet::linear(5),
                            {1.5, -2.25, 0.0, 1e-17, 3.0, -0.5});
  save_model(path, m);
  basis::PerformanceModel r = load_model(path);
  ASSERT_EQ(r.num_terms(), m.num_terms());
  ASSERT_EQ(r.basis().dimension(), 5u);
  for (std::size_t i = 0; i < m.num_terms(); ++i) {
    EXPECT_EQ(r.coefficients()[i], m.coefficients()[i]) << "i=" << i;
    EXPECT_EQ(r.basis().term(i), m.basis().term(i)) << "i=" << i;
  }
  std::remove(path.c_str());
}

TEST(ModelIo, RoundTripHighOrderTerms) {
  const std::string path = temp_path("quad.bmfmodel");
  auto b = basis::BasisSet::total_degree(3, 3);
  stats::Rng rng(42);
  linalg::Vector coeffs(b.size());
  for (double& c : coeffs) c = rng.normal();
  basis::PerformanceModel m(b, coeffs);
  save_model(path, m);
  basis::PerformanceModel r = load_model(path);
  // Predictions must match bit-for-bit on arbitrary points.
  for (int s = 0; s < 10; ++s) {
    linalg::Vector x = rng.normal_vector(3);
    EXPECT_EQ(r.predict(x), m.predict(x));
  }
  std::remove(path.c_str());
}

TEST(ModelIo, SaveFailsOnBadPath) {
  basis::PerformanceModel m(basis::BasisSet::linear(1), {1.0, 2.0});
  EXPECT_THROW(save_model("/nonexistent/dir/x.bmfmodel", m),
               std::runtime_error);
}

TEST(ModelIo, LoadRejectsMissingFile) {
  EXPECT_THROW(load_model("/nonexistent/x.bmfmodel"), std::runtime_error);
}

TEST(ModelIo, LoadRejectsBadMagic) {
  const std::string path = temp_path("badmagic.bmfmodel");
  {
    std::ofstream os(path);
    os << "not-a-model\n";
  }
  EXPECT_THROW(load_model(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(ModelIo, LoadRejectsMalformedTerm) {
  const std::string path = temp_path("badterm.bmfmodel");
  {
    std::ofstream os(path);
    os << "bmf-model v1\ndimension 2\nterm 1.0 nonsense\n";
  }
  EXPECT_THROW(load_model(path), std::runtime_error);
  {
    std::ofstream os(path);
    os << "bmf-model v1\ndimension 2\nblah 1.0\n";
  }
  EXPECT_THROW(load_model(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(ModelIo, LoadRejectsOutOfRangeVariable) {
  const std::string path = temp_path("badvar.bmfmodel");
  {
    std::ofstream os(path);
    os << "bmf-model v1\ndimension 2\nterm 1.0 5:1\n";
  }
  EXPECT_THROW(load_model(path), std::runtime_error);
  std::remove(path.c_str());
}

// Writes a v1 model of dimension 1 whose one non-constant term carries
// `factor`, and returns what load_model says about it ("" if it loads).
std::string load_error(const std::string& factor) {
  const std::string path = temp_path("factor.bmfmodel");
  {
    std::ofstream os(path);
    os << "bmf-model v1\ndimension 1\nterm 0.5\nterm 1.0 " << factor
       << "\n";
  }
  std::string error;
  try {
    load_model(path);
  } catch (const std::runtime_error& e) {
    error = e.what();
  }
  std::remove(path.c_str());
  return error;
}

TEST(ModelIo, LoadRejectsFactorDegreeOverBound) {
  // Evaluation sizes a (degree + 1) x 64-double table per variable, so a
  // file must not be able to ask for an arbitrary one.
  EXPECT_EQ(load_error("0:" + std::to_string(basis::kMaxFactorDegree)), "");
  for (const std::string& degree :
       {std::to_string(basis::kMaxFactorDegree + 1), std::string("1048576"),
        std::string("4294967295")}) {
    const std::string error = load_error("0:" + degree);
    EXPECT_NE(error.find("degree bound"), std::string::npos)
        << degree << ": " << error;
  }
}

TEST(ModelIo, LoadRejectsSignedOrOversizedFactorFields) {
  // "0:-1" used to load as degree 4294967295 and "0:4294967297" as degree
  // 1, a different model. Both fields are unsigned digits, range-checked.
  for (const char* factor :
       {"0:-1", "0:4294967297", "0:+1", "-1:1", "0:1x", "0:", ":1",
        "18446744073709551616:1"}) {
    const std::string error = load_error(factor);
    EXPECT_NE(error.find("malformed factor"), std::string::npos)
        << factor << ": " << error;
  }
}

// The v2 format declares its term count and ends with an explicit
// trailer, so a partially written or truncated file can never load as a
// smaller-but-valid model.
TEST(ModelIo, DetectsTruncatedFile) {
  const std::string path = temp_path("trunc.bmfmodel");
  basis::PerformanceModel m(basis::BasisSet::linear(3),
                            {1.0, 2.0, 3.0, 4.0});
  save_model(path, m);
  std::string full;
  {
    std::ifstream is(path, std::ios::binary);
    full.assign(std::istreambuf_iterator<char>(is),
                std::istreambuf_iterator<char>());
  }
  ASSERT_NE(full.find("end"), std::string::npos);
  // Cut the file after each complete line except the last: every prefix
  // must be rejected, not loaded as a model with fewer terms.
  for (std::size_t pos = full.find('\n');
       pos != std::string::npos && pos + 1 < full.size();
       pos = full.find('\n', pos + 1)) {
    {
      std::ofstream os(path, std::ios::binary | std::ios::trunc);
      os << full.substr(0, pos + 1);
    }
    EXPECT_THROW(load_model(path), std::runtime_error)
        << "prefix of " << pos + 1 << " bytes must not load";
  }
  std::remove(path.c_str());
}

TEST(ModelIo, RejectsTermCountMismatch) {
  const std::string path = temp_path("count.bmfmodel");
  {
    std::ofstream os(path);
    os << "bmf-model v2\ndimension 2\nterms 3\nterm 1.0\nterm 2.0 0:1\nend\n";
  }
  try {
    load_model(path);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("declared 3"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(ModelIo, RejectsMissingEndTrailer) {
  const std::string path = temp_path("noend.bmfmodel");
  {
    std::ofstream os(path);
    os << "bmf-model v2\ndimension 2\nterms 2\nterm 1.0\nterm 2.0 0:1\n";
  }
  EXPECT_THROW(load_model(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(ModelIo, SavedFilesUseV2WithTrailer) {
  const std::string path = temp_path("v2.bmfmodel");
  basis::PerformanceModel m(basis::BasisSet::linear(2), {1.0, 2.0, 3.0});
  save_model(path, m);
  std::ifstream is(path);
  std::string first;
  std::getline(is, first);
  EXPECT_EQ(first, "bmf-model v2");
  std::string line, last;
  bool saw_terms = false;
  while (std::getline(is, line)) {
    if (line.rfind("terms ", 0) == 0) saw_terms = true;
    if (!line.empty()) last = line;
  }
  EXPECT_TRUE(saw_terms);
  EXPECT_EQ(last, "end");
  std::remove(path.c_str());
}

TEST(ModelIo, LoadToleratesCrlf) {
  const std::string path = temp_path("crlf.bmfmodel");
  {
    std::ofstream os(path, std::ios::binary);
    os << "bmf-model v2\r\ndimension 2\r\nterms 2\r\nterm 1.5\r\n"
          "term -2.0 1:2\r\nend\r\n";
  }
  basis::PerformanceModel r = load_model(path);
  EXPECT_EQ(r.num_terms(), 2u);
  EXPECT_EQ(r.coefficients()[0], 1.5);
  std::remove(path.c_str());
}

TEST(ModelIo, ConstantOnlyModel) {
  const std::string path = temp_path("const.bmfmodel");
  basis::PerformanceModel m(basis::BasisSet(3, {basis::BasisTerm{}}),
                            {7.25});
  save_model(path, m);
  basis::PerformanceModel r = load_model(path);
  EXPECT_EQ(r.num_terms(), 1u);
  EXPECT_EQ(r.predict(linalg::Vector{1.0, 2.0, 3.0}), 7.25);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bmf::io
