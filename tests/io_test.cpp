#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include "io/args.hpp"
#include "io/csv.hpp"
#include "io/table.hpp"

namespace bmf::io {
namespace {

TEST(Table, RendersAlignedColumns) {
  Table t({"K", "OMP", "BMF-PS"});
  t.add_row({"100", "2.7187", "0.5558"});
  t.add_row({"900", "0.8671", "0.4518"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("K    OMP     BMF-PS"), std::string::npos);
  EXPECT_NE(s.find("100  2.7187  0.5558"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.num_cols(), 3u);
}

TEST(Table, Validates) {
  EXPECT_THROW(Table({}), std::invalid_argument);
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(2.71873, 4), "2.7187");
  EXPECT_EQ(Table::num(1.0, 2), "1.00");
}

TEST(Csv, RoundTripWithHeader) {
  const std::string path = ::testing::TempDir() + "/bmf_csv_test.csv";
  linalg::Matrix m{{1.5, -2.0}, {3.25, 4.0}};
  write_csv(path, m, {"a", "b"});
  std::vector<std::string> header;
  linalg::Matrix r = read_csv(path, true, &header);
  ASSERT_EQ(header.size(), 2u);
  EXPECT_EQ(header[0], "a");
  EXPECT_EQ(header[1], "b");
  ASSERT_EQ(r.rows(), 2u);
  ASSERT_EQ(r.cols(), 2u);
  EXPECT_DOUBLE_EQ(r(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(r(1, 1), 4.0);
  std::remove(path.c_str());
}

TEST(Csv, ColumnsWriter) {
  const std::string path = ::testing::TempDir() + "/bmf_csv_cols.csv";
  write_csv_columns(path, {"x", "y"}, {{1, 2, 3}, {4, 5, 6}});
  linalg::Matrix r = read_csv(path, true);
  ASSERT_EQ(r.rows(), 3u);
  EXPECT_DOUBLE_EQ(r(2, 1), 6.0);
  std::remove(path.c_str());
  EXPECT_THROW(write_csv_columns(path, {"x"}, {{1}, {2}}),
               std::invalid_argument);
  EXPECT_THROW(write_csv_columns(path, {"x", "y"}, {{1, 2}, {3}}),
               std::invalid_argument);
}

TEST(Csv, Errors) {
  EXPECT_THROW(read_csv("/nonexistent/path.csv"), std::runtime_error);
  const std::string path = ::testing::TempDir() + "/bmf_csv_bad.csv";
  {
    std::ofstream os(path);
    os << "1,2\n3\n";
  }
  EXPECT_THROW(read_csv(path), std::runtime_error);
  {
    std::ofstream os(path);
    os << "1,abc\n";
  }
  EXPECT_THROW(read_csv(path), std::runtime_error);
  {
    // A number with trailing garbage must still be rejected...
    std::ofstream os(path);
    os << "1.5abc,2\n";
  }
  EXPECT_THROW(read_csv(path), std::runtime_error);
  std::remove(path.c_str());
}

// Files exported from Windows tools arrive with CRLF line endings and
// often padded cells; both must parse identically to the clean file.
TEST(Csv, ToleratesCrlfLineEndings) {
  const std::string path = ::testing::TempDir() + "/bmf_csv_crlf.csv";
  {
    std::ofstream os(path, std::ios::binary);
    os << "a,b\r\n1.5,-2.0\r\n3.25,4.0\r\n";
  }
  std::vector<std::string> header;
  linalg::Matrix r = read_csv(path, true, &header);
  ASSERT_EQ(header.size(), 2u);
  EXPECT_EQ(header[1], "b") << "header cell must not keep the CR";
  ASSERT_EQ(r.rows(), 2u);
  ASSERT_EQ(r.cols(), 2u);
  EXPECT_EQ(r(0, 1), -2.0);
  EXPECT_EQ(r(1, 1), 4.0);
  std::remove(path.c_str());
}

TEST(Csv, ToleratesWhitespacePaddedCells) {
  const std::string path = ::testing::TempDir() + "/bmf_csv_pad.csv";
  {
    std::ofstream os(path, std::ios::binary);
    os << " 1.5 ,\t-2.0\t\r\n3.25 , 4.0\r\n";
  }
  linalg::Matrix r = read_csv(path, false);
  ASSERT_EQ(r.rows(), 2u);
  ASSERT_EQ(r.cols(), 2u);
  EXPECT_EQ(r(0, 0), 1.5);
  EXPECT_EQ(r(0, 1), -2.0);
  EXPECT_EQ(r(1, 1), 4.0);
  std::remove(path.c_str());
}

TEST(Args, ParsesKeysFlagsAndPositionals) {
  const char* argv[] = {"prog",        "--k",   "300",  "--full",
                        "--seed=42",   "input", "--x",  "1.5",
                        "--name=test"};
  Args args(9, argv);
  EXPECT_EQ(args.program(), "prog");
  EXPECT_EQ(args.get_int("k", 0), 300);
  EXPECT_TRUE(args.flag("full"));
  EXPECT_FALSE(args.flag("absent"));
  EXPECT_EQ(args.get_seed("seed", 0), 42u);
  EXPECT_DOUBLE_EQ(args.get_double("x", 0.0), 1.5);
  EXPECT_EQ(args.get("name"), "test");
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "input");
}

TEST(Args, FallbacksAndErrors) {
  const char* argv[] = {"prog", "--k", "abc"};
  Args args(3, argv);
  EXPECT_EQ(args.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 1.25), 1.25);
  EXPECT_THROW(args.get_int("k", 0), std::invalid_argument);
  EXPECT_THROW(args.get_double("k", 0.0), std::invalid_argument);
  EXPECT_THROW(args.get_seed("k", 0), std::invalid_argument);
}

TEST(Args, IntegerMustBeTheWholeToken) {
  // std::stol read "4x" as 4; a daemon then ran with a value nobody typed.
  const char* argv[] = {"prog",       "--workers", "4x",         "--k=1e3",
                        "--hex=0x10", "--blank",   "--space= 7", "--ok=-12"};
  Args args(8, argv);
  EXPECT_THROW(args.get_int("workers", 0), std::invalid_argument);
  EXPECT_THROW(args.get_int("k", 0), std::invalid_argument);
  EXPECT_THROW(args.get_int("hex", 0), std::invalid_argument);
  EXPECT_THROW(args.get_int("blank", 0), std::invalid_argument);
  EXPECT_THROW(args.get_int("space", 0), std::invalid_argument);
  EXPECT_EQ(args.get_int("ok", 0), -12);
}

TEST(Args, IntegerOverflowIsAnError) {
  const char* argv[] = {"prog", "--big", "99999999999999999999", "--max",
                        "9223372036854775807"};
  Args args(5, argv);
  EXPECT_THROW(args.get_int("big", 0), std::invalid_argument);
  EXPECT_EQ(args.get_int("max", 0), 9223372036854775807L);
}

TEST(Args, IntegerRangeIsEnforced) {
  // "--capacity -1" cast to size_t used to lift the registry's LRU bound,
  // and "--chunk-rows 0" made the client loop forever.
  const char* argv[] = {"prog",          "--capacity",   "-1",
                        "--chunk-rows",  "0",            "--max-pending",
                        "0",             "--timeout-ms", "3000000000"};
  Args args(9, argv);
  EXPECT_THROW(args.get_int("capacity", 64, 0), std::invalid_argument);
  EXPECT_THROW(args.get_int("chunk-rows", 4096, 1), std::invalid_argument);
  EXPECT_EQ(args.get_int("max-pending", 8, 0), 0);
  EXPECT_THROW(args.get_int("timeout-ms", 5000, 0, 2147483647),
               std::invalid_argument);
  EXPECT_EQ(args.get_int("timeout-ms", 5000), 3000000000L);
  // The fallback is the caller's own constant and is returned unchecked.
  EXPECT_EQ(args.get_int("missing", -5, 0), -5);
  try {
    args.get_int("capacity", 64, 0);
    FAIL() << "negative capacity accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--capacity"), std::string::npos)
        << e.what();
  }
}

TEST(Args, DoubleAndSeedMustBeTheWholeToken) {
  const char* argv[] = {"prog",       "--x=1.5x",  "--y=-2.5e-3",
                        "--seed=-1",  "--s2=42z",  "--s3=18446744073709551615",
                        "--s4=18446744073709551616"};
  Args args(7, argv);
  EXPECT_THROW(args.get_double("x", 0.0), std::invalid_argument);
  EXPECT_DOUBLE_EQ(args.get_double("y", 0.0), -2.5e-3);
  // std::stoull wrapped "-1" to 2^64 - 1.
  EXPECT_THROW(args.get_seed("seed", 0), std::invalid_argument);
  EXPECT_THROW(args.get_seed("s2", 0), std::invalid_argument);
  EXPECT_EQ(args.get_seed("s3", 0), 18446744073709551615ULL);
  EXPECT_THROW(args.get_seed("s4", 0), std::invalid_argument);
}

TEST(Args, FlagFollowedByFlag) {
  const char* argv[] = {"prog", "--a", "--b", "v"};
  Args args(4, argv);
  EXPECT_TRUE(args.flag("a"));
  EXPECT_EQ(args.get("b"), "v");
}

}  // namespace
}  // namespace bmf::io
