#include "basis/basis_set.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include "basis/model.hpp"
#include "parallel/thread_pool.hpp"
#include "stats/rng.hpp"

namespace bmf::basis {
namespace {

class ScopedThreads {
 public:
  explicit ScopedThreads(std::size_t n) { parallel::set_num_threads(n); }
  ~ScopedThreads() { parallel::set_num_threads(0); }
};

linalg::Matrix random_points(std::size_t rows, std::size_t cols,
                             std::uint64_t seed) {
  stats::Rng rng(seed);
  linalg::Matrix pts(rows, cols);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j) pts(i, j) = rng.normal();
  return pts;
}

linalg::Vector random_coeffs(std::size_t n, std::uint64_t seed) {
  stats::Rng rng(seed);
  linalg::Vector c(n);
  for (double& v : c) v = rng.normal();
  return c;
}

bool same_bits(const double* a, const double* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(double)) == 0;
}

bool same_bits(const linalg::Vector& a, const linalg::Vector& b) {
  return a.size() == b.size() && same_bits(a.data(), b.data(), a.size());
}

bool same_bits(const linalg::Matrix& a, const linalg::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         same_bits(a.data(), b.data(), a.rows() * a.cols());
}

TEST(BasisTerm, ConstantTerm) {
  BasisTerm t;
  EXPECT_EQ(t.total_degree(), 0u);
  EXPECT_DOUBLE_EQ(t.evaluate({1.0, 2.0}), 1.0);
  EXPECT_EQ(t.to_string(), "1");
}

TEST(BasisTerm, LinearTerm) {
  BasisTerm t{{{1, 1u}}};
  EXPECT_EQ(t.total_degree(), 1u);
  EXPECT_DOUBLE_EQ(t.evaluate({3.0, 5.0}), 5.0);
  EXPECT_EQ(t.to_string(), "H1(x1)");
}

TEST(BasisTerm, ProductTerm) {
  // H1(x0) * H2(x1) = x0 * (x1^2 - 1)/sqrt(2); paper Eq. (5) style.
  BasisTerm t{{{0, 1u}, {1, 2u}}};
  EXPECT_EQ(t.total_degree(), 3u);
  const double x0 = 2.0, x1 = 3.0;
  EXPECT_NEAR(t.evaluate({x0, x1}), x0 * (x1 * x1 - 1) / std::sqrt(2.0),
              1e-14);
}

TEST(BasisSet, LinearSetShapeMatchesPaper) {
  // {1, x_1, ..., x_R}: M = R + 1.
  BasisSet b = BasisSet::linear(4);
  EXPECT_EQ(b.size(), 5u);
  EXPECT_EQ(b.dimension(), 4u);
  EXPECT_EQ(b.constant_index(), 0u);
  const linalg::Vector x{1, 2, 3, 4};
  const linalg::Vector g = b.evaluate(x);
  EXPECT_DOUBLE_EQ(g[0], 1.0);
  for (std::size_t r = 0; r < 4; ++r) EXPECT_DOUBLE_EQ(g[r + 1], x[r]);
}

TEST(BasisSet, TotalDegreeCountsMatchCombinatorics) {
  // #terms with total degree <= d over R vars is C(R + d, d).
  EXPECT_EQ(BasisSet::total_degree(2, 2).size(), 6u);   // C(4,2)
  EXPECT_EQ(BasisSet::total_degree(3, 2).size(), 10u);  // C(5,2)
  EXPECT_EQ(BasisSet::total_degree(2, 3).size(), 10u);  // C(5,3)
  EXPECT_EQ(BasisSet::total_degree(5, 1).size(), 6u);   // linear
}

TEST(BasisSet, LinearPlusDiagonalQuadratic) {
  BasisSet b = BasisSet::linear_plus_diagonal_quadratic(3);
  EXPECT_EQ(b.size(), 7u);
  const linalg::Vector x{1.0, 2.0, 0.0};
  const linalg::Vector g = b.evaluate(x);
  // Last three terms are H2 of each variable.
  EXPECT_NEAR(g[4], (1.0 - 1.0) / std::sqrt(2.0), 1e-14);
  EXPECT_NEAR(g[5], (4.0 - 1.0) / std::sqrt(2.0), 1e-14);
  EXPECT_NEAR(g[6], (0.0 - 1.0) / std::sqrt(2.0), 1e-14);
}

TEST(BasisSet, ValidatesFactors) {
  EXPECT_THROW(BasisSet(2, {BasisTerm{{{2, 1u}}}}), std::invalid_argument);
  EXPECT_THROW(BasisSet(2, {BasisTerm{{{0, 0u}}}}), std::invalid_argument);
  std::vector<BasisTerm> terms = BasisSet::linear(2).terms();
  terms.push_back(BasisTerm{{{5, 1u}}});
  EXPECT_THROW(BasisSet(2, terms), std::invalid_argument);
}

TEST(DesignMatrix, MatchesElementwiseEvaluation) {
  BasisSet b = BasisSet::total_degree(3, 2);
  stats::Rng rng(55);
  linalg::Matrix pts(7, 3);
  for (std::size_t i = 0; i < 7; ++i)
    for (std::size_t j = 0; j < 3; ++j) pts(i, j) = rng.normal();
  linalg::Matrix g = design_matrix(b, pts);
  ASSERT_EQ(g.rows(), 7u);
  ASSERT_EQ(g.cols(), b.size());
  for (std::size_t i = 0; i < 7; ++i) {
    const linalg::Vector gi = b.evaluate(pts.row(i));
    for (std::size_t m = 0; m < b.size(); ++m)
      EXPECT_NEAR(g(i, m), gi[m], 1e-13);
  }
}

TEST(DesignMatrix, DimensionMismatchThrows) {
  BasisSet b = BasisSet::linear(3);
  linalg::Matrix pts(5, 2);
  EXPECT_THROW(design_matrix(b, pts), std::invalid_argument);
}

TEST(DesignMatrix, BitIdenticalAcrossThreadsAtBlockEdges) {
  // Both loops chunk on 64-row evaluation blocks: batches of at most one
  // block run inline on the caller, longer ones split on block
  // boundaries. Neither may move a bit at any thread count.
  const std::vector<BasisSet> bases = {BasisSet::linear(24),
                                       BasisSet::total_degree(4, 3)};
  for (const BasisSet& b : bases) {
    const linalg::Vector coeffs = random_coeffs(b.size(), 11);
    for (const std::size_t rows : {std::size_t{1}, std::size_t{63},
                                   std::size_t{64}, std::size_t{65},
                                   std::size_t{128}, std::size_t{129},
                                   std::size_t{500}}) {
      const linalg::Matrix pts = random_points(rows, b.dimension(), rows);
      linalg::Matrix g1;
      linalg::Vector f1;
      {
        ScopedThreads threads(1);
        g1 = design_matrix(b, pts);
        f1 = design_matrix_times(b, pts, coeffs);
      }
      for (const std::size_t n : {std::size_t{2}, std::size_t{4}}) {
        ScopedThreads threads(n);
        EXPECT_TRUE(same_bits(design_matrix(b, pts), g1))
            << "M=" << b.size() << " rows=" << rows << " threads=" << n;
        EXPECT_TRUE(same_bits(design_matrix_times(b, pts, coeffs), f1))
            << "M=" << b.size() << " rows=" << rows << " threads=" << n;
      }
    }
  }
}

TEST(DesignMatrixTimes, ConcurrentCallersShareOnePlan) {
  // Three callers evaluate one shared model at once, as three serving
  // shards in one process do: the evaluation plan is read-only, so every
  // call reproduces the serial bytes (and the TSan build sees no race).
  const BasisSet basis = BasisSet::total_degree(4, 3);
  const PerformanceModel model(basis, random_coeffs(basis.size(), 12));
  constexpr std::size_t kCallers = 3;
  std::vector<linalg::Matrix> batches;
  std::vector<linalg::Vector> expected;
  {
    ScopedThreads threads(1);
    for (std::size_t c = 0; c < kCallers; ++c) {
      batches.push_back(random_points(64, 4, 100 + c));
      expected.push_back(design_matrix_times(model.basis(), batches[c],
                                             model.coefficients()));
    }
  }
  std::vector<int> mismatches(kCallers, 0);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c)
    callers.emplace_back([&, c] {
      linalg::Vector out;
      for (int i = 0; i < 200; ++i) {
        design_matrix_times(model.basis(), batches[c], model.coefficients(),
                            out);
        if (!same_bits(out, expected[c])) ++mismatches[c];
      }
    });
  for (std::thread& t : callers) t.join();
  for (std::size_t c = 0; c < kCallers; ++c)
    EXPECT_EQ(mismatches[c], 0) << "caller " << c;
}

TEST(BasisSet, CopyEvaluatesLikeOriginal) {
  const linalg::Matrix pts = random_points(130, 4, 13);
  linalg::Vector coeffs;
  linalg::Matrix g;
  linalg::Vector f;
  BasisSet copy;
  {
    const BasisSet original = BasisSet::total_degree(4, 3);
    coeffs = random_coeffs(original.size(), 14);
    g = design_matrix(original, pts);
    f = design_matrix_times(original, pts, coeffs);
    copy = original;
  }  // the copy outlives the original and keeps the plan alive
  EXPECT_TRUE(same_bits(design_matrix(copy, pts), g));
  EXPECT_TRUE(same_bits(design_matrix_times(copy, pts, coeffs), f));
}

TEST(BasisSet, DefaultConstructedEvaluates) {
  const BasisSet b;
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.dimension(), 0u);
  const linalg::Matrix pts(3, 0);
  const linalg::Matrix g = design_matrix(b, pts);
  EXPECT_EQ(g.rows(), 3u);
  EXPECT_EQ(g.cols(), 0u);
  EXPECT_EQ(design_matrix_times(b, pts, {}), linalg::Vector(3, 0.0));
}

class BasisOrthonormality : public ::testing::TestWithParam<unsigned> {};

TEST_P(BasisOrthonormality, MonteCarloDefectSmall) {
  // Multi-dimensional orthonormality (paper Eq. 3) holds empirically.
  BasisSet b = BasisSet::total_degree(3, GetParam());
  const double defect = orthonormality_defect(b, 200000, 777);
  EXPECT_LT(defect, 0.1) << "degree=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Degrees, BasisOrthonormality,
                         ::testing::Values(1u, 2u, 3u));

TEST(BasisSet, EvaluateDimensionMismatchThrows) {
  BasisSet b = BasisSet::linear(3);
  EXPECT_THROW(b.evaluate({1.0, 2.0}), std::invalid_argument);
}

}  // namespace
}  // namespace bmf::basis
