#include "linalg/smw.hpp"

#include <gtest/gtest.h>

#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "stats/rng.hpp"

namespace bmf::linalg {
namespace {

// Dense reference: x = (diag(a) + c G^T G)^{-1} b.
Vector dense_reference(const Matrix& g, const Vector& diag, double c,
                       const Vector& b) {
  Matrix a = gram(g);
  a *= c;
  for (std::size_t i = 0; i < diag.size(); ++i) a(i, i) += diag[i];
  return Cholesky(a).solve(b);
}

TEST(Woodbury, MatchesDenseSolveSmall) {
  Matrix g{{1, 2, 0}, {0, 1, 1}};
  Vector diag{1.0, 2.0, 0.5};
  Vector b{1, 2, 3};
  Vector x = woodbury_solve(g, diag, 0.7, b);
  Vector ref = dense_reference(g, diag, 0.7, b);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(x[i], ref[i], 1e-10);
}

class WoodburyRandom
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(WoodburyRandom, MatchesDense) {
  const auto [k, m] = GetParam();
  stats::Rng rng(17 * k + m);
  Matrix g(k, m);
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < m; ++j) g(i, j) = rng.normal();
  Vector diag(m);
  for (double& d : diag) d = 0.1 + rng.uniform();
  Vector b = rng.normal_vector(m);
  const double c = 0.5 + rng.uniform();

  Vector x = woodbury_solve(g, diag, c, b);
  Vector ref = dense_reference(g, diag, c, b);
  double scale = norm_inf(ref) + 1.0;
  for (std::size_t i = 0; i < m; ++i)
    EXPECT_NEAR(x[i], ref[i], 1e-8 * scale) << "k=" << k << " m=" << m;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, WoodburyRandom,
    ::testing::Values(std::pair<std::size_t, std::size_t>{1, 5},
                      std::pair<std::size_t, std::size_t>{3, 10},
                      std::pair<std::size_t, std::size_t>{10, 10},
                      std::pair<std::size_t, std::size_t>{5, 50},
                      std::pair<std::size_t, std::size_t>{20, 100},
                      std::pair<std::size_t, std::size_t>{30, 8}));

TEST(Woodbury, WideSpreadDiagonal) {
  // Mimics missing-prior flat entries: some variances huge, some tiny.
  stats::Rng rng(99);
  const std::size_t k = 4, m = 12;
  Matrix g(k, m);
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < m; ++j) g(i, j) = rng.normal();
  Vector diag(m, 1.0);
  diag[0] = 1e-8;   // nearly flat prior
  diag[1] = 1e+6;   // very tight prior
  Vector b = rng.normal_vector(m);
  Vector x = woodbury_solve(g, diag, 1.0, b);
  Vector ref = dense_reference(g, diag, 1.0, b);
  for (std::size_t i = 0; i < m; ++i)
    EXPECT_NEAR(x[i], ref[i], 1e-6 * (norm_inf(ref) + 1.0));
}

TEST(Woodbury, ScaledDiagonalMatchesDenseReference) {
  // map_solve_fast passes diag = tau * q: sweeping the diagonal's overall
  // scale over the range a tau grid covers must stay on the dense answer.
  stats::Rng rng(23);
  const std::size_t k = 6, m = 20;
  Matrix g(k, m);
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < m; ++j) g(i, j) = rng.normal();
  Vector diag(m);
  for (double& d : diag) d = 0.2 + rng.uniform();
  Vector b = rng.normal_vector(m);
  for (double s : {1e-3, 0.25, 1.0, 8.0, 300.0}) {
    Vector scaled = diag;
    for (double& d : scaled) d *= s;
    Vector x = woodbury_solve(g, scaled, 1.0, b);
    Vector ref = dense_reference(g, scaled, 1.0, b);
    const double tol = 1e-9 * (norm_inf(ref) + 1.0);
    for (std::size_t i = 0; i < m; ++i)
      EXPECT_NEAR(x[i], ref[i], tol) << "s=" << s;
  }
}

TEST(Woodbury, GramScaleSweepMatchesDense) {
  // c enters only through the c^{-1} I shift of the capacitance matrix;
  // weak and strong Gram weights must both reproduce the dense solve.
  stats::Rng rng(31);
  const std::size_t k = 7, m = 24;
  Matrix g(k, m);
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < m; ++j) g(i, j) = rng.normal();
  Vector diag(m);
  for (double& d : diag) d = 0.5 + rng.uniform();
  Vector b = rng.normal_vector(m);
  for (double c : {1e-3, 1.0, 1e3}) {
    Vector x = woodbury_solve(g, diag, c, b);
    Vector ref = dense_reference(g, diag, c, b);
    const double tol = 1e-9 * (norm_inf(ref) + 1.0);
    for (std::size_t i = 0; i < m; ++i)
      EXPECT_NEAR(x[i], ref[i], tol) << "c=" << c;
  }
}

TEST(Woodbury, ZeroDesignReducesToDiagonalSolve) {
  // With G = 0 the low-rank term vanishes: x = b ./ diag exactly.
  Matrix g(3, 5, 0.0);
  const Vector diag{0.5, 2.0, 4.0, 1.0, 8.0};
  const Vector b{1.0, -2.0, 3.0, 0.25, 16.0};
  const Vector x = woodbury_solve(g, diag, 2.0, b);
  ASSERT_EQ(x.size(), b.size());
  for (std::size_t i = 0; i < b.size(); ++i)
    EXPECT_DOUBLE_EQ(x[i], b[i] / diag[i]) << "i=" << i;
}

TEST(Woodbury, RejectsBadInputs) {
  Matrix g(2, 3);
  const Vector b{1, 1, 1};
  EXPECT_THROW(woodbury_solve(g, {1, 1}, 1.0, b), std::invalid_argument);
  EXPECT_THROW(woodbury_solve(g, {1, 1, 0}, 1.0, b), std::invalid_argument);
  EXPECT_THROW(woodbury_solve(g, {1, 1, 1}, 0.0, b), std::invalid_argument);
  EXPECT_THROW(woodbury_solve(g, {1, 1, 1}, 1.0, {1, 1}),
               std::invalid_argument);
}

}  // namespace
}  // namespace bmf::linalg
