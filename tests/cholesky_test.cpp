#include "linalg/cholesky.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "linalg/blas.hpp"
#include "linalg/eigen_sym.hpp"
#include "stats/rng.hpp"

namespace bmf::linalg {
namespace {

Matrix random_spd(std::size_t n, stats::Rng& rng) {
  // A = B B^T + n*I is SPD with overwhelming probability.
  Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.normal();
  Matrix a = gemm_nt(b, b);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
  return a;
}

TEST(Cholesky, FactorReconstructs) {
  Matrix a{{4, 2}, {2, 3}};
  Cholesky ch(a);
  const Matrix& l = ch.factor();
  Matrix llt = gemm_nt(l, l);
  EXPECT_LT(max_abs_diff(a, llt), 1e-12);
  EXPECT_DOUBLE_EQ(l(0, 1), 0.0);  // strictly lower triangular storage
}

TEST(Cholesky, SolveMatchesKnownSolution) {
  Matrix a{{4, 2}, {2, 3}};
  // x = (1, 2) -> b = A x = (8, 8).
  Vector x = Cholesky(a).solve(Vector{8, 8});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Cholesky, NotSpdThrows) {
  Matrix a{{1, 2}, {2, 1}};  // eigenvalues 3, -1
  EXPECT_THROW(Cholesky{a}, std::runtime_error);
  EXPECT_FALSE(Cholesky::try_factor(a).has_value());
}

TEST(Cholesky, TryFactorSucceedsOnSpd) {
  Matrix a{{2, 1}, {1, 2}};
  auto ch = Cholesky::try_factor(a);
  ASSERT_TRUE(ch.has_value());
  Vector x = ch->solve(Vector{3, 3});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 1.0, 1e-12);
}

TEST(Cholesky, NonSquareThrows) {
  Matrix a(2, 3);
  EXPECT_THROW(Cholesky{a}, std::invalid_argument);
}

TEST(Cholesky, LogDet) {
  Matrix a{{4, 0}, {0, 9}};
  EXPECT_NEAR(Cholesky(a).log_det(), std::log(36.0), 1e-12);
}

TEST(Cholesky, LogDetMatchesEigenvalues) {
  // log det(A) = sum(log w_i) for SPD A; log_det gets it from the factor's
  // diagonal without forming det(A), which over/underflows at modest n.
  stats::Rng rng(43);
  for (std::size_t n : {3u, 12u, 40u}) {
    const Matrix a = random_spd(n, rng);
    double want = 0.0;
    for (double w : eigen_symmetric(a).values) want += std::log(w);
    EXPECT_NEAR(Cholesky(a).log_det(), want, 1e-10 * std::abs(want))
        << "n=" << n;
  }
}

TEST(Cholesky, RandomizedResidualProperty) {
  stats::Rng rng(42);
  for (std::size_t n : {1u, 2u, 5u, 17u, 40u}) {
    Matrix a = random_spd(n, rng);
    Vector b = rng.normal_vector(n);
    Vector x = Cholesky(a).solve(b);
    Vector r = sub(gemv(a, x), b);
    EXPECT_LT(norm2(r), 1e-9 * (1.0 + norm2(b))) << "n=" << n;
  }
}

TEST(Cholesky, MatrixSolve) {
  Matrix a{{4, 2}, {2, 3}};
  Matrix b{{8, 4}, {8, 3}};
  Matrix x = Cholesky(a).solve(b);
  Matrix ax = gemm(a, x);
  EXPECT_LT(max_abs_diff(ax, b), 1e-12);
}

TEST(TriangularSolves, ForwardBackward) {
  Matrix l{{2, 0}, {1, 3}};
  Vector y = forward_subst(l, {4, 7});
  EXPECT_NEAR(y[0], 2.0, 1e-14);
  EXPECT_NEAR(y[1], 5.0 / 3.0, 1e-14);
  // L^T x = y should invert applying L^T.
  Vector x = backward_subst_t(l, y);
  // Check L L^T x = b.
  Vector ltx = {2 * x[0] + 1 * x[1], 3 * x[1]};
  Vector b = gemv(l, ltx);
  EXPECT_NEAR(b[0], 4.0, 1e-12);
  EXPECT_NEAR(b[1], 7.0, 1e-12);
}

TEST(TriangularSolves, BackwardUpper) {
  Matrix u{{2, 1}, {0, 3}};
  Vector x = backward_subst(u, {4, 6});
  EXPECT_NEAR(x[1], 2.0, 1e-14);
  EXPECT_NEAR(x[0], 1.0, 1e-14);
}

TEST(SpdSolve, OneShot) {
  Matrix a{{5, 1}, {1, 5}};
  Vector x = spd_solve(a, {6, 6});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 1.0, 1e-12);
}

TEST(RobustSpdSolve, CleanPathMatchesCholeskyBitwise) {
  stats::Rng rng(7);
  Matrix a = random_spd(9, rng);
  Vector b = rng.normal_vector(9);
  RobustSpdReport report;
  Vector x = robust_spd_solve(a, b, &report);
  EXPECT_EQ(x, Cholesky(a).solve(b));  // same code path, same bits
  EXPECT_EQ(report.path, RobustSpdReport::Path::kCholesky);
  EXPECT_EQ(report.attempts, 0u);
  EXPECT_EQ(report.jitter, 0.0);
  EXPECT_EQ(report.discarded, 0u);
  EXPECT_FALSE(report.degraded());
}

TEST(RobustSpdSolve, ExactlySingularTakesTheJitterRung) {
  // Duplicate columns: gram = [[1,1],[1,1]] fails Cholesky with an exact
  // zero pivot; the first jitter rung (1e-12 * max|diag|) must rescue it.
  Matrix a{{1, 1}, {1, 1}};
  RobustSpdReport report;
  Vector x = robust_spd_solve(a, {1, 1}, &report);
  EXPECT_EQ(report.path, RobustSpdReport::Path::kJittered);
  EXPECT_TRUE(report.degraded());
  EXPECT_GE(report.attempts, 1u);
  EXPECT_GT(report.jitter, 0.0);
  // The jittered system (A + jitter*I) x = b is well-posed and near the
  // minimum-norm solution x = (0.5, 0.5).
  EXPECT_NEAR(x[0], 0.5, 1e-5);
  EXPECT_NEAR(x[1], 0.5, 1e-5);
}

TEST(RobustSpdSolve, IndefiniteFallsBackToPseudoSolve) {
  // Eigenvalues {1, -1}: no diagonal jitter the ladder is willing to add
  // makes this SPD, so it must land on the eigendecomposition pseudo-solve
  // and discard the negative eigenvalue.
  Matrix a{{0, 1}, {1, 0}};
  RobustSpdReport report;
  Vector x = robust_spd_solve(a, {2, 2}, &report);
  EXPECT_EQ(report.path, RobustSpdReport::Path::kPseudoInverse);
  EXPECT_TRUE(report.degraded());
  EXPECT_EQ(report.discarded, 1u);
  // Projection of b onto the kept eigenvector v = (1,1)/sqrt(2), w = 1:
  // x = v (v.b) / w = (2, 2) / ... -> (2, 2) * (1/2) * 2 = (2, 2).
  EXPECT_NEAR(x[0], 2.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
  for (double v : x) EXPECT_TRUE(std::isfinite(v));
}

TEST(RobustSpdSolve, ReportPointerIsOptional) {
  Matrix a{{2, 0}, {0, 2}};
  Vector x = robust_spd_solve(a, {2, 4});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

}  // namespace
}  // namespace bmf::linalg
