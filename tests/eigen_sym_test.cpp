#include "linalg/eigen_sym.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "linalg/blas.hpp"
#include "stats/rng.hpp"

namespace bmf::linalg {
namespace {

TEST(EigenSym, DiagonalMatrix) {
  Matrix a = Matrix::diagonal({3, 1, 2});
  SymmetricEigen e = eigen_symmetric(a);
  ASSERT_EQ(e.values.size(), 3u);
  EXPECT_NEAR(e.values[0], 1.0, 1e-12);
  EXPECT_NEAR(e.values[1], 2.0, 1e-12);
  EXPECT_NEAR(e.values[2], 3.0, 1e-12);
}

TEST(EigenSym, KnownTwoByTwo) {
  // [[2,1],[1,2]] has eigenvalues 1 and 3.
  Matrix a{{2, 1}, {1, 2}};
  SymmetricEigen e = eigen_symmetric(a);
  EXPECT_NEAR(e.values[0], 1.0, 1e-12);
  EXPECT_NEAR(e.values[1], 3.0, 1e-12);
}

TEST(EigenSym, EmptyAndSingleton) {
  EXPECT_EQ(eigen_symmetric(Matrix()).values.size(), 0u);
  SymmetricEigen e = eigen_symmetric(Matrix{{5}});
  ASSERT_EQ(e.values.size(), 1u);
  EXPECT_DOUBLE_EQ(e.values[0], 5.0);
  EXPECT_DOUBLE_EQ(e.vectors(0, 0) * e.vectors(0, 0), 1.0);
}

TEST(EigenSym, NonSquareThrows) {
  EXPECT_THROW(eigen_symmetric(Matrix(2, 3)), std::invalid_argument);
}

class EigenSymRandom : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EigenSymRandom, ReconstructsAndOrthonormal) {
  const std::size_t n = GetParam();
  stats::Rng rng(1000 + n);
  Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.normal();
  Matrix a = gemm_nt(b, b);  // symmetric PSD

  SymmetricEigen e = eigen_symmetric(a);

  // Eigenvalues ascending.
  EXPECT_TRUE(std::is_sorted(e.values.begin(), e.values.end()));

  // V^T V = I.
  Matrix vtv = gemm_tn(e.vectors, e.vectors);
  EXPECT_LT(max_abs_diff(vtv, Matrix::identity(n)), 1e-9) << "n=" << n;

  // V diag(w) V^T = A.
  Matrix vd = e.vectors;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) vd(i, j) *= e.values[j];
  Matrix rec = gemm_nt(vd, e.vectors);
  const double scale = frobenius_norm(a) + 1.0;
  EXPECT_LT(max_abs_diff(rec, a) / scale, 1e-10) << "n=" << n;

  // Trace preserved.
  double tr_a = 0.0, sum_w = 0.0;
  for (std::size_t i = 0; i < n; ++i) tr_a += a(i, i);
  for (double w : e.values) sum_w += w;
  EXPECT_NEAR(tr_a, sum_w, 1e-8 * scale);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenSymRandom,
                         ::testing::Values(2, 3, 5, 8, 13, 21, 34, 55, 89));

// The full output contract — ascending values, orthonormal vectors,
// reconstruction and trace — with every tolerance relative to the matrix's
// own norm, so a kernel at the 1e-17 scale of the SRAM fit is held to the
// same standard as a unit-scale one.
void expect_valid_decomposition(const Matrix& a, const SymmetricEigen& e) {
  const std::size_t n = a.rows();
  EXPECT_TRUE(std::is_sorted(e.values.begin(), e.values.end()));
  EXPECT_LT(max_abs_diff(gemm_tn(e.vectors, e.vectors), Matrix::identity(n)),
            1e-9);
  Matrix vd = e.vectors;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) vd(i, j) *= e.values[j];
  const double norm = frobenius_norm(a);
  EXPECT_LT(max_abs_diff(gemm_nt(vd, e.vectors), a) / norm, 1e-10);
  double tr_a = 0.0, sum_w = 0.0;
  for (std::size_t i = 0; i < n; ++i) tr_a += a(i, i);
  for (double w : e.values) sum_w += w;
  EXPECT_NEAR(tr_a, sum_w, 1e-10 * norm);
}

// Decomposes `a`, then s * a with s chosen so the largest eigenvalue is
// 3e-17 (the SRAM fit's kernel scale): both must satisfy the contract, and
// eig(s a) must equal s eig(a) to 1e-12 of the spectral radius.
void expect_decomposition_and_scale_equivariance(const Matrix& a) {
  const SymmetricEigen e = eigen_symmetric(a);
  expect_valid_decomposition(a, e);
  const double s = 3e-17 / e.values.back();
  Matrix scaled = a;
  scaled *= s;
  const SymmetricEigen es = eigen_symmetric(scaled);
  expect_valid_decomposition(scaled, es);
  ASSERT_EQ(es.values.size(), e.values.size());
  for (std::size_t i = 0; i < e.values.size(); ++i)
    EXPECT_NEAR(es.values[i], s * e.values[i], 1e-12 * 3e-17) << "i=" << i;
}

// The shapes a BMF-PS fit decomposes on the SRAM benchmark: 400 x 400 fold
// kernels and the 500 x 500 full-data kernel.
class EigenSymFitShapes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EigenSymFitShapes, RandomPsd) {
  const std::size_t n = GetParam();
  stats::Rng rng(2000 + n);
  Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.normal();
  expect_decomposition_and_scale_equivariance(gemm_nt(b, b));
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenSymFitShapes,
                         ::testing::Values(400, 500));

TEST(EigenSym, FitShapedKernel) {
  // B = G diag(d) G^T for 400 samples of 1200 bases, prior weights d spread
  // over six decades as the early-coefficient magnitudes are.
  stats::Rng rng(3001);
  const std::size_t k = 400, m = 1200;
  Matrix g(k, m);
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < m; ++j) g(i, j) = rng.normal();
  Vector d(m);
  for (double& v : d) v = std::pow(10.0, -6.0 * rng.uniform());
  expect_decomposition_and_scale_equivariance(outer_gram_weighted(g, d));
}

TEST(EigenSym, PsdMatrixHasNonnegativeEigenvalues) {
  stats::Rng rng(77);
  const std::size_t n = 20;
  Matrix b(n, 5);  // rank 5 -> 15 (near) zero eigenvalues
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < 5; ++j) b(i, j) = rng.normal();
  Matrix a = gemm_nt(b, b);
  SymmetricEigen e = eigen_symmetric(a);
  for (double w : e.values) EXPECT_GT(w, -1e-9);
  // Rank should be 5: exactly 5 eigenvalues well above zero.
  std::size_t big = 0;
  for (double w : e.values)
    if (w > 1e-6) ++big;
  EXPECT_EQ(big, 5u);
}

TEST(EigenSym, SolvesShiftedSystemsAcrossGrid) {
  // The CV engine's use case: (I + t^{-1} B)^{-1} v for many t from one
  // decomposition must match a fresh dense solve.
  stats::Rng rng(123);
  const std::size_t n = 12;
  Matrix c(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) c(i, j) = rng.normal();
  Matrix bmat = gemm_nt(c, c);
  SymmetricEigen e = eigen_symmetric(bmat);
  Vector v = rng.normal_vector(n);
  for (double t : {0.1, 1.0, 10.0, 1000.0}) {
    // Via eigen: x = V diag(1/(1 + w/t)) V^T v.
    Vector vt = gemv_t(e.vectors, v);
    for (std::size_t i = 0; i < n; ++i) vt[i] /= 1.0 + e.values[i] / t;
    Vector x_eig = gemv(e.vectors, vt);
    // Via dense solve.
    Matrix a = bmat;
    a *= 1.0 / t;
    for (std::size_t i = 0; i < n; ++i) a(i, i) += 1.0;
    // Gaussian elimination through Cholesky not available here without
    // extra includes; verify by multiplying back instead.
    Vector back = gemv(a, x_eig);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(back[i], v[i], 1e-8) << "t=" << t;
  }
}

}  // namespace
}  // namespace bmf::linalg
