#include "linalg/blas.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "linalg/kernels/kernels.hpp"
#include "parallel/thread_pool.hpp"

namespace bmf::linalg {
namespace {

TEST(Blas, Dot) {
  EXPECT_DOUBLE_EQ(dot({1, 2, 3}, {4, 5, 6}), 32.0);
  EXPECT_THROW(dot({1}, {1, 2}), std::invalid_argument);
}

TEST(Blas, Axpy) {
  Vector y{1, 1};
  axpy(2.0, {3, 4}, y);
  EXPECT_EQ(y, (Vector{7, 9}));
}

TEST(Blas, ScalAndNorms) {
  Vector x{3, -4};
  EXPECT_DOUBLE_EQ(norm2(x), 5.0);
  EXPECT_DOUBLE_EQ(norm_inf(x), 4.0);
  scal(2.0, x);
  EXPECT_EQ(x, (Vector{6, -8}));
}

TEST(Blas, AddSub) {
  EXPECT_EQ(add({1, 2}, {3, 4}), (Vector{4, 6}));
  EXPECT_EQ(sub({1, 2}, {3, 4}), (Vector{-2, -2}));
}

TEST(Blas, Gemv) {
  Matrix a{{1, 2}, {3, 4}, {5, 6}};
  EXPECT_EQ(gemv(a, {1, 1}), (Vector{3, 7, 11}));
  EXPECT_EQ(gemv_t(a, {1, 1, 1}), (Vector{9, 12}));
  EXPECT_THROW(gemv(a, {1, 2, 3}), std::invalid_argument);
  EXPECT_THROW(gemv_t(a, {1, 2}), std::invalid_argument);
}

TEST(Blas, GemmSmall) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  Matrix c = gemm(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19);
  EXPECT_DOUBLE_EQ(c(0, 1), 22);
  EXPECT_DOUBLE_EQ(c(1, 0), 43);
  EXPECT_DOUBLE_EQ(c(1, 1), 50);
}

TEST(Blas, GemmShapeMismatchThrows) {
  Matrix a(2, 3), b(2, 2);
  EXPECT_THROW(gemm(a, b), std::invalid_argument);
}

TEST(Blas, GemmMatchesNaiveOnRectangular) {
  // Sizes chosen to exercise partial blocks (kBlock = 64).
  const std::size_t m = 70, k = 65, n = 3;
  Matrix a(m, k), b(k, n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < k; ++j)
      a(i, j) = std::sin(static_cast<double>(i * k + j));
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < n; ++j)
      b(i, j) = std::cos(static_cast<double>(i * n + j));
  Matrix c = gemm(a, b);
  for (std::size_t i = 0; i < m; i += 17)
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (std::size_t p = 0; p < k; ++p) s += a(i, p) * b(p, j);
      EXPECT_NEAR(c(i, j), s, 1e-12);
    }
}

TEST(Blas, GemmTnMatchesExplicitTranspose) {
  Matrix a{{1, 2}, {3, 4}, {5, 6}};
  Matrix b{{1, 0}, {0, 1}, {1, 1}};
  Matrix c = gemm_tn(a, b);
  Matrix expect = gemm(a.transposed(), b);
  EXPECT_LT(max_abs_diff(c, expect), 1e-14);
}

TEST(Blas, GemmNtMatchesExplicitTranspose) {
  Matrix a{{1, 2, 3}, {4, 5, 6}};
  Matrix b{{1, 1, 0}, {0, 2, 1}};
  Matrix c = gemm_nt(a, b);
  Matrix expect = gemm(a, b.transposed());
  EXPECT_LT(max_abs_diff(c, expect), 1e-14);
}

TEST(Blas, GramIsSymmetricAndCorrect) {
  Matrix g{{1, 2, 0}, {0, 1, 1}, {2, 0, 1}, {1, 1, 1}};
  Matrix c = gram(g);
  Matrix expect = gemm(g.transposed(), g);
  EXPECT_LT(max_abs_diff(c, expect), 1e-14);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(c(i, j), c(j, i));
}

TEST(Blas, OuterGramWeighted) {
  Matrix g{{1, 2}, {0, 3}};
  Vector d{2, 1};
  // G diag(d) G^T = [[1,2],[0,3]] [[2,0],[0,1]] [[1,0],[2,3]]
  Matrix c = outer_gram_weighted(g, d);
  EXPECT_DOUBLE_EQ(c(0, 0), 1 * 2 * 1 + 2 * 1 * 2);  // 6
  EXPECT_DOUBLE_EQ(c(0, 1), 1 * 2 * 0 + 2 * 1 * 3);  // 6
  EXPECT_DOUBLE_EQ(c(1, 0), c(0, 1));
  EXPECT_DOUBLE_EQ(c(1, 1), 9);
  EXPECT_THROW(outer_gram_weighted(g, {1.0}), std::invalid_argument);
}

TEST(Blas, GemvScaled) {
  Matrix g{{1, 2}, {0, 3}};
  Vector d{2, 1};
  Vector z{1, 1};
  // G * (d .* z) = G * [2, 1]^T = [4, 3]^T
  EXPECT_EQ(gemv_scaled(g, d, z), (Vector{4, 3}));
}

// --- Microkernel tail handling -------------------------------------------
//
// The register-blocked gemm family packs into fixed 4x8 tiles with
// zero-padding; these sizes deliberately miss every tile boundary (odd
// primes, just-below and just-above multiples of 4/8, and a k spanning
// several 512-wide p-blocks via the k=1050 case).

Matrix fill(std::size_t r, std::size_t c, double phase) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < r; ++i)
    for (std::size_t j = 0; j < c; ++j)
      m(i, j) = std::sin(phase + static_cast<double>(i * c + j));
  return m;
}

Matrix naive_gemm(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double s = 0.0;
      for (std::size_t p = 0; p < a.cols(); ++p) s += a(i, p) * b(p, j);
      c(i, j) = s;
    }
  return c;
}

class GemmTails
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::size_t, std::size_t>> {};

TEST_P(GemmTails, AllVariantsMatchNaive) {
  const auto [m, n, k] = GetParam();
  Matrix a = fill(m, k, 0.1), b = fill(k, n, 0.7);
  Matrix expect = naive_gemm(a, b);
  const double tol = 1e-12 * (static_cast<double>(k) + 1.0);
  EXPECT_LT(max_abs_diff(gemm(a, b), expect), tol);
  EXPECT_LT(max_abs_diff(gemm_tn(a.transposed(), b), expect), tol);
  EXPECT_LT(max_abs_diff(gemm_nt(a, b.transposed()), expect), tol);
}

INSTANTIATE_TEST_SUITE_P(
    Tails, GemmTails,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 7, 5),
                      std::make_tuple(5, 9, 13), std::make_tuple(4, 8, 16),
                      std::make_tuple(13, 17, 31), std::make_tuple(67, 3, 129),
                      std::make_tuple(31, 33, 1050)));

TEST(Blas, GemvFamilyMatchesNaiveAboveParallelCutoff) {
  // 300x300 exceeds the parallel flop cutoff, exercising the threaded rows
  // path; spot-check against a scalar loop.
  const std::size_t n = 300;
  Matrix g = fill(n, n, 0.3);
  Vector x(n), d(n), z(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::cos(0.2 + static_cast<double>(i));
    d[i] = 1.0 + 0.5 * std::sin(static_cast<double>(i));
    z[i] = std::sin(1.1 * static_cast<double>(i));
  }
  Vector y = gemv(g, x), yt = gemv_t(g, x), ys = gemv_scaled(g, d, z);
  for (std::size_t i = 0; i < n; i += 41) {
    double s = 0.0, st = 0.0, ss = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      s += g(i, j) * x[j];
      st += g(j, i) * x[j];
      ss += g(i, j) * d[j] * z[j];
    }
    EXPECT_NEAR(y[i], s, 1e-10);
    EXPECT_NEAR(yt[i], st, 1e-10);
    EXPECT_NEAR(ys[i], ss, 1e-10);
  }
}

TEST(Blas, OuterGramWeightedIsItsPerEntryDefinition) {
  // The kernel is computed in blocks of output rows; every entry must still
  // be exactly dot(g_i .* d, g_j) over all M terms, with the lower triangle
  // mirrored. M is wide enough that a block holds only a few rows, so K
  // spans several blocks and a ragged tail, and K^2 M / 2 is above the
  // parallel flop cutoff.
  const std::size_t k = 70, m = 6001;
  const Matrix g = fill(k, m, 0.9);
  Vector d(m);
  for (std::size_t p = 0; p < m; ++p)
    d[p] = 0.25 + std::abs(std::cos(0.3 * static_cast<double>(p)));

  const kernels::SimdLevel restore = kernels::dispatch_info().active;
  for (kernels::SimdLevel level :
       {kernels::SimdLevel::kScalar, kernels::SimdLevel::kAvx2,
        kernels::SimdLevel::kAvx512}) {
    if (!kernels::level_available(level)) continue;
    EXPECT_TRUE(kernels::force_active_level(level));
    const kernels::KernelTable& kt = kernels::active();
    std::vector<double> scaled(m);
    Matrix want(k, k);
    for (std::size_t i = 0; i < k; ++i) {
      kt.mul(g.row_ptr(i), d.data(), scaled.data(), m);
      for (std::size_t j = i; j < k; ++j)
        want(i, j) = want(j, i) = kt.dot(scaled.data(), g.row_ptr(j), m);
    }
    for (std::size_t threads : {1, 4}) {
      parallel::set_num_threads(threads);
      const Matrix c = outer_gram_weighted(g, d);
      std::size_t mismatches = 0;
      for (std::size_t i = 0; i < k; ++i)
        for (std::size_t j = 0; j < k; ++j)
          mismatches += std::bit_cast<std::uint64_t>(c(i, j)) !=
                        std::bit_cast<std::uint64_t>(want(i, j));
      EXPECT_EQ(mismatches, 0u) << kernels::level_name(level) << " at "
                                << threads << " threads";
    }
  }
  parallel::set_num_threads(0);
  kernels::force_active_level(restore);
}

}  // namespace
}  // namespace bmf::linalg
