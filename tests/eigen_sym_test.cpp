#include "linalg/eigen_sym.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "linalg/blas.hpp"
#include "linalg/kernels/kernels.hpp"
#include "stats/rng.hpp"

namespace bmf::linalg {
namespace {

namespace kn = kernels;

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

// ---- Bitwise reference: the row-pair QL ----------------------------------
//
// The eigensolver as it was before its QL rotations were deferred into
// segments: the same kernel-table tridiagonalization, then each rotation
// applied at once to two full rows of Q^T. eigen_symmetric must reproduce
// it bit for bit at every SIMD level.

void reference_tridiagonalize(Matrix& a, Vector& d, Vector& e) {
  const std::size_t n = a.rows();
  const kn::KernelTable& kt = kn::active();
  d.assign(n, 0.0);
  e.assign(n, 0.0);
  for (std::size_t i = n; i-- > 1;) {
    const std::size_t l = i - 1;
    double* u = a.row_ptr(i);
    double h = 0.0;
    if (l > 0) {
      double scale = 0.0;
      for (std::size_t k = 0; k <= l; ++k) scale += std::abs(u[k]);
      if (scale == 0.0) {
        e[i] = u[l];
      } else {
        for (std::size_t k = 0; k <= l; ++k) {
          u[k] /= scale;
          h += u[k] * u[k];
        }
        double f = u[l];
        const double g = f >= 0.0 ? -std::sqrt(h) : std::sqrt(h);
        e[i] = scale * g;
        h -= f * g;
        u[l] = f - g;
        f = 0.0;
        for (std::size_t j = 0; j <= l; ++j) {
          e[j] = kt.dot(a.row_ptr(j), u, l + 1) / h;
          f += e[j] * u[j];
        }
        const double hh = f / (h + h);
        for (std::size_t j = 0; j <= l; ++j) e[j] -= hh * u[j];
        for (std::size_t j = 0; j <= l; ++j) {
          double* aj = a.row_ptr(j);
          kt.axpy(-u[j], e.data(), aj, l + 1);
          kt.axpy(-e[j], u, aj, l + 1);
        }
      }
    } else {
      e[i] = u[l];
    }
    d[i] = h;
  }
  d[0] = 0.0;
  e[0] = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double* u = a.row_ptr(i);
    if (d[i] != 0.0) {
      for (std::size_t j = 0; j < i; ++j) {
        double* zj = a.row_ptr(j);
        kt.axpy(-kt.dot(zj, u, i) / d[i], u, zj, i);
      }
    }
    d[i] = a(i, i);
    a(i, i) = 1.0;
    for (std::size_t j = 0; j < i; ++j) a(j, i) = a(i, j) = 0.0;
  }
}

// Returns how many plane rotations were applied, so a test can show it
// drove the solver past a segment's capacity.
std::size_t reference_ql(Vector& d, Vector& e, Matrix& zt) {
  const std::size_t n = d.size();
  std::size_t rotations = 0;
  for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;
  for (std::size_t l = 0; l < n; ++l) {
    int iterations = 0;
    std::size_t m;
    do {
      for (m = l; m + 1 < n; ++m) {
        const double dd = std::abs(d[m]) + std::abs(d[m + 1]);
        if (std::abs(e[m]) <= 1e-300 + 2.3e-16 * dd) break;
      }
      if (m != l) {
        if (++iterations == 50) throw std::runtime_error("no convergence");
        double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        double r = std::hypot(g, 1.0);
        g = d[m] - d[l] + e[l] / (g + (g >= 0.0 ? std::abs(r) : -std::abs(r)));
        double s = 1.0, c = 1.0, p = 0.0;
        for (std::size_t i = m; i-- > l;) {
          double f = s * e[i];
          const double b = c * e[i];
          r = std::hypot(f, g);
          e[i + 1] = r;
          if (r == 0.0) {
            d[i + 1] -= p;
            e[m] = 0.0;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[i + 1] - p;
          r = (d[i] - g) * s + 2.0 * c * b;
          p = s * r;
          d[i + 1] = g + p;
          g = c * r - b;
          double* zi = zt.row_ptr(i);
          double* zi1 = zt.row_ptr(i + 1);
          for (std::size_t k = 0; k < n; ++k) {
            const double t = zi1[k];
            zi1[k] = s * zi[k] + c * t;
            zi[k] = c * zi[k] - s * t;
          }
          ++rotations;
        }
        if (r == 0.0 && m - l > 1) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }
  return rotations;
}

SymmetricEigen reference_eigen(const Matrix& a, std::size_t& rotations) {
  const std::size_t n = a.rows();
  Matrix z = a;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) z(i, j) = z(j, i);
  Vector d, e;
  reference_tridiagonalize(z, d, e);
  rotations = reference_ql(d, e, z);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return d[x] < d[y]; });
  SymmetricEigen out;
  out.values.resize(n);
  out.vectors.assign(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    out.values[j] = d[order[j]];
    for (std::size_t i = 0; i < n; ++i)
      out.vectors(i, j) = z(order[j], i);
  }
  return out;
}

std::vector<kn::SimdLevel> available_levels() {
  std::vector<kn::SimdLevel> out;
  for (kn::SimdLevel level : {kn::SimdLevel::kScalar, kn::SimdLevel::kAvx2,
                              kn::SimdLevel::kAvx512})
    if (kn::level_available(level)) out.push_back(level);
  return out;
}

// Pins the process-wide active table to `level` for one scope.
class ScopedLevel {
 public:
  explicit ScopedLevel(kn::SimdLevel level)
      : prev_(kn::dispatch_info().active) {
    EXPECT_TRUE(kn::force_active_level(level));
  }
  ~ScopedLevel() { kn::force_active_level(prev_); }

 private:
  kn::SimdLevel prev_;
};

bool same_bits(const double* x, const double* y, std::size_t n) {
  return std::memcmp(x, y, n * sizeof(double)) == 0;
}

// Decomposes `a` at every available level and checks values and vectors
// against the row-pair reference bit for bit. Returns the reference's
// rotation count at the last level.
std::size_t expect_matches_reference(const Matrix& a) {
  std::size_t rotations = 0;
  for (kn::SimdLevel level : available_levels()) {
    SCOPED_TRACE(kn::level_name(level));
    ScopedLevel scoped(level);
    const SymmetricEigen want = reference_eigen(a, rotations);
    const SymmetricEigen got = eigen_symmetric(a);
    EXPECT_TRUE(got.values.size() == want.values.size() &&
                same_bits(got.values.data(), want.values.data(),
                          want.values.size()));
    EXPECT_TRUE(got.vectors.size() == want.vectors.size() &&
                same_bits(got.vectors.data(), want.vectors.data(),
                          want.vectors.size()));
  }
  return rotations;
}

Matrix random_symmetric(std::size_t n, std::uint64_t seed) {
  stats::Rng rng(seed);
  Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.normal();
  Matrix a = gemm_nt(b, b);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += rng.normal();
  return a;
}

// Sizes around the vector kernels' 32-column panels and their masked
// tails (1, 2, 3 columns; one past a panel; two panels and a 1-column
// tail).
TEST(EigenSymBitwise, MatchesRowPairReferencePanelTails) {
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                        std::size_t{31}, std::size_t{33}, std::size_t{65}}) {
    SCOPED_TRACE(n);
    expect_matches_reference(random_symmetric(n, 500 + n));
  }
}

// Three diagonal blocks with exact-zero coupling: the tridiagonal form
// splits at the block edges, so sweeps stop short of the last row.
TEST(EigenSymBitwise, MatchesRowPairReferenceBlockDiagonal) {
  const std::size_t sizes[] = {20, 33, 17};
  Matrix a(70, 70);
  std::size_t at = 0;
  for (std::size_t b = 0; b < 3; ++b) {
    const Matrix block = random_symmetric(sizes[b], 600 + b);
    for (std::size_t i = 0; i < sizes[b]; ++i)
      for (std::size_t j = 0; j < sizes[b]; ++j)
        a(at + i, at + j) = block(i, j);
    at += sizes[b];
  }
  expect_matches_reference(a);
}

// Zero diagonal and power-of-two couplings from 2^-44 down to 2^-966:
// sin(theta) * e underflows to zero mid-sweep, so the iteration takes its
// r == 0 exit and the sweep ends early.
TEST(EigenSymBitwise, MatchesRowPairReferenceUnderflowSplit) {
  const int exponents[] = {-588, -817, -898, -44, -966};
  Matrix a(6, 6);
  for (std::size_t i = 1; i < 6; ++i)
    a(i, i - 1) = a(i - 1, i) = std::ldexp(1.0, exponents[i - 1]);
  expect_matches_reference(a);
}

// Enough rotations that the solver's segment fills and is applied more
// than once before the iteration ends.
TEST(EigenSymBitwise, MatchesRowPairReferenceAcrossSegmentFlushes) {
  const std::size_t rotations =
      expect_matches_reference(random_symmetric(130, 700));
  EXPECT_GT(rotations, std::size_t{2048});
}

}  // namespace
}  // namespace bmf::linalg
