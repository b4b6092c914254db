#include "regress/least_squares.hpp"

#include <gtest/gtest.h>

#include "basis/basis_set.hpp"
#include "linalg/blas.hpp"
#include "stats/descriptive.hpp"
#include "stats/rng.hpp"

namespace bmf::regress {
namespace {

// Sample K points of a known linear model and return (points, responses).
struct Data {
  linalg::Matrix points;
  linalg::Vector f;
};

Data make_linear_data(const linalg::Vector& truth, std::size_t k,
                      double noise_sd, stats::Rng& rng) {
  const std::size_t r = truth.size() - 1;
  Data d{linalg::Matrix(k, r), linalg::Vector(k)};
  for (std::size_t i = 0; i < k; ++i) {
    double f = truth[0];
    for (std::size_t j = 0; j < r; ++j) {
      const double x = rng.normal();
      d.points(i, j) = x;
      f += truth[j + 1] * x;
    }
    d.f[i] = f + rng.normal(0.0, noise_sd);
  }
  return d;
}

TEST(LeastSquares, RecoversNoiselessModel) {
  stats::Rng rng(1);
  const linalg::Vector truth{1.0, 2.0, -3.0, 0.5};
  Data d = make_linear_data(truth, 20, 0.0, rng);
  auto model = least_squares_fit(basis::BasisSet::linear(3), d.points, d.f);
  for (std::size_t m = 0; m < truth.size(); ++m)
    EXPECT_NEAR(model.coefficients()[m], truth[m], 1e-10);
}

TEST(LeastSquares, UnderdeterminedThrows) {
  linalg::Matrix g(3, 5);
  linalg::Vector f(3, 0.0);
  EXPECT_THROW(least_squares_coefficients(g, f), std::invalid_argument);
}

TEST(LeastSquares, RhsSizeMismatchThrows) {
  linalg::Matrix g(5, 2);
  linalg::Vector f(4, 0.0);
  EXPECT_THROW(least_squares_coefficients(g, f), std::invalid_argument);
}

TEST(LeastSquares, NoisyFitApproachesTruthWithMoreSamples) {
  stats::Rng rng(2);
  const linalg::Vector truth{0.5, 1.0, -1.0};
  Data small = make_linear_data(truth, 10, 0.5, rng);
  Data large = make_linear_data(truth, 2000, 0.5, rng);
  auto basis2 = basis::BasisSet::linear(2);
  auto m_small = least_squares_fit(basis2, small.points, small.f);
  auto m_large = least_squares_fit(basis2, large.points, large.f);
  double err_small = 0.0, err_large = 0.0;
  for (std::size_t m = 0; m < truth.size(); ++m) {
    err_small += std::abs(m_small.coefficients()[m] - truth[m]);
    err_large += std::abs(m_large.coefficients()[m] - truth[m]);
  }
  EXPECT_LT(err_large, err_small);
  EXPECT_LT(err_large, 0.1);
}

TEST(LeastSquares, SquareSystemIsSolvedExactly) {
  // K == M is the smallest sample count least squares accepts: the fit
  // must interpolate every sample.
  stats::Rng rng(5);
  const std::size_t n = 9;
  linalg::Matrix g(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) g(i, j) = rng.normal();
  const linalg::Vector f = rng.normal_vector(n);
  const linalg::Vector a = least_squares_coefficients(g, f);
  const linalg::Vector fitted = linalg::gemv(g, a);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(fitted[i], f[i], 1e-10 * (linalg::norm_inf(f) + 1.0))
        << "i=" << i;
}

TEST(LeastSquares, FitSolvesOverTheBasisDesignMatrix) {
  // least_squares_fit is least_squares_coefficients on the basis' design
  // matrix, wrapped in a model over that basis.
  stats::Rng rng(6);
  Data d = make_linear_data({0.3, -1.0, 2.0, 0.0, 4.0}, 30, 0.2, rng);
  const auto basis4 = basis::BasisSet::linear(4);
  const basis::PerformanceModel model =
      least_squares_fit(basis4, d.points, d.f);
  EXPECT_EQ(model.num_terms(), basis4.size());
  EXPECT_EQ(model.coefficients(),
            least_squares_coefficients(
                basis::design_matrix(basis4, d.points), d.f));
}

}  // namespace
}  // namespace bmf::regress
