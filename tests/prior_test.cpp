#include "bmf/prior.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace bmf::core {
namespace {

TEST(Prior, ZeroMeanSigmaEqualsEarlyMagnitude) {
  // Paper Eq. (16): sigma_m = |alpha_E,m|.
  auto p = CoefficientPrior::zero_mean({2.0, -3.0, 0.5});
  EXPECT_EQ(p.kind(), PriorKind::kZeroMean);
  EXPECT_NEAR(p.sigma(0), 2.0, 1e-12);
  EXPECT_NEAR(p.sigma(1), 3.0, 1e-12);
  EXPECT_NEAR(p.sigma(2), 0.5, 1e-12);
  for (std::size_t m = 0; m < 3; ++m) EXPECT_DOUBLE_EQ(p.mean()[m], 0.0);
}

TEST(Prior, NonzeroMeanCentersOnEarlyCoefficients) {
  // Paper Eq. (19) with lambda = 1.
  auto p = CoefficientPrior::nonzero_mean({2.0, -3.0});
  EXPECT_EQ(p.kind(), PriorKind::kNonzeroMean);
  EXPECT_DOUBLE_EQ(p.mean()[0], 2.0);
  EXPECT_DOUBLE_EQ(p.mean()[1], -3.0);
  EXPECT_NEAR(p.sigma(1), 3.0, 1e-12);
}

TEST(Prior, ZeroEarlyCoefficientClamped) {
  // sigma = |alpha_E| = 0 would pin the coefficient; the clamp keeps a
  // small positive width relative to the largest coefficient.
  PriorOptions opt;
  opt.clamp_rel = 1e-6;
  auto p = CoefficientPrior::zero_mean({10.0, 0.0}, {}, opt);
  EXPECT_NEAR(p.sigma(0), 10.0, 1e-12);
  EXPECT_NEAR(p.sigma(1), 1e-5, 1e-17);  // 1e-6 * 10
  EXPECT_GT(p.precision_scale()[1], 0.0);
}

TEST(Prior, MissingPriorGetsFlatSigma) {
  PriorOptions opt;
  opt.flat_sigma_rel = 1e3;
  auto p = CoefficientPrior::zero_mean({4.0, 0.0}, {1, 0}, opt);
  EXPECT_NEAR(p.sigma(1), 4.0e3, 1e-9);  // 1e3 * max|alpha_E|
  EXPECT_EQ(p.num_informative(), 1u);
  EXPECT_TRUE(p.informative()[0]);
  EXPECT_FALSE(p.informative()[1]);
}

TEST(Prior, NonzeroMeanMissingEntriesHaveZeroMean) {
  // Eq. 51/52: alpha_E = +inf means no mean pull; we encode mean = 0 with
  // flat variance.
  auto p = CoefficientPrior::nonzero_mean({4.0, 123.0}, {1, 0});
  EXPECT_DOUBLE_EQ(p.mean()[0], 4.0);
  EXPECT_DOUBLE_EQ(p.mean()[1], 0.0);
}

TEST(Prior, MaskSizeValidated) {
  EXPECT_THROW(CoefficientPrior::zero_mean({1.0, 2.0}, {1}),
               std::invalid_argument);
}

TEST(Prior, OptionValidation) {
  PriorOptions bad;
  bad.clamp_rel = 0.0;
  EXPECT_THROW(CoefficientPrior::zero_mean({1.0}, {}, bad),
               std::invalid_argument);
  bad.clamp_rel = 1e-6;
  bad.flat_sigma_rel = -1.0;
  EXPECT_THROW(CoefficientPrior::zero_mean({1.0}, {}, bad),
               std::invalid_argument);
}

TEST(Prior, AllZeroCoefficientsFallBackToUnitScale) {
  auto p = CoefficientPrior::zero_mean({0.0, 0.0});
  for (std::size_t m = 0; m < 2; ++m) {
    EXPECT_GT(p.precision_scale()[m], 0.0);
    EXPECT_TRUE(std::isfinite(p.precision_scale()[m]));
  }
}

TEST(Prior, DensityIsNormalizedGaussian) {
  auto p = CoefficientPrior::zero_mean({2.0});
  // Peak at zero: 1/(sigma sqrt(2 pi)).
  const double peak = 1.0 / (2.0 * std::sqrt(2.0 * 3.14159265358979));
  EXPECT_NEAR(p.density(0, 0.0), peak, 1e-10);
  EXPECT_LT(p.density(0, 2.0), p.density(0, 0.0));
  // Numerically integrate to ~1.
  double integral = 0.0;
  const double dx = 0.01;
  for (double x = -20.0; x < 20.0; x += dx)
    integral += p.density(0, x) * dx;
  EXPECT_NEAR(integral, 1.0, 1e-3);
}

TEST(Prior, NonzeroMeanDensityPeaksAtEarlyCoefficient) {
  auto p = CoefficientPrior::nonzero_mean({3.0});
  EXPECT_GT(p.density(0, 3.0), p.density(0, 0.0));
  EXPECT_GT(p.density(0, 3.0), p.density(0, 6.0));
}

TEST(Prior, MaximumLikelihoodSigmaOptimality) {
  // Paper Eq. (13)-(16): among all sigma, sigma = |alpha_E| maximizes the
  // zero-mean Gaussian density evaluated at alpha_E. Check numerically.
  const double alpha_e = 1.7;
  auto density = [&](double sigma) {
    return std::exp(-alpha_e * alpha_e / (2 * sigma * sigma)) /
           (sigma * std::sqrt(2.0 * 3.14159265358979));
  };
  const double at_opt = density(alpha_e);
  for (double s : {0.5, 1.0, 1.5, 1.9, 2.5, 4.0})
    EXPECT_LE(density(s), at_opt + 1e-12) << "sigma=" << s;
}

TEST(Prior, FromMomentsValidatesAndInfersKind) {
  // The serve kSolve verb builds its prior from client-sent moments, so
  // every malformed moment must be rejected here.
  auto nzm = CoefficientPrior::from_moments({0.5, 0.0}, {2.0, 4.0});
  EXPECT_EQ(nzm.kind(), PriorKind::kNonzeroMean);
  EXPECT_EQ(nzm.mean(), (linalg::Vector{0.5, 0.0}));
  EXPECT_EQ(nzm.precision_scale(), (linalg::Vector{2.0, 4.0}));
  EXPECT_EQ(nzm.num_informative(), 2u);
  EXPECT_EQ(CoefficientPrior::from_moments({0.0, 0.0}, {1.0, 1.0}).kind(),
            PriorKind::kZeroMean);
  EXPECT_THROW(CoefficientPrior::from_moments({0.0}, {1.0, 1.0}),
               std::invalid_argument);
  EXPECT_THROW(CoefficientPrior::from_moments({}, {}), std::invalid_argument);
  for (double q : {0.0, -1.0, std::nan(""), HUGE_VAL})
    EXPECT_THROW(CoefficientPrior::from_moments({0.0, 1.0}, {1.0, q}),
                 std::invalid_argument)
        << "q=" << q;
  for (double mu : {std::nan(""), HUGE_VAL})
    EXPECT_THROW(CoefficientPrior::from_moments({mu, 1.0}, {1.0, 1.0}),
                 std::invalid_argument)
        << "mu=" << mu;
}

TEST(Prior, KernelIsWeightedOuterGram) {
  // PriorKernel is B = G D^{-1} G^T with D = diag(q), shared by the CV
  // engine and the MAP workspace: check it entry by entry, and that B is
  // exactly symmetric (the eigensolver relies on it).
  const linalg::Matrix g{{1.0, 2.0, 0.0, -1.0},
                         {0.5, 0.0, 3.0, 1.0},
                         {-2.0, 1.0, 1.0, 0.25}};
  const auto prior = CoefficientPrior::from_moments({0.0, 1.0, 0.0, -2.0},
                                                    {2.0, 0.5, 4.0, 1.0});
  const PriorKernel kernel(g, prior);
  ASSERT_EQ(kernel.inv_q.size(), 4u);
  for (std::size_t m = 0; m < 4; ++m)
    EXPECT_EQ(kernel.inv_q[m], 1.0 / prior.precision_scale()[m]);
  ASSERT_EQ(kernel.b.rows(), 3u);
  ASSERT_EQ(kernel.b.cols(), 3u);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) {
      double want = 0.0;
      for (std::size_t m = 0; m < 4; ++m)
        want += g(i, m) * g(j, m) * kernel.inv_q[m];
      EXPECT_NEAR(kernel.b(i, j), want, 1e-14 * (std::abs(want) + 1.0))
          << "i=" << i << " j=" << j;
      EXPECT_EQ(kernel.b(i, j), kernel.b(j, i)) << "i=" << i << " j=" << j;
    }
  EXPECT_THROW(PriorKernel(g, CoefficientPrior::zero_mean({1.0, 1.0})),
               std::invalid_argument);
}

TEST(Prior, ToStringNames) {
  EXPECT_STREQ(to_string(PriorKind::kZeroMean), "BMF-ZM");
  EXPECT_STREQ(to_string(PriorKind::kNonzeroMean), "BMF-NZM");
}

}  // namespace
}  // namespace bmf::core
