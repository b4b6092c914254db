#include "bmf/prior_mapping.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "stats/descriptive.hpp"
#include "stats/rng.hpp"

namespace bmf::core {
namespace {

TEST(MultifingerMap, IndexingLayout) {
  MultifingerMap map({2, 3, 1}, 2);
  EXPECT_EQ(map.num_early_vars(), 3u);
  EXPECT_EQ(map.num_finger_vars(), 6u);
  EXPECT_EQ(map.num_parasitic(), 2u);
  EXPECT_EQ(map.num_late_vars(), 8u);
  EXPECT_EQ(map.finger_var(0, 0), 0u);
  EXPECT_EQ(map.finger_var(0, 1), 1u);
  EXPECT_EQ(map.finger_var(1, 0), 2u);
  EXPECT_EQ(map.finger_var(2, 0), 5u);
  EXPECT_EQ(map.parasitic_var(0), 6u);
  EXPECT_EQ(map.parasitic_var(1), 7u);
  EXPECT_THROW(map.finger_var(0, 2), std::out_of_range);
  EXPECT_THROW(map.finger_var(3, 0), std::out_of_range);
  EXPECT_THROW(map.parasitic_var(2), std::out_of_range);
}

TEST(MultifingerMap, ZeroFingersRejected) {
  EXPECT_THROW(MultifingerMap({2, 0}), std::invalid_argument);
}

TEST(MultifingerMap, MapsPaperDifferentialPairExample) {
  // Paper Eq. (36)-(37): f_E = a1 x1 + a2 x2 + a3, two fingers each.
  basis::PerformanceModel early(basis::BasisSet::linear(2),
                                {0.7, 2.0, -3.0});  // {const, a1, a2}
  MultifingerMap map({2, 2});
  MappedPrior mapped = map.map_linear_model(early);

  ASSERT_EQ(mapped.late_basis.size(), 5u);  // 1 + 4 finger terms
  // Constant passes through.
  EXPECT_DOUBLE_EQ(mapped.early_coeffs[0], 0.7);
  // Eq. (49): beta = alpha / sqrt(W).
  const double s2 = std::sqrt(2.0);
  EXPECT_NEAR(mapped.early_coeffs[1], 2.0 / s2, 1e-12);
  EXPECT_NEAR(mapped.early_coeffs[2], 2.0 / s2, 1e-12);
  EXPECT_NEAR(mapped.early_coeffs[3], -3.0 / s2, 1e-12);
  EXPECT_NEAR(mapped.early_coeffs[4], -3.0 / s2, 1e-12);
  for (char c : mapped.informative) EXPECT_TRUE(c);
}

TEST(MultifingerMap, VarianceIsPreservedByMapping) {
  // Eq. (45)/(46): the mapped multifinger model must carry the same
  // performance variance as the early model, since x_r and the aggregated
  // fingers are both standard normal.
  basis::PerformanceModel early(basis::BasisSet::linear(2), {0.0, 3.0, 4.0});
  MultifingerMap map({4, 2});
  MappedPrior mapped = map.map_linear_model(early);
  // Var of a linear model with orthonormal basis = sum of non-constant
  // coefficients squared.
  double var_early = 3.0 * 3.0 + 4.0 * 4.0;
  double var_late = 0.0;
  for (std::size_t m = 1; m < mapped.early_coeffs.size(); ++m)
    var_late += mapped.early_coeffs[m] * mapped.early_coeffs[m];
  EXPECT_NEAR(var_late, var_early, 1e-12);
}

TEST(MultifingerMap, ParasiticTermsGetMissingPrior) {
  basis::PerformanceModel early(basis::BasisSet::linear(1), {1.0, 2.0});
  MultifingerMap map({2}, 3);
  MappedPrior mapped = map.map_linear_model(early);
  ASSERT_EQ(mapped.late_basis.size(), 6u);  // 1 + 2 fingers + 3 parasitic
  for (std::size_t m = 0; m < 3; ++m) {
    EXPECT_FALSE(mapped.informative[3 + m]);
    EXPECT_DOUBLE_EQ(mapped.early_coeffs[3 + m], 0.0);
  }
}

TEST(MultifingerMap, RejectsNonlinearEarlyModel) {
  auto terms = basis::BasisSet::linear(1).terms();
  terms.push_back(basis::BasisTerm{{{0, 2u}}});
  basis::PerformanceModel early(basis::BasisSet(1, terms), {1.0, 2.0, 0.5});
  MultifingerMap map({2});
  EXPECT_THROW(map.map_linear_model(early), std::invalid_argument);
}

TEST(MultifingerMap, RejectsDimensionMismatch) {
  basis::PerformanceModel early(basis::BasisSet::linear(3),
                                {1.0, 2.0, 3.0, 4.0});
  MultifingerMap map({2, 2});
  EXPECT_THROW(map.map_linear_model(early), std::invalid_argument);
}

TEST(MultifingerMap, AggregateToEarlyIsStandardNormal) {
  // x_r = sum_t x_{r,t} / sqrt(W_r) must have unit variance.
  MultifingerMap map({3, 2}, 1);
  stats::Rng rng(33);
  std::vector<double> agg0, agg1;
  for (int s = 0; s < 20000; ++s) {
    linalg::Vector x = rng.normal_vector(map.num_late_vars());
    linalg::Vector xe = map.aggregate_to_early(x);
    agg0.push_back(xe[0]);
    agg1.push_back(xe[1]);
  }
  EXPECT_NEAR(stats::mean(agg0), 0.0, 0.03);
  EXPECT_NEAR(stats::variance(agg0), 1.0, 0.05);
  EXPECT_NEAR(stats::variance(agg1), 1.0, 0.05);
}

TEST(MultifingerMap, AggregatePreservesMappedModelValue) {
  // h_E(x*) with mapped coefficients equals f_E(aggregate(x*)): the two
  // representations of Eq. (10)/(44) agree pointwise for linear models.
  basis::PerformanceModel early(basis::BasisSet::linear(2), {0.5, 2.0, -1.0});
  MultifingerMap map({2, 3});
  MappedPrior mapped = map.map_linear_model(early);
  basis::PerformanceModel h(mapped.late_basis, mapped.early_coeffs);
  stats::Rng rng(44);
  for (int s = 0; s < 50; ++s) {
    linalg::Vector x = rng.normal_vector(map.num_late_vars());
    EXPECT_NEAR(h.predict(x), early.predict(map.aggregate_to_early(x)),
                1e-12);
  }
}

TEST(MultifingerMap, AggregateValidatesDimension) {
  MultifingerMap map({2});
  EXPECT_THROW(map.aggregate_to_early({1.0}), std::invalid_argument);
}

TEST(MultifingerMap, SingleFingerIsIdentityMapping) {
  basis::PerformanceModel early(basis::BasisSet::linear(2), {1.0, 2.0, 3.0});
  MultifingerMap map({1, 1});
  MappedPrior mapped = map.map_linear_model(early);
  ASSERT_EQ(mapped.early_coeffs.size(), 3u);
  for (std::size_t m = 0; m < 3; ++m)
    EXPECT_DOUBLE_EQ(mapped.early_coeffs[m], early.coefficients()[m]);
}

}  // namespace
}  // namespace bmf::core
