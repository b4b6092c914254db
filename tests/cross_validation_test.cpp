#include "bmf/cross_validation.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "bmf/map_solver.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "stats/descriptive.hpp"
#include "stats/kfold.hpp"
#include "stats/rng.hpp"

namespace bmf::core {
namespace {

TEST(LogGrid, EndpointsAndMonotone) {
  linalg::Vector g = log_grid(0.01, 100.0, 5);
  ASSERT_EQ(g.size(), 5u);
  EXPECT_NEAR(g.front(), 0.01, 1e-12);
  EXPECT_NEAR(g.back(), 100.0, 1e-9);
  EXPECT_NEAR(g[2], 1.0, 1e-9);  // geometric midpoint
  for (std::size_t i = 1; i < 5; ++i) EXPECT_GT(g[i], g[i - 1]);
}

TEST(LogGrid, SinglePointIsGeometricMean) {
  linalg::Vector g = log_grid(1.0, 100.0, 1);
  ASSERT_EQ(g.size(), 1u);
  EXPECT_NEAR(g[0], 10.0, 1e-9);
}

TEST(LogGrid, Validates) {
  EXPECT_THROW(log_grid(0.0, 1.0, 3), std::invalid_argument);
  EXPECT_THROW(log_grid(2.0, 1.0, 3), std::invalid_argument);
  EXPECT_THROW(log_grid(1.0, 2.0, 0), std::invalid_argument);
}

TEST(TauGridCenter, UsesResponseVariance) {
  // Sample variance of {0, 2, 4} is 4.
  EXPECT_NEAR(tau_grid_center({0.0, 2.0, 4.0}), 4.0, 1e-12);
  // Degenerate constant responses fall back to mean^2, then 1.
  EXPECT_NEAR(tau_grid_center({3.0, 3.0}), 9.0, 1e-12);
  EXPECT_NEAR(tau_grid_center({0.0, 0.0}), 1.0, 1e-12);
}

struct Problem {
  linalg::Matrix g;
  linalg::Vector f;
  linalg::Vector early;
};

Problem make_problem(std::size_t k, std::size_t m, double noise,
                     stats::Rng& rng) {
  Problem p;
  p.g.assign(k, m);
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < m; ++j) p.g(i, j) = rng.normal();
  p.early.resize(m);
  for (double& e : p.early) e = rng.normal();
  p.f.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    double v = 0.0;
    for (std::size_t j = 0; j < m; ++j) v += p.early[j] * p.g(i, j);
    p.f[i] = v + rng.normal(0.0, noise);
  }
  return p;
}

// Brute-force reference: for each fold and tau, run the direct MAP solver
// on the training rows and evaluate the held-out relative error.
CvCurve brute_force_cv(const linalg::Matrix& g, const linalg::Vector& f,
                       const CoefficientPrior& prior,
                       const linalg::Vector& taus, std::size_t folds,
                       std::uint64_t seed) {
  CvCurve curve;
  curve.taus.assign(taus.begin(), taus.end());
  curve.errors.assign(taus.size(), 0.0);
  stats::Rng rng(seed);
  stats::KFold kf(g.rows(), folds, rng);
  for (std::size_t fi = 0; fi < folds; ++fi) {
    auto split = kf.split(fi);
    linalg::Matrix gt(split.train.size(), g.cols());
    linalg::Vector ft(split.train.size());
    for (std::size_t i = 0; i < split.train.size(); ++i) {
      gt.set_row(i, g.row(split.train[i]));
      ft[i] = f[split.train[i]];
    }
    linalg::Matrix ge(split.test.size(), g.cols());
    linalg::Vector fe(split.test.size());
    for (std::size_t i = 0; i < split.test.size(); ++i) {
      ge.set_row(i, g.row(split.test[i]));
      fe[i] = f[split.test[i]];
    }
    for (std::size_t ti = 0; ti < taus.size(); ++ti) {
      linalg::Vector a = map_solve_direct(gt, ft, prior, taus[ti]);
      linalg::Vector pred = linalg::gemv(ge, a);
      curve.errors[ti] += stats::relative_error(pred, fe);
    }
  }
  for (double& e : curve.errors) e /= static_cast<double>(folds);
  return curve;
}

class CvEngineVsBruteForce : public ::testing::TestWithParam<PriorKind> {};

TEST_P(CvEngineVsBruteForce, CurvesAgree) {
  stats::Rng rng(42);
  Problem p = make_problem(30, 50, 0.1, rng);
  // Perturb early coefficients so the prior is informative but imperfect.
  linalg::Vector early = p.early;
  for (double& e : early) e *= 1.1;

  auto prior = GetParam() == PriorKind::kZeroMean
                   ? CoefficientPrior::zero_mean(early)
                   : CoefficientPrior::nonzero_mean(early);
  CvOptions opt;
  opt.folds = 3;
  opt.grid_size = 7;
  opt.seed = 9;

  CvEngine engine(p.g, p.f, prior, opt);
  CvCurve fast = engine.evaluate(prior.mean());
  CvCurve ref = brute_force_cv(p.g, p.f, prior, engine.tau_grid(), opt.folds,
                               opt.seed);
  ASSERT_EQ(fast.errors.size(), ref.errors.size());
  for (std::size_t i = 0; i < fast.errors.size(); ++i)
    EXPECT_NEAR(fast.errors[i], ref.errors[i], 1e-6 + 1e-4 * ref.errors[i])
        << "grid point " << i;
}

INSTANTIATE_TEST_SUITE_P(Priors, CvEngineVsBruteForce,
                         ::testing::Values(PriorKind::kZeroMean,
                                           PriorKind::kNonzeroMean));

// The tau -> 0 limit of the CV error: each fold predicts its held-out rows
// with G_te mu + C B_tr^{-1} (f_tr - G_tr mu), where B_tr = G_tr D^{-1}
// G_tr^T and C = G_te D^{-1} G_tr^T, with B_tr solved by Cholesky.
double cv_error_tau_to_zero(const linalg::Matrix& g, const linalg::Vector& f,
                            const CoefficientPrior& prior, std::size_t folds,
                            std::uint64_t seed) {
  // Rows of G D^{-1/2}: the kernel blocks are their inner products.
  linalg::Matrix gs = g;
  for (std::size_t i = 0; i < g.rows(); ++i)
    for (std::size_t p = 0; p < g.cols(); ++p)
      gs(i, p) /= std::sqrt(prior.precision_scale()[p]);
  const linalg::Vector g_mu = linalg::gemv(g, prior.mean());
  auto rows = [](const linalg::Matrix& a, const std::vector<std::size_t>& idx) {
    linalg::Matrix out(idx.size(), a.cols());
    for (std::size_t i = 0; i < idx.size(); ++i) out.set_row(i, a.row(idx[i]));
    return out;
  };
  stats::Rng rng(seed);
  stats::KFold kf(g.rows(), folds, rng);
  double total = 0.0;
  for (std::size_t fi = 0; fi < folds; ++fi) {
    auto split = kf.split(fi);
    const linalg::Matrix gs_tr = rows(gs, split.train);
    linalg::Vector resid(split.train.size());
    for (std::size_t i = 0; i < resid.size(); ++i)
      resid[i] = f[split.train[i]] - g_mu[split.train[i]];
    const linalg::Vector y =
        linalg::Cholesky(linalg::gemm_nt(gs_tr, gs_tr)).solve(resid);
    const linalg::Vector cy =
        linalg::gemv(linalg::gemm_nt(rows(gs, split.test), gs_tr), y);
    linalg::Vector pred(split.test.size()), fe(split.test.size());
    for (std::size_t i = 0; i < pred.size(); ++i) {
      pred[i] = g_mu[split.test[i]] + cy[i];
      fe[i] = f[split.test[i]];
    }
    total += stats::relative_error(pred, fe);
  }
  return total / static_cast<double>(folds);
}

class CvEngineLowTau : public ::testing::TestWithParam<PriorKind> {};

TEST_P(CvEngineLowTau, SmallestTauMatchesInterpolationLimit) {
  // Regression: the engine used to predict with (a2 - C s) / tau, whose two
  // O(1/tau) terms cancel catastrophically at the low end of the grid (it
  // missed the limit by 1.2e-4 (ZM) and 2.5e-3 (NZM) relative here). At
  // tau_min = 1e-12 Var(f) the curve must sit on the tau -> 0 limit; the
  // gap tau_min / w_min(B_tr) is ~1e-12.
  stats::Rng rng(2024);
  Problem p = make_problem(40, 120, 0.1, rng);
  auto prior = GetParam() == PriorKind::kZeroMean
                   ? CoefficientPrior::zero_mean(p.early)
                   : CoefficientPrior::nonzero_mean(p.early);
  CvOptions opt;
  opt.grid_lo_rel = 1e-12;
  CvEngine engine(p.g, p.f, prior, opt);
  const CvCurve curve = engine.evaluate(prior.mean());
  const double limit =
      cv_error_tau_to_zero(p.g, p.f, prior, opt.folds, opt.seed);
  EXPECT_NEAR(curve.errors.front(), limit, 1e-8 * limit);
}

INSTANTIATE_TEST_SUITE_P(Priors, CvEngineLowTau,
                         ::testing::Values(PriorKind::kZeroMean,
                                           PriorKind::kNonzeroMean));

TEST(CvEngine, AccuratePriorFavorsLargeTauForNonzeroMean) {
  // When the prior mean equals the truth and data is noisy, CV error for
  // the nonzero-mean prior must decrease toward large tau.
  stats::Rng rng(7);
  Problem p = make_problem(25, 40, 0.5, rng);
  auto prior = CoefficientPrior::nonzero_mean(p.early);  // exact prior
  CvOptions opt;
  opt.folds = 5;
  opt.grid_size = 9;
  CvEngine engine(p.g, p.f, prior, opt);
  CvCurve c = engine.evaluate(prior.mean());
  EXPECT_LT(c.errors.back(), c.errors.front());
  EXPECT_GE(c.best_index(), 4u);  // optimum in the strong-prior half
}

TEST(CvEngine, WrongPriorMeanFavorsSmallTau) {
  stats::Rng rng(8);
  Problem p = make_problem(60, 20, 0.01, rng);
  // Prior mean is the *negated* truth: strong prior must hurt badly.
  linalg::Vector wrong = p.early;
  for (double& e : wrong) e = -e;
  auto prior = CoefficientPrior::nonzero_mean(wrong);
  CvOptions opt;
  opt.folds = 4;
  opt.grid_size = 9;
  CvEngine engine(p.g, p.f, prior, opt);
  CvCurve c = engine.evaluate(prior.mean());
  EXPECT_LT(c.best_index(), 4u);  // optimum in the weak-prior half
  EXPECT_GT(c.errors.back(), c.errors.front());
}

TEST(CvEngine, CurveBestIndexConsistent) {
  stats::Rng rng(9);
  Problem p = make_problem(20, 10, 0.1, rng);
  auto prior = CoefficientPrior::zero_mean(p.early);
  CvEngine engine(p.g, p.f, prior, {});
  CvCurve c = engine.evaluate(prior.mean());
  const std::size_t bi = c.best_index();
  for (double e : c.errors) EXPECT_GE(e, c.errors[bi] - 1e-15);
  EXPECT_DOUBLE_EQ(c.best_tau(), c.taus[bi]);
  EXPECT_DOUBLE_EQ(c.best_error(), c.errors[bi]);
}

TEST(CvEngine, Validates) {
  Problem p;
  p.g.assign(6, 4);
  p.f.assign(6, 0.0);
  auto prior = CoefficientPrior::zero_mean({1.0, 1.0, 1.0, 1.0});
  CvOptions opt;
  opt.folds = 7;  // > K
  EXPECT_THROW(CvEngine(p.g, p.f, prior, opt), std::invalid_argument);
  opt.folds = 1;
  EXPECT_THROW(CvEngine(p.g, p.f, prior, opt), std::invalid_argument);
  opt.folds = 2;
  CvEngine ok(p.g, p.f, prior, opt);
  EXPECT_THROW(ok.evaluate({1.0}), std::invalid_argument);
}

TEST(CvCurve, EmptyThrows) {
  CvCurve c;
  EXPECT_THROW(c.best_index(), std::logic_error);
}

}  // namespace
}  // namespace bmf::core
