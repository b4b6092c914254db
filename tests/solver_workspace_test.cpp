#include "bmf/solver_workspace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "bmf/cross_validation.hpp"
#include "bmf/fusion.hpp"
#include "bmf/map_solver.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/eigen_sym.hpp"
#include "stats/rng.hpp"

namespace bmf::core {
namespace {

struct Problem {
  linalg::Matrix g;
  linalg::Vector f;
  linalg::Vector early;
};

Problem make_problem(std::size_t k, std::size_t m, stats::Rng& rng) {
  Problem p;
  p.g.assign(k, m);
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < m; ++j) p.g(i, j) = rng.normal();
  p.early.resize(m);
  for (double& e : p.early) e = rng.normal(0.0, 1.0);
  p.f.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    double v = 0.0;
    for (std::size_t j = 0; j < m; ++j) v += p.early[j] * p.g(i, j);
    p.f[i] = v + rng.normal(0.0, 0.05);
  }
  return p;
}

void expect_close(const linalg::Vector& got, const linalg::Vector& want,
                  double rel, const char* what) {
  ASSERT_EQ(got.size(), want.size());
  const double scale = linalg::norm_inf(want) + 1.0;
  for (std::size_t j = 0; j < want.size(); ++j)
    EXPECT_NEAR(got[j], want[j], rel * scale) << what << " j=" << j;
}

TEST(SolverWorkspace, MatchesHandSolvedTinyCase) {
  // One sample, one coefficient: (tau q + g^2) a = tau q mu + g f.
  // q = 1, tau = 4: (4 + 4) a = 4*1 + 2*6 = 16 -> a = 2.
  linalg::Matrix g{{2.0}};
  linalg::Vector f{6.0};
  auto prior = CoefficientPrior::nonzero_mean({1.0});
  MapSolverWorkspace ws(g, f, prior);
  linalg::Vector a = ws.solve(4.0);
  EXPECT_NEAR(a[0], 2.0, 1e-12);
}

class WorkspaceVsDirect
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t,
                                                 PriorKind>> {};

TEST_P(WorkspaceVsDirect, AgreeAcrossTauGrid) {
  const auto [k, m, kind] = GetParam();
  stats::Rng rng(k * 37 + m);
  Problem p = make_problem(k, m, rng);
  auto prior = kind == PriorKind::kZeroMean
                   ? CoefficientPrior::zero_mean(p.early)
                   : CoefficientPrior::nonzero_mean(p.early);
  MapSolverWorkspace ws(p.g, p.f, prior);
  EXPECT_EQ(ws.num_samples(), k);
  EXPECT_EQ(ws.num_bases(), m);
  linalg::Vector taus = log_grid(1e-3, 1e3, 13);
  for (double tau : taus) {
    linalg::Vector direct = map_solve_direct(p.g, p.f, prior, tau);
    expect_close(ws.solve(tau), direct, 1e-7, "workspace-vs-direct");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, WorkspaceVsDirect,
    ::testing::Combine(::testing::Values<std::size_t>(5, 20),
                       ::testing::Values<std::size_t>(8, 40, 120),
                       ::testing::Values(PriorKind::kZeroMean,
                                         PriorKind::kNonzeroMean)));

class WorkspaceLowTau : public ::testing::TestWithParam<PriorKind> {};

TEST_P(WorkspaceLowTau, SmallTauMatchesInterpolationLimit) {
  // Regression: solve() used to form mu + (D^{-1} G^T f - D^{-1} G^T t) / tau,
  // whose two O(1/tau) terms cancel catastrophically as tau -> 0 (it missed
  // by 1.9e-3 (ZM) and 3.5e-3 (NZM) of max|alpha| here). At
  // tau = 1e-12 Var(f) the solution must sit on the tau -> 0 limit
  // mu + D^{-1} G^T B^{-1} (f - G mu), B = G D^{-1} G^T (solved by
  // Cholesky); the gap tau / w_min(B) is ~1e-12.
  stats::Rng rng(2024);
  Problem p = make_problem(40, 120, rng);
  auto prior = GetParam() == PriorKind::kZeroMean
                   ? CoefficientPrior::zero_mean(p.early)
                   : CoefficientPrior::nonzero_mean(p.early);
  const linalg::Vector& q = prior.precision_scale();
  const linalg::Vector& mu = prior.mean();
  linalg::Vector inv_q(q.size());
  for (std::size_t j = 0; j < q.size(); ++j) inv_q[j] = 1.0 / q[j];
  const linalg::Vector resid = linalg::sub(p.f, linalg::gemv(p.g, mu));
  const linalg::Vector gt_y = linalg::gemv_t(
      p.g,
      linalg::Cholesky(linalg::outer_gram_weighted(p.g, inv_q)).solve(resid));
  linalg::Vector limit(mu.size());
  for (std::size_t j = 0; j < limit.size(); ++j)
    limit[j] = mu[j] + inv_q[j] * gt_y[j];

  MapSolverWorkspace ws(p.g, p.f, prior);
  const linalg::Vector a = ws.solve(1e-12 * tau_grid_center(p.f));
  ASSERT_EQ(a.size(), limit.size());
  const double tol = 1e-8 * linalg::norm_inf(limit);
  for (std::size_t j = 0; j < a.size(); ++j)
    EXPECT_NEAR(a[j], limit[j], tol) << "j=" << j;
}

INSTANTIATE_TEST_SUITE_P(Priors, WorkspaceLowTau,
                         ::testing::Values(PriorKind::kZeroMean,
                                           PriorKind::kNonzeroMean));

TEST(SolverWorkspace, MissingPriorEntriesMatchDirect) {
  // Flat-prior (missing) columns get a wide variance in q; the workspace
  // must reproduce the direct solution for those too.
  stats::Rng rng(11);
  Problem p = make_problem(25, 12, rng);
  std::vector<char> informative(12, 1);
  informative[3] = informative[7] = informative[11] = 0;
  auto prior = CoefficientPrior::nonzero_mean(p.early, informative);
  MapSolverWorkspace ws(p.g, p.f, prior);
  for (double tau : {1e-2, 1.0, 1e2}) {
    linalg::Vector direct = map_solve_direct(p.g, p.f, prior, tau);
    expect_close(ws.solve(tau), direct, 1e-7, "missing-prior");
  }
}

TEST(SolverWorkspace, ProjectedMeanReuseMatchesOnTheFlyProjection) {
  stats::Rng rng(12);
  Problem p = make_problem(15, 30, rng);
  auto zm = CoefficientPrior::zero_mean(p.early);
  auto nzm = CoefficientPrior::nonzero_mean(p.early);
  // Workspace built from the ZM prior (same q), NZM mean projected once.
  MapSolverWorkspace ws(p.g, p.f, zm);
  MapSolverWorkspace::ProjectedMean mean = ws.project_mean(nzm.mean());
  for (double tau : {1e-1, 1.0, 10.0}) {
    linalg::Vector cached = ws.solve(tau, mean);
    linalg::Vector fly = ws.solve(tau, nzm.mean());
    EXPECT_EQ(cached, fly) << "tau=" << tau;
    expect_close(cached, map_solve_direct(p.g, p.f, nzm, tau), 1e-7,
                 "cached-mean");
  }
}

TEST(SolverWorkspace, ZeroMeanProjectionShortCircuits) {
  stats::Rng rng(13);
  Problem p = make_problem(10, 6, rng);
  auto prior = CoefficientPrior::zero_mean(p.early);
  MapSolverWorkspace ws(p.g, p.f, prior);
  auto mean = ws.project_mean(linalg::Vector(6, 0.0));
  EXPECT_TRUE(mean.mu.empty());
  EXPECT_TRUE(mean.vb1.empty());
  EXPECT_EQ(ws.solve(2.0, mean), ws.solve(2.0));
}

TEST(SolverWorkspace, KernelConstructorMatchesPriorConstructorBitwise) {
  // The (g, f, prior) constructor builds PriorKernel(g, prior) and
  // delegates, so a workspace built from a precomputed kernel — the way
  // BmfFitter builds it — must solve bit-identically.
  stats::Rng rng(17);
  Problem p = make_problem(18, 40, rng);
  for (const CoefficientPrior& prior :
       {CoefficientPrior::zero_mean(p.early),
        CoefficientPrior::nonzero_mean(p.early)}) {
    MapSolverWorkspace from_prior(p.g, p.f, prior);
    const PriorKernel kernel(p.g, prior);
    MapSolverWorkspace from_kernel(p.g, p.f, kernel, prior.mean());
    for (double tau : log_grid(1e-3, 1e3, 7))
      EXPECT_EQ(from_prior.solve(tau), from_kernel.solve(tau))
          << "tau=" << tau;
  }
}

TEST(SolverWorkspace, SolvesDoNotDependOnQueryOrder) {
  // The workspace holds only tau-independent state: sweeping the tau grid
  // up, then down while alternating the two prior means, must return
  // bit-identical coefficients for each (tau, mean).
  stats::Rng rng(14);
  Problem p = make_problem(20, 15, rng);
  auto zm = CoefficientPrior::zero_mean(p.early);
  auto nzm = CoefficientPrior::nonzero_mean(p.early);
  MapSolverWorkspace ws(p.g, p.f, zm);
  const MapSolverWorkspace::ProjectedMean mean = ws.project_mean(nzm.mean());
  const linalg::Vector taus = log_grid(1e-2, 1e2, 7);
  std::vector<linalg::Vector> up_zm, up_nzm;
  for (double tau : taus) {
    up_zm.push_back(ws.solve(tau));
    up_nzm.push_back(ws.solve(tau, mean));
  }
  for (std::size_t t = taus.size(); t-- > 0;) {
    EXPECT_EQ(ws.solve(taus[t], mean), up_nzm[t]) << "t=" << t;
    EXPECT_EQ(ws.solve(taus[t]), up_zm[t]) << "t=" << t;
  }
}

class WorkspaceLargeTau : public ::testing::TestWithParam<PriorKind> {};

TEST_P(WorkspaceLargeTau, ConvergesToPriorMean) {
  // As tau -> inf the prior takes over: the kernel form
  // mu + D^{-1} G^T V (V^T (f - G mu)) ./ (tau + w) must go to the prior
  // mean (zero for ZM, the early model for NZM) at rate 1 / tau.
  stats::Rng rng(18);
  Problem p = make_problem(20, 8, rng);
  auto prior = GetParam() == PriorKind::kZeroMean
                   ? CoefficientPrior::zero_mean(p.early)
                   : CoefficientPrior::nonzero_mean(p.early);
  MapSolverWorkspace ws(p.g, p.f, prior);
  const linalg::Vector a = ws.solve(1e10);
  ASSERT_EQ(a.size(), prior.mean().size());
  for (std::size_t j = 0; j < a.size(); ++j)
    EXPECT_NEAR(a[j], prior.mean()[j], 1e-3) << "j=" << j;
}

INSTANTIATE_TEST_SUITE_P(Priors, WorkspaceLargeTau,
                         ::testing::Values(PriorKind::kZeroMean,
                                           PriorKind::kNonzeroMean));

TEST(SolverWorkspace, FullRankKernelIsNotClamped) {
  // K < M with a Gaussian design: B = G D^{-1} G^T is safely positive
  // definite, so the spectrum never dips below zero and the PSD clamp
  // never fires.
  stats::Rng rng(19);
  Problem p = make_problem(10, 30, rng);
  MapSolverWorkspace ws(p.g, p.f, CoefficientPrior::zero_mean(p.early));
  EXPECT_EQ(ws.min_eigenvalue(), 0.0);
  EXPECT_EQ(ws.clamped_eigenvalues(), 0u);
  EXPECT_FALSE(ws.degraded());
}

TEST(SolverWorkspace, RankDeficientKernelClampIsBenignRoundoff) {
  // K > M: B (K x K) has rank M, so K - M eigenvalues are zero in exact
  // arithmetic and roundoff may push some just below zero. Those sit
  // inside the relative tolerance: the clamp is not reported as
  // degradation, and the solves still match the dense reference.
  stats::Rng rng(20);
  Problem p = make_problem(24, 6, rng);
  auto prior = CoefficientPrior::nonzero_mean(p.early);
  MapSolverWorkspace ws(p.g, p.f, prior);
  const linalg::Vector w =
      linalg::eigen_symmetric(PriorKernel(p.g, prior).b).values;
  double wmax = 0.0;
  for (double v : w) wmax = std::max(wmax, std::abs(v));
  EXPECT_GE(ws.min_eigenvalue(), -1e-12 * wmax);
  EXPECT_EQ(ws.clamped_eigenvalues(), 0u);
  EXPECT_FALSE(ws.degraded());
  for (double tau : {1e-2, 1.0, 1e2})
    expect_close(ws.solve(tau), map_solve_direct(p.g, p.f, prior, tau), 1e-7,
                 "rank-deficient");
}

TEST(SolverWorkspace, Validation) {
  stats::Rng rng(15);
  Problem p = make_problem(8, 4, rng);
  auto prior = CoefficientPrior::zero_mean(p.early);
  MapSolverWorkspace ws(p.g, p.f, prior);
  // tau must be positive and finite in every build.
  for (double tau : {0.0, -1.0, std::nan(""), HUGE_VAL})
    EXPECT_THROW(ws.solve(tau), std::invalid_argument) << "tau=" << tau;
  EXPECT_THROW(ws.project_mean(linalg::Vector(3, 1.0)), std::invalid_argument);
}

TEST(SolverWorkspace, FitterFastPathMatchesDirectSolver) {
  // BmfFitter::fit_at routes through the shared workspace; it must agree
  // with the dense reference solve under the fitter's own priors.
  stats::Rng rng(16);
  Problem p = make_problem(30, 10, rng);
  // A moderately wrong prior keeps the problem well-conditioned.
  BmfFitter fitter(basis::BasisSet::total_degree(1, 9), p.early);
  fitter.set_design(p.g, p.f);
  const PriorOptions& options = fitter.options().prior;
  const auto zm = CoefficientPrior::zero_mean(p.early, {}, options);
  const auto nzm = CoefficientPrior::nonzero_mean(p.early, {}, options);
  for (double tau : {1e-1, 1.0, 10.0})
    for (PriorKind kind : {PriorKind::kZeroMean, PriorKind::kNonzeroMean}) {
      const CoefficientPrior& prior = kind == PriorKind::kZeroMean ? zm : nzm;
      expect_close(fitter.fit_at(kind, tau).coefficients(),
                   map_solve_direct(fitter.design(), p.f, prior, tau), 1e-7,
                   "fit_at");
    }
}

}  // namespace
}  // namespace bmf::core
