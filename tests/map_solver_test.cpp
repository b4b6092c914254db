#include "bmf/map_solver.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <utility>

#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
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

TEST(MapSolver, DirectMatchesHandSolvedTinyCase) {
  // One sample, one coefficient: (tau q + g^2) a = tau q mu + g f.
  linalg::Matrix g{{2.0}};
  linalg::Vector f{6.0};
  auto prior = CoefficientPrior::nonzero_mean({1.0});
  // q = 1, tau = 4: (4 + 4) a = 4*1 + 2*6 = 16 -> a = 2.
  linalg::Vector a = map_solve_direct(g, f, prior, 4.0);
  EXPECT_NEAR(a[0], 2.0, 1e-12);
}

TEST(MapSolver, ZeroMeanShrinksTowardZeroAsTauGrows) {
  stats::Rng rng(1);
  Problem p = make_problem(20, 8, rng);
  auto prior = CoefficientPrior::zero_mean(p.early);
  linalg::Vector weak = map_solve_direct(p.g, p.f, prior, 1e-8);
  linalg::Vector strong = map_solve_direct(p.g, p.f, prior, 1e8);
  EXPECT_LT(linalg::norm2(strong), 0.1 * linalg::norm2(weak));
}

TEST(MapSolver, NonzeroMeanConvergesToEarlyModelAsTauGrows) {
  stats::Rng rng(2);
  Problem p = make_problem(20, 8, rng);
  auto prior = CoefficientPrior::nonzero_mean(p.early);
  linalg::Vector a = map_solve_direct(p.g, p.f, prior, 1e10);
  for (std::size_t j = 0; j < 8; ++j)
    EXPECT_NEAR(a[j], p.early[j], 1e-3) << "j=" << j;
}

TEST(MapSolver, SmallTauApproachesLeastSquaresWhenOverdetermined) {
  stats::Rng rng(3);
  Problem p = make_problem(40, 6, rng);
  auto prior = CoefficientPrior::zero_mean(p.early);
  linalg::Vector a = map_solve_direct(p.g, p.f, prior, 1e-10);
  // LS solution via normal equations.
  linalg::Matrix gram = linalg::gram(p.g);
  linalg::Vector ls =
      linalg::Cholesky(gram).solve(linalg::gemv_t(p.g, p.f));
  for (std::size_t j = 0; j < 6; ++j) EXPECT_NEAR(a[j], ls[j], 1e-6);
}

class FastVsDirect
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t,
                                                 PriorKind, double>> {};

TEST_P(FastVsDirect, Agree) {
  const auto [k, m, kind, tau] = GetParam();
  stats::Rng rng(k * 31 + m);
  Problem p = make_problem(k, m, rng);
  auto prior = kind == PriorKind::kZeroMean
                   ? CoefficientPrior::zero_mean(p.early)
                   : CoefficientPrior::nonzero_mean(p.early);
  linalg::Vector direct = map_solve_direct(p.g, p.f, prior, tau);
  linalg::Vector fast = map_solve_fast(p.g, p.f, prior, tau);
  const double scale = linalg::norm_inf(direct) + 1.0;
  for (std::size_t j = 0; j < m; ++j)
    EXPECT_NEAR(fast[j], direct[j], 1e-7 * scale)
        << "k=" << k << " m=" << m << " tau=" << tau;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FastVsDirect,
    ::testing::Combine(::testing::Values<std::size_t>(5, 20),
                       ::testing::Values<std::size_t>(8, 40, 120),
                       ::testing::Values(PriorKind::kZeroMean,
                                         PriorKind::kNonzeroMean),
                       ::testing::Values(1e-2, 1.0, 1e2)));

TEST(MapSolver, MissingPriorCoefficientsFollowDataOnly) {
  // Two columns: one with a wildly wrong prior marked missing, one
  // informative. The missing one must be fit from data regardless of tau.
  stats::Rng rng(4);
  const std::size_t k = 30;
  linalg::Matrix g(k, 2);
  linalg::Vector f(k);
  for (std::size_t i = 0; i < k; ++i) {
    g(i, 0) = rng.normal();
    g(i, 1) = rng.normal();
    f[i] = 3.0 * g(i, 0) + 5.0 * g(i, 1);
  }
  // Early says column 0 ~ 3 (good); column 1 prior is missing.
  auto prior = CoefficientPrior::nonzero_mean({3.0, -100.0}, {1, 0});
  linalg::Vector a = map_solve_fast(g, f, prior, 10.0);
  EXPECT_NEAR(a[0], 3.0, 0.05);
  EXPECT_NEAR(a[1], 5.0, 0.05);  // not dragged toward -100
}

// The three one-shot entry points, for the contracts all of them share.
struct EntryPoint {
  const char* name;
  linalg::Vector (*solve)(const linalg::Matrix&, const linalg::Vector&,
                          const CoefficientPrior&, double);
};

linalg::Vector solve_robust(const linalg::Matrix& g, const linalg::Vector& f,
                            const CoefficientPrior& prior, double tau) {
  return map_solve_robust(g, f, prior, tau).coefficients;
}

const EntryPoint kEntryPoints[] = {{"direct", map_solve_direct},
                                   {"fast", map_solve_fast},
                                   {"robust", solve_robust}};

TEST(MapSolver, Validation) {
  linalg::Matrix g(3, 2);
  linalg::Vector f(3, 0.0);
  auto prior = CoefficientPrior::zero_mean({1.0, 1.0});
  auto wrong = CoefficientPrior::zero_mean({1.0, 1.0, 1.0});
  for (const EntryPoint& e : kEntryPoints) {
    // tau must be positive and finite in every build.
    for (double tau : {0.0, -1.0, std::nan(""), HUGE_VAL})
      EXPECT_THROW(e.solve(g, f, prior, tau), std::invalid_argument)
          << e.name << " tau=" << tau;
    EXPECT_THROW(e.solve(g, {1.0}, prior, 1.0), std::invalid_argument)
        << e.name;
    EXPECT_THROW(e.solve(g, f, wrong, 1.0), std::invalid_argument) << e.name;
  }
}

TEST(MapSolver, RobustCleanPathMatchesDirectBitwise) {
  // map_solve_robust factorizes the same dense system as map_solve_direct
  // and tries a plain Cholesky first, so on a well-conditioned problem the
  // two agree bit for bit and the report says the solve was clean.
  stats::Rng rng(7);
  for (const auto& [k, m] :
       {std::pair<std::size_t, std::size_t>{30, 10}, {8, 25}}) {
    Problem p = make_problem(k, m, rng);
    for (const CoefficientPrior& prior :
         {CoefficientPrior::zero_mean(p.early),
          CoefficientPrior::nonzero_mean(p.early)})
      for (double tau : {1e-2, 1.0, 1e2}) {
        const RobustMapResult robust = map_solve_robust(p.g, p.f, prior, tau);
        EXPECT_FALSE(robust.report.degraded()) << "tau=" << tau;
        EXPECT_EQ(robust.report.attempts, 0u) << "tau=" << tau;
        EXPECT_EQ(robust.coefficients, map_solve_direct(p.g, p.f, prior, tau))
            << "k=" << k << " m=" << m << " tau=" << tau;
      }
  }
}

TEST(MapSolver, RobustDegradesWhereDirectThrows) {
  // Duplicate basis columns make G^T G = [[1,1],[1,1]] exactly singular,
  // and tau * q = 1e-60 vanishes against it in double precision: the
  // conventional solve throws, the robust one answers and says it degraded.
  linalg::Matrix g(2, 2, 0.0);
  g(0, 0) = 1.0;
  g(0, 1) = 1.0;
  const linalg::Vector f{1.0, 0.0};
  const auto prior =
      CoefficientPrior::from_moments({0.0, 0.0}, {1e-30, 1e-30});
  EXPECT_THROW(map_solve_direct(g, f, prior, 1e-30), std::runtime_error);

  const RobustMapResult r = map_solve_robust(g, f, prior, 1e-30);
  EXPECT_TRUE(r.report.degraded());
  EXPECT_EQ(r.report.path, linalg::RobustSpdReport::Path::kJittered);
  EXPECT_GT(r.report.jitter, 0.0);
  ASSERT_EQ(r.coefficients.size(), 2u);
  // The two columns are indistinguishable, so the answer splits the one
  // informative sample evenly between them and still fits it, up to the
  // jitter's own bias (2 / (2 + 1e-12) for the first rung).
  EXPECT_NEAR(r.coefficients[0], r.coefficients[1], 1e-9);
  EXPECT_NEAR(r.coefficients[0] + r.coefficients[1], 1.0, 1e-9);
}

TEST(MapSolver, UnobservedColumnsStayAtPriorMean) {
  // A basis term that no sample excites (an all-zero column of G) carries
  // no data: every entry point must leave it at its prior mean and solve
  // the other coefficients as if the column were not there.
  stats::Rng rng(8);
  const std::size_t k = 12, m = 6;
  Problem p = make_problem(k, m, rng);
  linalg::Vector q(m);
  for (double& v : q) v = rng.uniform(0.5, 1.5);
  const auto narrow = CoefficientPrior::from_moments(p.early, q);

  linalg::Matrix g(k, m + 2, 0.0);
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < m; ++j) g(i, j) = p.g(i, j);
  linalg::Vector mean = p.early, wide_q = q;
  mean.insert(mean.end(), {2.5, -4.0});
  wide_q.insert(wide_q.end(), {0.3, 7.0});
  const auto wide = CoefficientPrior::from_moments(mean, wide_q);

  for (const EntryPoint& e : kEntryPoints)
    for (double tau : {1e-1, 10.0}) {
      const linalg::Vector a = e.solve(g, p.f, wide, tau);
      const linalg::Vector ref = e.solve(p.g, p.f, narrow, tau);
      ASSERT_EQ(a.size(), m + 2) << e.name;
      const double tol = 1e-10 * (linalg::norm_inf(ref) + 1.0);
      for (std::size_t j = 0; j < m; ++j)
        EXPECT_NEAR(a[j], ref[j], tol) << e.name << " tau=" << tau;
      EXPECT_NEAR(a[m], 2.5, 1e-12) << e.name << " tau=" << tau;
      EXPECT_NEAR(a[m + 1], -4.0, 1e-12) << e.name << " tau=" << tau;
    }
}

TEST(MapSolver, SampleOrderDoesNotChangeTheSolution) {
  // The posterior depends on the data only through G^T G and G^T f, so
  // reversing the order of the samples must not move any entry point's
  // answer beyond roundoff.
  stats::Rng rng(9);
  Problem p = make_problem(15, 25, rng);
  linalg::Matrix g_rev(15, 25);
  linalg::Vector f_rev(15);
  for (std::size_t i = 0; i < 15; ++i) {
    g_rev.set_row(i, p.g.row(14 - i));
    f_rev[i] = p.f[14 - i];
  }
  const auto prior = CoefficientPrior::nonzero_mean(p.early);
  for (const EntryPoint& e : kEntryPoints)
    for (double tau : {1e-2, 1.0, 1e2}) {
      const linalg::Vector a = e.solve(p.g, p.f, prior, tau);
      const linalg::Vector b = e.solve(g_rev, f_rev, prior, tau);
      const double tol = 1e-9 * (linalg::norm_inf(a) + 1.0);
      for (std::size_t j = 0; j < a.size(); ++j)
        EXPECT_NEAR(b[j], a[j], tol) << e.name << " tau=" << tau;
    }
}

}  // namespace
}  // namespace bmf::core
