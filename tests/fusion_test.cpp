#include "bmf/fusion.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>

#include "bmf/map_solver.hpp"
#include "linalg/blas.hpp"
#include "parallel/thread_pool.hpp"
#include "regress/omp.hpp"
#include "stats/descriptive.hpp"
#include "stats/rng.hpp"

namespace bmf::core {
namespace {

// The CV engine and the MAP workspace point into the fitter's own design
// matrix, so a moved or copied fitter would read through a dead one.
static_assert(!std::is_copy_constructible_v<BmfFitter>);
static_assert(!std::is_move_constructible_v<BmfFitter>);

// Synthetic early/late pair: sparse late truth, early = perturbed late.
struct Scenario {
  basis::BasisSet basis;
  linalg::Vector late_truth;
  linalg::Vector early;
  linalg::Matrix train_points;
  linalg::Vector train_f;
  linalg::Matrix test_points;
  linalg::Vector test_f;
};

Scenario make_scenario(std::size_t r, std::size_t k_train, double drift,
                       double noise, std::uint64_t seed) {
  stats::Rng rng(seed);
  Scenario s;
  s.basis = basis::BasisSet::linear(r);
  const std::size_t m = r + 1;
  s.late_truth.assign(m, 0.0);
  s.late_truth[0] = 1.0;
  for (std::size_t j = 1; j < m; ++j) {
    // Sparse decaying spectrum: a few strong coefficients, many tiny.
    const double mag = (j <= m / 5) ? 1.0 / static_cast<double>(j) : 1e-3;
    s.late_truth[j] = mag * rng.normal();
  }
  s.early.resize(m);
  for (std::size_t j = 0; j < m; ++j)
    s.early[j] = s.late_truth[j] * (1.0 + drift * rng.normal());

  auto sample = [&](std::size_t n, linalg::Matrix& pts, linalg::Vector& f) {
    pts.assign(n, r);
    f.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      double v = s.late_truth[0];
      for (std::size_t j = 0; j < r; ++j) {
        const double x = rng.normal();
        pts(i, j) = x;
        v += s.late_truth[j + 1] * x;
      }
      f[i] = v + rng.normal(0.0, noise);
    }
  };
  sample(k_train, s.train_points, s.train_f);
  sample(200, s.test_points, s.test_f);
  return s;
}

double test_error(const Scenario& s, const basis::PerformanceModel& m) {
  return stats::relative_error(m.predict(s.test_points), s.test_f);
}

TEST(Fusion, BeatsOmpInUnderdeterminedRegime) {
  // The headline claim: with K << M, BMF with a decent prior beats OMP.
  Scenario s = make_scenario(80, 30, 0.1, 0.02, 1);
  FusionResult res = bmf_fit(s.basis, s.early, {}, s.train_points, s.train_f);
  auto omp_model = regress::omp_fit(s.basis, s.train_points, s.train_f);
  EXPECT_LT(test_error(s, res.model), test_error(s, omp_model));
  EXPECT_LT(test_error(s, res.model), 0.2);
}

TEST(Fusion, PriorSelectionPicksBetterPrior) {
  // Auto selection must match the better of the two fixed-prior fits in
  // CV error.
  Scenario s = make_scenario(40, 25, 0.3, 0.05, 2);
  BmfFitter fitter(s.basis, s.early, {}, {});
  fitter.set_data(s.train_points, s.train_f);
  FusionResult auto_res = fitter.fit(PriorSelection::kAuto);
  const double zm = fitter.zero_mean_curve().best_error();
  const double nzm = fitter.nonzero_mean_curve().best_error();
  EXPECT_DOUBLE_EQ(auto_res.report.cv_error, std::min(zm, nzm));
  EXPECT_EQ(auto_res.report.chosen_kind, zm <= nzm
                                             ? PriorKind::kZeroMean
                                             : PriorKind::kNonzeroMean);
  ASSERT_TRUE(auto_res.report.zm_curve.has_value());
  ASSERT_TRUE(auto_res.report.nzm_curve.has_value());
}

TEST(Fusion, FixedSelectionOnlyEvaluatesOneCurve) {
  Scenario s = make_scenario(30, 20, 0.2, 0.05, 3);
  BmfFitter fitter(s.basis, s.early, {}, {});
  fitter.set_data(s.train_points, s.train_f);
  FusionResult res = fitter.fit(PriorSelection::kZeroMean);
  EXPECT_EQ(res.report.chosen_kind, PriorKind::kZeroMean);
  EXPECT_TRUE(res.report.zm_curve.has_value());
  EXPECT_FALSE(res.report.nzm_curve.has_value());
}

TEST(Fusion, AccuratePriorNzmBeatsZm) {
  // Nearly exact early model: the sign information should give NZM the
  // edge (paper Section III-A discussion).
  Scenario s = make_scenario(60, 25, 0.02, 0.05, 4);
  BmfFitter fitter(s.basis, s.early, {}, {});
  fitter.set_data(s.train_points, s.train_f);
  auto zm = fitter.fit(PriorSelection::kZeroMean);
  auto nzm = fitter.fit(PriorSelection::kNonzeroMean);
  EXPECT_LT(test_error(s, nzm.model), test_error(s, zm.model));
}

TEST(Fusion, SignFlippedPriorZmBeatsNzm) {
  // Flip the sign of every early coefficient: magnitude info stays right,
  // sign info becomes poison -> ZM must win (the paper's frequency case).
  // Low noise so the methods are differentiated above the error floor.
  Scenario s = make_scenario(60, 25, 0.02, 0.005, 5);
  for (double& e : s.early) e = -e;
  BmfFitter fitter(s.basis, s.early, {}, {});
  fitter.set_data(s.train_points, s.train_f);
  auto zm = fitter.fit(PriorSelection::kZeroMean);
  auto nzm = fitter.fit(PriorSelection::kNonzeroMean);
  EXPECT_LT(test_error(s, zm.model), test_error(s, nzm.model));
  // And BMF-PS must track the winner.
  auto ps = fitter.fit(PriorSelection::kAuto);
  EXPECT_EQ(ps.report.chosen_kind, PriorKind::kZeroMean);
}

TEST(Fusion, ErrorDecreasesWithMoreSamples) {
  Scenario small = make_scenario(50, 15, 0.15, 0.05, 6);
  Scenario large = make_scenario(50, 120, 0.15, 0.05, 6);
  auto r_small =
      bmf_fit(small.basis, small.early, {}, small.train_points, small.train_f);
  auto r_large =
      bmf_fit(large.basis, large.early, {}, large.train_points, large.train_f);
  EXPECT_LT(test_error(large, r_large.model), test_error(small, r_small.model));
}

TEST(Fusion, MappedPriorConstructorWorksEndToEnd) {
  // Early model over 2 variables; late stage splits each into 2 fingers and
  // adds one parasitic variable that actually matters.
  basis::PerformanceModel early(basis::BasisSet::linear(2), {0.0, 2.0, -1.0});
  MultifingerMap map({2, 2}, 1);
  MappedPrior mapped = map.map_linear_model(early);

  stats::Rng rng(7);
  const std::size_t k = 40, r_late = map.num_late_vars();
  const double s2 = std::sqrt(2.0);
  linalg::Matrix pts(k, r_late);
  linalg::Vector f(k);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < r_late; ++j) pts(i, j) = rng.normal();
    // Late truth: fingers inherit beta with slight drift; parasitic adds in.
    f[i] = (2.0 / s2) * 1.05 * pts(i, 0) + (2.0 / s2) * 0.95 * pts(i, 1) -
           (1.0 / s2) * (pts(i, 2) + pts(i, 3)) + 0.8 * pts(i, 4) +
           rng.normal(0.0, 0.01);
  }
  BmfFitter fitter(mapped);
  fitter.set_data(pts, f);
  FusionResult res = fitter.fit();
  // Parasitic coefficient recovered from data despite missing prior.
  EXPECT_NEAR(res.model.coefficients()[5], 0.8, 0.1);
  // Finger coefficients close to the drifted truth.
  EXPECT_NEAR(res.model.coefficients()[1], 2.0 / s2 * 1.05, 0.15);
}

TEST(Fusion, FitAtRespectsExplicitParameters) {
  Scenario s = make_scenario(20, 15, 0.1, 0.02, 8);
  BmfFitter fitter(s.basis, s.early, {}, {});
  fitter.set_data(s.train_points, s.train_f);
  // Huge tau with NZM pins the early model.
  auto pinned = fitter.fit_at(PriorKind::kNonzeroMean, 1e12);
  for (std::size_t j = 0; j < s.early.size(); ++j)
    EXPECT_NEAR(pinned.coefficients()[j], s.early[j], 1e-3);
}

TEST(Fusion, RequiresDataBeforeFitting) {
  Scenario s = make_scenario(10, 8, 0.1, 0.02, 9);
  BmfFitter fitter(s.basis, s.early, {}, {});
  EXPECT_THROW(fitter.fit(), std::logic_error);
  EXPECT_THROW(fitter.fit_at(PriorKind::kZeroMean, 1.0), std::logic_error);
  EXPECT_THROW(fitter.zero_mean_curve(), std::logic_error);
}

TEST(Fusion, ValidatesShapes) {
  EXPECT_THROW(BmfFitter(basis::BasisSet::linear(3), {1.0, 2.0}, {}, {}),
               std::invalid_argument);
  Scenario s = make_scenario(10, 8, 0.1, 0.02, 10);
  BmfFitter fitter(s.basis, s.early, {}, {});
  EXPECT_THROW(fitter.set_design(linalg::Matrix(4, 3), {1, 2, 3, 4}),
               std::invalid_argument);
}

TEST(Fusion, FitAtRejectsNonFiniteTau) {
  // fit_at solves through the shared workspace, whose tau guard holds in
  // every build: a NaN or infinite tau is an error, not a NaN/zero model.
  Scenario s = make_scenario(10, 8, 0.1, 0.02, 12);
  BmfFitter fitter(s.basis, s.early, {}, {});
  fitter.set_data(s.train_points, s.train_f);
  for (PriorKind kind : {PriorKind::kZeroMean, PriorKind::kNonzeroMean})
    for (double tau : {0.0, -1.0, std::nan(""), HUGE_VAL, -HUGE_VAL})
      EXPECT_THROW(fitter.fit_at(kind, tau), std::invalid_argument)
          << "tau=" << tau;
}

TEST(Fusion, FitReturnsFitAtOfTheChosenParameters) {
  // Algorithm 1's last step is one MAP solve at the CV-chosen (prior, tau):
  // the fitted model must be exactly fit_at of what the report names.
  Scenario s = make_scenario(25, 20, 0.1, 0.02, 13);
  BmfFitter fitter(s.basis, s.early, {}, {});
  fitter.set_data(s.train_points, s.train_f);
  for (PriorSelection sel : {PriorSelection::kZeroMean,
                             PriorSelection::kNonzeroMean,
                             PriorSelection::kAuto}) {
    const FusionResult res = fitter.fit(sel);
    EXPECT_EQ(res.model.coefficients(),
              fitter.fit_at(res.report.chosen_kind, res.report.chosen_tau)
                  .coefficients())
        << to_string(sel);
  }
}

TEST(Fusion, RebindingDataRebuildsTheCachedSolver) {
  // The kernel, CV engine and MAP workspace are cached per design matrix;
  // binding new samples must drop them, so the refit equals a fresh fitter.
  Scenario a = make_scenario(20, 15, 0.1, 0.02, 14);
  Scenario b = make_scenario(20, 15, 0.1, 0.02, 15);
  BmfFitter reused(a.basis, a.early, {}, {});
  reused.set_data(a.train_points, a.train_f);
  reused.fit();
  reused.fit_at(PriorKind::kNonzeroMean, 1.0);
  reused.set_data(b.train_points, b.train_f);

  BmfFitter fresh(a.basis, a.early, {}, {});
  fresh.set_data(b.train_points, b.train_f);
  for (PriorKind kind : {PriorKind::kZeroMean, PriorKind::kNonzeroMean})
    EXPECT_EQ(reused.fit_at(kind, 1.0).coefficients(),
              fresh.fit_at(kind, 1.0).coefficients());
  const FusionResult r = reused.fit();
  const FusionResult f = fresh.fit();
  EXPECT_EQ(r.report.chosen_kind, f.report.chosen_kind);
  EXPECT_EQ(r.report.chosen_tau, f.report.chosen_tau);
  EXPECT_EQ(r.model.coefficients(), f.model.coefficients());
}

TEST(Fusion, OptionsCarryResolvedCoefficientScale) {
  // The prior width reference is max |alpha_E| over the informative
  // non-constant terms; the fitter records it in options().prior.scale so
  // callers can rebuild its exact priors.
  const auto basis3 = basis::BasisSet::linear(3);
  const linalg::Vector early{100.0, 0.5, -2.0, 0.1};  // [0] is the constant
  EXPECT_EQ(BmfFitter(basis3, early).options().prior.scale, 2.0);
  EXPECT_EQ(BmfFitter(basis3, early, {1, 1, 0, 1}).options().prior.scale, 0.5);
  FusionOptions explicit_scale;
  explicit_scale.prior.scale = 7.0;
  EXPECT_EQ(BmfFitter(basis3, early, {}, explicit_scale).options().prior.scale,
            7.0);
  // No informative sensitivity at all: left unset, the prior falls back to
  // its own default.
  EXPECT_FALSE(BmfFitter(basis3, {3.0, 0.0, 0.0, 0.0})
                   .options()
                   .prior.scale.has_value());
}

TEST(Fusion, BmfFitMatchesExplicitFitter) {
  // The one-call wrapper must be exactly construct + set_data + fit.
  Scenario s = make_scenario(25, 20, 0.1, 0.02, 16);
  FusionOptions options;
  options.cv.folds = 4;
  BmfFitter fitter(s.basis, s.early, {}, options);
  fitter.set_data(s.train_points, s.train_f);
  for (PriorSelection sel :
       {PriorSelection::kNonzeroMean, PriorSelection::kAuto}) {
    const FusionResult want = fitter.fit(sel);
    const FusionResult got =
        bmf_fit(s.basis, s.early, {}, s.train_points, s.train_f, sel, options);
    EXPECT_EQ(got.report.chosen_kind, want.report.chosen_kind);
    EXPECT_EQ(got.report.chosen_tau, want.report.chosen_tau);
    EXPECT_EQ(got.report.cv_error, want.report.cv_error);
    EXPECT_EQ(got.model.coefficients(), want.model.coefficients());
  }
}

TEST(Fusion, SelectionToString) {
  EXPECT_STREQ(to_string(PriorSelection::kZeroMean), "BMF-ZM");
  EXPECT_STREQ(to_string(PriorSelection::kNonzeroMean), "BMF-NZM");
  EXPECT_STREQ(to_string(PriorSelection::kAuto), "BMF-PS");
}

TEST(Fusion, DirectAndFastSolversGiveSameModel) {
  // The fitted model (solved through the workspace) must match the dense
  // reference solve at the chosen (prior, tau) under the fitter's own prior.
  Scenario s = make_scenario(25, 20, 0.1, 0.02, 11);
  BmfFitter fitter(s.basis, s.early, {}, {});
  fitter.set_data(s.train_points, s.train_f);
  const FusionResult fast = fitter.fit(PriorSelection::kAuto);
  const PriorOptions& options = fitter.options().prior;
  const CoefficientPrior prior =
      fast.report.chosen_kind == PriorKind::kZeroMean
          ? CoefficientPrior::zero_mean(s.early, {}, options)
          : CoefficientPrior::nonzero_mean(s.early, {}, options);
  const linalg::Vector direct = map_solve_direct(
      fitter.design(), s.train_f, prior, fast.report.chosen_tau);
  for (std::size_t j = 0; j < s.early.size(); ++j)
    EXPECT_NEAR(fast.model.coefficients()[j], direct[j], 1e-6);
}

bool same_bits(const linalg::Vector& a, const linalg::Vector& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(Fusion, AccessorOrderNeverChangesTheFit) {
  // Whichever accessor comes first decides what the fitter builds together:
  // a curve builds the CV engine and the MAP workspace in one pool loop,
  // fit_at builds the workspace alone, and fit() reaches the engine first.
  // K^2 M / 2 is above the parallel flop cutoff, so the 4-thread runs split
  // the kernel build as well.
  Scenario s = make_scenario(80, 50, 0.1, 0.02, 17);
  struct Observed {
    FusionResult fit;
    linalg::Vector zm_at, nzm_at;
  };
  enum class Order { kCurvesFirst, kFitAtFirst, kFitOnly };
  auto run = [&](Order order) {
    BmfFitter fitter(s.basis, s.early, {}, {});
    fitter.set_data(s.train_points, s.train_f);
    Observed o;
    if (order == Order::kCurvesFirst) {
      (void)fitter.zero_mean_curve();
      (void)fitter.nonzero_mean_curve();
    }
    if (order == Order::kFitAtFirst) {
      o.zm_at = fitter.fit_at(PriorKind::kZeroMean, 0.5).coefficients();
      o.nzm_at = fitter.fit_at(PriorKind::kNonzeroMean, 0.5).coefficients();
    }
    o.fit = fitter.fit(PriorSelection::kAuto);
    if (order != Order::kFitAtFirst) {
      o.zm_at = fitter.fit_at(PriorKind::kZeroMean, 0.5).coefficients();
      o.nzm_at = fitter.fit_at(PriorKind::kNonzeroMean, 0.5).coefficients();
    }
    return o;
  };

  parallel::set_num_threads(1);
  const Observed want = run(Order::kCurvesFirst);
  ASSERT_TRUE(want.fit.report.zm_curve && want.fit.report.nzm_curve);
  for (std::size_t threads : {1, 4}) {
    parallel::set_num_threads(threads);
    for (Order order :
         {Order::kCurvesFirst, Order::kFitAtFirst, Order::kFitOnly}) {
      const Observed got = run(order);
      SCOPED_TRACE(testing::Message() << "order " << static_cast<int>(order)
                                      << " at " << threads << " threads");
      EXPECT_EQ(got.fit.report.chosen_kind, want.fit.report.chosen_kind);
      EXPECT_TRUE(same_bits({got.fit.report.chosen_tau},
                            {want.fit.report.chosen_tau}));
      EXPECT_TRUE(
          same_bits({got.fit.report.cv_error}, {want.fit.report.cv_error}));
      ASSERT_TRUE(got.fit.report.zm_curve && got.fit.report.nzm_curve);
      EXPECT_TRUE(same_bits(got.fit.report.zm_curve->errors,
                            want.fit.report.zm_curve->errors));
      EXPECT_TRUE(same_bits(got.fit.report.nzm_curve->errors,
                            want.fit.report.nzm_curve->errors));
      EXPECT_TRUE(same_bits(got.fit.model.coefficients(),
                            want.fit.model.coefficients()));
      EXPECT_TRUE(same_bits(got.zm_at, want.zm_at));
      EXPECT_TRUE(same_bits(got.nzm_at, want.nzm_at));
    }
  }
  parallel::set_num_threads(0);
}

TEST(Fusion, FailedEngineBuildLeavesNothingHalfBuilt) {
  // More folds than samples: building the CV engine throws. The fitter must
  // keep no partial engine or workspace, so its next fit_at equals a fresh
  // fitter's bit for bit.
  Scenario s = make_scenario(20, 6, 0.1, 0.02, 18);
  FusionOptions options;
  options.cv.folds = 7;
  for (std::size_t threads : {1, 4}) {
    parallel::set_num_threads(threads);
    BmfFitter failed(s.basis, s.early, {}, options);
    failed.set_data(s.train_points, s.train_f);
    EXPECT_THROW(failed.zero_mean_curve(), std::invalid_argument);
    BmfFitter fresh(s.basis, s.early, {}, options);
    fresh.set_data(s.train_points, s.train_f);
    for (PriorKind kind : {PriorKind::kZeroMean, PriorKind::kNonzeroMean})
      EXPECT_TRUE(same_bits(failed.fit_at(kind, 0.5).coefficients(),
                            fresh.fit_at(kind, 0.5).coefficients()))
          << "threads=" << threads;
  }
  parallel::set_num_threads(0);
}

}  // namespace
}  // namespace bmf::core
