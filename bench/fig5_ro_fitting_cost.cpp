// Reproduces Fig. 5: fitting cost vs number of post-layout training samples
// for (a) power, (b) phase noise, (c) frequency of the ring oscillator,
// comparing OMP, BMF-PS with the conventional Cholesky solver, and BMF-PS
// with the fast Woodbury solver (Section IV-C).
//
// The BMF pipelines share the cross-validation stage (which always uses the
// low-rank engine; running the CV grid through dense M x M solves would be
// the product of the two costs and is exactly what Section IV-C exists to
// avoid). The conventional-vs-fast contrast is therefore reported both as
// full-pipeline cost and as the isolated MAP-solve cost — the paper's
// "up to 600x" refers to the solver itself at large M (see also the
// ablation_solver_scaling bench).
#include <algorithm>
#include <iostream>

#include "bmf/fusion.hpp"
#include "bmf/map_solver.hpp"
#include "experiment.hpp"
#include "io/table.hpp"
#include "regress/omp.hpp"

int main(int argc, char** argv) {
  using namespace bmf;
  io::Args args(argc, argv);
  // Default to a larger M than the error-table benches: the solver contrast
  // of Fig. 5 lives in the M >> K regime.
  const bench::BenchScale scale =
      bench::parse_scale(args, 2000, circuit::kRoFullVars, 1);
  std::vector<std::size_t> ks = {100, 300, 500, 700, 900};
  if (args.flag("dense-grid")) ks = {100, 200, 300, 400, 500, 600, 700, 800,
                                     900};
  if (args.flag("quick")) ks = {100, 300, 500};

  std::cout << "[Fig 5] RO fitting cost vs training samples (variables="
            << scale.vars << ")\n\n";

  for (auto metric : {circuit::RoMetric::kPower, circuit::RoMetric::kPhaseNoise,
                      circuit::RoMetric::kFrequency}) {
    circuit::Testcase tc =
        circuit::ring_oscillator_testcase(metric, scale.vars, scale.seed);
    stats::Rng rng(scale.seed + 11);
    circuit::Dataset train =
        tc.silicon.sample_late(*std::max_element(ks.begin(), ks.end()), rng);
    const linalg::Matrix g_all =
        basis::design_matrix(tc.silicon.late_basis(), train.points);

    io::Table table({"K", "OMP (s)", "BMF-PS chol (s)", "BMF-PS fast (s)",
                     "solve chol (s)", "solve fast (s)", "solver speedup"});
    for (std::size_t k : ks) {
      linalg::Matrix g_k = g_all.block(0, 0, k, g_all.cols());
      linalg::Vector f_k(train.f.begin(), train.f.begin() + k);

      double t0 = bench::now_seconds();
      regress::OmpOptions oopt;
      oopt.seed = scale.seed;
      regress::omp_solve(g_k, f_k, oopt);
      const double t_omp = bench::now_seconds() - t0;

      core::BmfFitter fitter(tc.silicon.late_basis(), tc.early_coeffs,
                             tc.informative, {});
      t0 = bench::now_seconds();
      fitter.set_design(g_k, f_k);
      const core::CvCurve& zm = fitter.zero_mean_curve();
      const core::CvCurve& nzm = fitter.nonzero_mean_curve();
      const double t_cv = bench::now_seconds() - t0;
      const bool zm_wins = zm.best_error() <= nzm.best_error();
      const core::PriorKind kind =
          zm_wins ? core::PriorKind::kZeroMean : core::PriorKind::kNonzeroMean;
      const double tau = zm_wins ? zm.best_tau() : nzm.best_tau();

      const auto prior =
          kind == core::PriorKind::kZeroMean
              ? core::CoefficientPrior::zero_mean(tc.early_coeffs,
                                                  tc.informative)
              : core::CoefficientPrior::nonzero_mean(tc.early_coeffs,
                                                     tc.informative);
      t0 = bench::now_seconds();
      core::map_solve_direct(g_k, f_k, prior, tau);
      const double t_chol = bench::now_seconds() - t0;
      t0 = bench::now_seconds();
      core::map_solve_fast(g_k, f_k, prior, tau);
      const double t_fast = bench::now_seconds() - t0;

      table.add_row({std::to_string(k), io::Table::num(t_omp, 3),
                     io::Table::num(t_cv + t_chol, 3),
                     io::Table::num(t_cv + t_fast, 3),
                     io::Table::num(t_chol, 4), io::Table::num(t_fast, 4),
                     io::Table::num(t_chol / t_fast, 1) + "x"});
    }
    std::cout << "--- " << tc.metric << " ---\n" << table << "\n";
  }
  return 0;
}
