// Reproduces Fig. 8: fitting cost vs number of post-layout training samples
// for the SRAM read path — OMP vs BMF-PS with the fast solver. (As in the
// paper, the conventional Cholesky solver is omitted here: at the SRAM
// problem size the dense M x M factorization is computationally infeasible;
// pass --chol to force it anyway at reduced scale.)
#include <iostream>

#include "bmf/fusion.hpp"
#include "bmf/map_solver.hpp"
#include "experiment.hpp"
#include "io/table.hpp"
#include "regress/omp.hpp"

int main(int argc, char** argv) {
  using namespace bmf;
  io::Args args(argc, argv);
  const bench::BenchScale scale = bench::parse_scale(
      args, circuit::kSramDefaultVars, circuit::kSramFullVars, 1);
  const bool with_chol = args.flag("chol");
  std::vector<std::size_t> ks = {100, 300, 500, 700, 900};

  std::cout << "[Fig 8] SRAM read-path fitting cost vs training samples"
            << " (variables=" << scale.vars << ")\n\n";

  circuit::Testcase tc =
      circuit::sram_read_path_testcase(scale.vars, scale.seed);
  stats::Rng rng(scale.seed + 13);
  circuit::Dataset train = tc.silicon.sample_late(900, rng);
  const linalg::Matrix g_all =
      basis::design_matrix(tc.silicon.late_basis(), train.points);

  std::vector<std::string> headers = {"K", "OMP (s)", "BMF-PS fast (s)"};
  if (with_chol) headers.push_back("BMF-PS chol (s)");
  io::Table table(headers);

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
    fitter.fit(core::PriorSelection::kAuto);
    const double t_bmf = bench::now_seconds() - t0;

    std::vector<std::string> row = {std::to_string(k),
                                    io::Table::num(t_omp, 3),
                                    io::Table::num(t_bmf, 3)};
    if (with_chol) {
      auto prior = core::CoefficientPrior::zero_mean(tc.early_coeffs,
                                                     tc.informative);
      t0 = bench::now_seconds();
      core::map_solve_direct(g_k, f_k, prior, 1.0);
      row.push_back(io::Table::num(bench::now_seconds() - t0, 2));
    }
    table.add_row(std::move(row));
  }
  std::cout << table;
  if (!with_chol)
    std::cout << "\n(conventional Cholesky solver infeasible at this M; "
                 "see --chol and ablation_solver_scaling)\n";
  return 0;
}
