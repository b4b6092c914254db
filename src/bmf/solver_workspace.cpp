#include "bmf/solver_workspace.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "check/contracts.hpp"
#include "linalg/blas.hpp"

namespace bmf::core {

MapSolverWorkspace::MapSolverWorkspace(const linalg::Matrix& g,
                                       const linalg::Vector& f,
                                       const CoefficientPrior& prior)
    : MapSolverWorkspace(g, f, PriorKernel(g, prior), prior.mean()) {}

MapSolverWorkspace::MapSolverWorkspace(const linalg::Matrix& g,
                                       const linalg::Vector& f,
                                       const PriorKernel& kernel,
                                       const linalg::Vector& mean)
    : g_(&g), inv_q_(kernel.inv_q) {
  LINALG_REQUIRE(g.rows() == f.size(),
                 "MapSolverWorkspace: rhs size mismatch");
  LINALG_REQUIRE(kernel.b.rows() == g.rows() && kernel.b.cols() == g.rows() &&
                     kernel.inv_q.size() == g.cols(),
                 "MapSolverWorkspace: kernel shape must match the design "
                 "matrix");
  BMF_EXPECTS_DIMS(check::all_finite(f),
                   "MapSolverWorkspace: responses must be finite",
                   {"f.size", f.size()});

  // Eigendecomposition of the kernel — the only super-quadratic work left;
  // everything tau-dependent happens in the eigenbasis afterwards.
  eig_ = linalg::eigen_symmetric(kernel.b);
  // PSD clamp with telemetry: record how far below zero the spectrum dipped
  // and how many eigenvalues were beyond roundoff-sized (tol relative to
  // the spectral radius), so callers can surface a degradation diagnostic.
  double wmax = 0.0;
  min_eigenvalue_ = 0.0;
  for (double w : eig_.values) {
    wmax = std::max(wmax, std::abs(w));
    min_eigenvalue_ = std::min(min_eigenvalue_, w);
  }
  const double tol = wmax * 1e-12;
  clamped_ = 0;
  for (double& w : eig_.values) {
    if (w < -tol) ++clamped_;
    w = std::max(w, 0.0);
  }

  vf_ = linalg::gemv_t(eig_.vectors, f);
  own_mean_ = project_mean(mean);
}

MapSolverWorkspace::ProjectedMean MapSolverWorkspace::project_mean(
    const linalg::Vector& mu) const {
  LINALG_REQUIRE(mu.size() == num_bases(),
                 "MapSolverWorkspace: mean size must match basis count");
  BMF_EXPECTS_DIMS(check::all_finite(mu),
                   "MapSolverWorkspace: prior mean must be finite",
                   {"mu.size", mu.size()});
  ProjectedMean mean;
  bool zero = true;
  for (double v : mu)
    if (v != 0.0) {
      zero = false;
      break;
    }
  if (zero) return mean;  // empty mu/vb1 encode the zero mean
  mean.mu = mu;
  mean.vb1 = linalg::gemv_t(eig_.vectors, linalg::gemv(*g_, mu));
  return mean;
}

linalg::Vector MapSolverWorkspace::solve(double tau) const {
  return solve(tau, own_mean_);
}

linalg::Vector MapSolverWorkspace::solve(double tau,
                                         const linalg::Vector& mu) const {
  return solve(tau, project_mean(mu));
}

linalg::Vector MapSolverWorkspace::solve(double tau,
                                         const ProjectedMean& mean) const {
  if (!(tau > 0.0) || !std::isfinite(tau))
    throw std::invalid_argument(
        "MapSolverWorkspace: tau must be positive and finite");
  const std::size_t k = num_samples(), m = num_bases();

  // Kernel form: y = V^T (f - G mu) ./ (tau + w), alpha = mu + D^{-1} G^T V y.
  linalg::Vector y(k);
  const bool has_mean = !mean.vb1.empty();
  for (std::size_t i = 0; i < k; ++i)
    y[i] = (vf_[i] - (has_mean ? mean.vb1[i] : 0.0)) /
           (tau + eig_.values[i]);
  const linalg::Vector gt = linalg::gemv_t(*g_, linalg::gemv(eig_.vectors, y));
  linalg::Vector x(m);
  for (std::size_t p = 0; p < m; ++p)
    x[p] = (mean.mu.empty() ? 0.0 : mean.mu[p]) + inv_q_[p] * gt[p];
  BMF_ENSURES_DIMS(check::all_finite(x),
                   "MapSolverWorkspace::solve produced non-finite "
                   "coefficients",
                   {"k", k}, {"m", m});
  return x;
}

}  // namespace bmf::core
