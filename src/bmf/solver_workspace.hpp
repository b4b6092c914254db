// Amortized MAP solver: one tau-independent factorization, O(K^2 + K M)
// per hyper-parameter afterwards.
//
// Every MAP solve in the pipeline shares the normal equations
//   (tau * D + G^T G) alpha = tau * D * mu + G^T f,   D = diag(q),
// and the fusion pipeline solves them repeatedly on the *same* (G, f, q):
// BmfFitter's fit_at queries and BMF-PS evaluating both priors.
// map_solve_direct rebuilds an O(K M^2) Gram and an O(M^3) Cholesky per
// call; map_solve_fast rebuilds an O(K^2 M) Woodbury capacitance and an
// O(K^3) factorization per call — all of it tau-independent work. This
// workspace is the one repeated-solve path: BmfFitter always solves
// through it.
//
// MapSolverWorkspace hoists that work out of the tau loop. With the kernel
// B = G D^{-1} G^T (PriorKernel) the push-through identity gives the
// kernel form
//
//   alpha(tau, mu) = mu + D^{-1} G^T (tau I + B)^{-1} (f - G mu).
//
// B (K x K) is independent of tau and of the prior mean, and it is
// *identical for the zero-mean and nonzero-mean priors* (both use
// q_m = 1/alpha_E,m^2, paper Section III-A) — BmfFitter hands the workspace
// the same kernel its CV engine gathered its folds from, so B is computed
// once per fit. The workspace eigendecomposes B = V diag(w) V^T and caches
// V^T f once; afterwards (tau I + B)^{-1} is a diagonal rescale in the
// eigenbasis, y = (V^T f - V^T (G mu)) ./ (tau + w), and each solve(tau)
// is alpha = mu + D^{-1} G^T V y at O(K^2 + K M).
//
// The kernel form is used instead of the algebraically equal Woodbury form
// mu + (D^{-1} G^T f - D^{-1} G^T t) / tau, t = (I + B/tau)^{-1}
// (G mu + B f / tau), because the latter subtracts two O(1/tau) terms: at
// tau = 1e-9 Var(f) on the SRAM testcase (seed 7, K = 500) it was off by
// 7.5% of max|alpha| (test error 0.194 against 0.0118). The solves are exact (no approximation): results match
// map_solve_direct / map_solve_fast to solver tolerance.
#pragma once

#include "bmf/prior.hpp"
#include "linalg/eigen_sym.hpp"
#include "linalg/matrix.hpp"

namespace bmf::core {

class MapSolverWorkspace {
 public:
  /// Builds the tau-independent state from the design matrix `g` (K x M),
  /// responses `f` (K), and `prior` (supplies the precision scale q and the
  /// default mean) by building PriorKernel(g, prior) and delegating. `g`
  /// must outlive the workspace; `f` and the prior are only read during
  /// construction. Cost: O(K^2 M + K^3).
  MapSolverWorkspace(const linalg::Matrix& g, const linalg::Vector& f,
                     const CoefficientPrior& prior);

  /// Builds from a precomputed `kernel`, which must be PriorKernel(g, prior)
  /// of a prior with mean `mean` (the default mean of solve(tau)); `f`,
  /// `kernel` and `mean` are only read during construction. Cost: O(K^3).
  MapSolverWorkspace(const linalg::Matrix& g, const linalg::Vector& f,
                     const PriorKernel& kernel, const linalg::Vector& mean);

  /// Tau-independent projection of one prior mean; build once with
  /// project_mean(), reuse across the whole tau grid.
  struct ProjectedMean {
    linalg::Vector mu;   // the mean itself (M entries; empty means mu == 0)
    linalg::Vector vb1;  // V^T (G mu) (K entries; empty when mu == 0)
  };

  /// Projects a prior mean into the eigenbasis (O(K M + K^2); detects an
  /// all-zero mean and short-circuits). The mean must share the workspace's
  /// precision scale q — i.e. come from the ZM/NZM pair of the same early
  /// model, which the pipeline guarantees.
  ProjectedMean project_mean(const linalg::Vector& mu) const;

  /// MAP coefficients at `tau` with the construction prior's own mean.
  /// O(K^2 + K M). Every solve() throws std::invalid_argument unless tau is
  /// positive and finite.
  linalg::Vector solve(double tau) const;

  /// MAP coefficients at `tau` with an explicit mean (projected on the fly).
  linalg::Vector solve(double tau, const linalg::Vector& mu) const;

  /// MAP coefficients at `tau` reusing a cached mean projection — the
  /// cheapest repeated-query path.
  linalg::Vector solve(double tau, const ProjectedMean& mean) const;

  std::size_t num_samples() const { return g_->rows(); }  // K
  std::size_t num_bases() const { return g_->cols(); }    // M

  /// Degradation telemetry for the PSD clamp applied at construction.
  /// B = G D^{-1} G^T is PSD in exact arithmetic; roundoff can push
  /// eigenvalues slightly negative, and those are clamped to zero.
  /// min_eigenvalue() is the smallest *pre-clamp* eigenvalue, or 0 when
  /// none is negative (how far the spectrum dipped below zero);
  /// clamped_eigenvalues() counts eigenvalues below -tol (tol = relative
  /// to the spectral radius) — i.e. clamps large enough to signal a
  /// genuinely indefinite kernel rather than benign roundoff.
  double min_eigenvalue() const { return min_eigenvalue_; }
  std::size_t clamped_eigenvalues() const { return clamped_; }
  bool degraded() const { return clamped_ > 0; }

 private:
  const linalg::Matrix* g_;     // not owned; must outlive the workspace
  linalg::Vector inv_q_;        // D^{-1} diagonal (M)
  linalg::SymmetricEigen eig_;  // of B = G D^{-1} G^T (values clamped >= 0)
  double min_eigenvalue_ = 0.0;  // smallest eigenvalue before the clamp
  std::size_t clamped_ = 0;      // eigenvalues clamped from below -tol
  linalg::Vector vf_;           // V^T f (K)
  ProjectedMean own_mean_;      // projection of the construction prior mean
};

}  // namespace bmf::core
