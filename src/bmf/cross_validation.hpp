// N-fold cross-validation for prior and hyper-parameter selection
// (paper Section IV-D).
//
// Naively, scanning an N_tau-point hyper-parameter grid with N folds costs
// N * N_tau Woodbury solves, each O(K^2 M + K^3). This engine exploits the
// structure of the problem. The fit's kernel B = G diag(1/q) G^T (K x K,
// see PriorKernel) is independent of tau and *identical for the zero-mean
// and nonzero-mean priors* (both use q_m = 1/alpha_E,m^2, Section III-A),
// and it is computed once per fit: a fold's training kernel
// B_tr = B[train, train] is a principal submatrix of it and the
// test-vs-train block C = B[test, train] another submatrix, so a fold only
// gathers them. Per fold the engine eigendecomposes B_tr = V diag(w) V^T
// once; every (prior, tau) grid point afterwards costs only
// O(K_train * (K_train + K_test)).
//
// Each grid point predicts the held-out responses in kernel form:
//
//   y    = (V^T f_tr - V^T (G_tr mu)) ./ (tau + w)
//   pred = G_te mu + (C V) y
//
// This is algebraically equal to predicting with the fold's Woodbury MAP
// solution, but the Woodbury form subtracts two O(1/tau) terms, and at the
// low end of the grid that cancellation is catastrophic: on the SRAM
// testcase (seed 7, K = 500) its zero-mean curve read 0.147 at
// tau = 1e-9 Var(f) where the kernel form reads the exact 0.0120.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "bmf/prior.hpp"
#include "linalg/eigen_sym.hpp"
#include "linalg/matrix.hpp"
#include "stats/kfold.hpp"

namespace bmf::core {

struct CvOptions {
  /// Number of folds N (paper uses unspecified N-fold; we default to 5).
  std::size_t folds = 5;
  /// Number of log-spaced grid points for tau.
  std::size_t grid_size = 21;
  /// Grid spans [grid_lo_rel, grid_hi_rel] x Var(f). tau is sigma_0^2 (ZM)
  /// or eta = sigma_0^2/lambda^2 (NZM). The window is deliberately wide:
  /// the low end means "no usable prior", the high end must be able to pin
  /// even the widest (flat) prior entries when the data prefers that.
  double grid_lo_rel = 1e-9;
  double grid_hi_rel = 1e6;
  /// Seed of the fold-assignment shuffle.
  std::uint64_t seed = 7;
};

/// Cross-validation error curve over the tau grid for one prior mean.
struct CvCurve {
  std::vector<double> taus;
  std::vector<double> errors;  // mean over folds of relative error (Eq. 59)

  /// Index of the minimizing grid point.
  std::size_t best_index() const;
  double best_tau() const { return taus[best_index()]; }
  double best_error() const { return errors[best_index()]; }
};

/// Per-fold cached quantities shared by every grid point.
class CvEngine {
 public:
  /// `g` (K x M) and `f` (K) are the late-stage training data; `prior`
  /// supplies the precision scale q, which is identical for the zero-mean
  /// and nonzero-mean priors — so one engine serves both. Builds the
  /// PriorKernel of (g, prior) and delegates. `g` must outlive the engine.
  CvEngine(const linalg::Matrix& g, const linalg::Vector& f,
           const CoefficientPrior& prior, const CvOptions& options);

  /// Builds from the fit's precomputed `kernel`, which must be
  /// PriorKernel(g, prior); it is only read during construction. A
  /// non-empty `alongside` runs as task 0 of the fold-build pool loop, so
  /// it starts first and overlaps the fold eigensolves; it must not touch
  /// the engine, and an exception it throws propagates like a fold's.
  CvEngine(const linalg::Matrix& g, const linalg::Vector& f,
           const PriorKernel& kernel, const CvOptions& options,
           const std::function<void()>& alongside = {});

  /// Evaluate the CV error over the tau grid for a prior with mean `mu`
  /// (pass an all-zero vector for the zero-mean prior — detected and
  /// short-circuited).
  CvCurve evaluate(const linalg::Vector& mu) const;

  const linalg::Vector& tau_grid() const { return taus_; }
  std::size_t num_folds() const { return folds_.size(); }

 private:
  struct Fold {
    std::vector<std::size_t> train;
    std::vector<std::size_t> test;
    linalg::SymmetricEigen eig;   // of B_tr = B[train, train]
    linalg::Vector f_test;        // held-out responses
    linalg::Vector vf;            // V^T f_tr  (size K_tr)
    linalg::Matrix c_hat;         // B[test, train] V  (K_te x K_tr)
  };

  /// Build the cached quantities of fold `fi` into folds_[fi]. Called from
  /// a parallel loop in the constructor — folds are fully independent.
  void build_fold(const stats::KFold& kfold, std::size_t fi,
                  const linalg::Vector& f, const linalg::Matrix& b);

  const linalg::Matrix* g_;
  linalg::Vector taus_;
  std::vector<Fold> folds_;
};

/// Log-spaced grid helper: n points from lo to hi (inclusive), both > 0.
linalg::Vector log_grid(double lo, double hi, std::size_t n);

/// The auto-centering rule used by CvEngine: the sample variance of the
/// responses (falls back to mean(f)^2, then 1, if degenerate).
double tau_grid_center(const linalg::Vector& f);

}  // namespace bmf::core
