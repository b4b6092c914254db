// The full BMF pipeline (paper Algorithm 1).
//
// Given the early-stage knowledge (coefficients over the late-stage basis,
// possibly produced by prior mapping, with an informative mask for missing
// entries) and K late-stage samples, BmfFitter:
//
//   1. defines the zero-mean and/or nonzero-mean prior (Section III-A),
//   2. picks the hyper-parameter (sigma_0^2 resp. eta) by N-fold
//      cross-validation over a log grid (Section IV-D),
//   3. optionally picks the better of the two priors by the same CV error
//      (the BMF-PS variant of Section V),
//   4. solves the MAP estimate at the chosen (prior, tau).
//
// The ZM and NZM priors share the precision scale q, so one lazily-built
// PriorKernel B = G diag(1/q) G^T (K x K) serves the whole fit: the CV
// engine (shared between the two priors) gathers every fold's blocks from
// it, and every MAP solve goes through one MapSolverWorkspace that
// eigendecomposes the same B. Every fit_at(kind, tau) query and the final
// fit then cost O(K^2 + K M) per solve, and B is computed once per design
// matrix. map_solve_direct (bmf/map_solver.hpp) is the dense reference the
// tests hold fit_at to.
//
// Both caches are built on first use. Every caller of a CV curve goes on to
// a MAP solve, so the first curve builds the engine and, if it is not built
// yet, the workspace in one pool loop: the workspace's K x K eigensolve is
// its first (largest) task, the N fold eigensolves the rest. A fit_at-only
// tau sweep builds the workspace alone; a later curve then builds only the
// folds.
#pragma once

#include <memory>
#include <optional>

#include "basis/model.hpp"
#include "bmf/cross_validation.hpp"
#include "bmf/prior.hpp"
#include "bmf/prior_mapping.hpp"
#include "bmf/solver_workspace.hpp"

namespace bmf::core {

/// Which prior(s) Algorithm 1 may use.
enum class PriorSelection { kZeroMean, kNonzeroMean, kAuto };

const char* to_string(PriorSelection sel);

struct FusionOptions {
  PriorOptions prior;
  CvOptions cv;
};

struct FusionReport {
  PriorKind chosen_kind = PriorKind::kZeroMean;
  double chosen_tau = 0.0;
  /// CV error of the chosen configuration.
  double cv_error = 0.0;
  /// Full CV curves (present only for the priors that were evaluated).
  std::optional<CvCurve> zm_curve;
  std::optional<CvCurve> nzm_curve;
};

struct FusionResult {
  basis::PerformanceModel model;
  FusionReport report;
};

class BmfFitter {
 public:
  /// `early_coeffs` must have one entry per late-basis term; `informative`
  /// marks entries carrying real prior knowledge (empty mask = all).
  BmfFitter(basis::BasisSet late_basis, linalg::Vector early_coeffs,
            std::vector<char> informative = {}, FusionOptions options = {});

  /// Construct from a prior-mapping result (Section IV-A).
  BmfFitter(const MappedPrior& mapped, FusionOptions options = {});

  // The engine and the workspace keep pointers to this object's design
  // matrix, and the workspace build runs as a pool task on `this`.
  BmfFitter(const BmfFitter&) = delete;
  BmfFitter& operator=(const BmfFitter&) = delete;

  /// Bind the K late-stage samples; builds the design matrix G once.
  void set_data(const linalg::Matrix& points, const linalg::Vector& f);

  /// Bind a precomputed design matrix (K x M) directly.
  void set_design(linalg::Matrix g, linalg::Vector f);

  /// CV error curves (computed on demand; requires bound data).
  const CvCurve& zero_mean_curve();
  const CvCurve& nonzero_mean_curve();

  /// Run Algorithm 1 end-to-end with the given prior policy.
  FusionResult fit(PriorSelection selection = PriorSelection::kAuto);

  /// MAP fit at an explicit (prior, tau) — for ablations and sweeps.
  basis::PerformanceModel fit_at(PriorKind kind, double tau) const;

  const basis::BasisSet& late_basis() const { return late_basis_; }
  const linalg::Matrix& design() const { return g_; }
  const FusionOptions& options() const { return options_; }

 private:
  void require_data() const;
  /// Lazily-built kernel of (g_, q); shared by the engine and workspace.
  const PriorKernel& kernel() const;
  /// Lazily-built CV engine; its build also builds a missing workspace.
  CvEngine& engine();
  /// Lazily-built amortized solver over (g_, f_, q); shared by both priors.
  /// Assigned only once complete, so a failed build leaves none behind.
  const MapSolverWorkspace& workspace() const;

  basis::BasisSet late_basis_;
  FusionOptions options_;
  CoefficientPrior zm_prior_;
  CoefficientPrior nzm_prior_;
  linalg::Matrix g_;
  linalg::Vector f_;
  bool has_data_ = false;
  // The fit's kernel, built on first use by the engine or the workspace
  // (mutable: fit_at is logically const — the cache only changes cost).
  mutable std::optional<PriorKernel> kernel_;
  std::unique_ptr<CvEngine> engine_;
  std::optional<CvCurve> zm_curve_;
  std::optional<CvCurve> nzm_curve_;
  // Amortized MAP solver state, built with the engine or on first fit_at
  // (mutable: fit_at is logically const — the cache only changes cost).
  mutable std::unique_ptr<MapSolverWorkspace> workspace_;
  mutable std::optional<MapSolverWorkspace::ProjectedMean> nzm_mean_;
};

/// One-call convenience wrapper: construct, bind, fit.
FusionResult bmf_fit(const basis::BasisSet& late_basis,
                     const linalg::Vector& early_coeffs,
                     const std::vector<char>& informative,
                     const linalg::Matrix& points, const linalg::Vector& f,
                     PriorSelection selection = PriorSelection::kAuto,
                     const FusionOptions& options = {});

}  // namespace bmf::core
