#include "bmf/fusion.hpp"

#include <functional>
#include <stdexcept>

#include "check/contracts.hpp"

namespace bmf::core {

const char* to_string(PriorSelection sel) {
  switch (sel) {
    case PriorSelection::kZeroMean:
      return "BMF-ZM";
    case PriorSelection::kNonzeroMean:
      return "BMF-NZM";
    case PriorSelection::kAuto:
      return "BMF-PS";
  }
  return "?";
}

namespace {

// Reference scale for the prior width knobs: the largest informative
// non-constant coefficient. Including the constant term would let the
// nominal performance value (orders of magnitude above any sensitivity)
// blow up the flat-prior width and the clamp floor.
FusionOptions with_coefficient_scale(FusionOptions options,
                                     const basis::BasisSet& late_basis,
                                     const linalg::Vector& early,
                                     const std::vector<char>& informative) {
  if (options.prior.scale) return options;
  const std::size_t constant = late_basis.constant_index();
  double s = 0.0;
  for (std::size_t m = 0; m < early.size(); ++m) {
    if (m == constant) continue;
    if (!informative.empty() && m < informative.size() && !informative[m])
      continue;
    s = std::max(s, std::abs(early[m]));
  }
  if (s > 0.0) options.prior.scale = s;
  return options;
}

}  // namespace

BmfFitter::BmfFitter(basis::BasisSet late_basis, linalg::Vector early_coeffs,
                     std::vector<char> informative, FusionOptions options)
    : late_basis_(std::move(late_basis)),
      options_(with_coefficient_scale(options, late_basis_, early_coeffs,
                                      informative)),
      zm_prior_(CoefficientPrior::zero_mean(early_coeffs, informative,
                                            options_.prior)),
      nzm_prior_(CoefficientPrior::nonzero_mean(early_coeffs, informative,
                                                options_.prior)) {
  if (late_basis_.size() != early_coeffs.size())
    throw std::invalid_argument(
        "BmfFitter: early coefficient count must match late basis size");
}

BmfFitter::BmfFitter(const MappedPrior& mapped, FusionOptions options)
    : BmfFitter(mapped.late_basis, mapped.early_coeffs, mapped.informative,
                options) {}

void BmfFitter::set_data(const linalg::Matrix& points,
                         const linalg::Vector& f) {
  set_design(basis::design_matrix(late_basis_, points), f);
}

void BmfFitter::set_design(linalg::Matrix g, linalg::Vector f) {
  LINALG_REQUIRE(g.cols() == late_basis_.size(),
                 "BmfFitter: design matrix column count mismatch");
  LINALG_REQUIRE(g.rows() == f.size(), "BmfFitter: rhs size mismatch");
  BMF_EXPECTS_DIMS(check::all_finite(g) && check::all_finite(f),
                   "BmfFitter: design matrix and responses must be finite",
                   {"g.rows", g.rows()}, {"g.cols", g.cols()});
  g_ = std::move(g);
  f_ = std::move(f);
  has_data_ = true;
  kernel_.reset();
  engine_.reset();
  zm_curve_.reset();
  nzm_curve_.reset();
  workspace_.reset();
  nzm_mean_.reset();
}

void BmfFitter::require_data() const {
  if (!has_data_)
    throw std::logic_error("BmfFitter: call set_data/set_design first");
}

const PriorKernel& BmfFitter::kernel() const {
  if (!kernel_) kernel_.emplace(g_, zm_prior_);
  return *kernel_;
}

CvEngine& BmfFitter::engine() {
  require_data();
  if (!engine_) {
    // Every curve is followed by a MAP solve, so a missing workspace is
    // built as the first task of the engine's fold loop: its K x K
    // eigensolve overlaps the fold eigensolves instead of running after
    // them with the other threads idle.
    std::function<void()> build_workspace;
    if (!workspace_) build_workspace = [this] { (void)workspace(); };
    engine_ = std::make_unique<CvEngine>(g_, f_, kernel(), options_.cv,
                                         build_workspace);
  }
  return *engine_;
}

const CvCurve& BmfFitter::zero_mean_curve() {
  if (!zm_curve_) zm_curve_ = engine().evaluate(zm_prior_.mean());
  return *zm_curve_;
}

const CvCurve& BmfFitter::nonzero_mean_curve() {
  if (!nzm_curve_) nzm_curve_ = engine().evaluate(nzm_prior_.mean());
  return *nzm_curve_;
}

const MapSolverWorkspace& BmfFitter::workspace() const {
  if (!workspace_) {
    // The ZM and NZM priors share the precision scale q, so the workspace is
    // built from the fit's kernel with the ZM mean (zero) and the NZM mean is
    // projected once and cached alongside.
    auto ws = std::make_unique<MapSolverWorkspace>(g_, f_, kernel(),
                                                   zm_prior_.mean());
    nzm_mean_ = ws->project_mean(nzm_prior_.mean());
    workspace_ = std::move(ws);
  }
  return *workspace_;
}

basis::PerformanceModel BmfFitter::fit_at(PriorKind kind, double tau) const {
  require_data();
  BMF_EXPECTS(tau > 0.0 && check::is_finite(tau),
              "BmfFitter::fit_at: tau must be positive and finite");
  // Amortize the tau-independent kernel across every query on this design
  // matrix (tau sweeps, BMF-PS trying both priors, the final fit) — each
  // solve is O(K^2 + K M) after the first.
  const MapSolverWorkspace& ws = workspace();
  return basis::PerformanceModel(late_basis_,
                                 kind == PriorKind::kZeroMean
                                     ? ws.solve(tau)
                                     : ws.solve(tau, *nzm_mean_));
}

FusionResult BmfFitter::fit(PriorSelection selection) {
  require_data();
  FusionReport report;
  switch (selection) {
    case PriorSelection::kZeroMean: {
      const CvCurve& c = zero_mean_curve();
      report.chosen_kind = PriorKind::kZeroMean;
      report.chosen_tau = c.best_tau();
      report.cv_error = c.best_error();
      report.zm_curve = c;
      break;
    }
    case PriorSelection::kNonzeroMean: {
      const CvCurve& c = nonzero_mean_curve();
      report.chosen_kind = PriorKind::kNonzeroMean;
      report.chosen_tau = c.best_tau();
      report.cv_error = c.best_error();
      report.nzm_curve = c;
      break;
    }
    case PriorSelection::kAuto: {
      const CvCurve& zm = zero_mean_curve();
      const CvCurve& nzm = nonzero_mean_curve();
      report.zm_curve = zm;
      report.nzm_curve = nzm;
      if (zm.best_error() <= nzm.best_error()) {
        report.chosen_kind = PriorKind::kZeroMean;
        report.chosen_tau = zm.best_tau();
        report.cv_error = zm.best_error();
      } else {
        report.chosen_kind = PriorKind::kNonzeroMean;
        report.chosen_tau = nzm.best_tau();
        report.cv_error = nzm.best_error();
      }
      break;
    }
  }
  return FusionResult{fit_at(report.chosen_kind, report.chosen_tau),
                      std::move(report)};
}

FusionResult bmf_fit(const basis::BasisSet& late_basis,
                     const linalg::Vector& early_coeffs,
                     const std::vector<char>& informative,
                     const linalg::Matrix& points, const linalg::Vector& f,
                     PriorSelection selection, const FusionOptions& options) {
  BmfFitter fitter(late_basis, early_coeffs, informative, options);
  fitter.set_data(points, f);
  return fitter.fit(selection);
}

}  // namespace bmf::core
