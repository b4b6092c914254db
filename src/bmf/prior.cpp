#include "bmf/prior.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "check/contracts.hpp"
#include "linalg/blas.hpp"

namespace bmf::core {

const char* to_string(PriorKind kind) {
  return kind == PriorKind::kZeroMean ? "BMF-ZM" : "BMF-NZM";
}

namespace {

void validate_mask(const linalg::Vector& early,
                   const std::vector<char>& informative) {
  if (!informative.empty() && informative.size() != early.size())
    throw std::invalid_argument(
        "CoefficientPrior: informative mask size must match coefficients");
}

double coefficient_scale(const linalg::Vector& early,
                         const std::vector<char>& informative,
                         const PriorOptions& options) {
  if (options.scale) {
    // Contract first (checked builds get the structured violation with the
    // offending value context); the plain throw keeps the documented
    // std::invalid_argument in unchecked builds.
    BMF_EXPECTS(*options.scale > 0.0 && check::is_finite(*options.scale),
                "prior coefficient scale must be positive and finite");
    if (*options.scale <= 0.0)
      throw std::invalid_argument(
          "CoefficientPrior: explicit scale must be positive");
    return *options.scale;
  }
  double s = 0.0;
  for (std::size_t m = 0; m < early.size(); ++m) {
    if (!informative.empty() && !informative[m]) continue;
    s = std::max(s, std::abs(early[m]));
  }
  return s > 0.0 ? s : 1.0;  // all-zero / all-missing prior: unit scale
}

}  // namespace

linalg::Vector CoefficientPrior::build_precisions(
    const linalg::Vector& early, const std::vector<char>& informative,
    const PriorOptions& options) {
  BMF_EXPECTS(options.clamp_rel > 0.0 && options.flat_sigma_rel > 0.0,
              "prior width knobs (clamp_rel, flat_sigma_rel) must be "
              "positive");
  if (options.clamp_rel <= 0.0 || options.flat_sigma_rel <= 0.0)
    throw std::invalid_argument(
        "CoefficientPrior: clamp_rel and flat_sigma_rel must be positive");
  BMF_EXPECTS_DIMS(check::all_finite(early),
                   "early-stage coefficients must be finite",
                   {"early.size", early.size()});
  const double scale = coefficient_scale(early, informative, options);
  const double sigma_floor = options.clamp_rel * scale;
  const double sigma_flat = options.flat_sigma_rel * scale;
  linalg::Vector q(early.size());
  for (std::size_t m = 0; m < early.size(); ++m) {
    const bool has_prior = informative.empty() || informative[m];
    const double sigma =
        has_prior ? std::max(std::abs(early[m]), sigma_floor) : sigma_flat;
    q[m] = 1.0 / (sigma * sigma);
  }
  // The prior-variance positivity invariant every downstream solver
  // (Woodbury diagonal, CV engine 1/q, workspace D^{-1}) relies on.
  BMF_ENSURES_DIMS(check::all_positive(q),
                   "prior precisions must be positive and finite",
                   {"q.size", q.size()});
  return q;
}

CoefficientPrior CoefficientPrior::zero_mean(
    const linalg::Vector& early_coeffs, const std::vector<char>& informative,
    const PriorOptions& options) {
  validate_mask(early_coeffs, informative);
  std::vector<char> mask =
      informative.empty() ? std::vector<char>(early_coeffs.size(), 1)
                          : informative;
  return CoefficientPrior(
      PriorKind::kZeroMean, linalg::Vector(early_coeffs.size(), 0.0),
      build_precisions(early_coeffs, informative, options), std::move(mask));
}

CoefficientPrior CoefficientPrior::nonzero_mean(
    const linalg::Vector& early_coeffs, const std::vector<char>& informative,
    const PriorOptions& options) {
  validate_mask(early_coeffs, informative);
  std::vector<char> mask =
      informative.empty() ? std::vector<char>(early_coeffs.size(), 1)
                          : informative;
  linalg::Vector mean = early_coeffs;
  // Missing-prior coefficients carry no mean information (Eq. 51/52: only
  // alpha_E^{-1} = 0 enters the solve, i.e. a zero pull).
  for (std::size_t m = 0; m < mean.size(); ++m)
    if (!mask[m]) mean[m] = 0.0;
  return CoefficientPrior(
      PriorKind::kNonzeroMean, std::move(mean),
      build_precisions(early_coeffs, informative, options), std::move(mask));
}

CoefficientPrior CoefficientPrior::from_moments(
    linalg::Vector mean, linalg::Vector precision_scale) {
  if (mean.size() != precision_scale.size())
    throw std::invalid_argument(
        "CoefficientPrior::from_moments: mean has " +
        std::to_string(mean.size()) + " entries, precision scale has " +
        std::to_string(precision_scale.size()));
  if (mean.empty())
    throw std::invalid_argument(
        "CoefficientPrior::from_moments: prior must not be empty");
  bool zero = true;
  for (std::size_t m = 0; m < mean.size(); ++m) {
    if (!(precision_scale[m] > 0.0) || !std::isfinite(precision_scale[m]))
      throw std::invalid_argument(
          "CoefficientPrior::from_moments: precision scale entry " +
          std::to_string(m) + " must be positive and finite");
    if (!std::isfinite(mean[m]))
      throw std::invalid_argument(
          "CoefficientPrior::from_moments: mean entry " + std::to_string(m) +
          " must be finite");
    if (mean[m] != 0.0) zero = false;
  }
  const PriorKind kind = zero ? PriorKind::kZeroMean : PriorKind::kNonzeroMean;
  std::vector<char> mask(mean.size(), 1);
  return CoefficientPrior(kind, std::move(mean), std::move(precision_scale),
                          std::move(mask));
}

std::size_t CoefficientPrior::num_informative() const {
  std::size_t n = 0;
  for (char c : informative_)
    if (c) ++n;
  return n;
}

double CoefficientPrior::sigma(std::size_t m) const {
  return 1.0 / std::sqrt(precision_[m]);
}

double CoefficientPrior::density(std::size_t m, double a) const {
  const double s = sigma(m);
  const double z = (a - mean_[m]) / s;
  return std::exp(-0.5 * z * z) /
         (s * std::sqrt(2.0 * std::numbers::pi));
}

PriorKernel::PriorKernel(const linalg::Matrix& g,
                         const CoefficientPrior& prior) {
  LINALG_REQUIRE(g.cols() == prior.size(),
                 "PriorKernel: prior size must match basis count");
  BMF_EXPECTS_DIMS(check::all_finite(g),
                   "PriorKernel: design matrix must be finite",
                   {"g.rows", g.rows()}, {"g.cols", g.cols()});
  BMF_EXPECTS_DIMS(check::all_positive(prior.precision_scale()),
                   "PriorKernel: prior variances must be positive and finite",
                   {"prior.size", prior.size()});
  const linalg::Vector& q = prior.precision_scale();
  inv_q.resize(q.size());
  for (std::size_t p = 0; p < q.size(); ++p) inv_q[p] = 1.0 / q[p];
  b = linalg::outer_gram_weighted(g, inv_q);
}

}  // namespace bmf::core
