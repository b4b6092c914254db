// Prior knowledge definition (paper Section III-A and IV-B).
//
// Both of the paper's priors place an independent Gaussian on each
// late-stage coefficient with standard deviation proportional to the
// early-stage coefficient magnitude:
//
//   zero-mean    (Eq. 12-17):  alpha_L,m ~ N(0,          alpha_E,m^2)
//   nonzero-mean (Eq. 19-20):  alpha_L,m ~ N(alpha_E,m,  lambda^2 alpha_E,m^2)
//
// After folding the hyper-parameter (sigma_0^2 resp. eta = sigma_0^2 /
// lambda^2) into a single likelihood-vs-prior weight `tau`, both MAP
// problems share one normal-equation form
//
//   (tau * D + G^T G) alpha = tau * D * mu + G^T f,   D = diag(q),
//
// with q_m = 1 / alpha_E,m^2 identical for both priors and mu = 0 (zero
// mean) or mu = alpha_E (nonzero mean). This class owns (mu, q) plus the
// informative mask for coefficients with missing prior knowledge
// (Section IV-B), whose variance is set to a huge-but-finite "flat" value
// so that the fast Woodbury solver stays applicable (see DESIGN.md).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "linalg/matrix.hpp"

namespace bmf::core {

enum class PriorKind { kZeroMean, kNonzeroMean };

/// Returns "BMF-ZM" / "BMF-NZM".
const char* to_string(PriorKind kind);

struct PriorOptions {
  /// Coefficients with |alpha_E,m| below clamp_rel * max|alpha_E| get their
  /// prior sigma clamped up to that floor: the paper's sigma_m = |alpha_E,m|
  /// would otherwise pin exactly-zero early coefficients with infinite
  /// precision. Keep clamp_rel * flat_sigma_rel within ~1e5: the prior
  /// variance spread squared bounds the conditioning of the Woodbury
  /// capacitance matrix and the CV engine's eigen-solve.
  double clamp_rel = 1e-3;
  /// Flat-prior sigma for missing-prior coefficients, relative to
  /// max|alpha_E| (paper Eq. 50/51 uses sigma = +inf; a finite value ~10x
  /// the largest coefficient is already flat — its precision contribution
  /// tau/sigma^2 is orders of magnitude below the likelihood's — while
  /// keeping D invertible for the Woodbury fast solver).
  double flat_sigma_rel = 10.0;
  /// Reference coefficient scale that clamp_rel / flat_sigma_rel multiply.
  /// When unset, max|alpha_E,m| over informative entries is used — note
  /// that this includes the constant term, whose magnitude (the nominal
  /// performance) usually dwarfs every sensitivity coefficient; callers
  /// that know the basis (e.g. BmfFitter) pass the max over *non-constant*
  /// informative coefficients instead.
  std::optional<double> scale;
};

class CoefficientPrior {
 public:
  /// Zero-mean prior from early-stage coefficients. `informative[m] == 0`
  /// marks coefficients with no prior knowledge (extra late-stage bases);
  /// pass an empty mask when every coefficient has a prior.
  static CoefficientPrior zero_mean(const linalg::Vector& early_coeffs,
                                    const std::vector<char>& informative = {},
                                    const PriorOptions& options = {});

  /// Nonzero-mean prior from early-stage coefficients.
  static CoefficientPrior nonzero_mean(
      const linalg::Vector& early_coeffs,
      const std::vector<char>& informative = {},
      const PriorOptions& options = {});

  /// Prior from raw moments — the mean mu and precision scale q directly,
  /// with no early-coefficient derivation (no clamping, no flat-prior
  /// substitution). Used where (mu, q) arrive over a transport boundary,
  /// e.g. the serve kSolve handler. Kind is kZeroMean iff mu is all zeros;
  /// every coefficient is marked informative. Throws std::invalid_argument
  /// on size mismatch, empty input, non-finite mu, or q entries that are
  /// not positive and finite.
  static CoefficientPrior from_moments(linalg::Vector mean,
                                       linalg::Vector precision_scale);

  PriorKind kind() const { return kind_; }
  std::size_t size() const { return mean_.size(); }

  /// Prior mean vector mu (all zeros for the zero-mean prior).
  const linalg::Vector& mean() const { return mean_; }

  /// Per-coefficient precision scale q_m = 1/sigma_m^2 (> 0 for all m; tiny
  /// for missing-prior coefficients).
  const linalg::Vector& precision_scale() const { return precision_; }

  /// informative()[m] != 0 iff coefficient m carries real prior knowledge.
  const std::vector<char>& informative() const { return informative_; }
  std::size_t num_informative() const;

  /// Prior standard deviation sigma_m (the paper's Fig. 1/2 curves); for
  /// the nonzero-mean prior this is the lambda = 1 section.
  double sigma(std::size_t m) const;

  /// Prior density of coefficient m at value a (Eq. 12 / 19 with
  /// lambda = 1). Used by the Fig. 1/2 reproduction bench.
  double density(std::size_t m, double a) const;

 private:
  CoefficientPrior(PriorKind kind, linalg::Vector mean,
                   linalg::Vector precision, std::vector<char> informative)
      : kind_(kind),
        mean_(std::move(mean)),
        precision_(std::move(precision)),
        informative_(std::move(informative)) {}

  static linalg::Vector build_precisions(const linalg::Vector& early,
                                         const std::vector<char>& informative,
                                         const PriorOptions& options);

  PriorKind kind_;
  linalg::Vector mean_;
  linalg::Vector precision_;
  std::vector<char> informative_;
};

/// The prior-weighted kernel of one design matrix G (K x M):
/// D^{-1} = diag(1/q) and B = G D^{-1} G^T (K x K). B depends on neither
/// tau nor the prior mean, and the zero-mean and nonzero-mean priors share
/// q, so one kernel per fit serves the CV engine (every fold's matrices are
/// submatrices of B) and the MAP workspace. Cost: O(K^2 M).
struct PriorKernel {
  PriorKernel(const linalg::Matrix& g, const CoefficientPrior& prior);

  linalg::Vector inv_q;  // D^{-1} diagonal (M)
  linalg::Matrix b;      // G D^{-1} G^T (K x K), exactly symmetric
};

}  // namespace bmf::core
