// Multi-index basis sets over the variation space.
//
// A basis term g_m(x) = Π_r Ĥ_{d_r}(x_r) is stored as a *sparse* multi-index
// (only variables with nonzero degree), so sets over R ~ 10^4-10^5 variables
// stay compact. Factory helpers build the linear set {1, x_1..x_R} the
// paper's experiments use (Section V: "linear functions of these random
// variables") and total-degree-bounded sets for the nonlinear extension.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "basis/hermite.hpp"
#include "linalg/matrix.hpp"

namespace bmf::basis {

/// Largest factor degree the model decoders (BMFB and the text format)
/// accept. Evaluation sizes a (degree + 1) x 64-double value table per
/// variable, so an unbounded degree read from untrusted bytes would be an
/// allocation of the sender's choosing. In-memory bases are not bounded.
inline constexpr unsigned kMaxFactorDegree = 1024;

/// One (variable, degree) factor of a basis term; degree >= 1.
struct VarDegree {
  std::size_t var;
  unsigned degree;

  bool operator==(const VarDegree&) const = default;
};

/// A single orthonormal basis function as a sparse multi-index.
/// An empty factor list is the constant term g(x) = 1.
struct BasisTerm {
  std::vector<VarDegree> factors;

  /// Total polynomial degree (sum of factor degrees).
  unsigned total_degree() const;

  /// Evaluate at a point x of dimension >= max referenced variable + 1.
  double evaluate(const linalg::Vector& x) const;

  /// Human-readable form, e.g. "H1(x3)*H2(x7)" or "1".
  std::string to_string() const;

  bool operator==(const BasisTerm&) const = default;
};

/// Evaluation plan shared by design_matrix / design_matrix_times; defined
/// in basis_set.cpp.
struct EvalPlan;

/// Ordered, immutable collection of basis terms over `dimension()`
/// variables. The constructor builds the basis's evaluation plan once;
/// copies share it read-only, so evaluating never rebuilds it and any
/// number of threads may evaluate one basis at once.
class BasisSet {
 public:
  /// The empty basis (no terms, dimension 0).
  BasisSet();
  BasisSet(std::size_t dimension, std::vector<BasisTerm> terms);

  /// {1, x_1, ..., x_R}: the linear model of the paper's experiments.
  static BasisSet linear(std::size_t dimension);

  /// All terms with total degree <= max_degree over a *small* dimension
  /// (term count grows combinatorially; guarded against overflow).
  static BasisSet total_degree(std::size_t dimension, unsigned max_degree);

  /// Linear terms plus pure quadratic terms Ĥ_2(x_r) for every variable —
  /// the cheapest nonlinear extension, scales to large R.
  static BasisSet linear_plus_diagonal_quadratic(std::size_t dimension);

  std::size_t size() const { return terms_.size(); }
  std::size_t dimension() const { return dimension_; }
  const BasisTerm& term(std::size_t m) const { return terms_[m]; }
  const std::vector<BasisTerm>& terms() const { return terms_; }

  /// Evaluate all terms at x; result has size() entries.
  linalg::Vector evaluate(const linalg::Vector& x) const;

  /// Index of the constant term, or size() if absent.
  std::size_t constant_index() const;

 private:
  friend linalg::Matrix design_matrix(const BasisSet& basis,
                                      const linalg::Matrix& points);
  friend void design_matrix_times(const BasisSet& basis,
                                  const linalg::Matrix& points,
                                  const linalg::Vector& coeffs,
                                  linalg::Vector& out);

  std::size_t dimension_ = 0;
  std::vector<BasisTerm> terms_;
  std::shared_ptr<const EvalPlan> plan_;
};

/// Design matrix G (Eq. 9): G(k, m) = g_m(x^(k)).
/// `points` is K x R (one sample per row); the result is K x size().
linalg::Matrix design_matrix(const BasisSet& basis,
                             const linalg::Matrix& points);

/// Fused G(points) * coeffs without materializing G — the serving hot
/// path, where writing and re-reading a K x M design matrix would cost
/// more than the arithmetic. Each row's term sum runs in term order
/// independently of thread chunking and row-block position, so the result
/// is bit-identical at any thread count; it agrees with
/// design_matrix + gemv numerically (the summation orders differ), not
/// bitwise. A batch of at most 64 rows runs on the calling thread; longer
/// ones split over the thread pool on 64-row boundaries. The out-param
/// overload resizes `out` to K and reuses its storage across calls.
void design_matrix_times(const BasisSet& basis, const linalg::Matrix& points,
                         const linalg::Vector& coeffs, linalg::Vector& out);
linalg::Vector design_matrix_times(const BasisSet& basis,
                                   const linalg::Matrix& points,
                                   const linalg::Vector& coeffs);

/// Monte Carlo check of Eq. (3): returns the max |E[g_i g_j] - δ_ij| over
/// all term pairs, estimated from `num_samples` N(0,I) draws. Test helper.
double orthonormality_defect(const BasisSet& basis, std::size_t num_samples,
                             std::uint64_t seed);

}  // namespace bmf::basis
