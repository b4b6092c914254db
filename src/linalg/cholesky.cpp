#include "linalg/cholesky.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "check/contracts.hpp"
#include "linalg/eigen_sym.hpp"

namespace bmf::linalg {

Cholesky::Cholesky(const Matrix& a) {
  // Definiteness is decided by the pivots below; symmetry and finiteness are
  // contracts the factorization silently assumes (it only reads the lower
  // triangle, so an asymmetric input would factor the wrong matrix).
  BMF_EXPECTS_DIMS(a.rows() != a.cols() || check::all_finite(a),
                   "Cholesky input must be finite", {"a.rows", a.rows()});
  BMF_EXPECTS_DIMS(a.rows() != a.cols() || check::is_symmetric(a),
                   "Cholesky input must be symmetric", {"a.rows", a.rows()});
  if (!factor_in_place(a))
    throw std::runtime_error(
        "Cholesky: matrix is not positive definite (non-positive pivot)");
}

std::optional<Cholesky> Cholesky::try_factor(const Matrix& a) {
  BMF_EXPECTS_DIMS(a.rows() != a.cols() || check::is_symmetric(a),
                   "Cholesky::try_factor input must be symmetric",
                   {"a.rows", a.rows()});
  Cholesky c;
  if (!c.factor_in_place(a)) return std::nullopt;
  return c;
}

bool Cholesky::factor_in_place(const Matrix& a) {
  LINALG_REQUIRE(a.rows() == a.cols(), "Cholesky requires a square matrix");
  const std::size_t n = a.rows();
  l_ = a;
  for (std::size_t j = 0; j < n; ++j) {
    double* lj = l_.row_ptr(j);
    // Pivot: L_jj = sqrt(A_jj - sum_k L_jk^2).
    double d = lj[j];
    for (std::size_t k = 0; k < j; ++k) d -= lj[k] * lj[k];
    if (!(d > 0.0)) return false;  // also catches NaN
    const double ljj = std::sqrt(d);
    lj[j] = ljj;
    const double inv = 1.0 / ljj;
    // Column below the pivot.
    for (std::size_t i = j + 1; i < n; ++i) {
      double* li = l_.row_ptr(i);
      double s = li[j];
      for (std::size_t k = 0; k < j; ++k) s -= li[k] * lj[k];
      li[j] = s * inv;
    }
  }
  // Zero the strictly upper triangle so factor() is truly lower-triangular.
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) l_(i, j) = 0.0;
  return true;
}

Vector Cholesky::solve(const Vector& b) const {
  BMF_EXPECTS_DIMS(check::all_finite(b), "Cholesky::solve rhs must be finite",
                   {"b.size", b.size()});
  Vector y = forward_subst(l_, b);
  Vector x = backward_subst_t(l_, y);
  BMF_ENSURES_DIMS(check::all_finite(x),
                   "Cholesky::solve produced a non-finite solution",
                   {"dim", dim()});
  return x;
}

Matrix Cholesky::solve(const Matrix& b) const {
  LINALG_REQUIRE(b.rows() == dim(), "Cholesky::solve shape mismatch");
  Matrix x(b.rows(), b.cols());
  for (std::size_t j = 0; j < b.cols(); ++j)
    x.set_col(j, solve(b.col(j)));
  return x;
}

double Cholesky::log_det() const {
  double s = 0.0;
  for (std::size_t i = 0; i < dim(); ++i) s += std::log(l_(i, i));
  return 2.0 * s;
}

Vector forward_subst(const Matrix& l, const Vector& b) {
  LINALG_REQUIRE(l.rows() == l.cols() && l.rows() == b.size(),
                 "forward_subst shape mismatch");
  BMF_EXPECTS_DIMS(check::all_finite(l) && check::all_finite(b),
                   "forward_subst operands must be finite",
                   {"l.rows", l.rows()});
  const std::size_t n = b.size();
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double* li = l.row_ptr(i);
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= li[k] * y[k];
    y[i] = s / li[i];
  }
  return y;
}

Vector backward_subst_t(const Matrix& l, const Vector& y) {
  LINALG_REQUIRE(l.rows() == l.cols() && l.rows() == y.size(),
                 "backward_subst_t shape mismatch");
  const std::size_t n = y.size();
  Vector x = y;
  for (std::size_t ii = n; ii-- > 0;) {
    x[ii] /= l(ii, ii);
    const double xi = x[ii];
    // Subtract the ii-th column of L^T (= ii-th row of L) contribution.
    for (std::size_t k = 0; k < ii; ++k) x[k] -= l(ii, k) * xi;
  }
  return x;
}

Vector backward_subst(const Matrix& u, const Vector& y) {
  LINALG_REQUIRE(u.rows() == u.cols() && u.rows() == y.size(),
                 "backward_subst shape mismatch");
  const std::size_t n = y.size();
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    const double* ui = u.row_ptr(ii);
    double s = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= ui[k] * x[k];
    x[ii] = s / ui[ii];
  }
  return x;
}

Vector spd_solve(const Matrix& a, const Vector& b) {
  // Full SPD screen (square, finite, positive diagonal, symmetric) before
  // the factorization decides definiteness from the pivots.
  BMF_EXPECTS_DIMS(a.rows() != a.cols() || check::spd_precondition(a),
                   "spd_solve input fails the SPD precondition",
                   {"a.rows", a.rows()});
  return Cholesky(a).solve(b);
}

Vector robust_spd_solve(const Matrix& a, const Vector& b,
                        RobustSpdReport* report) {
  LINALG_REQUIRE(a.rows() == a.cols() && a.rows() == b.size(),
                 "robust_spd_solve shape mismatch");
  BMF_EXPECTS_DIMS(check::all_finite(a) && check::all_finite(b),
                   "robust_spd_solve operands must be finite",
                   {"a.rows", a.rows()});
  RobustSpdReport local;
  RobustSpdReport& rep = report != nullptr ? *report : local;
  rep = RobustSpdReport{};

  // Rung 0: the matrix is what it claims to be.
  if (std::optional<Cholesky> chol = Cholesky::try_factor(a)) {
    rep.path = RobustSpdReport::Path::kCholesky;
    return chol->solve(b);
  }

  // Rungs 1-3: escalating diagonal jitter, scaled to the matrix so the
  // same ladder works for kernels of any magnitude. The schedule is fixed
  // (1e-12, 1e-9, 1e-6 of the largest diagonal entry): deterministic
  // repair, identical on every retry.
  const std::size_t n = a.rows();
  double scale = 0.0;
  for (std::size_t i = 0; i < n; ++i) scale = std::max(scale, std::abs(a(i, i)));
  if (scale == 0.0) scale = 1.0;
  Matrix shifted = a;
  double total_shift = 0.0;
  double rung = scale * 1e-12;
  for (std::uint32_t attempt = 1; attempt <= 3; ++attempt, rung *= 1e3) {
    const double add = rung - total_shift;
    for (std::size_t i = 0; i < n; ++i) shifted(i, i) += add;
    total_shift = rung;
    if (std::optional<Cholesky> chol = Cholesky::try_factor(shifted)) {
      rep.path = RobustSpdReport::Path::kJittered;
      rep.attempts = attempt;
      rep.jitter = total_shift;
      return chol->solve(b);
    }
  }

  // Fall-through: the matrix is genuinely indefinite or (near-)singular.
  // Solve in the span of the usable spectrum: x = sum_j v_j (v_j . b) / w_j
  // over eigenvalues above the rank tolerance. This is the minimum-norm
  // least-squares answer restricted to the numerically trustworthy
  // subspace — degraded, but finite and deterministic.
  const SymmetricEigen eig = eigen_symmetric(a);
  double wmax = 0.0;
  for (double w : eig.values) wmax = std::max(wmax, std::abs(w));
  const double tol = wmax * 1e-12;
  Vector x(n, 0.0);
  std::size_t discarded = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const double w = eig.values[j];
    if (w <= tol) {
      ++discarded;
      continue;
    }
    double proj = 0.0;
    for (std::size_t i = 0; i < n; ++i) proj += eig.vectors(i, j) * b[i];
    const double coeff = proj / w;
    for (std::size_t i = 0; i < n; ++i) x[i] += eig.vectors(i, j) * coeff;
  }
  rep.path = RobustSpdReport::Path::kPseudoInverse;
  rep.attempts = 4;
  rep.discarded = discarded;
  return x;
}

}  // namespace bmf::linalg
