// Symmetric eigendecomposition A = V diag(w) V^T.
//
// Classic two-phase dense algorithm: Householder reduction to tridiagonal
// form (tred2) followed by the implicit-shift QL iteration, accumulating the
// orthogonal transform. Every O(n^3) loop walks contiguous rows: the
// reduction keeps a fully symmetric working block so its mat-vec and rank-2
// update are per-row dot/axpy calls into the active SIMD kernel table, and
// the transform is accumulated transposed so each QL rotation acts on two
// contiguous rows. The QL iteration records its rotations sweep by sweep
// and applies them in segments through the table's rotate_sweeps kernel,
// which is bitwise equal at every level. Serial; deterministic within a
// SIMD level.
//
// Used by the BMF cross-validation engine and MAP workspace so that the
// K x K kernel solve (tau I + B)^{-1} can be applied for an entire
// hyper-parameter grid at O(K^2) per grid point instead of O(K^3).
#pragma once

#include "linalg/matrix.hpp"

namespace bmf::linalg {

struct SymmetricEigen {
  /// Eigenvalues in ascending order.
  Vector values;
  /// Orthonormal eigenvectors as columns: A * V.col(j) = values[j] * V.col(j).
  Matrix vectors;
};

/// Eigendecomposition of a symmetric matrix (only the lower triangle is
/// read). Throws std::runtime_error if the QL iteration fails to converge
/// (more than 50 sweeps on one eigenvalue — practically unreachable for
/// well-formed symmetric input).
SymmetricEigen eigen_symmetric(const Matrix& a);

}  // namespace bmf::linalg
