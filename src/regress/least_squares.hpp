// Classical least-squares model fitting (paper Section II-B).
//
// Solves the overdetermined system G * alpha = f (Eq. 6) in the 2-norm via
// Householder QR. Requires K >= M; this is exactly the scaling problem the
// paper's BMF method removes.
#pragma once

#include "basis/model.hpp"

namespace bmf::regress {

/// Least-squares fit over a precomputed design matrix.
/// Throws std::invalid_argument if g.rows() < g.cols().
linalg::Vector least_squares_coefficients(const linalg::Matrix& g,
                                          const linalg::Vector& f);

/// Convenience: build G from (basis, points) and fit.
basis::PerformanceModel least_squares_fit(const basis::BasisSet& basis,
                                          const linalg::Matrix& points,
                                          const linalg::Vector& f);

}  // namespace bmf::regress
