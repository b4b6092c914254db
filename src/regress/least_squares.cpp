#include "regress/least_squares.hpp"

#include <stdexcept>

#include "check/contracts.hpp"
#include "linalg/qr.hpp"

namespace bmf::regress {

linalg::Vector least_squares_coefficients(const linalg::Matrix& g,
                                          const linalg::Vector& f) {
  if (g.rows() < g.cols())
    throw std::invalid_argument(
        "least_squares: underdetermined system (K < M); use sparse "
        "regression or BMF instead");
  LINALG_REQUIRE(g.rows() == f.size(), "least_squares: rhs size mismatch");
  BMF_EXPECTS_DIMS(check::all_finite(g) && check::all_finite(f),
                   "least_squares: design matrix and responses must be "
                   "finite",
                   {"g.rows", g.rows()}, {"g.cols", g.cols()});
  linalg::Vector x = linalg::HouseholderQR(g).solve(f);
  BMF_ENSURES_DIMS(check::all_finite(x),
                   "least_squares produced non-finite coefficients",
                   {"m", x.size()});
  return x;
}

basis::PerformanceModel least_squares_fit(const basis::BasisSet& basis,
                                          const linalg::Matrix& points,
                                          const linalg::Vector& f) {
  const linalg::Matrix g = basis::design_matrix(basis, points);
  return basis::PerformanceModel(basis, least_squares_coefficients(g, f));
}

}  // namespace bmf::regress
