#include "serve/batch_evaluator.hpp"

#include <stdexcept>
#include <string>

#include "basis/basis_set.hpp"
#include "check/contracts.hpp"
#include "linalg/blas.hpp"

namespace bmf::serve {

linalg::Vector BatchEvaluator::evaluate(const basis::PerformanceModel& model,
                                        const linalg::Matrix& points) const {
  linalg::Vector out;
  evaluate_into(model, points, out);
  return out;
}

void BatchEvaluator::evaluate_into(const basis::PerformanceModel& model,
                                   const linalg::Matrix& points,
                                   linalg::Vector& out) const {
  const std::size_t r = points.cols();
  if (r != model.basis().dimension())
    throw std::invalid_argument(
        "BatchEvaluator: point dimension " + std::to_string(r) +
        " does not match model dimension " +
        std::to_string(model.basis().dimension()));
  BMF_EXPECTS(check::all_finite(model.coefficients()),
              "model coefficients must be finite");
  // Fused design-matrix-times-coefficients pass: basis::design_matrix_times
  // blocks rows internally (the working set is a fixed small value table
  // plus a block accumulator, independent of B), evaluates each block's
  // Hermite factors lane-parallel, and never materializes the K x M design
  // matrix this path used to write and immediately re-read.
  basis::design_matrix_times(model.basis(), points, model.coefficients(),
                             out);
}

}  // namespace bmf::serve
