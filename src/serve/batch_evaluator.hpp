// Batched model evaluation: the hot path the daemon runs per request.
//
// A batch of B variation points (B x R, one sample per row) is evaluated
// against a model with M basis terms by basis::design_matrix_times — a
// fused pass that evaluates each fixed-size row block's Hermite factors
// lane-parallel (SIMD-dispatched, see linalg/kernels/kernels.hpp) and
// accumulates G * alpha directly, never materializing the K x M design
// matrix. The working set is a small per-block value table plus a block
// accumulator, independent of B.
//
// Determinism: every row's term sum runs in a fixed order independent of
// the thread count and of the row's position in a block (see DESIGN.md
// "Threading model"), so a batch's result bytes are identical for
// BMF_NUM_THREADS = 1, 4, or 64 — the property the protocol's bit-exact
// response guarantee rests on.
#pragma once

#include "basis/model.hpp"
#include "linalg/matrix.hpp"

namespace bmf::serve {

class BatchEvaluator {
 public:
  /// f(x) for every row of `points` (B x R; R must match the model's
  /// basis dimension). Returns B predictions in row order.
  linalg::Vector evaluate(const basis::PerformanceModel& model,
                          const linalg::Matrix& points) const;

  /// As above, writing into `out` (resized to B). Reuses out's storage
  /// across calls — the daemon's steady-state allocation-free path.
  void evaluate_into(const basis::PerformanceModel& model,
                     const linalg::Matrix& points, linalg::Vector& out) const;
};

}  // namespace bmf::serve
