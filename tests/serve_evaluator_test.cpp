#include "serve/batch_evaluator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "parallel/thread_pool.hpp"
#include "stats/rng.hpp"

namespace bmf::serve {
namespace {

struct ScopedThreads {
  explicit ScopedThreads(std::size_t n) { parallel::set_num_threads(n); }
  ~ScopedThreads() { parallel::set_num_threads(0); }
};

basis::PerformanceModel make_model(std::size_t dim, unsigned degree,
                                   std::uint64_t seed) {
  auto b = degree <= 1 ? basis::BasisSet::linear(dim)
                       : basis::BasisSet::linear_plus_diagonal_quadratic(dim);
  stats::Rng rng(seed);
  linalg::Vector coeffs(b.size());
  for (double& c : coeffs) c = rng.normal();
  return basis::PerformanceModel(b, coeffs);
}

linalg::Matrix make_points(std::size_t rows, std::size_t cols,
                           std::uint64_t seed) {
  stats::Rng rng(seed);
  linalg::Matrix p(rows, cols);
  for (std::size_t i = 0; i < p.size(); ++i) p.data()[i] = rng.normal();
  return p;
}

TEST(BatchEvaluator, MatchesUnblockedDesignPath) {
  const auto model = make_model(6, 2, 3);
  const auto points = make_points(37, 6, 4);
  const BatchEvaluator evaluator;
  const linalg::Vector batched = evaluator.evaluate(model, points);
  ASSERT_EQ(batched.size(), points.rows());
  // The fused path sums terms in term order while gemv's dot kernel uses
  // its own interleaved accumulation, so the materialized design-matrix
  // pass is a numerical (not bitwise) reference.
  const linalg::Vector whole =
      model.predict_design(basis::design_matrix(model.basis(), points));
  for (std::size_t i = 0; i < points.rows(); ++i)
    EXPECT_NEAR(batched[i], whole[i],
                1e-12 * std::max(1.0, std::abs(whole[i])))
        << "row " << i;
  // The scalar predict() path sums terms in a different order, so it is a
  // numerical (not bitwise) reference: cancellation can amplify the
  // reordering to ~1e-13 relative even though both sums are correct.
  for (std::size_t i = 0; i < points.rows(); ++i) {
    const double reference = model.predict(points.row(i));
    EXPECT_NEAR(batched[i], reference,
                1e-12 * std::max(1.0, std::abs(reference)))
        << "row " << i;
  }
}

TEST(BatchEvaluator, BitIdenticalAcrossThreadCounts) {
  // A quadratic model over a ragged batch, and a bulk serving request's
  // shape: 4096 rows against a linear 24-variable model.
  struct Shape {
    std::size_t rows, dim;
    unsigned degree;
  };
  for (const Shape shape : {Shape{513, 12, 2}, Shape{4096, 24, 1}}) {
    const auto model = make_model(shape.dim, shape.degree, 21);
    const auto points = make_points(shape.rows, shape.dim, 22);
    const BatchEvaluator evaluator;
    linalg::Vector reference;
    {
      ScopedThreads one(1);
      reference = evaluator.evaluate(model, points);
    }
    for (std::size_t threads : {2u, 4u}) {
      ScopedThreads n(threads);
      const linalg::Vector got = evaluator.evaluate(model, points);
      ASSERT_EQ(got.size(), reference.size());
      EXPECT_EQ(0, std::memcmp(got.data(), reference.data(),
                               got.size() * sizeof(double)))
          << shape.rows << "x" << shape.dim << ", " << threads << " threads";
    }
  }
}

TEST(BatchEvaluator, EmptyBatch) {
  const auto model = make_model(3, 1, 2);
  const linalg::Matrix points(0, 3);
  EXPECT_TRUE(BatchEvaluator().evaluate(model, points).empty());
}

TEST(BatchEvaluator, RejectsDimensionMismatch) {
  const auto model = make_model(3, 1, 2);
  const auto points = make_points(4, 5, 1);
  EXPECT_THROW(BatchEvaluator().evaluate(model, points),
               std::invalid_argument);
}

TEST(BatchEvaluator, EvaluateIntoReusesStorage) {
  const auto model = make_model(4, 1, 5);
  const auto points = make_points(16, 4, 6);
  const BatchEvaluator evaluator;
  linalg::Vector out(999, 0.0);  // wrong size on purpose
  evaluator.evaluate_into(model, points, out);
  ASSERT_EQ(out.size(), 16u);
  EXPECT_EQ(out, evaluator.evaluate(model, points));
}

}  // namespace
}  // namespace bmf::serve
