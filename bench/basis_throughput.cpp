// Basis-evaluation throughput: the per-request cost the serving daemon
// pays. Measures design-matrix expansion (materialized) and the fused
// design-matrix-times-coefficients pass the BatchEvaluator runs, at the
// bulk serving shape (K = 4096 points, d = 24 variables), for both the
// linear and the linear+diagonal-quadratic basis, plus the raw
// lane-parallel Hermite recurrence sweep. BM_DesignMatrixTimes/1/64 is
// the routed serving read: 64 points against the linear basis, one
// evaluation block, which runs inline on the calling thread. Reports rows
// (points) per second via items_per_second; the active SIMD dispatch
// level is recorded in the JSON context.
//
// Usage: basis_throughput [--benchmark_out=BENCH_basis.json
//                          --benchmark_out_format=json ...]
#include <benchmark/benchmark.h>

#include <vector>

#include "basis/basis_set.hpp"
#include "basis/hermite.hpp"
#include "linalg/kernels/kernels.hpp"
#include "stats/rng.hpp"

namespace {

using namespace bmf;

constexpr std::size_t kRows = 4096;
constexpr std::size_t kDim = 24;

linalg::Matrix make_points(std::uint64_t seed, std::size_t rows = kRows) {
  stats::Rng rng(seed);
  linalg::Matrix p(rows, kDim);
  for (std::size_t i = 0; i < p.size(); ++i) p.data()[i] = rng.normal();
  return p;
}

basis::BasisSet make_basis(std::int64_t degree) {
  return degree <= 1 ? basis::BasisSet::linear(kDim)
                     : basis::BasisSet::linear_plus_diagonal_quadratic(kDim);
}

void BM_DesignMatrix(benchmark::State& state) {
  const auto basis = make_basis(state.range(0));
  const auto points = make_points(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(basis::design_matrix(basis, points));
  }
  state.SetItemsProcessed(static_cast<benchmark::IterationCount>(kRows));
}

// Args: basis degree, then the row count (default kRows).
void BM_DesignMatrixTimes(benchmark::State& state) {
  const auto basis = make_basis(state.range(0));
  const std::size_t rows =
      state.range(1) > 0 ? static_cast<std::size_t>(state.range(1)) : kRows;
  const auto points = make_points(7, rows);
  stats::Rng rng(11);
  linalg::Vector coeffs(basis.size());
  for (double& c : coeffs) c = rng.normal();
  linalg::Vector out;
  for (auto _ : state) {
    basis::design_matrix_times(basis, points, coeffs, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<benchmark::IterationCount>(rows));
}

void BM_HermiteBatch(benchmark::State& state) {
  const unsigned max_degree = static_cast<unsigned>(state.range(0));
  stats::Rng rng(13);
  std::vector<double> x(kRows);
  for (double& v : x) v = rng.normal();
  std::vector<double> out((max_degree + 1) * kRows);
  for (auto _ : state) {
    basis::hermite_orthonormal_batch(max_degree, x.data(), kRows, out.data(),
                                     kRows);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<benchmark::IterationCount>(kRows));
}

BENCHMARK(BM_DesignMatrix)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMicrosecond)
    ->Complexity();
BENCHMARK(BM_DesignMatrixTimes)
    ->Arg(1)
    ->Arg(2)
    ->Args({1, 64})
    ->Unit(benchmark::kMicrosecond)
    ->Complexity();
BENCHMARK(BM_HermiteBatch)
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMicrosecond)
    ->Complexity();

}  // namespace

int main(int argc, char** argv) {
  benchmark::AddCustomContext(
      "simd_level", linalg::kernels::level_name(
                        linalg::kernels::dispatch_info().active));
  return benchmark::RunAll(argc, argv);
}
