// Scalar kernel table: the portable baseline every host can run, and the
// reference the cross-level ulp tests compare the vector tables against.
// The accumulation structures (4-lane interleaved dot, row-major 4x8
// microkernel) are byte-for-byte the pre-dispatch implementations from
// linalg/blas.cpp and basis/hermite.cpp, so a BMF_SIMD_LEVEL=scalar run
// reproduces historical results exactly.
#include <cmath>
#include <vector>

#include "linalg/kernels/tables.hpp"

namespace bmf::linalg::kernels {
namespace {

// Four-lane unrolled inner product; lane structure — and hence the FP
// accumulation order — depends only on n.
double dot_scalar(const double* a, const double* b, std::size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
  }
  double s = (s0 + s1) + (s2 + s3);
  for (; i < n; ++i) s += a[i] * b[i];
  return s;
}

double dot3_scalar(const double* a, const double* b, const double* c,
                   std::size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += a[i] * b[i] * c[i];
    s1 += a[i + 1] * b[i + 1] * c[i + 1];
    s2 += a[i + 2] * b[i + 2] * c[i + 2];
    s3 += a[i + 3] * b[i + 3] * c[i + 3];
  }
  double s = (s0 + s1) + (s2 + s3);
  for (; i < n; ++i) s += a[i] * b[i] * c[i];
  return s;
}

void axpy_scalar(double alpha, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void mul_scalar(const double* a, const double* b, double* out,
                std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

// kc steps of the fixed-size rank-1 update acc += ap_p (x) bp_p over
// p-major packed panels (kMicroRows values per ap step, kMicroCols per bp
// step).
void micro_4x8_scalar(const double* ap, const double* bp, std::size_t kc,
                      double* acc) {
  for (std::size_t p = 0; p < kc;
       ++p, ap += kMicroRows, bp += kMicroCols)
    for (std::size_t ir = 0; ir < kMicroRows; ++ir) {
      const double av = ap[ir];
      for (std::size_t jr = 0; jr < kMicroCols; ++jr)
        acc[ir * kMicroCols + jr] += av * bp[jr];
    }
}

// Per-point normalized three-term recurrence, identical operation sequence
// to basis::hermite_orthonormal_all.
void hermite_all_scalar(unsigned max_degree, const double* x, std::size_t n,
                        double* out, std::size_t ldo) {
  for (std::size_t p = 0; p < n; ++p) {
    const double xp = x[p];
    double prev = 1.0;
    out[p] = prev;
    if (max_degree == 0) continue;
    double cur = xp;
    out[ldo + p] = cur;
    for (unsigned k = 1; k < max_degree; ++k) {
      const double next =
          (xp * cur - std::sqrt(static_cast<double>(k)) * prev) /
          std::sqrt(static_cast<double>(k + 1));
      prev = cur;
      cur = next;
      out[(k + 1) * ldo + p] = cur;
    }
  }
}

// A chain two rotations per pass over the columns: rows (i - 1, i), then
// (i - 2, i - 1), with the row they share kept in a register. A pass loads
// and stores three rows where two single-rotation passes move four, and
// it still vectorizes over the columns. Each element sees the same
// operations in the same order as one rotation at a time.
void rotate_sweeps_scalar(const RotationSweep* sweeps, std::size_t nsweeps,
                          const double* cs, double* z, std::size_t ldz,
                          std::size_t cols) {
  for (std::size_t w = 0; w < nsweeps; ++w) {
    const std::size_t lo = sweeps[w].lo;
    std::size_t i = sweeps[w].hi - 1;  // next rotation: rows (i - 1, i)
    for (; i >= lo + 2; i -= 2, cs += 4) {
      const double c0 = cs[0], s0 = cs[1], c1 = cs[2], s1 = cs[3];
      double* __restrict z2 = z + i * ldz;
      double* __restrict z1 = z2 - ldz;
      double* __restrict z0 = z1 - ldz;
      for (std::size_t k = 0; k < cols; ++k) {
        const double t = z2[k], x = z1[k], y = z0[k];
        z2[k] = s0 * x + c0 * t;
        const double u = c0 * x - s0 * t;
        z1[k] = s1 * y + c1 * u;
        z0[k] = c1 * y - s1 * u;
      }
    }
    if (i == lo + 1) {
      const double c = cs[0], s = cs[1];
      cs += 2;
      double* __restrict z1 = z + i * ldz;
      double* __restrict z0 = z1 - ldz;
      for (std::size_t k = 0; k < cols; ++k) {
        const double t = z1[k], x = z0[k];
        z1[k] = s * x + c * t;
        z0[k] = c * x - s * t;
      }
    }
  }
}

constexpr KernelTable kScalarTable{
    SimdLevel::kScalar, dot_scalar,      dot3_scalar,
    axpy_scalar,        mul_scalar,      micro_4x8_scalar,
    hermite_all_scalar, rotate_sweeps_scalar,
};

}  // namespace

const KernelTable* scalar_table() { return &kScalarTable; }

}  // namespace bmf::linalg::kernels
