#include "linalg/eigen_sym.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include "check/contracts.hpp"
#include "linalg/kernels/kernels.hpp"

namespace bmf::linalg {

namespace {

// sqrt(a^2 + b^2) without destructive underflow/overflow.
double hypot2(double a, double b) { return std::hypot(a, b); }

// Householder reduction of the fully symmetric `a` to tridiagonal form
// (d = diagonal, e = subdiagonal with e[0] unused), following the classic
// tred2 scheme. On return `a` holds the TRANSPOSED accumulated orthogonal
// transform: row j of `a` is column j of Q, so the QL sweep below can
// rotate contiguous rows.
//
// Every O(n^3) loop walks contiguous rows through the active SIMD kernels:
// the active block a[0..l][0..l] is kept fully symmetric (both triangles
// are updated), so the Householder mat-vec is one dot per row and the
// rank-2 update two axpys per row. Q^T accumulates the same way: row j of
// Q^T (I - u u^T / h) is a dot and an axpy against the stored u. Each
// kernel's accumulation order depends only on the shape, so the result is
// deterministic within a SIMD level.
void tridiagonalize(Matrix& a, Vector& d, Vector& e) {
  const std::size_t n = a.rows();
  const kernels::KernelTable& kt = kernels::active();
  d.assign(n, 0.0);
  e.assign(n, 0.0);
  for (std::size_t i = n; i-- > 1;) {
    const std::size_t l = i - 1;
    double* u = a.row_ptr(i);  // becomes the Householder vector (0..l)
    double h = 0.0;
    if (l > 0) {
      double scale = 0.0;
      for (std::size_t k = 0; k <= l; ++k) scale += std::abs(u[k]);
      if (scale == 0.0) {
        e[i] = u[l];
      } else {
        for (std::size_t k = 0; k <= l; ++k) {
          u[k] /= scale;
          h += u[k] * u[k];
        }
        double f = u[l];
        const double g = f >= 0.0 ? -std::sqrt(h) : std::sqrt(h);
        e[i] = scale * g;
        h -= f * g;
        u[l] = f - g;
        // p = A u / h (into e[0..l]) and K = u^T p / 2h.
        f = 0.0;
        for (std::size_t j = 0; j <= l; ++j) {
          e[j] = kt.dot(a.row_ptr(j), u, l + 1) / h;
          f += e[j] * u[j];
        }
        const double hh = f / (h + h);
        // q = p - K u, then A -= q u^T + u q^T row by row.
        for (std::size_t j = 0; j <= l; ++j) e[j] -= hh * u[j];
        for (std::size_t j = 0; j <= l; ++j) {
          double* aj = a.row_ptr(j);
          kt.axpy(-u[j], e.data(), aj, l + 1);
          kt.axpy(-e[j], u, aj, l + 1);
        }
      }
    } else {
      e[i] = u[l];
    }
    d[i] = h;
  }
  d[0] = 0.0;
  e[0] = 0.0;
  // Accumulate Q^T into the leading block: at step i, rows 0..i-1 hold the
  // transform so far and row i holds step i's Householder vector u.
  for (std::size_t i = 0; i < n; ++i) {
    const double* u = a.row_ptr(i);
    if (d[i] != 0.0) {
      for (std::size_t j = 0; j < i; ++j) {
        double* zj = a.row_ptr(j);
        kt.axpy(-kt.dot(zj, u, i) / d[i], u, zj, i);
      }
    }
    d[i] = a(i, i);
    a(i, i) = 1.0;
    for (std::size_t j = 0; j < i; ++j) a(j, i) = a(i, j) = 0.0;
  }
}

// The QL iteration's plane rotations, recorded as chains (a sweep is one
// chain) and applied to Q^T a segment at a time through the kernel table's
// rotate_sweeps. The iteration itself never reads Q^T, so deferring is
// exact: every element sees the same rotations in the same order as when
// each was applied at once. A segment is a fixed buffer of kRotations
// (c, s) pairs and as many chains (a chain holds at least one rotation),
// 64 KiB in all. It lives on the stack, so it costs no allocation;
// segments of 4 K to 16 K rotations ran no faster at n = 400 / 500.
class RotationSegment {
 public:
  static constexpr std::size_t kRotations = 2048;

  explicit RotationSegment(Matrix& zt) : zt_(zt) {}

  // Rotation of rows (i, i + 1). A rotation one row above the previous one
  // extends its chain: the row they share holds the same value whether the
  // kernel carries it in registers or stores and reloads it.
  void rotate(std::size_t i, double c, double s) {
    if (rotations_ == kRotations) flush();
    if (chains_ == 0 || sweeps_[chains_ - 1].lo != i + 1)
      sweeps_[chains_++] = {i + 1, i + 2};
    sweeps_[chains_ - 1].lo = i;
    cs_[2 * rotations_] = c;
    cs_[2 * rotations_ + 1] = s;
    ++rotations_;
  }

  void flush() {
    if (chains_ != 0)
      kernels::active().rotate_sweeps(sweeps_.data(), chains_, cs_.data(),
                                      zt_.data(), zt_.cols(), zt_.cols());
    chains_ = 0;
    rotations_ = 0;
  }

 private:
  Matrix& zt_;
  std::size_t chains_ = 0;
  std::size_t rotations_ = 0;
  std::array<kernels::RotationSweep, kRotations> sweeps_;
  std::array<double, 2 * kRotations> cs_;
};

// Implicit-shift QL on the tridiagonal (d, e). Each plane rotation acts on
// two contiguous rows of zt = Q^T, i.e. on two eigenvector columns; the
// rotations are recorded and applied in segments (RotationSegment).
void ql_implicit(Vector& d, Vector& e, Matrix& zt) {
  const std::size_t n = d.size();
  if (n == 0) return;
  RotationSegment rotations(zt);
  for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;
  for (std::size_t l = 0; l < n; ++l) {
    int iterations = 0;
    std::size_t m;
    do {
      for (m = l; m + 1 < n; ++m) {
        const double dd = std::abs(d[m]) + std::abs(d[m + 1]);
        if (std::abs(e[m]) <= 1e-300 + 2.3e-16 * dd) break;
      }
      if (m != l) {
        if (++iterations == 50)
          throw std::runtime_error(
              "eigen_symmetric: QL iteration failed to converge");
        double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        double r = hypot2(g, 1.0);
        g = d[m] - d[l] + e[l] / (g + (g >= 0.0 ? std::abs(r) : -std::abs(r)));
        double s = 1.0, c = 1.0, p = 0.0;
        for (std::size_t ii = m; ii-- > l;) {
          const std::size_t i = ii;
          double f = s * e[i];
          const double b = c * e[i];
          r = hypot2(f, g);
          e[i + 1] = r;
          if (r == 0.0) {
            d[i + 1] -= p;
            e[m] = 0.0;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[i + 1] - p;
          r = (d[i] - g) * s + 2.0 * c * b;
          p = s * r;
          d[i + 1] = g + p;
          g = c * r - b;
          rotations.rotate(i, c, s);
        }
        if (r == 0.0 && m - l > 1) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }
  rotations.flush();
}

// Row j of the square z becomes its old row order[j]: each cycle of the
// permutation is walked once, with one spare row.
void permute_rows(Matrix& z, const std::vector<std::size_t>& order) {
  const std::size_t n = z.rows();
  std::vector<double> spare(n);
  std::vector<bool> placed(n, false);
  for (std::size_t start = 0; start < n; ++start) {
    if (placed[start] || order[start] == start) continue;
    std::copy_n(z.row_ptr(start), n, spare.data());
    std::size_t j = start;
    for (std::size_t k = order[j]; k != start; j = k, k = order[j]) {
      std::copy_n(z.row_ptr(k), n, z.row_ptr(j));
      placed[j] = true;
    }
    std::copy_n(spare.data(), n, z.row_ptr(j));
    placed[j] = true;
  }
}

}  // namespace

SymmetricEigen eigen_symmetric(const Matrix& a) {
  LINALG_REQUIRE(a.rows() == a.cols(),
                 "eigen_symmetric requires a square matrix");
  // A NaN/Inf entry would spin the QL iteration to its sweep limit; reject
  // it as a contract violation instead of a convergence failure.
  BMF_EXPECTS_DIMS(check::all_finite(a),
                   "eigen_symmetric input must be finite",
                   {"a.rows", a.rows()});
  SymmetricEigen out;
  const std::size_t n = a.rows();
  if (n == 0) return out;
  // Work on a symmetrized copy (only the lower triangle is trusted); it
  // ends up holding the eigenvectors as rows.
  Matrix z = a;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) z(i, j) = z(j, i);
  Vector d, e;
  tridiagonalize(z, d, e);
  ql_implicit(d, e, z);
  // Sort ascending; eigenvector order[j] (row of z) becomes column j. z
  // itself becomes the output, rows permuted and then transposed in
  // place, so a solve allocates one n x n block.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return d[x] < d[y]; });
  out.values.resize(n);
  for (std::size_t j = 0; j < n; ++j) out.values[j] = d[order[j]];
  permute_rows(z, order);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) std::swap(z(i, j), z(j, i));
  out.vectors = std::move(z);
  BMF_ENSURES_DIMS(check::is_ascending(out.values) &&
                       check::all_finite(out.values) &&
                       check::all_finite(out.vectors),
                   "eigen_symmetric must return finite ascending eigenvalues",
                   {"n", n});
  return out;
}

}  // namespace bmf::linalg
