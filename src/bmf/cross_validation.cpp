#include "bmf/cross_validation.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "check/contracts.hpp"
#include "linalg/blas.hpp"
#include "parallel/thread_pool.hpp"
#include "stats/descriptive.hpp"
#include "stats/kfold.hpp"
#include "stats/rng.hpp"

namespace bmf::core {

std::size_t CvCurve::best_index() const {
  if (errors.empty()) throw std::logic_error("CvCurve: empty curve");
  return static_cast<std::size_t>(
      std::min_element(errors.begin(), errors.end()) - errors.begin());
}

linalg::Vector log_grid(double lo, double hi, std::size_t n) {
  if (lo <= 0.0 || hi <= 0.0 || lo > hi || n == 0)
    throw std::invalid_argument("log_grid: need 0 < lo <= hi and n > 0");
  linalg::Vector g(n);
  if (n == 1) {
    g[0] = std::sqrt(lo * hi);
    return g;
  }
  const double step = std::log(hi / lo) / static_cast<double>(n - 1);
  for (std::size_t i = 0; i < n; ++i)
    g[i] = lo * std::exp(step * static_cast<double>(i));
  return g;
}

double tau_grid_center(const linalg::Vector& f) {
  const stats::Summary s =
      stats::summarize(std::vector<double>(f.begin(), f.end()));
  if (s.variance > 0.0) return s.variance;
  if (s.mean != 0.0) return s.mean * s.mean;
  return 1.0;
}

namespace {

// b[rows, cols] as a dense rows.size() x cols.size() matrix.
linalg::Matrix submatrix(const linalg::Matrix& b,
                         const std::vector<std::size_t>& rows,
                         const std::vector<std::size_t>& cols) {
  linalg::Matrix out(rows.size(), cols.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const double* bi = b.row_ptr(rows[i]);
    double* oi = out.row_ptr(i);
    for (std::size_t j = 0; j < cols.size(); ++j) oi[j] = bi[cols[j]];
  }
  return out;
}

}  // namespace

CvEngine::CvEngine(const linalg::Matrix& g, const linalg::Vector& f,
                   const CoefficientPrior& prior, const CvOptions& options)
    : CvEngine(g, f, PriorKernel(g, prior), options) {}

CvEngine::CvEngine(const linalg::Matrix& g, const linalg::Vector& f,
                   const PriorKernel& kernel, const CvOptions& options,
                   const std::function<void()>& alongside)
    : g_(&g) {
  LINALG_REQUIRE(g.rows() == f.size(), "CvEngine: rhs size mismatch");
  LINALG_REQUIRE(kernel.b.rows() == g.rows() && kernel.b.cols() == g.rows() &&
                     kernel.inv_q.size() == g.cols(),
                 "CvEngine: kernel shape must match the design matrix");
  const std::size_t k = g.rows();
  if (options.folds < 2 || k < options.folds)
    throw std::invalid_argument("CvEngine: need folds >= 2 and K >= folds");
  BMF_EXPECTS_DIMS(check::all_finite(f),
                   "CvEngine: responses must be finite", {"f.size", k});
  BMF_EXPECTS(check::is_finite(options.grid_lo_rel) &&
                  check::is_finite(options.grid_hi_rel) &&
                  options.grid_lo_rel > 0.0 && options.grid_hi_rel > 0.0,
              "CvEngine: tau grid bounds must be positive and finite");

  const double center = tau_grid_center(f);
  taus_ = log_grid(center * options.grid_lo_rel, center * options.grid_hi_rel,
                   options.grid_size);

  stats::Rng rng(options.seed);
  stats::KFold kfold(k, options.folds, rng);
  folds_.resize(options.folds);
  // Folds are independent: each gathers its blocks of B, eigendecomposes
  // its training block and projects the test side into a preassigned
  // folds_ slot. Task 0 is `alongside`; the pool hands out tasks in index
  // order, so it starts first.
  parallel::parallel_for(alongside ? 0 : 1, options.folds + 1, 1,
                         [&](std::size_t t0, std::size_t t1) {
    for (std::size_t t = t0; t < t1; ++t) {
      if (t == 0)
        alongside();
      else
        build_fold(kfold, t - 1, f, kernel.b);
    }
  });
}

void CvEngine::build_fold(const stats::KFold& kfold, std::size_t fi,
                          const linalg::Vector& f, const linalg::Matrix& b) {
  Fold& fold = folds_[fi];
  auto split = kfold.split(fi);
  fold.train = std::move(split.train);
  fold.test = std::move(split.test);
  const std::vector<std::size_t>& train = fold.train;
  const std::size_t kt = train.size(), ke = fold.test.size();

  fold.f_test.resize(ke);
  for (std::size_t i = 0; i < ke; ++i) fold.f_test[i] = f[fold.test[i]];
  linalg::Vector f_tr(kt);
  for (std::size_t i = 0; i < kt; ++i) f_tr[i] = f[train[i]];

  // B_tr = B[train, train] is a principal submatrix of the fit's kernel,
  // and C = B[test, train] is rotated into B_tr's eigenbasis.
  fold.eig = linalg::eigen_symmetric(submatrix(b, train, train));
  for (double& w : fold.eig.values) w = std::max(w, 0.0);  // PSD clamp
  fold.vf = linalg::gemv_t(fold.eig.vectors, f_tr);
  fold.c_hat =
      linalg::gemm(submatrix(b, fold.test, train), fold.eig.vectors);
}

CvCurve CvEngine::evaluate(const linalg::Vector& mu) const {
  LINALG_REQUIRE(mu.size() == g_->cols(), "CvEngine::evaluate: mu size");
  BMF_EXPECTS_DIMS(check::all_finite(mu),
                   "CvEngine::evaluate: prior mean must be finite",
                   {"mu.size", mu.size()});
  bool mu_zero = true;
  for (double v : mu)
    if (v != 0.0) {
      mu_zero = false;
      break;
    }

  CvCurve curve;
  curve.taus.assign(taus_.begin(), taus_.end());
  const std::size_t nf = folds_.size(), nt = taus_.size();
  curve.errors.assign(nt, 0.0);

  // Per-fold residual projections r = V^T f_tr - V^T (G_tr mu) and test
  // offsets a1 = G_te mu, from one product G mu. Independent across folds.
  linalg::Vector gmu;
  if (!mu_zero) gmu = linalg::gemv(*g_, mu);
  std::vector<linalg::Vector> r(nf), a1(nf);
  parallel::parallel_for(0, nf, 1, [&](std::size_t f0, std::size_t f1) {
    for (std::size_t fi = f0; fi < f1; ++fi) {
      const Fold& fold = folds_[fi];
      const std::size_t kt = fold.train.size(), ke = fold.test.size();
      r[fi] = fold.vf;
      a1[fi].assign(ke, 0.0);
      if (mu_zero) continue;
      linalg::Vector b1(kt);
      for (std::size_t i = 0; i < kt; ++i) b1[i] = gmu[fold.train[i]];
      linalg::axpy(-1.0, linalg::gemv_t(fold.eig.vectors, b1), r[fi]);
      for (std::size_t i = 0; i < ke; ++i) a1[fi][i] = gmu[fold.test[i]];
    }
  });

  // Every (fold, tau) grid cell is independent given the cached fold data;
  // each writes its error into a preassigned slot, and the slots are
  // reduced in fold order afterwards — so the curve is bit-identical at any
  // thread count. The y/pred scratch vectors are hoisted out of the cell
  // loop into per-chunk buffers sized to the largest fold, so the grid loop
  // performs no per-cell allocations.
  std::size_t max_kt = 0, max_ke = 0;
  for (const Fold& fold : folds_) {
    max_kt = std::max(max_kt, fold.train.size());
    max_ke = std::max(max_ke, fold.test.size());
  }
  std::vector<double> cell(nf * nt, 0.0);
  parallel::parallel_for(0, nf * nt, 0, [&](std::size_t c0, std::size_t c1) {
    linalg::Vector y(max_kt), pred(max_ke);
    for (std::size_t c = c0; c < c1; ++c) {
      const std::size_t fi = c / nt, ti = c % nt;
      const Fold& fold = folds_[fi];
      const std::size_t kt = fold.train.size(), ke = fold.test.size();
      const double tau = taus_[ti];
      y.resize(kt);    // never exceeds the reserved max -> no reallocation
      pred.resize(ke);
      for (std::size_t i = 0; i < kt; ++i)
        y[i] = r[fi][i] / (tau + fold.eig.values[i]);
      for (std::size_t i = 0; i < ke; ++i) {
        const double* ci = fold.c_hat.row_ptr(i);
        double cy = 0.0;
        for (std::size_t j = 0; j < kt; ++j) cy += ci[j] * y[j];
        pred[i] = a1[fi][i] + cy;
      }
      cell[c] = stats::relative_error(pred, fold.f_test);
    }
  });
  for (std::size_t fi = 0; fi < nf; ++fi)
    for (std::size_t ti = 0; ti < nt; ++ti)
      curve.errors[ti] += cell[fi * nt + ti];
  const double inv_folds = 1.0 / static_cast<double>(nf);
  for (double& e : curve.errors) e *= inv_folds;
  // A NaN error would silently win (or lose) every min_element comparison
  // in best_index(); surface it here, at the point of production.
  BMF_ENSURES_DIMS(check::all_finite(curve.errors),
                   "CvEngine::evaluate produced a non-finite CV error",
                   {"folds", nf}, {"grid", nt});
  return curve;
}

}  // namespace bmf::core
