#include "basis/basis_set.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "linalg/kernels/kernels.hpp"
#include "parallel/thread_pool.hpp"
#include "stats/rng.hpp"

namespace bmf::basis {

unsigned BasisTerm::total_degree() const {
  unsigned d = 0;
  for (const auto& f : factors) d += f.degree;
  return d;
}

double BasisTerm::evaluate(const linalg::Vector& x) const {
  double v = 1.0;
  for (const auto& f : factors) {
    v *= hermite_orthonormal(f.degree, x[f.var]);
  }
  return v;
}

std::string BasisTerm::to_string() const {
  if (factors.empty()) return "1";
  std::ostringstream os;
  for (std::size_t i = 0; i < factors.size(); ++i) {
    if (i) os << "*";
    os << "H" << factors[i].degree << "(x" << factors[i].var << ")";
  }
  return os.str();
}

BasisSet BasisSet::linear(std::size_t dimension) {
  std::vector<BasisTerm> terms;
  terms.reserve(dimension + 1);
  terms.push_back(BasisTerm{});  // constant
  for (std::size_t r = 0; r < dimension; ++r)
    terms.push_back(BasisTerm{{{r, 1u}}});
  return BasisSet(dimension, std::move(terms));
}

namespace {
void enumerate_terms(std::size_t dimension, unsigned budget, std::size_t var,
                     std::vector<VarDegree>& current,
                     std::vector<BasisTerm>& out, std::size_t limit) {
  if (out.size() > limit)
    throw std::invalid_argument(
        "BasisSet::total_degree: term count exceeds safety limit");
  out.push_back(BasisTerm{current});
  if (budget == 0) return;
  for (std::size_t v = var; v < dimension; ++v) {
    for (unsigned d = 1; d <= budget; ++d) {
      current.push_back({v, d});
      enumerate_terms(dimension, budget - d, v + 1, current, out, limit);
      current.pop_back();
    }
  }
}
}  // namespace

BasisSet BasisSet::total_degree(std::size_t dimension, unsigned max_degree) {
  std::vector<BasisTerm> terms;
  std::vector<VarDegree> current;
  constexpr std::size_t kLimit = 2'000'000;
  enumerate_terms(dimension, max_degree, 0, current, terms, kLimit);
  return BasisSet(dimension, std::move(terms));
}

BasisSet BasisSet::linear_plus_diagonal_quadratic(std::size_t dimension) {
  std::vector<BasisTerm> terms;
  terms.reserve(2 * dimension + 1);
  terms.push_back(BasisTerm{});
  for (std::size_t r = 0; r < dimension; ++r)
    terms.push_back(BasisTerm{{{r, 1u}}});
  for (std::size_t r = 0; r < dimension; ++r)
    terms.push_back(BasisTerm{{{r, 2u}}});
  return BasisSet(dimension, std::move(terms));
}

linalg::Vector BasisSet::evaluate(const linalg::Vector& x) const {
  LINALG_REQUIRE(x.size() == dimension_, "BasisSet::evaluate dim mismatch");
  linalg::Vector v(terms_.size());
  for (std::size_t m = 0; m < terms_.size(); ++m)
    v[m] = terms_[m].evaluate(x);
  return v;
}

std::size_t BasisSet::constant_index() const {
  for (std::size_t m = 0; m < terms_.size(); ++m)
    if (terms_[m].factors.empty()) return m;
  return terms_.size();
}

namespace {
// Rows per evaluation block: the Hermite recurrence runs lane-parallel
// across this many sample points per (variable, degree-sweep) call, and
// the per-variable value table stays L1/L2-resident. A block boundary
// never changes a row's result — every point's recurrence is independent
// and short tails run through the padded full-lane path — so the choice is
// pure tuning, not semantics. It is also the thread-pool grain of both
// design-matrix loops: a batch of at most this many rows is one chunk and
// runs inline on the caller (no worker wake-up or join), and larger
// batches split on block boundaries.
constexpr std::size_t kEvalBlockRows = 64;
}  // namespace

// Shared evaluation plan for design_matrix / design_matrix_times, built
// once per BasisSet: each distinct (var, degree) factor gets one slot, so
// a factor shared by many terms (e.g. H1(x_r) appearing in both the linear
// and every mixed term of a quadratic set) is evaluated once per sample.
// Slots are listed per term in the term's own factor order, keeping the
// product order — and hence the result bits — identical to evaluating
// term-by-term. Slots are then grouped by variable: one lane-parallel
// recurrence sweep per (variable, row block) produces every degree of that
// variable at once, and slot s reads its values at
// vals[slot_val_offset[s] + p] for row p of the block.
struct EvalPlan {
  struct VarGroup {
    std::size_t var;
    unsigned max_degree;
    std::size_t offset;  // into the per-block value table
  };
  std::vector<std::size_t> term_offsets;
  std::vector<std::size_t> term_slots;
  std::vector<std::size_t> slot_val_offset;
  std::vector<VarGroup> groups;
  std::size_t table_size = 0;

  /// Fill the per-block value table for rows [i0, i0 + nb).
  void fill_values(const linalg::Matrix& points, std::size_t i0,
                   std::size_t nb, double* xs, double* vals) const {
    for (const VarGroup& grp : groups) {
      for (std::size_t p = 0; p < nb; ++p) xs[p] = points(i0 + p, grp.var);
      hermite_orthonormal_batch(grp.max_degree, xs, nb, vals + grp.offset,
                                kEvalBlockRows);
    }
  }
};

namespace {
EvalPlan build_plan(const std::vector<BasisTerm>& terms) {
  const std::size_t m = terms.size();
  EvalPlan plan;
  plan.term_offsets.assign(m + 1, 0);
  std::map<std::pair<std::size_t, unsigned>, std::size_t> slot_of;
  std::vector<VarDegree> slot_factors;
  for (std::size_t j = 0; j < m; ++j) {
    for (const auto& f : terms[j].factors) {
      auto [it, inserted] =
          slot_of.try_emplace({f.var, f.degree}, slot_factors.size());
      if (inserted) slot_factors.push_back(f);
      plan.term_slots.push_back(it->second);
    }
    plan.term_offsets[j + 1] = plan.term_slots.size();
  }
  std::map<std::size_t, unsigned> degree_of_var;
  for (const auto& f : slot_factors) {
    unsigned& d = degree_of_var[f.var];
    d = std::max(d, f.degree);
  }
  plan.groups.reserve(degree_of_var.size());
  std::map<std::size_t, std::size_t> offset_of_var;
  for (const auto& [var, max_degree] : degree_of_var) {
    plan.groups.push_back({var, max_degree, plan.table_size});
    offset_of_var[var] = plan.table_size;
    plan.table_size +=
        (static_cast<std::size_t>(max_degree) + 1) * kEvalBlockRows;
  }
  plan.slot_val_offset.resize(slot_factors.size());
  for (std::size_t s = 0; s < slot_factors.size(); ++s)
    plan.slot_val_offset[s] = offset_of_var[slot_factors[s].var] +
                              slot_factors[s].degree * kEvalBlockRows;
  return plan;
}
}  // namespace

BasisSet::BasisSet() : BasisSet(0, {}) {}

BasisSet::BasisSet(std::size_t dimension, std::vector<BasisTerm> terms)
    : dimension_(dimension), terms_(std::move(terms)) {
  for (const auto& t : terms_)
    for (const auto& f : t.factors)
      if (f.var >= dimension_ || f.degree == 0)
        throw std::invalid_argument(
            "BasisSet: factor variable out of range or zero degree");
  plan_ = std::make_shared<const EvalPlan>(build_plan(terms_));
}

linalg::Matrix design_matrix(const BasisSet& basis,
                             const linalg::Matrix& points) {
  LINALG_REQUIRE(points.cols() == basis.dimension(),
                 "design_matrix: point dimension mismatch");
  const std::size_t k = points.rows(), m = basis.size();
  const EvalPlan& plan = *basis.plan_;

  linalg::Matrix g(k, m);
  parallel::parallel_for(0, k, kEvalBlockRows, [&](std::size_t r0,
                                                   std::size_t r1) {
    std::vector<double> vals(plan.table_size);
    std::vector<double> xs(kEvalBlockRows);
    for (std::size_t i0 = r0; i0 < r1; i0 += kEvalBlockRows) {
      const std::size_t nb = std::min(kEvalBlockRows, r1 - i0);
      plan.fill_values(points, i0, nb, xs.data(), vals.data());
      for (std::size_t p = 0; p < nb; ++p) {
        double* gi = g.row_ptr(i0 + p);
        for (std::size_t j = 0; j < m; ++j) {
          double v = 1.0;
          for (std::size_t t = plan.term_offsets[j];
               t < plan.term_offsets[j + 1]; ++t)
            v *= vals[plan.slot_val_offset[plan.term_slots[t]] + p];
          gi[j] = v;
        }
      }
    }
  });
  return g;
}

void design_matrix_times(const BasisSet& basis, const linalg::Matrix& points,
                         const linalg::Vector& coeffs, linalg::Vector& out) {
  LINALG_REQUIRE(points.cols() == basis.dimension(),
                 "design_matrix_times: point dimension mismatch");
  LINALG_REQUIRE(coeffs.size() == basis.size(),
                 "design_matrix_times: coefficient count mismatch");
  const std::size_t k = points.rows(), m = basis.size();
  const EvalPlan& plan = *basis.plan_;
  out.resize(k);

  // Fused G(points) * coeffs without materializing G: per row block, the
  // value table is built once, then each term's contribution streams into
  // a block accumulator via the dispatched mul/axpy kernels. Every row's
  // sum runs in term order j = 0..m-1 independently of its position in the
  // block and of the thread chunking, so results are bit-identical at any
  // thread count (the property the serving path's response guarantee
  // rests on). Note the sum order differs from gemv's dot kernel, so this
  // agrees with the materialized design_matrix + gemv path numerically
  // (~1 ulp per term), not bitwise.
  const linalg::kernels::KernelTable& kt = linalg::kernels::active();
  parallel::parallel_for(0, k, kEvalBlockRows, [&](std::size_t r0,
                                                   std::size_t r1) {
    std::vector<double> vals(plan.table_size);
    std::vector<double> xs(kEvalBlockRows);
    std::vector<double> acc(kEvalBlockRows);
    std::vector<double> prod(kEvalBlockRows);
    for (std::size_t i0 = r0; i0 < r1; i0 += kEvalBlockRows) {
      const std::size_t nb = std::min(kEvalBlockRows, r1 - i0);
      plan.fill_values(points, i0, nb, xs.data(), vals.data());
      std::fill(acc.begin(), acc.begin() + static_cast<std::ptrdiff_t>(nb),
                0.0);
      for (std::size_t j = 0; j < m; ++j) {
        const double c = coeffs[j];
        const std::size_t t0 = plan.term_offsets[j];
        const std::size_t t1 = plan.term_offsets[j + 1];
        if (t0 == t1) {  // constant term
          for (std::size_t p = 0; p < nb; ++p) acc[p] += c;
        } else if (t1 == t0 + 1) {  // single factor: acc += c * slot row
          const double* row =
              vals.data() + plan.slot_val_offset[plan.term_slots[t0]];
          kt.axpy(c, row, acc.data(), nb);
        } else {  // product of factors in term order, then acc += c * prod
          const double* row0 =
              vals.data() + plan.slot_val_offset[plan.term_slots[t0]];
          std::copy(row0, row0 + nb, prod.data());
          for (std::size_t t = t0 + 1; t < t1; ++t) {
            const double* row =
                vals.data() + plan.slot_val_offset[plan.term_slots[t]];
            kt.mul(prod.data(), row, prod.data(), nb);
          }
          kt.axpy(c, prod.data(), acc.data(), nb);
        }
      }
      std::copy(acc.data(), acc.data() + nb, out.data() + i0);
    }
  });
}

linalg::Vector design_matrix_times(const BasisSet& basis,
                                   const linalg::Matrix& points,
                                   const linalg::Vector& coeffs) {
  linalg::Vector out;
  design_matrix_times(basis, points, coeffs, out);
  return out;
}

double orthonormality_defect(const BasisSet& basis, std::size_t num_samples,
                             std::uint64_t seed) {
  const std::size_t m = basis.size();
  stats::Rng rng(seed);
  linalg::Matrix moments(m, m, 0.0);
  linalg::Vector x(basis.dimension());
  for (std::size_t s = 0; s < num_samples; ++s) {
    for (double& xi : x) xi = rng.normal();
    const linalg::Vector g = basis.evaluate(x);
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = i; j < m; ++j) moments(i, j) += g[i] * g[j];
  }
  double defect = 0.0;
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = i; j < m; ++j) {
      const double e = moments(i, j) / static_cast<double>(num_samples);
      defect = std::max(defect, std::abs(e - (i == j ? 1.0 : 0.0)));
    }
  return defect;
}

}  // namespace bmf::basis
