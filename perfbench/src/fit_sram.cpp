// fit_sram: repeated BMF-PS fits on the SRAM read-path testcase — the
// paper's own modeling cost (Tables IV/VI), exercising bmf, basis, linalg,
// parallel and the SIMD kernels with the serving stack idle.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <string>

#include "basis/basis_set.hpp"
#include "linalg/blas.hpp"
#include "stats/descriptive.hpp"
#include "stats/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace bmf;

namespace {

// Set-up (inputs + one warm-up fit) is repeated this often; setup_s is the
// median.
constexpr int kSetupReps = 3;
// A run times at least this many fits, even past --seconds.
constexpr std::size_t kMinFits = 3;

}  // namespace

FitInputs make_fit_inputs(std::uint64_t seed) {
  // Ground-truth early coefficients: the paper's OMP early fit adds about a
  // minute of set-up and never touches the fit path.
  FitInputs in{circuit::sram_read_path_testcase(
                   kSramVars, seed, circuit::EarlyModelSource::kTruth),
               {}, {}, {}};
  stats::Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x5eed);
  for (std::size_t s = 0; s < kTrainSets; ++s)
    in.train.push_back(in.testcase.silicon.sample_late(kFitSamples, rng));
  in.test = in.testcase.silicon.sample_late(kTestSamples, rng);
  in.g_test = basis::design_matrix(in.testcase.silicon.late_basis(),
                                   in.test.points);
  return in;
}

FitOutcome bmf_ps_fit(const FitInputs& in, const circuit::Dataset& train,
                      SpanLog& log, std::uint64_t request) {
  FitOutcome out;
  const auto t0 = Clock::now();
  core::FusionResult result;
  {
    ScopedSpan fit(log, "fit", request);
    linalg::Matrix g;
    {
      ScopedSpan s(log, "basis.design_matrix", request, fit.id());
      g = basis::design_matrix(in.testcase.silicon.late_basis(), train.points);
    }
    const auto t1 = Clock::now();
    core::BmfFitter fitter(in.testcase.silicon.late_basis(),
                           in.testcase.early_coeffs, in.testcase.informative);
    {
      ScopedSpan s(log, "bmf.set_design+zero_mean_curve", request, fit.id());
      fitter.set_design(std::move(g), train.f);
      (void)fitter.zero_mean_curve();
    }
    const auto t2 = Clock::now();
    {
      ScopedSpan s(log, "bmf.nonzero_mean_curve", request, fit.id());
      (void)fitter.nonzero_mean_curve();
    }
    const auto t3 = Clock::now();
    {
      ScopedSpan s(log, "bmf.fit", request, fit.id());
      result = fitter.fit(core::PriorSelection::kAuto);
    }
    const auto t4 = Clock::now();
    out.phases = FitPhases{s_between(t0, t1), s_between(t1, t2),
                           s_between(t2, t3), s_between(t3, t4)};
    ScopedSpan s(log, "check", request, fit.id());
    out.coeffs = result.model.coefficients();
    const linalg::Vector pred = linalg::gemv(in.g_test, out.coeffs);
    out.rel_error = stats::relative_error(pred, in.test.f);
  }
  return out;
}

WorkloadResult run_fit_sram(const RunConfig& config) {
  WorkloadResult res;
  std::optional<FitInputs> inputs;
  // reference[s]: coefficients of the first fit of training set s.
  std::vector<linalg::Vector> reference(kTrainSets);
  SpanLog untraced(false, 0);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    inputs.reset();
    inputs.emplace(make_fit_inputs(config.seed));
    // Warm-up: spins up the thread pool and faults in the allocator's
    // arenas; its coefficients become the reference for training set 0.
    reference[0] = bmf_ps_fit(*inputs, inputs->train[0], untraced, 0).coeffs;
    res.setup_s.push_back(s_between(t0, Clock::now()));
  }

  std::vector<double> errors, fit_us;
  std::uint64_t request = 0;
  const auto timed_window = [&](double seconds, SpanLog& log,
                                Timeline& latencies) {
    const auto start = Clock::now();
    for (std::size_t i = 0;
         i < kMinFits || s_between(start, Clock::now()) < seconds; ++i) {
      const std::size_t set = request % kTrainSets;
      FitOutcome fit = bmf_ps_fit(*inputs, inputs->train[set], log, request);
      const FitPhases& p = fit.phases;
      const double us =
          (p.design_s + p.engine_zm_s + p.nzm_curve_s + p.map_fit_s) * 1e6;
      latencies.add(s_between(start, Clock::now()), us);
      fit_us.push_back(us);
      ++request;
      res.rows += static_cast<double>(kFitSamples);
      errors.push_back(fit.rel_error);
      if (!std::isfinite(fit.rel_error) || fit.rel_error >= kFitErrorBound) {
        res.ops.fail("fit", "relative test error " +
                                std::to_string(fit.rel_error) + " >= bound");
      } else if (!reference[set].empty() &&
                 (reference[set].size() != fit.coeffs.size() ||
                  std::memcmp(reference[set].data(), fit.coeffs.data(),
                              fit.coeffs.size() * sizeof(double)) != 0)) {
        res.ops.fail("fit", "coefficients differ from the first fit of "
                            "training set " + std::to_string(set));
      } else {
        if (reference[set].empty()) reference[set] = fit.coeffs;
        res.ops.ok("fit");
      }
    }
    return s_between(start, Clock::now());
  };

  res.rows_per_op = static_cast<double>(kFitSamples);
  // One window for the whole run: a fit takes over a second.
  res.latency = Timeline(1e9);
  res.untraced_latency = Timeline(1e9);
  if (config.trace) {
    // Untraced half first: the overhead base for the traced half.
    res.window_s +=
        timed_window(config.seconds / 2, untraced, res.untraced_latency);
    res.span_logs.emplace_back(true, 0, 4096);
    res.window_s +=
        timed_window(config.seconds / 2, res.span_logs.back(), res.latency);
  } else {
    res.window_s = timed_window(config.seconds, untraced, res.latency);
  }

  res.named.push_back({"fit_rel_error", median(errors), "1", ""});
  res.extra["fit_samples"] = std::to_string(fit_us.size());
  std::string each;
  for (double us : fit_us)
    each += (each.empty() ? "" : ", ") + json_num(us / 1e6);
  res.extra["fit_s_each"] = "[" + each + "]";
  res.extra["fit_rel_error_max"] =
      json_num(errors.empty() ? 0.0 : *std::max_element(errors.begin(),
                                                        errors.end()));
  res.extra["fit_error_bound"] = json_num(kFitErrorBound);
  return res;
}

}  // namespace perfbench
