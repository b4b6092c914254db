// The benchmark's workloads, their generated inputs, and the per-layer
// probes. Every input is a pure function of the run's seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bmf/fusion.hpp"
#include "circuit/testcases.hpp"
#include "common.hpp"
#include "linalg/matrix.hpp"
#include "serve/fitted_model.hpp"

namespace perfbench {

// ---- fit_sram -------------------------------------------------------------

/// Paper-scale-for-a-laptop SRAM shape: R = 3000 variables (M = 3001),
/// K = 500 late-stage samples per fit, a 300-sample held-out test set.
inline constexpr std::size_t kSramVars = 3000;
inline constexpr std::size_t kFitSamples = 500;
inline constexpr std::size_t kTestSamples = 300;
/// Distinct training sets the fits cycle through; every repeat of a set
/// must reproduce the first fit of that set bit for bit.
inline constexpr std::size_t kTrainSets = 3;
/// Relative test error (paper Eq. 59) every fit must stay under.
inline constexpr double kFitErrorBound = 0.02;

struct FitInputs {
  bmf::circuit::Testcase testcase;
  std::vector<bmf::circuit::Dataset> train;
  bmf::circuit::Dataset test;
  bmf::linalg::Matrix g_test;  // design matrix of the test set
};
FitInputs make_fit_inputs(std::uint64_t seed);

/// Wall time of each stage of one BMF-PS fit.
struct FitPhases {
  double design_s = 0.0;     // basis::design_matrix of the K samples
  double engine_zm_s = 0.0;  // set_design + first zero_mean_curve()
  double nzm_curve_s = 0.0;  // nonzero_mean_curve()
  double map_fit_s = 0.0;    // fit(kAuto) after both curves
};

struct FitOutcome {
  bmf::linalg::Vector coeffs;
  double rel_error = 0.0;
  FitPhases phases;
};

/// One BMF-PS fit (Algorithm 1): design_matrix -> BmfFitter::set_design ->
/// both CV curves -> fit(kAuto), then the held-out error. Spans go to
/// `log` under `request` when it is enabled.
FitOutcome bmf_ps_fit(const FitInputs& inputs,
                      const bmf::circuit::Dataset& train, SpanLog& log,
                      std::uint64_t request);

WorkloadResult run_fit_sram(const RunConfig& config);

// ---- serve workloads ------------------------------------------------------

/// The ROADMAP's single-stream baseline model: linear over 24 variables.
inline constexpr std::size_t kServeDim = 24;
inline constexpr std::size_t kBulkRows = 4096;
inline constexpr std::size_t kSmallRows = 64;

/// Open-loop durable publishes per second (serve_routed's publisher and the
/// probes' publish burst). Well below the publish path's capacity (a
/// fan-out to two fsyncing owners takes ~2 ms, with stalls of tens of ms on
/// a busy host), so the schedule builds no backlog and publish latency does
/// not grow with run length.
inline constexpr double kPublishesPerSecond = 50.0;

/// Linear model whose coefficients derive from (seed, variant).
bmf::serve::FittedModel make_serve_model(std::uint64_t seed,
                                         std::uint64_t variant);
/// rows x kServeDim standard-normal batch derived from (seed, index).
bmf::linalg::Matrix make_batch(std::uint64_t seed, std::size_t rows,
                               std::uint64_t index);

WorkloadResult run_serve_bulk(const RunConfig& config);
WorkloadResult run_serve_routed(const RunConfig& config);

// ---- per-layer probes -----------------------------------------------------

/// Isolated calls into each layer's public functions, on inputs generated
/// from the run's seed.
std::vector<Metric> run_probes(const RunConfig& config);

}  // namespace perfbench
