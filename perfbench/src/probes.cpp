// Per-layer probes for the traced mode: isolated calls into each layer's
// public functions on inputs generated from the run's seed (the fit_sram
// inputs for bmf/basis/linalg/parallel, the serve workloads' model and
// batches for serve/router/store). Each probe reports a median over
// repetitions; calls far below a microsecond are timed in blocks.
#include <algorithm>
#include <atomic>
#include <barrier>
#include <stdexcept>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "basis/basis_set.hpp"
#include "bmf/prior.hpp"
#include "linalg/blas.hpp"
#include "linalg/eigen_sym.hpp"
#include "parallel/thread_pool.hpp"
#include "router/router.hpp"
#include "serve/batch_evaluator.hpp"
#include "serve/client.hpp"
#include "serve/model_codec.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "store/store.hpp"
#include "daemons.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace bmf;

namespace {

/// Median wall time of `reps` calls of `f`, in microseconds.
template <typename F>
double median_us(int reps, F&& f) {
  std::vector<double> t;
  t.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    f();
    t.push_back(us_between(t0, Clock::now()));
  }
  return median(std::move(t));
}

std::vector<Metric> fit_probes(std::uint64_t seed) {
  const FitInputs in = make_fit_inputs(seed);
  SpanLog off(false, 0);
  std::vector<double> design, engine, curve, map_fit, total;
  for (int rep = 0; rep < 2; ++rep) {
    const FitPhases p = bmf_ps_fit(in, in.train[0], off, 0).phases;
    design.push_back(p.design_s);
    engine.push_back(p.engine_zm_s);
    curve.push_back(p.nzm_curve_s);
    map_fit.push_back(p.map_fit_s);
    total.push_back(p.design_s + p.engine_zm_s + p.nzm_curve_s + p.map_fit_s);
  }
  parallel::set_num_threads(1);
  const FitPhases p1 = bmf_ps_fit(in, in.train[0], off, 0).phases;
  parallel::set_num_threads(0);
  const double serial =
      p1.design_s + p1.engine_zm_s + p1.nzm_curve_s + p1.map_fit_s;

  // One CV fold's shapes: K_train = K - K / folds rows of G, and the
  // K_train x K_train matrix B = G_tr diag(1/q) G_tr^T the engine
  // eigendecomposes.
  const std::size_t folds = core::CvOptions{}.folds;
  const std::size_t k_train = kFitSamples - kFitSamples / folds;
  const linalg::Matrix g =
      basis::design_matrix(in.testcase.silicon.late_basis(), in.train[0].points);
  const linalg::Matrix g_tr = g.block(0, 0, k_train, g.cols());
  linalg::Vector inv_q = core::CoefficientPrior::zero_mean(
                             in.testcase.early_coeffs, in.testcase.informative)
                             .precision_scale();
  for (double& v : inv_q) v = 1.0 / v;
  linalg::Matrix b;
  const double gram_us =
      median_us(3, [&] { b = linalg::outer_gram_weighted(g_tr, inv_q); });
  const double eigen_us = median_us(3, [&] {
    const linalg::SymmetricEigen e = linalg::eigen_symmetric(b);
    if (e.values.size() != k_train) throw std::runtime_error("eigen shape");
  });

  return {
      {"bmf.cv_engine_s", median(engine), "s", ""},
      {"bmf.cv_curve_s", median(curve), "s", ""},
      {"bmf.map_fit_s", median(map_fit), "s", ""},
      {"basis.design_matrix_s", median(design), "s", ""},
      {"linalg.outer_gram_s", gram_us / 1e6, "s", ""},
      {"linalg.eigen_s", eigen_us / 1e6, "s", ""},
      {"parallel.fit_speedup", serial / median(total), "x", ""},
  };
}

std::vector<Metric> codec_probes(std::uint64_t seed) {
  const serve::FittedModel model = make_serve_model(seed, 0);
  const linalg::Matrix bulk = make_batch(seed, kBulkRows, 0);
  const linalg::Matrix small = make_batch(seed, kSmallRows, 0);
  const serve::BatchEvaluator evaluator;

  std::vector<std::uint8_t> frame;
  const double enc_req = median_us(200, [&] {
    frame = serve::encode_evaluate_request("bulk", 0, bulk, std::move(frame));
  });
  const double dec_req = median_us(200, [&] {
    const serve::Request r = serve::decode_request(frame);
    if (!std::holds_alternative<serve::EvaluateRequest>(r))
      throw std::runtime_error("decode_request");
  });
  serve::EvaluateResponse response{1, evaluator.evaluate(model.model, bulk)};
  std::vector<std::uint8_t> reply;
  const double enc_resp = median_us(
      200, [&] { reply = serve::encode_evaluate_response(response); });
  const double dec_resp = median_us(200, [&] {
    const auto [body, size] = serve::expect_ok(reply);
    if (serve::decode_evaluate_response(body, size).values.size() != kBulkRows)
      throw std::runtime_error("decode_evaluate_response");
  });

  linalg::Vector out;
  const double eval_bulk =
      median_us(200, [&] { evaluator.evaluate_into(model.model, bulk, out); });
  const double eval_small = median_us(
      2000, [&] { evaluator.evaluate_into(model.model, small, out); });
  parallel::set_num_threads(1);
  const double eval_small_1t = median_us(
      2000, [&] { evaluator.evaluate_into(model.model, small, out); });
  parallel::set_num_threads(0);

  // serve_routed's three shards are threads of this one process, so their
  // evaluations share the process-wide thread pool, which runs one
  // parallel job at a time. Three callers at once, as three shard workers
  // would be, against small_us's one: the gap is time spent queueing for
  // the pool, which shards in separate processes would not pay.
  constexpr std::size_t kCallers = 3;
  std::vector<std::vector<double>> caller_us(kCallers);
  {
    std::barrier gate(static_cast<std::ptrdiff_t>(kCallers));
    std::vector<std::thread> callers;
    for (std::size_t c = 0; c < kCallers; ++c)
      callers.emplace_back([&, c] {
        const serve::BatchEvaluator own;
        linalg::Vector values;
        gate.arrive_and_wait();
        for (int i = 0; i < 2000; ++i) {
          const auto t0 = Clock::now();
          own.evaluate_into(model.model, small, values);
          caller_us[c].push_back(us_between(t0, Clock::now()));
        }
      });
    for (std::thread& t : callers) t.join();
  }
  std::vector<double> concurrent;
  for (const std::vector<double>& t : caller_us)
    concurrent.insert(concurrent.end(), t.begin(), t.end());
  const double eval_small_3way = median(std::move(concurrent));

  std::vector<std::uint8_t> blob;
  const double serialize =
      median_us(2000, [&] { blob = serve::serialize_model(model); });

  // ModelRegistry::latest while another thread publishes new versions of
  // the same name without pause (the exclusive-lock churn of serve_routed,
  // saturated). Whether a call meets the writer is a matter of scheduling,
  // so the metric is the mean over 20000 calls, not a median.
  serve::ModelRegistry registry(64);
  registry.publish("probe", model);
  std::atomic<bool> stop{false};
  std::thread churn([&] {
    while (!stop.load(std::memory_order_relaxed))
      (void)registry.publish_ticketed("probe", model);
  });
  const auto t_latest = Clock::now();
  for (int i = 0; i < 20000; ++i)
    if (registry.latest("probe") == nullptr)
      throw std::runtime_error("registry lost the probe model");
  const double latest_us = us_between(t_latest, Clock::now()) / 20000.0;
  stop.store(true);
  churn.join();

  return {
      {"serve.protocol.encode_request_us", enc_req, "us", ""},
      {"serve.protocol.decode_request_us", dec_req, "us", ""},
      {"serve.protocol.encode_response_us", enc_resp, "us", ""},
      {"serve.protocol.decode_response_us", dec_resp, "us", ""},
      {"serve.evaluator.bulk_us", eval_bulk, "us", ""},
      {"serve.evaluator.small_us", eval_small, "us", ""},
      {"serve.evaluator.small_1t_us", eval_small_1t, "us", ""},
      {"serve.evaluator.small_3way_us", eval_small_3way, "us", ""},
      {"serve.registry.latest_us", latest_us, "us", ""},
      {"serve.codec.serialize_us", serialize, "us", ""},
  };
}

std::vector<Metric> store_and_wire_probes(const RunConfig& config) {
  const ScratchDir dir(config.run_dir, "probe", 0);
  const serve::FittedModel model = make_serve_model(config.seed, 0);
  const std::vector<std::uint8_t> blob = serve::serialize_model(model);
  std::vector<Metric> out;

  {  // ModelStore::append_publish at sync=always.
    store::StoreOptions so;
    so.sync = store::SyncPolicy::kAlways;
    store::ModelStore st(dir.path() + "/append", so);
    (void)st.recover();
    std::uint64_t seq = 0;
    const double append = median_us(300, [&] {
      ++seq;
      st.append_publish(seq, "probe", seq, blob.data(), blob.size());
    });
    const store::StoreStats stats = st.stats();
    out.push_back({"store.append_us", append, "us", ""});
    out.push_back({"store.syncs_per_append",
                   stats.appends ? double(stats.syncs) / double(stats.appends)
                                 : 0.0,
                   "1", ""});
  }

  // One shard (durable, sync=always, 1 worker: the serve_routed shard
  // shape) behind a one-replica router, both on TCP loopback.
  serve::ServerOptions so;
  so.socket_path = dir.path() + "/shard.sock";
  so.tcp_address = "127.0.0.1:0";
  so.worker_threads = 1;
  so.max_connections = 16;
  so.request_timeout_ms = 30000;
  so.store_dir = dir.path() + "/shard-store";
  const std::string backend = "unix:" + so.socket_path;
  Running<serve::Server> shard(std::move(so));
  router::RouterOptions ro;
  ro.tcp_address = "127.0.0.1:0";
  ro.backends = {backend};
  ro.replicas = 1;
  ro.request_timeout_ms = 30000;
  Running<router::Router> rt(std::move(ro));

  serve::Client direct(serve::to_string(shard->tcp_endpoint()), 30000);
  serve::Client via(serve::to_string(rt->tcp_endpoint()), 30000);
  via.publish("probe", model);
  const double ping = median_us(2000, [&] { direct.ping(); });

  // The router answers ping itself, so the hop is measured on a 1-row
  // evaluate: via the router minus the same request direct, interleaved.
  const linalg::Matrix one = make_batch(config.seed, 1, 0);
  std::vector<double> t_direct, t_via;
  for (int i = 0; i < 2000; ++i) {
    auto t0 = Clock::now();
    (void)direct.evaluate("probe", one);
    t_direct.push_back(us_between(t0, Clock::now()));
    t0 = Clock::now();
    (void)via.evaluate("probe", one);
    t_via.push_back(us_between(t0, Clock::now()));
  }
  out.push_back({"serve.wire.ping_rtt_us", ping, "us", ""});
  out.push_back({"router.hop_us", median(t_via) - median(t_direct), "us", ""});

  // Open-loop publish burst through the router at serve_routed's rate
  // (schedule lag), for workloads that have no publisher of their own.
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kPublishesPerSecond));
  const auto start = Clock::now();
  std::vector<double> lags;
  for (int i = 0; i < 100; ++i) {
    const auto due = start + period * i;
    std::this_thread::sleep_until(due);
    lags.push_back(us_between(due, Clock::now()) / 1e3);
    (void)via.publish_blob("probe", blob);
  }
  out.push_back({"publisher.lag_p50_ms", median(lags), "ms", ""});
  out.push_back({"publisher.lag_max_ms",
                 *std::max_element(lags.begin(), lags.end()), "ms", ""});
  return out;
}

}  // namespace

std::vector<Metric> run_probes(const RunConfig& config) {
  std::vector<Metric> out = fit_probes(config.seed);
  const std::vector<Metric> codec = codec_probes(config.seed);
  out.insert(out.end(), codec.begin(), codec.end());
  const std::vector<Metric> wire = store_and_wire_probes(config);
  out.insert(out.end(), wire.begin(), wire.end());
  return out;
}

}  // namespace perfbench
