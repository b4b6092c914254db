// bmf_perfbench: the repository benchmark. Run it through perfbench/run.py,
// which builds it; see BENCHMARK.json for the workloads and metrics.
//
//   bmf_perfbench --workload fit_sram|serve_bulk|serve_routed --seed N
//                 --seconds S --trace 0|1 --run-dir DIR
//                 [--commit C] [--source-digest D]
//
// Prints one report line (context, per-op counts, sample counts, the
// workload-specific metrics, and in traced mode the per-layer metrics, each
// tagged with the end-to-end metric and workload it should move), then the
// summary line {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics untraced, the per-layer metrics traced. Exits 1 when
// any output was wrong, 2 on a refused environment or bad arguments.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "linalg/kernels/kernels.hpp"
#include "parallel/thread_pool.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {
namespace {

// Span lines written per thread at exit (all spans feed the statistics).
constexpr std::size_t kSpanFileCap = 20000;

struct LayerSpec {
  const char* name;
  const char* unit;
  const char* moves;  // end-to-end metric @ workload it should move
};

// Every per-layer metric, in output order. Probe metrics come from
// isolated calls (run_probes) on every workload; counters come from the
// workload's own run and are 0 where the layer is not on its path.
constexpr LayerSpec kLayers[] = {
    {"bmf.cv_engine_s", "s", "op_p50_us@fit_sram"},
    {"bmf.cv_curve_s", "s", "op_p50_us@fit_sram"},
    {"bmf.map_fit_s", "s", "op_p50_us@fit_sram"},
    {"basis.design_matrix_s", "s", "op_p50_us@fit_sram"},
    {"linalg.outer_gram_s", "s", "op_p50_us@fit_sram"},
    {"linalg.eigen_s", "s", "op_p50_us@fit_sram"},
    {"parallel.fit_speedup", "x", "op_p50_us@fit_sram"},
    {"serve.protocol.encode_request_us", "us", "op_p50_us@serve_bulk"},
    {"serve.protocol.decode_request_us", "us", "op_p50_us@serve_bulk"},
    {"serve.protocol.encode_response_us", "us", "op_p50_us@serve_bulk"},
    {"serve.protocol.decode_response_us", "us", "op_p50_us@serve_bulk"},
    {"serve.evaluator.bulk_us", "us", "rows_per_s@serve_bulk"},
    {"serve.evaluator.small_us", "us", "rows_per_s@serve_routed"},
    {"serve.evaluator.small_1t_us", "us", "rows_per_s@serve_routed"},
    {"serve.evaluator.small_3way_us", "us", "op_p50_us@serve_routed"},
    {"serve.registry.latest_us", "us", "op_p90_us@serve_routed"},
    {"serve.wire.ping_rtt_us", "us", "op_p50_us@serve_routed"},
    {"router.hop_us", "us", "op_p50_us@serve_routed"},
    {"serve.codec.serialize_us", "us", "publish_p50_us@serve_routed"},
    {"store.append_us", "us", "publish_p50_us@serve_routed"},
    {"store.syncs_per_append", "1", "publish_p50_us@serve_routed"},
    {"router.requests_routed", "count", "ok_ratio@serve_routed"},
    {"router.failovers", "count", "ok_ratio,op_p90_us@serve_routed"},
    {"router.upstream_unavailable", "count", "ok_ratio@serve_routed"},
    {"router.probes_sent", "count", "op_p90_us@serve_routed"},
    {"router.connections_shed", "count", "ok_ratio@serve_routed"},
    {"server.requests_served", "count", "ok_ratio@serve_bulk,serve_routed"},
    {"server.evals_served", "count", "ok_ratio@serve_bulk,serve_routed"},
    {"server.connections_shed", "count", "ok_ratio@serve_bulk,serve_routed"},
    {"client.retries", "count", "ok_ratio,op_p90_us@serve_bulk,serve_routed"},
    {"client.reconnects", "count",
     "ok_ratio,op_p90_us@serve_bulk,serve_routed"},
    {"publisher.lag_p50_ms", "ms", "validity of publish_*@serve_routed"},
    {"publisher.lag_max_ms", "ms", "validity of publish_*@serve_routed"},
    {"trace.overhead_us", "us", "tracing cost on op_p50_us (traced - untraced)"},
    {"trace.root_self_us", "us", "op_p50_us (time outside child spans)"},
    {"trace.spans", "count", "span volume behind the per-layer numbers"},
};

std::string utc_now() {
  const std::time_t t = std::time(nullptr);
  std::tm tm{};
  ::gmtime_r(&t, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

std::string load_average() {
  std::ifstream in("/proc/loadavg");
  std::string one;
  in >> one;
  return one.empty() ? "unknown" : one;
}

/// (steal, total) jiffies of the aggregate "cpu" line of /proc/stat. On a
/// virtual machine, steal is the time the host ran someone else on this
/// machine's CPUs: the main source of run-to-run noise on a shared host.
std::pair<double, double> cpu_steal_total() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  double steal = 0.0, total = 0.0;
  for (int field = 0; field < 8 && in; ++field) {
    double v = 0.0;
    in >> v;
    total += v;
    if (field == 7) steal = v;  // user nice system idle iowait irq softirq steal
  }
  return {steal, total};
}

/// BMF_SIMD_LEVEL, BMF_NUM_THREADS and BMF_SERVE_* as set in the
/// environment. The libraries honour them; the context records them, so an
/// override never changes a result silently.
std::map<std::string, std::string> env_overrides() {
  std::map<std::string, std::string> out;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    const std::size_t eq = kv.find('=');
    const std::string key = kv.substr(0, eq);
    if (key == "BMF_SIMD_LEVEL" || key == "BMF_NUM_THREADS" ||
        key.rfind("BMF_SERVE_", 0) == 0)
      out[key] = eq == std::string::npos ? "" : kv.substr(eq + 1);
  }
  return out;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "bmf_perfbench: %s\nusage: bmf_perfbench --workload "
               "fit_sram|serve_bulk|serve_routed --seed N --seconds S "
               "--trace 0|1 --run-dir DIR [--commit C] "
               "[--source-digest D]\n",
               why);
  return 2;
}

int run(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage("malformed arguments");
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) return usage("every flag takes one value");
  for (const char* required : {"workload", "seed", "seconds", "trace",
                               "run-dir"})
    if (!args.count(required))
      return usage((std::string("missing --") + required).c_str());

  RunConfig config;
  config.workload = args["workload"];
  config.run_dir = args["run-dir"];
  try {
    config.seed = std::stoull(args["seed"]);
    config.seconds = std::stod(args["seconds"]);
  } catch (const std::exception&) {
    return usage("--seed and --seconds take numbers");
  }
  if (args["trace"] != "0" && args["trace"] != "1")
    return usage("--trace takes 0 or 1");
  config.trace = args["trace"] == "1";
  if (!(config.seconds > 0.0 && config.seconds <= 60.0))
    return usage("--seconds must be in (0, 60]");

  // Refused environments: an unoptimized build measures nothing useful,
  // and an armed fault plan makes failures the point of the run.
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release") {
    std::fprintf(stderr, "bmf_perfbench: refusing a non-Release build (%s)\n",
                 build_type.c_str());
    return 2;
  }
  if (const char* plan = std::getenv("BMF_FAULT_PLAN"); plan && *plan) {
    std::fprintf(stderr,
                 "bmf_perfbench: refusing to run with BMF_FAULT_PLAN set\n");
    return 2;
  }

  const auto steal0 = cpu_steal_total();
  WorkloadResult res;
  if (config.workload == "fit_sram") {
    res = run_fit_sram(config);
  } else if (config.workload == "serve_bulk") {
    res = run_serve_bulk(config);
  } else if (config.workload == "serve_routed") {
    res = run_serve_routed(config);
  } else {
    return usage("unknown workload");
  }
  const double rss = peak_rss_mb();
  const auto steal1 = cpu_steal_total();
  const double steal_pct =
      steal1.second > steal0.second
          ? 100.0 * (steal1.first - steal0.first) /
                (steal1.second - steal0.second)
          : 0.0;

  const std::uint64_t attempted = res.ops.attempted();
  const std::uint64_t failed = res.ops.failed();
  const bool correct = attempted > 0 && failed == 0;
  const double fail_ratio =
      attempted ? double(failed) / double(attempted) : 1.0;
  // Serve workloads: the tails and the rate are medians over 2-second
  // windows; fit_sram's timeline is one window, i.e. the whole run.
  const Histogram all_ops = res.latency.total();
  const double op_p50 = all_ops.percentile(0.50);
  std::vector<double> p50s, p90s, p99s, counts;
  std::uint64_t min_beyond = all_ops.count();
  for (const Histogram& w : res.latency.windows()) {
    p50s.push_back(w.percentile(0.50));
    p90s.push_back(w.percentile(0.90));
    p99s.push_back(w.percentile(0.99));
    counts.push_back(double(w.count()));
    min_beyond = std::min<std::uint64_t>(min_beyond, w.count() / 100);
  }
  const bool windowed = res.latency.windows().size() > 1;
  const auto tail = [&](double p, const std::vector<double>& per_window) {
    return windowed ? median(per_window) : all_ops.percentile(p);
  };
  // p90 is the bounded tail; p99 is reported beside it. On a shared host a
  // window's p99 is set by a handful of multi-millisecond stalls whose rate
  // follows the neighbours' load, so it moves too much between runs to
  // bound (see README.md).
  const double op_p90 = tail(0.90, p90s);
  const double op_p99 = tail(0.99, p99s);
  const double rows_per_s =
      windowed ? median(counts) * res.rows_per_op / res.latency.window_s()
               : res.rows / res.window_s;
  const auto json_list = [](const std::vector<double>& v) {
    std::string out;
    for (double x : v) out += (out.empty() ? "" : ", ") + json_num(x);
    return "[" + out + "]";
  };
  res.extra["op_samples"] = std::to_string(all_ops.count());
  res.extra["op_samples_beyond_p99"] = std::to_string(all_ops.count() / 100);
  if (windowed) {
    res.extra["windows"] = "{\"seconds\": " + json_num(res.latency.window_s()) +
                           ", \"p50_us\": " + json_list(p50s) +
                           ", \"p90_us\": " + json_list(p90s) +
                           ", \"p99_us\": " + json_list(p99s) +
                           ", \"samples\": " + json_list(counts) + "}";
    res.extra["window_min_samples_beyond_p99"] = std::to_string(min_beyond);
  }

  const std::vector<Metric> end_to_end = {
      {"setup_s", median(res.setup_s), "s", ""},
      {"op_p50_us", op_p50, "us", ""},
      {"op_p90_us", op_p90, "us", ""},
      {"rows_per_s", rows_per_s, "rows/s", ""},
      {"ok_ratio", 1.0 - fail_ratio, "1", ""},
      {"peak_rss_mb", rss, "MiB", ""},
  };
  std::vector<Metric> named = res.named;
  if (config.workload != "fit_sram") {
    named.push_back({"evals_per_s", rows_per_s, "rows/s", ""});
    named.push_back({"eval_p50_us", op_p50, "us", ""});
    named.push_back({"eval_p90_us", op_p90, "us", ""});
    named.push_back({"eval_p99_us", op_p99, "us", ""});
  } else {
    named.push_back({"fit_s", op_p50 / 1e6, "s", ""});
    named.push_back({"fit_p90_s", op_p90 / 1e6, "s", ""});
  }
  named.push_back({"fail_ratio", fail_ratio, "1", ""});
  named.push_back({"setup_s", median(res.setup_s), "s", ""});
  named.push_back({"peak_rss_mb", rss, "MiB", ""});

  std::vector<Metric> per_layer;
  std::string span_table;
  if (config.trace) {
    std::map<std::string, Metric> found;
    for (const Metric& m : run_probes(config)) found[m.name] = m;
    // The run's own numbers win over a probe of the same name (serve_routed
    // has its own open-loop publisher).
    for (const Metric& m : res.layers) found[m.name] = m;
    found["trace.overhead_us"] = {
        "trace.overhead_us",
        all_ops.percentile(0.50) - res.untraced_latency.total().percentile(0.50),
        "us", ""};
    found["trace.root_self_us"] = {"trace.root_self_us",
                                   root_self_median_us(res.span_logs), "us",
                                   ""};
    found["trace.spans"] = {"trace.spans",
                            double(span_count(res.span_logs)), "count", ""};
    for (const LayerSpec& spec : kLayers) {
      const auto it = found.find(spec.name);
      per_layer.push_back({spec.name, it == found.end() ? 0.0 : it->second.value,
                           spec.unit, spec.moves});
    }
    std::uint64_t dropped = 0;
    for (const SpanLog& log : res.span_logs) dropped += log.dropped();
    res.extra["spans_dropped"] = std::to_string(dropped);
    const std::string span_path = config.run_dir + "/spans-" +
                                  config.workload + "-" +
                                  std::to_string(config.seed) + ".jsonl";
    write_spans(span_path, res.span_logs, kSpanFileCap);
    res.extra["span_file"] = json_str(span_path);
    std::string table;
    for (const auto& [name, st] : span_stats(res.span_logs))
      table += std::string(table.empty() ? "" : ", ") + json_str(name) +
               ": {\"count\": " + std::to_string(st.count) +
               ", \"median_us\": " + json_num(st.median_us) +
               ", \"median_self_us\": " + json_num(st.median_self_us) + "}";
    span_table = "{" + table + "}";
    const Histogram base = res.untraced_latency.total();
    res.extra["untraced_op_p50_us"] = json_num(base.percentile(0.50));
    res.extra["untraced_op_samples"] = std::to_string(base.count());
  }

  // ---- report line ----
  const auto simd = bmf::linalg::kernels::dispatch_info();
  std::string env = "{";
  for (const auto& [k, v] : env_overrides())
    env += std::string(env.size() > 1 ? ", " : "") + json_str(k) + ": " +
           json_str(v);
  env += "}";
  std::string ops = "{";
  for (const auto& [kind, c] : res.ops.kinds())
    ops += std::string(ops.size() > 1 ? ", " : "") + json_str(kind) +
           ": {\"attempted\": " + std::to_string(c.attempted) +
           ", \"succeeded\": " + std::to_string(c.succeeded) +
           ", \"failed\": " + std::to_string(c.failed) + "}";
  ops += "}";
  std::string reasons = "[";
  for (const std::string& r : res.ops.reasons())
    reasons += std::string(reasons.size() > 1 ? ", " : "") + json_str(r);
  reasons += "]";
  std::string setups = "[";
  for (double s : res.setup_s)
    setups += std::string(setups.size() > 1 ? ", " : "") + json_num(s);
  setups += "]";
  std::string extra = "{";
  for (const auto& [k, v] : res.extra)
    extra += std::string(extra.size() > 1 ? ", " : "") + json_str(k) + ": " + v;
  extra += "}";

  std::string report =
      "{\"report\": \"perfbench\", \"workload\": " + json_str(config.workload) +
      ", \"context\": {\"commit\": " + json_str(args["commit"]) +
      ", \"source_digest\": " + json_str(args["source-digest"]) +
      ", \"date\": " + json_str(utc_now()) +
      ", \"nproc\": " + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)) +
      ", \"load_average_1m\": " + json_str(load_average()) +
      ", \"host_steal_pct\": " + json_num(steal_pct) +
      ", \"simd_level\": " +
      json_str(bmf::linalg::kernels::level_name(simd.active)) +
      ", \"simd_detected\": " +
      json_str(bmf::linalg::kernels::level_name(simd.detected)) +
      ", \"build_type\": " + json_str(build_type) +
      ", \"threads\": " + std::to_string(bmf::parallel::num_threads()) +
      ", \"seed\": " + std::to_string(config.seed) +
      ", \"seconds\": " + json_num(config.seconds) +
      ", \"trace\": " + (config.trace ? "true" : "false") +
      ", \"env_overrides\": " + env + "}" +
      ", \"ops\": " + ops + ", \"failure_reasons\": " + reasons +
      ", \"setup_s_reps\": " + setups + ", \"samples\": " + extra +
      ", \"named\": " + json_metric_map(named, false) +
      ", \"end_to_end\": " + json_metric_map(end_to_end, false);
  if (config.trace)
    report += ", \"per_layer\": " + json_metric_map(per_layer, true) +
              ", \"spans\": " + span_table;
  report += "}";
  std::printf("%s\n", report.c_str());

  // ---- summary line (last line of stdout) ----
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              json_metric_map(config.trace ? per_layer : end_to_end, false)
                  .c_str());
  std::fflush(stdout);
  if (!correct)
    for (const std::string& r : res.ops.reasons())
      std::fprintf(stderr, "bmf_perfbench: failed op: %s\n", r.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bmf_perfbench: %s\n", e.what());
    return 1;
  }
}
