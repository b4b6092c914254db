// The two serving workloads.
//
// serve_bulk: one in-process shard on a UNIX socket, one closed-loop
// Client at depth 1, 4096-row batches against the linear 24-variable model
// — the bytes-heavy path (encode, socket copy, decode, evaluate) with the
// router, the store and the worker handoff bypassed.
//
// serve_routed: the ci.sh cluster shape — bmf_router (--replicas 2) over
// three in-process shards with one worker and a durable store at
// sync=always each. Three closed-loop readers over TCP loopback pipeline
// 64-row batches at depth 8, each on its own model name, the names chosen
// so the primaries cover all three shards. One open-loop publisher
// publishes new versions of those names on a fixed schedule; every publish
// fans out to two owners and fsyncs on both. Per-request fixed costs
// dominate here: the router hop, event-loop wakeups, framing, the
// evaluator's fixed cost, the registry's exclusive lock and the WAL fsync.
//
// Every evaluate reply must equal, bit for bit, a local BatchEvaluator
// evaluation of the model version the reply names; a mismatch is a failed
// operation. Clients make one attempt per request, so a shed, a timeout or
// an error reply is a failed operation too, never a silent retry.
#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstring>
#include <deque>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "basis/basis_set.hpp"
#include "router/router.hpp"
#include "serve/batch_evaluator.hpp"
#include "serve/client.hpp"
#include "serve/model_codec.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "stats/rng.hpp"
#include "daemons.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace bmf;

namespace {

// Set-up is cheap here (tens of milliseconds), so it is repeated often
// enough for its median to be steady.
constexpr int kSetupReps = 7;
constexpr int kTimeoutMs = 30000;

// serve_bulk: distinct batches the client cycles through.
constexpr std::size_t kBulkBatches = 4;
constexpr std::size_t kBulkWarmup = 50;

// serve_routed shape.
constexpr std::size_t kShards = 3;
constexpr std::size_t kReplicas = 2;
constexpr std::size_t kReaders = 3;
constexpr std::size_t kReadDepth = 8;
constexpr std::size_t kSmallBatches = 16;
// Model variants the publisher cycles through: version v of every name
// carries variant (v - 1) % kVariants, so a reply's version names the
// exact coefficients that must have produced it.
constexpr std::size_t kVariants = 4;
constexpr std::size_t kReaderWarmup = 50;

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  stats::SplitMix64 sm(a * 0x9e3779b97f4a7c15ull ^ (b + 0x632be59bd9b4e019ull));
  return sm.next();
}

bool same_bits(const linalg::Vector& a, const linalg::Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// One attempt per request, whatever BMF_SERVE_MAX_ATTEMPTS says: the
/// client's retry loop would otherwise turn a shed or a timeout that then
/// succeeds into a success the failure count never sees.
serve::RetryPolicy no_retries() {
  serve::RetryPolicy policy;
  policy.max_attempts = 1;
  return policy;
}

serve::ServerOptions shard_options(const std::string& socket_path,
                                   std::size_t workers) {
  serve::ServerOptions so;
  so.socket_path = socket_path;
  so.request_timeout_ms = kTimeoutMs;
  so.worker_threads = workers;
  so.max_connections = 16;
  return so;
}

}  // namespace

serve::FittedModel make_serve_model(std::uint64_t seed, std::uint64_t variant) {
  serve::FittedModel fitted;
  const basis::BasisSet b = basis::BasisSet::linear(kServeDim);
  stats::Rng rng(mix(seed, 1000 + variant));
  linalg::Vector coeffs(b.size());
  for (double& c : coeffs) c = rng.normal();
  fitted.model = basis::PerformanceModel(b, coeffs);
  fitted.provenance = serve::PriorProvenance::kNonzeroMean;
  fitted.tau = 0.05;
  fitted.num_samples = kFitSamples;
  return fitted;
}

linalg::Matrix make_batch(std::uint64_t seed, std::size_t rows,
                          std::uint64_t index) {
  stats::Rng rng(mix(seed, rows * 7919 + index));
  linalg::Matrix points(rows, kServeDim);
  for (std::size_t i = 0; i < points.size(); ++i)
    points.data()[i] = rng.normal();
  return points;
}

// ---- serve_bulk -------------------------------------------------------------

namespace {

struct BulkSetup {
  BulkSetup(const RunConfig& config, int rep)
      : dir(config.run_dir, "bulk", rep),
        socket_path(dir.path() + "/shard.sock"),
        server(shard_options(socket_path, 4)) {
    client = std::make_unique<serve::Client>(socket_path, kTimeoutMs,
                                             serve::kDefaultMaxFrameBytes,
                                             no_retries());
    const serve::FittedModel model = make_serve_model(config.seed, 0);
    if (client->publish("bulk", model) != 1)
      throw std::runtime_error("serve_bulk: first publish was not version 1");
    const serve::BatchEvaluator evaluator;
    for (std::size_t b = 0; b < kBulkBatches; ++b) {
      batches.push_back(make_batch(config.seed, kBulkRows, b));
      expected.push_back(evaluator.evaluate(model.model, batches.back()));
    }
    for (std::size_t i = 0; i < kBulkWarmup; ++i) {
      const auto ev = client->evaluate("bulk", batches[i % kBulkBatches]);
      if (ev.version != 1 || !same_bits(ev.values, expected[i % kBulkBatches]))
        throw std::runtime_error("serve_bulk: warm-up reply is wrong");
    }
  }

  ScratchDir dir;
  std::string socket_path;
  Running<serve::Server> server;
  std::unique_ptr<serve::Client> client;
  std::vector<linalg::Matrix> batches;
  std::vector<linalg::Vector> expected;
};

}  // namespace

WorkloadResult run_serve_bulk(const RunConfig& config) {
  WorkloadResult res;
  std::unique_ptr<BulkSetup> setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup.reset();
    const auto t0 = Clock::now();
    setup = std::make_unique<BulkSetup>(config, rep);
    res.setup_s.push_back(s_between(t0, Clock::now()));
  }

  std::uint64_t request = 0;
  const auto timed_window = [&](double seconds, SpanLog& log,
                                Timeline& latencies) {
    const auto start = Clock::now();
    while (s_between(start, Clock::now()) < seconds) {
      const std::size_t b = request % kBulkBatches;
      ScopedSpan root(log, "request", request);
      serve::Client::Evaluation ev;
      const auto t0 = Clock::now();
      try {
        ScopedSpan s(log, "client.evaluate", request, root.id());
        ev = setup->client->evaluate("bulk", setup->batches[b]);
      } catch (const serve::ServeError& e) {
        res.ops.fail("evaluate", e.what());
        ++request;
        continue;
      }
      const auto t1 = Clock::now();
      latencies.add(s_between(start, t1), us_between(t0, t1));
      ScopedSpan s(log, "check", request, root.id());
      if (ev.version != 1 || !same_bits(ev.values, setup->expected[b])) {
        res.ops.fail("evaluate", "reply differs from the local evaluation");
      } else {
        res.ops.ok("evaluate");
        res.rows += static_cast<double>(kBulkRows);
      }
      ++request;
    }
    const double elapsed = s_between(start, Clock::now());
    latencies.close(elapsed);
    return elapsed;
  };

  SpanLog untraced(false, 0);
  res.rows_per_op = static_cast<double>(kBulkRows);
  if (config.trace) {
    res.window_s +=
        timed_window(config.seconds / 2, untraced, res.untraced_latency);
    res.span_logs.emplace_back(true, 0, 1 << 16);
    res.window_s +=
        timed_window(config.seconds / 2, res.span_logs.back(), res.latency);
  } else {
    res.window_s = timed_window(config.seconds, untraced, res.latency);
  }

  const serve::Server& server = *setup->server;
  const serve::RetryStats& retry = setup->client->retry_stats();
  res.layers = {
      {"server.requests_served", double(server.requests_served()), "count",
       ""},
      {"server.evals_served", double(server.evals_served()), "count", ""},
      {"server.connections_shed", double(server.connections_shed()), "count",
       ""},
      {"client.retries", double(retry.retries), "count", ""},
      {"client.reconnects", double(retry.reconnects), "count", ""},
  };
  return res;
}

// ---- serve_routed -----------------------------------------------------------

namespace {

struct Cluster {
  Cluster(const RunConfig& config, int rep) : dir(config.run_dir, "routed", rep) {
    router::RouterOptions ropt;
    for (std::size_t i = 0; i < kShards; ++i) {
      const std::string sock = dir.path() + "/shard" + std::to_string(i) + ".sock";
      serve::ServerOptions so = shard_options(sock, 1);
      so.store_dir = dir.path() + "/store" + std::to_string(i);
      so.store_sync = store::SyncPolicy::kAlways;
      shards.push_back(std::make_unique<Running<serve::Server>>(std::move(so)));
      ropt.backends.push_back("unix:" + sock);
    }
    // TCP is the client-facing transport; when loopback TCP is unavailable
    // the Router constructor throws and the workload fails loudly.
    ropt.tcp_address = "127.0.0.1:0";
    ropt.replicas = kReplicas;
    ropt.request_timeout_ms = kTimeoutMs;
    router = std::make_unique<Running<router::Router>>(std::move(ropt));
    endpoint = serve::to_string((*router)->tcp_endpoint());

    // One model name per shard: probe the ring so reader c's primary is
    // shard c.
    names.resize(kShards);
    std::vector<bool> covered(kShards, false);
    for (std::size_t k = 0, found = 0; found < kShards; ++k) {
      const std::string candidate = "routed_" + std::to_string(k);
      const std::size_t primary = (*router)->ring().primary(candidate);
      if (covered[primary]) continue;
      covered[primary] = true;
      names[primary] = candidate;
      ++found;
    }
  }

  serve::Server& shard(std::size_t i) { return **shards[i]; }

  ScratchDir dir;
  std::vector<std::unique_ptr<Running<serve::Server>>> shards;
  std::unique_ptr<Running<router::Router>> router;
  std::string endpoint;  // "tcp:127.0.0.1:PORT"
  std::vector<std::string> names;
};

/// Inputs shared by every reader: batches and the expected reply of every
/// (variant, batch) pair.
struct ReadInputs {
  std::vector<linalg::Matrix> batches;
  std::vector<std::vector<linalg::Vector>> expected;  // [variant][batch]
};

/// One pipelining reader: its own TCP connection to the router, a sliding
/// window of kReadDepth evaluate frames in flight, every reply timed from
/// the start of its encode to the end of its decode.
class Reader {
 public:
  Reader(std::string endpoint, std::string name, const ReadInputs& inputs)
      : endpoint_(serve::parse_endpoint(endpoint)),
        name_(std::move(name)),
        inputs_(inputs) {
    connect();
  }

  /// Depth-1 round trips (set-up warm-up): throws on any wrong reply.
  void warm_up(std::size_t requests) {
    OpCounts ops;
    SpanLog log(false, 0);
    Timeline lat(kStatWindowSeconds);
    start_ = Clock::now();
    for (std::size_t i = 0; i < requests; ++i) {
      send_one();
      receive_one(log, ops, lat, true);
    }
    if (ops.failed() != 0)
      throw std::runtime_error("serve_routed: warm-up reply is wrong");
  }

  /// Run until `stop`, then drain the window. Latencies of replies that
  /// arrive after `stop` are not recorded.
  void run(Clock::time_point start, const std::atomic<bool>& stop,
           SpanLog& log, OpCounts& ops, Timeline& latencies) {
    start_ = start;
    while (!stop.load(std::memory_order_relaxed)) {
      try {
        while (inflight_.size() < kReadDepth) send_one();
        receive_one(log, ops, latencies, true);
      } catch (const serve::ServeError& e) {
        fail_window(ops, e.what());
      }
    }
    try {
      while (!inflight_.empty()) receive_one(log, ops, latencies, false);
    } catch (const serve::ServeError& e) {
      fail_window(ops, e.what());
    }
  }

  std::uint64_t reconnects() const { return reconnects_; }
  double rows() const { return rows_; }

 private:
  struct InFlight {
    std::size_t batch;
    std::uint64_t request;
    Clock::time_point t_start, t_encoded, t_sent;
  };

  void connect() { fd_ = serve::connect_endpoint(endpoint_, kTimeoutMs); }

  void send_one() {
    InFlight f;
    f.request = next_request_++;
    f.batch = f.request % inputs_.batches.size();
    f.t_start = Clock::now();
    frame_ = serve::encode_evaluate_request(name_, 0, inputs_.batches[f.batch],
                                            std::move(frame_));
    f.t_encoded = Clock::now();
    serve::write_frame(fd_.get(), frame_, kTimeoutMs);
    f.t_sent = Clock::now();
    inflight_.push_back(f);
  }

  void receive_one(SpanLog& log, OpCounts& ops, Timeline& latencies,
                   bool record) {
    if (!serve::read_frame_into(fd_.get(), kTimeoutMs,
                                serve::kDefaultMaxFrameBytes, reply_))
      throw serve::ServeError(serve::Status::kInternal, "reader",
                              "router closed the connection");
    const auto t_read = Clock::now();
    const InFlight f = inflight_.front();
    inflight_.pop_front();
    serve::EvaluateResponse resp;
    try {
      const auto [body, size] = serve::expect_ok(reply_);
      resp = serve::decode_evaluate_response(body, size);
    } catch (const serve::ServeError& e) {
      ops.fail("evaluate", e.what());  // an error reply keeps the stream aligned
      return;
    }
    const auto t_decoded = Clock::now();
    if (record)
      latencies.add(s_between(start_, t_decoded),
                    us_between(f.t_start, t_decoded));
    const std::size_t variant = (resp.version - 1) % kVariants;
    const bool good = resp.version >= 1 &&
                      same_bits(resp.values, inputs_.expected[variant][f.batch]);
    const auto t_checked = Clock::now();
    if (good) {
      ops.ok("evaluate");
      rows_ += static_cast<double>(kSmallRows);
    } else {
      ops.fail("evaluate", "reply differs from the local evaluation of "
                           "version " + std::to_string(resp.version));
    }
    if (log.enabled()) {
      const std::uint32_t root = log.record("request", f.request, SpanLog::kNone,
                                            f.t_start, t_checked);
      log.record("encode", f.request, root, f.t_start, f.t_encoded);
      log.record("send", f.request, root, f.t_encoded, f.t_sent);
      log.record("wait+read", f.request, root, f.t_sent, t_read);
      log.record("decode", f.request, root, t_read, t_decoded);
      log.record("check", f.request, root, t_decoded, t_checked);
    }
  }

  /// A transport failure loses every request in flight: count them, then
  /// reconnect for the next window.
  void fail_window(OpCounts& ops, const std::string& why) {
    for (std::size_t i = 0; i < std::max<std::size_t>(inflight_.size(), 1); ++i)
      ops.fail("evaluate", why);
    inflight_.clear();
    fd_.reset();
    try {
      ++reconnects_;
      connect();
    } catch (const serve::ServeError&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  serve::Endpoint endpoint_;
  std::string name_;
  const ReadInputs& inputs_;
  serve::UniqueFd fd_;
  std::vector<std::uint8_t> frame_;
  std::vector<std::uint8_t> reply_;
  std::deque<InFlight> inflight_;
  std::uint64_t next_request_ = 0;
  std::uint64_t reconnects_ = 0;
  double rows_ = 0.0;
  Clock::time_point start_;  // of the current timed window
};

/// Open-loop publisher: publish i is due at start + i / rate; its latency
/// runs from when it was due, so a stall is charged to every publish it
/// delays, and the lag (actual send - due) is reported on its own.
class Publisher {
 public:
  Publisher(const std::string& endpoint, const std::vector<std::string>& names,
            std::uint64_t seed)
      : client_(endpoint, kTimeoutMs, serve::kDefaultMaxFrameBytes,
                no_retries()),
        names_(names),
        next_version_(names.size(), 1) {
    for (std::size_t v = 0; v < kVariants; ++v)
      blobs_.push_back(serve::serialize_model(make_serve_model(seed, v)));
  }

  /// Publish one version of every name, synchronously (set-up).
  void publish_each(OpCounts& ops) {
    for (std::size_t n = 0; n < names_.size(); ++n)
      publish(n, ops, off_, SpanLog::kNone);
  }

  void run(Clock::time_point start, double seconds, OpCounts& ops,
           SpanLog& log, Histogram& latencies, std::vector<double>& lags) {
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / kPublishesPerSecond));
    const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
    for (std::uint64_t i = 0;; ++i) {
      const auto due = start + period * static_cast<std::int64_t>(i);
      if (due >= end) break;
      std::this_thread::sleep_until(due);
      const auto sent = Clock::now();
      lags.push_back(us_between(due, sent) / 1e3);
      const std::uint32_t root = log.begin("publish", request_);
      const bool ok = publish(i % names_.size(), ops, log, root);
      log.end(root);
      if (ok) latencies.add(us_between(due, Clock::now()));
    }
  }

  const serve::RetryStats& retry_stats() const { return client_.retry_stats(); }

 private:
  bool publish(std::size_t n, OpCounts& ops, SpanLog& log,
               std::uint32_t parent) {
    const std::uint64_t expected = next_version_[n];
    const auto& blob = blobs_[(expected - 1) % kVariants];
    try {
      std::uint64_t got = 0;
      {
        ScopedSpan s(log, "client.publish_blob", request_++, parent);
        got = client_.publish_blob(names_[n], blob);
      }
      if (got != expected) {
        ops.fail("publish", "assigned version " + std::to_string(got) +
                                ", expected " + std::to_string(expected));
        next_version_[n] = got + 1;
        return false;
      }
      ++next_version_[n];
      ops.ok("publish");
      return true;
    } catch (const serve::ServeError& e) {
      ops.fail("publish", e.what());
      return false;
    }
  }

  serve::Client client_;
  std::vector<std::string> names_;
  std::vector<std::uint64_t> next_version_;
  std::vector<std::vector<std::uint8_t>> blobs_;
  std::uint64_t request_ = 0;
  SpanLog off_{false, 0};
};

struct RoutedSetup {
  RoutedSetup(const RunConfig& config, int rep, const ReadInputs& inputs)
      : cluster(config, rep), publisher(cluster.endpoint, cluster.names, config.seed) {
    OpCounts ops;
    publisher.publish_each(ops);  // version 1 of every name
    publisher.publish_each(ops);  // warm the durable publish path
    if (ops.failed() != 0)
      throw std::runtime_error("serve_routed: set-up publish failed: " +
                               ops.reasons().front());
    for (std::size_t r = 0; r < kReaders; ++r) {
      readers.push_back(std::make_unique<Reader>(
          cluster.endpoint, cluster.names[r % cluster.names.size()], inputs));
      readers.back()->warm_up(kReaderWarmup);
    }
  }

  Cluster cluster;
  Publisher publisher;
  std::vector<std::unique_ptr<Reader>> readers;
};

}  // namespace

WorkloadResult run_serve_routed(const RunConfig& config) {
  WorkloadResult res;
  ReadInputs inputs;
  std::unique_ptr<RoutedSetup> setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup.reset();
    const auto t0 = Clock::now();
    inputs = ReadInputs{};
    const serve::BatchEvaluator evaluator;
    for (std::size_t b = 0; b < kSmallBatches; ++b)
      inputs.batches.push_back(make_batch(config.seed, kSmallRows, b));
    for (std::size_t v = 0; v < kVariants; ++v) {
      const serve::FittedModel model = make_serve_model(config.seed, v);
      inputs.expected.emplace_back();
      for (const auto& batch : inputs.batches)
        inputs.expected.back().push_back(evaluator.evaluate(model.model, batch));
    }
    setup = std::make_unique<RoutedSetup>(config, rep, inputs);
    res.setup_s.push_back(s_between(t0, Clock::now()));
  }

  Histogram publish_us;
  std::vector<double> lags_ms;
  const auto timed_window = [&](double seconds, bool traced,
                                Timeline& latencies) {
    std::vector<SpanLog> logs;
    for (std::uint32_t t = 0; t <= kReaders; ++t)
      logs.emplace_back(traced, t, traced ? 1 << 18 : 0);
    std::vector<OpCounts> ops(kReaders + 1);
    std::vector<Timeline> reader_lat(kReaders, Timeline(kStatWindowSeconds));
    std::atomic<bool> stop{false};
    std::barrier gate(static_cast<std::ptrdiff_t>(kReaders) + 2);
    Clock::time_point start;
    std::vector<std::thread> threads;
    for (std::size_t r = 0; r < kReaders; ++r)
      threads.emplace_back([&, r] {
        gate.arrive_and_wait();
        setup->readers[r]->run(start, stop, logs[r], ops[r], reader_lat[r]);
      });
    threads.emplace_back([&] {
      gate.arrive_and_wait();
      setup->publisher.run(start, seconds, ops[kReaders], logs[kReaders],
                           publish_us, lags_ms);
    });
    start = Clock::now();
    gate.arrive_and_wait();
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds)));
    stop.store(true);
    const double elapsed = s_between(start, Clock::now());
    for (auto& t : threads) t.join();
    for (const Timeline& t : reader_lat) latencies.merge(t);
    latencies.close(elapsed);
    for (const OpCounts& o : ops) res.ops.merge(o);
    if (traced)
      for (SpanLog& log : logs) res.span_logs.push_back(std::move(log));
    return elapsed;
  };

  res.rows_per_op = static_cast<double>(kSmallRows);
  if (config.trace) {
    res.window_s += timed_window(config.seconds / 2, false, res.untraced_latency);
    res.window_s += timed_window(config.seconds / 2, true, res.latency);
  } else {
    res.window_s = timed_window(config.seconds, false, res.latency);
  }
  for (const auto& reader : setup->readers) res.rows += reader->rows();

  // Counters at the end of the run.
  const router::Router& rt = **setup->cluster.router;
  std::uint64_t served = 0, evals = 0, shed = 0, appends = 0, syncs = 0;
  std::string per_shard = "[";
  for (std::size_t i = 0; i < kShards; ++i) {
    serve::Server& s = setup->cluster.shard(i);
    const serve::StoreInfoResponse info = s.store_info();
    served += s.requests_served();
    evals += s.evals_served();
    shed += s.connections_shed();
    appends += info.appends;
    syncs += info.syncs;
    per_shard += std::string(i ? ", " : "") + "{\"requests_served\": " +
                 std::to_string(s.requests_served()) + ", \"evals_served\": " +
                 std::to_string(s.evals_served()) + ", \"connections_shed\": " +
                 std::to_string(s.connections_shed()) + ", \"store_appends\": " +
                 std::to_string(info.appends) + ", \"store_syncs\": " +
                 std::to_string(info.syncs) + "}";
  }
  res.extra["shards"] = per_shard + "]";
  std::uint64_t reconnects = setup->publisher.retry_stats().reconnects;
  for (const auto& reader : setup->readers) reconnects += reader->reconnects();
  res.layers = {
      {"router.requests_routed", double(rt.requests_routed()), "count", ""},
      {"router.failovers", double(rt.failovers()), "count", ""},
      {"router.upstream_unavailable", double(rt.upstream_unavailable()),
       "count", ""},
      {"router.probes_sent", double(rt.probes_sent()), "count", ""},
      {"router.connections_shed", double(rt.connections_shed()), "count", ""},
      {"server.requests_served", double(served), "count", ""},
      {"server.evals_served", double(evals), "count", ""},
      {"server.connections_shed", double(shed), "count", ""},
      {"client.retries", double(setup->publisher.retry_stats().retries),
       "count", ""},
      {"client.reconnects", double(reconnects), "count", ""},
      {"publisher.lag_p50_ms", median(lags_ms), "ms", ""},
      {"publisher.lag_max_ms",
       lags_ms.empty() ? 0.0 : *std::max_element(lags_ms.begin(), lags_ms.end()),
       "ms", ""},
  };
  res.extra["store_appends"] = std::to_string(appends);
  res.extra["store_syncs"] = std::to_string(syncs);

  res.named = {
      {"publish_p50_us", publish_us.percentile(0.50), "us", ""},
      {"publish_p99_us", publish_us.percentile(0.99), "us", ""},
  };
  res.extra["publish_samples"] = std::to_string(publish_us.count());
  res.extra["publish_beyond_p99"] = std::to_string(publish_us.count() / 100);
  res.extra["publish_rate_per_s"] = json_num(kPublishesPerSecond);
  return res;
}

}  // namespace perfbench
