// Chaos suite: a live daemon (in-process, real UNIX socket) driven under
// seeded fault plans. The contract for every scenario:
//
//   * no hangs  — a watchdog aborts the process past a hard deadline;
//   * no crashes — faults surface as structured ServeErrors or succeed;
//   * bounded retries — the client's RetryPolicy caps the recovery work;
//   * byte-identical results once faults clear — degradation is
//     transient, not corrupting.
//
// Plans are deterministic in (spec, seed); BMF_CHAOS_SEED varies the seed
// so CI can run a small matrix (see ci.sh) without test-code changes.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bmf/map_solver.hpp"
#include "bmf/prior.hpp"
#include "fault/fault.hpp"
#include "serve/client.hpp"
#include "serve/model_codec.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "stats/rng.hpp"

namespace bmf::serve {
namespace {

#ifdef BMF_FAULT_INJECTION

/// Seed offset from the environment (default 1) so ci.sh can sweep a
/// matrix of fault schedules over the same scenarios.
std::uint64_t chaos_seed() {
  const char* raw = std::getenv("BMF_CHAOS_SEED");
  if (raw == nullptr || *raw == '\0') return 1;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(raw, &end, 10);
  return (end == raw || *end != '\0') ? 1 : static_cast<std::uint64_t>(v);
}

/// BMF_CHAOS_TRANSPORT=tcp runs every scenario over TCP loopback instead
/// of a UNIX socket: same protocol, same fault sites, second transport.
/// ci.sh probes whether the sandbox allows loopback listeners before
/// setting it.
bool chaos_tcp() {
  const char* raw = std::getenv("BMF_CHAOS_TRANSPORT");
  return raw != nullptr && std::string(raw) == "tcp";
}

/// Transport-agnostic raw connection (for hog/queued fds the scenarios
/// hold open without speaking the protocol).
UniqueFd raw_connect(const std::string& spec, int timeout_ms) {
  return connect_endpoint(parse_endpoint(spec), timeout_ms);
}

fault::FaultPlan seeded(const std::string& spec) {
  fault::FaultPlan plan = fault::parse_plan(spec);
  plan.seed = chaos_seed();
  return plan;
}

/// Aborts the process if a scenario wedges — a hang is the one failure
/// mode that must never be reported as "still running".
class Watchdog {
 public:
  explicit Watchdog(int seconds) : thread_([this, seconds] {
    std::unique_lock<std::mutex> lk(mu_);
    if (!cv_.wait_for(lk, std::chrono::seconds(seconds),
                      [this] { return done_; })) {
      std::fprintf(stderr, "Watchdog: chaos test exceeded %d s — aborting\n",
                   seconds);
      std::abort();
    }
  }) {}

  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      done_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

struct DisarmGuard {
  ~DisarmGuard() { fault::disarm(); }
};

FittedModel make_model(std::size_t dim, std::uint64_t seed) {
  auto b = basis::BasisSet::linear(dim);
  stats::Rng rng(seed);
  linalg::Vector coeffs(b.size());
  for (double& c : coeffs) c = rng.normal();
  FittedModel fitted;
  fitted.model = basis::PerformanceModel(b, coeffs);
  fitted.provenance = PriorProvenance::kZeroMean;
  fitted.tau = 0.5;
  fitted.num_samples = 40;
  return fitted;
}

linalg::Matrix make_points(std::size_t rows, std::size_t cols,
                           std::uint64_t seed) {
  stats::Rng rng(seed);
  linalg::Matrix p(rows, cols);
  for (std::size_t i = 0; i < p.size(); ++i) p.data()[i] = rng.normal();
  return p;
}

/// Server on a background thread; joins on destruction (after stop).
class ServerFixture {
 public:
  explicit ServerFixture(const char* tag, ServerOptions options = {}) {
    if (chaos_tcp()) {
      options.tcp_address = "127.0.0.1:0";  // ephemeral port per fixture
      server_ = std::make_unique<Server>(std::move(options));
      path_ = to_string(server_->tcp_endpoint());
    } else {
      unix_path_ = ::testing::TempDir() + "/bmf_chaos_" + tag + "_" +
                   std::to_string(::getpid()) + ".sock";
      options.socket_path = unix_path_;
      path_ = unix_path_;
      server_ = std::make_unique<Server>(std::move(options));
    }
    thread_ = std::thread([this] { server_->run(); });
  }

  ~ServerFixture() {
    fault::disarm();  // never drain through an armed plan
    server_->request_stop();
    thread_.join();
    if (!unix_path_.empty()) std::remove(unix_path_.c_str());
  }

  /// Endpoint spec for Client / raw_connect: the UNIX socket path, or
  /// "tcp:127.0.0.1:PORT" under BMF_CHAOS_TRANSPORT=tcp.
  const std::string& path() const { return path_; }
  Server& server() { return *server_; }

 private:
  std::string path_;
  std::string unix_path_;  // empty over TCP (nothing to unlink)
  std::unique_ptr<Server> server_;
  std::thread thread_;
};

/// Fast-retry policy so scenarios that exhaust attempts fail in
/// milliseconds, not the 10 s default budget.
RetryPolicy quick_policy(int attempts = 6) {
  RetryPolicy policy;
  policy.max_attempts = attempts;
  policy.base_backoff_ms = 1;
  policy.max_backoff_ms = 20;
  policy.budget_ms = 30000;
  policy.seed = chaos_seed();
  return policy;
}

TEST(ServeChaos, ShortReadStormIsByteIdentical) {
  Watchdog dog(120);
  ServerFixture fixture("short_read");
  DisarmGuard guard;
  Client client(fixture.path(), 5000, kDefaultMaxFrameBytes, quick_policy());
  client.publish("m", make_model(4, 1));
  const auto points = make_points(64, 4, 2);
  const auto baseline = client.evaluate("m", points);

  fault::arm(seeded("read:short*0"));  // every read on both sides: 1 byte
  const auto under_faults = client.evaluate("m", points);
  const auto fstats = fault::stats();  // before disarm: disarm zeroes it
  fault::disarm();
  const auto after = client.evaluate("m", points);

  EXPECT_EQ(under_faults.values, baseline.values);
  EXPECT_EQ(after.values, baseline.values);
  EXPECT_GT(fstats.site[0].triggered, 0u);
}

TEST(ServeChaos, ShortSendStormIsByteIdentical) {
  Watchdog dog(120);
  ServerFixture fixture("short_send");
  DisarmGuard guard;
  Client client(fixture.path(), 5000, kDefaultMaxFrameBytes, quick_policy());
  client.publish("m", make_model(4, 3));
  const auto points = make_points(48, 4, 4);
  const auto baseline = client.evaluate("m", points);

  fault::arm(seeded("send:short*0"));
  EXPECT_EQ(client.evaluate("m", points).values, baseline.values);
  fault::disarm();
  EXPECT_EQ(client.evaluate("m", points).values, baseline.values);
}

TEST(ServeChaos, EintrStormEverywhereIsAbsorbed) {
  Watchdog dog(120);
  ServerFixture fixture("eintr");
  DisarmGuard guard;
  Client client(fixture.path(), 5000, kDefaultMaxFrameBytes, quick_policy());
  client.publish("m", make_model(3, 5));
  const auto points = make_points(32, 3, 6);
  const auto baseline = client.evaluate("m", points);

  fault::arm(
      seeded("read:eintr*0@0.5;send:eintr*0@0.5;poll:eintr*0@0.5"));
  EXPECT_EQ(client.evaluate("m", points).values, baseline.values);
  EXPECT_EQ(client.evaluate("m", points).values, baseline.values);
  const auto fstats = fault::stats();  // before disarm: disarm zeroes it
  fault::disarm();
  EXPECT_EQ(client.evaluate("m", points).values, baseline.values);
  EXPECT_GT(fstats.total_triggered(), 0u);
}

TEST(ServeChaos, SpuriousPollTimeoutsAreRetriedWithinBounds) {
  Watchdog dog(120);
  ServerFixture fixture("poll_short");
  DisarmGuard guard;
  Client client(fixture.path(), 2000, kDefaultMaxFrameBytes, quick_policy());
  client.publish("m", make_model(3, 7));
  const auto points = make_points(16, 3, 8);
  const auto baseline = client.evaluate("m", points);

  // A handful of polls report "nothing ready". Wherever they land (accept
  // loop, worker idle wait, client reply wait) the outcome must be a
  // successful, identical answer — at worst after bounded retries.
  fault::arm(seeded("poll:short*4"));
  const auto under_faults = client.evaluate("m", points);
  fault::disarm();
  EXPECT_EQ(under_faults.values, baseline.values);
  EXPECT_LE(client.retry_stats().retries,
            static_cast<std::uint64_t>(quick_policy().max_attempts));
}

TEST(ServeChaos, DelayPastClientDeadlineRecoversByRetry) {
  Watchdog dog(120);
  ServerFixture fixture("delay");
  DisarmGuard guard;
  // Client deadline 300 ms; the server's next read stalls 600 ms, so the
  // first attempt must time out and the retry must succeed.
  Client client(fixture.path(), 300, kDefaultMaxFrameBytes, quick_policy());
  client.publish("m", make_model(3, 9));
  const auto points = make_points(8, 3, 10);
  const auto baseline = client.evaluate("m", points);

  fault::arm(seeded("read:delay=600*1"));
  const auto under_faults = client.evaluate("m", points);
  fault::disarm();
  EXPECT_EQ(under_faults.values, baseline.values);
  EXPECT_GE(client.retry_stats().retries, 1u);
  EXPECT_GE(client.retry_stats().reconnects, 1u);
}

TEST(ServeChaos, MidFrameConnectionDropReconnects) {
  Watchdog dog(120);
  ServerFixture fixture("drop_send");
  DisarmGuard guard;
  Client client(fixture.path(), 2000, kDefaultMaxFrameBytes, quick_policy());
  client.publish("m", make_model(4, 11));
  const auto points = make_points(24, 4, 12);
  const auto baseline = client.evaluate("m", points);

  // The next send tears the connection down mid-frame.
  fault::arm(seeded("send:drop*1"));
  const auto under_faults = client.evaluate("m", points);
  fault::disarm();
  EXPECT_EQ(under_faults.values, baseline.values);
  EXPECT_GE(client.retry_stats().reconnects, 1u);
}

TEST(ServeChaos, AcceptDropIsRetriedTransparently) {
  Watchdog dog(120);
  ServerFixture fixture("drop_accept");
  DisarmGuard guard;
  {
    Client warmup(fixture.path(), 2000, kDefaultMaxFrameBytes,
                  quick_policy());
    warmup.publish("m", make_model(3, 13));
  }
  // The next accepted connection is dropped immediately by the listener.
  fault::arm(seeded("accept:drop*1"));
  Client client(fixture.path(), 2000, kDefaultMaxFrameBytes, quick_policy());
  const auto result = client.evaluate("m", make_points(4, 3, 14));
  fault::disarm();
  EXPECT_EQ(result.values.size(), 4u);
}

TEST(ServeChaos, ConnectRefusalBacksOffAndConnects) {
  Watchdog dog(120);
  ServerFixture fixture("refuse");
  DisarmGuard guard;
  fault::arm(seeded("connect:drop*2"));  // first two connects refused
  Client client(fixture.path(), 3000, kDefaultMaxFrameBytes, quick_policy());
  client.ping();
  const auto fstats = fault::stats();  // before disarm: disarm zeroes it
  fault::disarm();
  EXPECT_GE(fstats.site[3].triggered, 2u);
}

TEST(ServeChaos, ConnectStormBeforeServerStartsAllSucceed) {
  Watchdog dog(120);
  // Clients race a daemon that does not exist yet: the connect backoff
  // (capped exponential) must carry all of them into the live server once
  // it binds. Over TCP the endpoint is reserved up front by binding an
  // ephemeral port and releasing it for the late server to claim.
  const std::string unix_path = ::testing::TempDir() + "/bmf_chaos_storm_" +
                                std::to_string(::getpid()) + ".sock";
  std::string spec = unix_path;
  ServerOptions options;
  if (chaos_tcp()) {
    const TcpListener probe = listen_tcp("127.0.0.1", 0);
    options.tcp_address = "127.0.0.1:" + std::to_string(probe.port);
    spec = "tcp:" + options.tcp_address;
  } else {
    options.socket_path = unix_path;
  }
  std::atomic<int> connected{0};
  std::vector<std::thread> stampede;
  stampede.reserve(6);
  for (int i = 0; i < 6; ++i)
    stampede.emplace_back([&spec, &connected] {
      UniqueFd fd = raw_connect(spec, 5000);
      if (fd.valid()) connected.fetch_add(1);
    });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  {
    Server late(std::move(options));
    std::thread run([&late] { late.run(); });
    for (std::thread& t : stampede) t.join();
    late.request_stop();
    run.join();
  }
  if (!chaos_tcp()) std::remove(unix_path.c_str());
  EXPECT_EQ(connected.load(), 6);
}

TEST(ServeChaos, CorruptRequestByteFailsStructurallyAndRecovers) {
  Watchdog dog(120);
  ServerOptions options;
  options.request_timeout_ms = 500;  // corrupt lengths must not stall long
  ServerFixture fixture("corrupt_req", options);
  DisarmGuard guard;
  Client client(fixture.path(), 1000, kDefaultMaxFrameBytes, quick_policy());
  client.publish("m", make_model(4, 15));
  const auto points = make_points(16, 4, 16);
  const auto baseline = client.evaluate("m", points);

  // One bit of the next sent frame (the client's request) flips in
  // transit. Depending on the bit this is a bogus length prefix or a
  // garbled body; every outcome must be a structured ServeError or a
  // transparent retry — and the connection must recover afterwards.
  fault::arm(seeded("send:corrupt*1"));
  try {
    const auto r = client.evaluate("m", points);
    EXPECT_EQ(r.values, baseline.values);  // retry path: must be identical
  } catch (const ServeError& e) {
    EXPECT_NE(e.status(), Status::kOk);  // structured failure path
  }
  fault::disarm();
  EXPECT_EQ(client.evaluate("m", points).values, baseline.values);
}

TEST(ServeChaos, CorruptReplyByteFailsStructurallyAndRecovers) {
  Watchdog dog(120);
  ServerOptions options;
  options.request_timeout_ms = 500;
  ServerFixture fixture("corrupt_rep", options);
  DisarmGuard guard;
  Client client(fixture.path(), 1000, kDefaultMaxFrameBytes, quick_policy());
  client.publish("m", make_model(4, 17));
  const auto points = make_points(16, 4, 18);
  const auto baseline = client.evaluate("m", points);

  // Reads post-arm: the server consumes the request (prefix, payload),
  // then the client reads the reply — skip 2 targets the reply path.
  fault::arm(seeded("read:corrupt+2*1"));
  try {
    client.evaluate("m", points);
    // A flipped value byte can decode silently — the transport does not
    // checksum payloads (the model codec does, for model blobs). The
    // contract here is no hang and full recovery below.
  } catch (const ServeError& e) {
    EXPECT_NE(e.status(), Status::kOk);
  }
  fault::disarm();
  EXPECT_EQ(client.evaluate("m", points).values, baseline.values);
}

TEST(ServeChaos, OverloadShedsWithStructuredReply) {
  Watchdog dog(120);
  ServerOptions options;
  options.worker_threads = 1;
  options.max_pending = 0;  // strict admission: busy worker => shed
  options.request_timeout_ms = 8000;
  ServerFixture fixture("overload", options);
  DisarmGuard guard;

  // Park an idle connection on the only active-connection slot.
  UniqueFd hog = raw_connect(fixture.path(), 2000);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  Client client(fixture.path(), 2000, kDefaultMaxFrameBytes,
                quick_policy(/*attempts=*/3));
  try {
    client.ping();
    FAIL() << "expected kOverloaded";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.status(), Status::kOverloaded);
    EXPECT_EQ(e.context(), "admission");
  }
  EXPECT_GE(fixture.server().connections_shed(), 1u);
  // Bounded retries: every attempt was shed, none queued forever.
  EXPECT_EQ(client.retry_stats().attempts, 3u);
}

TEST(ServeChaos, QueuedConnectionIsShedWithShuttingDownOnDrain) {
  Watchdog dog(120);
  ServerOptions options;
  options.worker_threads = 1;
  options.max_pending = 2;
  options.request_timeout_ms = 8000;
  ServerFixture fixture("drain_shed", options);
  DisarmGuard guard;

  UniqueFd hog = raw_connect(fixture.path(), 2000);  // owns the active slot
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  UniqueFd queued = raw_connect(fixture.path(), 2000);  // waits parked
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  fixture.server().request_stop();
  // The drain must reject the queued-but-unserved connection structurally.
  const auto reply = read_frame(queued.get(), 5000);
  ASSERT_TRUE(reply.has_value());
  try {
    expect_ok(*reply);
    FAIL() << "expected kShuttingDown";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.status(), Status::kShuttingDown);
  }
}

TEST(ServeChaos, InFlightRequestCompletesDuringStop) {
  Watchdog dog(120);
  ServerFixture fixture("inflight");
  DisarmGuard guard;
  Client client(fixture.path(), 5000, kDefaultMaxFrameBytes, quick_policy());
  client.publish("m", make_model(4, 19));
  const auto points = make_points(16, 4, 20);
  const auto baseline = client.evaluate("m", points);

  // Sends post-arm: client request prefix (1) and payload (2); skip 2 so
  // the server's reply send — i.e. the in-flight request's completion —
  // stalls 400 ms, long enough to land request_stop() mid-request.
  fault::arm(seeded("send:delay=400+2*1"));
  Client::Evaluation under_stop;
  std::thread in_flight(
      [&] { under_stop = client.evaluate("m", points); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  fixture.server().request_stop();
  in_flight.join();
  fault::disarm();

  // Drain guarantee: the request that was already executing finished and
  // its reply arrived intact.
  EXPECT_EQ(under_stop.values, baseline.values);
}

TEST(ServeChaos, SolveDegradesInsteadOfThrowing) {
  Watchdog dog(120);
  ServerFixture fixture("degraded");
  DisarmGuard guard;
  Client client(fixture.path(), 5000, kDefaultMaxFrameBytes, quick_policy());

  // Exactly singular normal matrix: duplicate basis columns make
  // G^T G = [[1,1],[1,1]], and tau*q = 1e-60 vanishes against it in
  // double precision. A plain Cholesky MAP solve would throw; the serve
  // path must degrade and say so.
  linalg::Matrix g(2, 2, 0.0);
  g(0, 0) = 1.0;
  g(0, 1) = 1.0;
  const linalg::Vector f = {1.0, 0.0};
  const linalg::Vector q = {1e-30, 1e-30};
  const linalg::Vector mu = {0.0, 0.0};
  const auto degraded = client.solve(g, f, q, mu, 1e-30);
  EXPECT_TRUE(degraded.report.degraded());
  EXPECT_EQ(degraded.report.path, linalg::RobustSpdReport::Path::kJittered);
  EXPECT_GE(degraded.report.attempts, 1u);
  EXPECT_GT(degraded.report.jitter, 0.0);
  for (double c : degraded.coefficients) EXPECT_TRUE(std::isfinite(c));

  // A well-posed system solves cleanly and matches the local solver.
  const auto g2 = make_points(12, 3, 21);
  const auto f2 = make_points(12, 1, 22).col(0);
  const linalg::Vector q2 = {1.0, 2.0, 0.5};
  const linalg::Vector mu2 = {0.1, -0.2, 0.3};
  const auto clean = client.solve(g2, f2, q2, mu2, 0.7);
  EXPECT_FALSE(clean.report.degraded());
  const auto local = core::map_solve_direct(
      g2, f2, core::CoefficientPrior::from_moments(mu2, q2), 0.7);
  EXPECT_EQ(clean.coefficients, local);  // bit-identical, not approximate

  // Invalid input is a structured kBadRequest, not a degraded answer.
  try {
    client.solve(g2, f2, q2, mu2, -1.0);
    FAIL() << "expected kBadRequest";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.status(), Status::kBadRequest);
    EXPECT_EQ(e.context(), "solve");
  }
}

TEST(ServeChaos, ConcurrentClientsAreServedInParallelBitIdentically) {
  Watchdog dog(120);
  ServerOptions options;
  options.worker_threads = 4;
  ServerFixture fixture("parallel", options);
  DisarmGuard guard;
  {
    Client publisher(fixture.path(), 5000, kDefaultMaxFrameBytes,
                     quick_policy());
    publisher.publish("m", make_model(5, 23));
  }
  const auto points = make_points(40, 5, 24);
  linalg::Vector reference;
  {
    Client probe(fixture.path(), 5000, kDefaultMaxFrameBytes, quick_policy());
    reference = probe.evaluate("m", points).values;
  }
  std::vector<std::thread> threads;
  std::vector<int> mismatches(4, 0);
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&, t] {
      Client c(fixture.path(), 5000, kDefaultMaxFrameBytes, quick_policy());
      for (int i = 0; i < 8; ++i)
        if (c.evaluate("m", points).values != reference) ++mismatches[t];
    });
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < 4; ++t) EXPECT_EQ(mismatches[t], 0);
}

TEST(ServeChaos, RepeatedFaultCyclesStayByteIdentical) {
  Watchdog dog(240);
  ServerFixture fixture("cycles");
  DisarmGuard guard;
  Client client(fixture.path(), 2000, kDefaultMaxFrameBytes, quick_policy());
  client.publish("m", make_model(4, 25));
  const auto points = make_points(32, 4, 26);
  const auto baseline = client.evaluate("m", points);

  const std::string plans[] = {
      "read:short*0;send:short*0",
      "read:eintr*0@0.4;poll:eintr*0@0.4",
      "send:drop*1",
      "read:corrupt@0.2*2",
  };
  for (std::uint64_t round = 0; round < 2; ++round) {
    for (const std::string& spec : plans) {
      fault::FaultPlan plan = fault::parse_plan(spec);
      plan.seed = chaos_seed() + round * 100;
      fault::arm(plan);
      try {
        client.evaluate("m", points);
      } catch (const ServeError&) {
        // Structured failure is acceptable under corruption/drops.
      }
      fault::disarm();
      // The invariant: once the faults clear, the exact baseline bytes.
      EXPECT_EQ(client.evaluate("m", points).values, baseline.values);
    }
  }
  // Bounded recovery work across the whole soak: every retry was capped
  // by the policy, nothing spun.
  const RetryStats& stats = client.retry_stats();
  EXPECT_LE(stats.retries,
            stats.attempts);  // sanity: retries are a subset of attempts
  EXPECT_LT(stats.attempts, 200u);
}

#endif  // BMF_FAULT_INJECTION

}  // namespace
}  // namespace bmf::serve
