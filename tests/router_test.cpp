// The sharded-serving stack end to end: HashRing placement units, then a
// live cluster — real bmf_served Servers plus a Router, all in-process on
// background threads — driven through the ordinary Client. The contracts
// under test (DESIGN.md §12):
//
//   * placement is deterministic: owners(name, R) is a pure function of
//     (backend specs, name), identical across ring instances;
//   * publish through the router replicates to exactly the R ring owners,
//     and evict through the router converges on every owner;
//   * evaluate through the router is byte-identical to evaluating against
//     the owning backend directly (the router forwards frames verbatim);
//   * killing a backend mid-pipeline loses no acknowledged request: every
//     in-flight evaluate fails over to a replica or the client retries,
//     and every batch comes back correct;
//   * when every owner of a name is down the client sees a structured
//     kUpstreamUnavailable verdict, not a hang or a torn connection.
//
// The RouterChaos suite varies kill timing by BMF_CHAOS_SEED and runs
// over TCP loopback when BMF_CHAOS_TRANSPORT=tcp (same matrix knobs as
// serve_chaos_test; ci.sh sweeps them).
#include "router/router.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "router/hash_ring.hpp"
#include "serve/batch_evaluator.hpp"
#include "serve/client.hpp"
#include "serve/model_codec.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "stats/rng.hpp"

namespace bmf::router {
namespace {

using serve::Client;
using serve::FittedModel;
using serve::ServeError;
using serve::Status;

std::uint64_t chaos_seed() {
  const char* raw = std::getenv("BMF_CHAOS_SEED");
  if (raw == nullptr || *raw == '\0') return 1;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(raw, &end, 10);
  return (end == raw || *end != '\0') ? 1 : static_cast<std::uint64_t>(v);
}

bool chaos_tcp() {
  const char* raw = std::getenv("BMF_CHAOS_TRANSPORT");
  return raw != nullptr && std::string(raw) == "tcp";
}

FittedModel make_model(std::size_t dim, std::uint64_t seed) {
  auto b = basis::BasisSet::linear(dim);
  stats::Rng rng(seed);
  linalg::Vector coeffs(b.size());
  for (double& c : coeffs) c = rng.normal();
  FittedModel fitted;
  fitted.model = basis::PerformanceModel(b, coeffs);
  fitted.provenance = serve::PriorProvenance::kZeroMean;
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

// ---- HashRing --------------------------------------------------------------

const std::vector<std::string> kSpecs = {"tcp:10.0.0.1:7000",
                                         "tcp:10.0.0.2:7000",
                                         "tcp:10.0.0.3:7000"};

TEST(HashRing, OwnersAreDistinctStableAndPrimaryFirst) {
  const HashRing ring(kSpecs);
  const HashRing twin(kSpecs);
  EXPECT_EQ(ring.num_backends(), 3u);
  for (int i = 0; i < 50; ++i) {
    const std::string name = "model_" + std::to_string(i);
    const auto owners = ring.owners(name, 2);
    ASSERT_EQ(owners.size(), 2u);
    EXPECT_NE(owners[0], owners[1]);
    EXPECT_LT(owners[0], 3u);
    EXPECT_LT(owners[1], 3u);
    // Placement is a pure function of (specs, name).
    EXPECT_EQ(owners, ring.owners(name, 2));
    EXPECT_EQ(owners, twin.owners(name, 2));
    EXPECT_EQ(ring.primary(name), owners[0]);
  }
}

TEST(HashRing, ReplicasClampToBackendCount) {
  const HashRing ring(kSpecs);
  const auto owners = ring.owners("anything", 10);
  ASSERT_EQ(owners.size(), 3u);
  EXPECT_EQ(std::set<std::size_t>(owners.begin(), owners.end()).size(), 3u);
  // Zero replicas is nonsense; it clamps up to one owner, not none.
  EXPECT_EQ(ring.owners("anything", 0).size(), 1u);
}

TEST(HashRing, SpreadsPrimariesAcrossBackends) {
  const HashRing ring(kSpecs);
  std::vector<std::size_t> primaries(3, 0);
  const std::size_t names = 300;
  for (std::size_t i = 0; i < names; ++i)
    ++primaries[ring.primary("perf_metric_" + std::to_string(i))];
  // 64 virtual nodes keep shares within a loose band — no shard starves
  // and none hogs the keyspace.
  for (std::size_t count : primaries) {
    EXPECT_GE(count, names / 10);
    EXPECT_LE(count, (names * 6) / 10);
  }
}

TEST(HashRing, RejectsEmptyAndDuplicateSpecs) {
  EXPECT_THROW(HashRing({}), std::invalid_argument);
  EXPECT_THROW(HashRing({"tcp:a:1", "tcp:b:1", "tcp:a:1"}),
               std::invalid_argument);
}

// ---- live cluster fixtures -------------------------------------------------

/// One bmf_served daemon on a background thread; stop() is how chaos
/// scenarios kill a shard (idempotent, also runs at destruction).
class BackendFixture {
 public:
  BackendFixture(const std::string& tag, bool tcp,
                 const std::string& store_dir = "") {
    serve::ServerOptions options;
    options.store_dir = store_dir;
    if (tcp) {
      options.tcp_address = "127.0.0.1:0";
    } else {
      path_ = ::testing::TempDir() + "/bmf_rb_" + tag + "_" +
              std::to_string(::getpid()) + ".sock";
      options.socket_path = path_;
    }
    server_ = std::make_unique<serve::Server>(std::move(options));
    spec_ = tcp ? to_string(server_->tcp_endpoint()) : "unix:" + path_;
    thread_ = std::thread([this] { server_->run(); });
  }

  ~BackendFixture() { stop(); }

  void stop() {
    if (stopped_) return;
    stopped_ = true;
    server_->request_stop();
    thread_.join();
    if (!path_.empty()) std::remove(path_.c_str());
  }

  const std::string& spec() const { return spec_; }

 private:
  std::string path_;
  std::string spec_;
  std::unique_ptr<serve::Server> server_;
  std::thread thread_;
  bool stopped_ = false;
};

/// N backends fronted by one Router, with test-friendly timing: fast
/// probes and reconnects so down/up transitions land within a few tens of
/// milliseconds instead of the production half-second.
class Cluster {
 public:
  Cluster(const std::string& tag, std::size_t backends, std::size_t replicas,
          bool tcp = false, std::vector<std::string> store_dirs = {}) {
    for (std::size_t i = 0; i < backends; ++i)
      backends_.push_back(std::make_unique<BackendFixture>(
          tag + "_" + std::to_string(i), tcp,
          i < store_dirs.size() ? store_dirs[i] : std::string()));
    RouterOptions options;
    for (const auto& b : backends_) options.backends.push_back(b->spec());
    options.replicas = replicas;
    options.probe_interval_ms = 50;
    options.reconnect_base_ms = 10;
    options.reconnect_cap_ms = 100;
    options.backend_timeout_ms = 2000;
    if (tcp) {
      options.tcp_address = "127.0.0.1:0";
    } else {
      router_path_ = ::testing::TempDir() + "/bmf_rr_" + tag + "_" +
                     std::to_string(::getpid()) + ".sock";
      options.socket_path = router_path_;
    }
    router_ = std::make_unique<Router>(std::move(options));
    endpoint_ =
        tcp ? to_string(router_->tcp_endpoint()) : "unix:" + router_path_;
    thread_ = std::thread([this] { router_->run(); });
  }

  ~Cluster() {
    router_->request_stop();
    thread_.join();
    if (!router_path_.empty()) std::remove(router_path_.c_str());
  }

  const std::string& endpoint() const { return endpoint_; }
  const Router& router() const { return *router_; }
  BackendFixture& backend(std::size_t i) { return *backends_[i]; }
  std::size_t size() const { return backends_.size(); }

  std::vector<std::size_t> owners(const std::string& name) const {
    return router_->ring().owners(name, router_->options().replicas);
  }

  /// Which backends hold `name` right now, by direct (router-bypassing)
  /// list against each live shard.
  std::set<std::size_t> holders(const std::string& name) {
    std::set<std::size_t> out;
    for (std::size_t i = 0; i < backends_.size(); ++i) {
      Client direct(backends_[i]->spec());
      for (const auto& info : direct.list())
        if (info.name == name) out.insert(i);
    }
    return out;
  }

 private:
  std::vector<std::unique_ptr<BackendFixture>> backends_;
  std::unique_ptr<Router> router_;
  std::string router_path_;
  std::string endpoint_;
  std::thread thread_;
};

// ---- routed serving --------------------------------------------------------

TEST(RouterServe, PingAndStatsThroughRouter) {
  Cluster cluster("ping", 3, 2);
  Client client(cluster.endpoint());
  client.ping();
  const auto stats = client.stats();
  EXPECT_EQ(stats.models_resident, 0u);
  // requests_served aggregates the shards' counters; the router's own
  // health probes (kStats every 50 ms here) already count.
  EXPECT_GE(stats.queue_depth, 0u);
}

TEST(RouterServe, PublishReplicatesToExactlyTheRingOwners) {
  Cluster cluster("pub", 3, 2);
  Client client(cluster.endpoint());
  const FittedModel model = make_model(3, 7);
  EXPECT_EQ(client.publish("gain", model), 1u);

  const auto owners = cluster.owners("gain");
  ASSERT_EQ(owners.size(), 2u);
  EXPECT_EQ(cluster.holders("gain"),
            std::set<std::size_t>(owners.begin(), owners.end()));

  // Replicas assign versions independently but from identical histories,
  // so a second publish reports the common bumped version.
  EXPECT_EQ(client.publish("gain", model), 2u);
}

TEST(RouterServe, EvaluateThroughRouterIsByteIdenticalToDirect) {
  Cluster cluster("ident", 3, 2);
  Client client(cluster.endpoint());
  const FittedModel model = make_model(4, 11);
  client.publish("bw", model);

  const auto points = make_points(60, 4, 13);
  const auto via_router = client.evaluate("bw", points);

  Client direct(cluster.backend(cluster.owners("bw")[0]).spec());
  const auto via_direct = direct.evaluate("bw", points);

  EXPECT_EQ(via_router.version, via_direct.version);
  EXPECT_EQ(via_router.values, via_direct.values);  // bitwise, not approx

  const serve::BatchEvaluator local;
  EXPECT_EQ(via_router.values, local.evaluate(model.model, points));
}

TEST(RouterServe, SemanticErrorsForwardVerbatim) {
  Cluster cluster("err", 3, 2);
  Client client(cluster.endpoint());
  try {
    client.evaluate("ghost", make_points(2, 3, 1));
    FAIL() << "expected ServeError";
  } catch (const ServeError& e) {
    // The owning shard's verdict crosses both hops intact.
    EXPECT_EQ(e.status(), Status::kNotFound);
    EXPECT_EQ(e.context(), "evaluate");
    EXPECT_NE(e.message().find("ghost"), std::string::npos);
  }
  client.ping();  // the connection survived the error
}

TEST(RouterServe, ListAndStatsMergeAcrossShards) {
  Cluster cluster("merge", 3, 2);
  Client client(cluster.endpoint());
  client.publish("m_alpha", make_model(2, 3));
  client.publish("m_beta", make_model(5, 4));

  const auto models = client.list();
  ASSERT_EQ(models.size(), 2u);  // union by name, not one entry per replica
  EXPECT_EQ(models[0].name, "m_alpha");
  EXPECT_EQ(models[0].dimension, 2u);
  EXPECT_EQ(models[1].name, "m_beta");
  EXPECT_EQ(models[1].dimension, 5u);

  // models_resident sums shard-local counts: 2 models x 2 replicas.
  EXPECT_EQ(client.stats().models_resident, 4u);
}

TEST(RouterServe, SolveRoutesToSomeBackend) {
  Cluster cluster("solve", 2, 1);
  Client client(cluster.endpoint());
  linalg::Matrix g(3, 2);
  g(0, 0) = 1.0;
  g(1, 1) = 1.0;
  g(2, 0) = 0.5;
  linalg::Vector f{1.0, 2.0, 0.75};
  linalg::Vector q{1.0, 1.0};
  linalg::Vector mu{0.0, 0.0};
  // Round-robin means consecutive solves exercise different shards; the
  // answer must not depend on which one ran it.
  const auto first = client.solve(g, f, q, mu, 0.25);
  const auto second = client.solve(g, f, q, mu, 0.25);
  ASSERT_EQ(first.coefficients.size(), 2u);
  EXPECT_EQ(first.coefficients, second.coefficients);
}

TEST(RouterServe, EvictThroughRouterConvergesOnAllOwners) {
  Cluster cluster("evict", 3, 2);
  Client client(cluster.endpoint());
  const FittedModel model = make_model(3, 21);
  client.publish("doomed", model);
  client.publish("doomed", model);
  client.publish("keeper", model);
  ASSERT_EQ(cluster.holders("doomed").size(), 2u);

  // version 0 = every retained version; the reply is the count one full
  // owner held, and afterwards no shard in the cluster still has it.
  EXPECT_EQ(client.evict("doomed"), 2u);
  EXPECT_TRUE(cluster.holders("doomed").empty());
  EXPECT_EQ(cluster.holders("keeper").size(), 2u);

  // Idempotent: evicting what is gone removes nothing and still succeeds.
  EXPECT_EQ(client.evict("doomed"), 0u);
}

TEST(RouterServe, EvaluateFailsOverWhenThePrimaryOwnerDies) {
  Cluster cluster("failover", 3, 2);
  Client client(cluster.endpoint());
  const FittedModel model = make_model(4, 31);
  client.publish("hot", model);
  const auto points = make_points(40, 4, 32);
  const auto baseline = client.evaluate("hot", points);

  cluster.backend(cluster.owners("hot")[0]).stop();

  // Whether the router has already noticed the EOF or discovers it on the
  // next send, the evaluate lands on the replica with identical bytes.
  const auto after = client.evaluate("hot", points);
  EXPECT_EQ(after.version, baseline.version);
  EXPECT_EQ(after.values, baseline.values);
}

TEST(RouterServe, AllOwnersDownYieldsStructuredUpstreamUnavailable) {
  Cluster cluster("alldown", 3, 2);
  Client client(cluster.endpoint());
  client.publish("orphan", make_model(2, 41));
  for (std::size_t owner : cluster.owners("orphan"))
    cluster.backend(owner).stop();
  // Give the router's epoll a beat to see both EOFs.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  try {
    client.evaluate("orphan", make_points(3, 2, 42));
    FAIL() << "expected ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.status(), Status::kUpstreamUnavailable);
  }
  // The router itself is healthy: the verdict tore nothing.
  client.ping();
  EXPECT_GE(cluster.router().upstream_unavailable(), 1u);
}

TEST(RouterServe, PublishBelowQuorumFailsFast) {
  Cluster cluster("quorum", 3, 2);
  Client client(cluster.endpoint());
  const FittedModel model = make_model(3, 51);
  client.publish("fragile", model);  // both owners up: succeeds

  // R=2 means majority quorum 2: one dead owner blocks mutations even
  // though reads still fail over to the survivor.
  cluster.backend(cluster.owners("fragile")[0]).stop();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  EXPECT_THROW(client.publish("fragile", model), ServeError);
  const auto still = client.evaluate("fragile", make_points(4, 3, 52));
  EXPECT_EQ(still.version, 1u);
}

// ---- durable shards --------------------------------------------------------

/// mkdtemp-backed store directory, removed with its contents on exit.
struct StoreDir {
  std::string path;
  StoreDir() {
    char tmpl[] = "/tmp/bmf-router-store-XXXXXX";
    char* made = ::mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    if (made != nullptr) path = made;
  }
  ~StoreDir() {
    if (path.empty()) return;
    std::remove((path + "/wal.log").c_str());
    std::remove((path + "/snapshot.bmfs").c_str());
    std::remove((path + "/snapshot.tmp").c_str());
    ::rmdir(path.c_str());
  }
};

TEST(RouterDurable, StoreInfoFansOutAndMergesAcrossShards) {
  StoreDir dirs[3];
  Cluster cluster("sinfo", 3, 2, /*tcp=*/false,
                  {dirs[0].path, dirs[1].path, dirs[2].path});
  Client client(cluster.endpoint());

  const auto empty = client.store_info();
  EXPECT_EQ(empty.enabled, 3u);  // every shard reports a durable store
  EXPECT_EQ(empty.appends, 0u);

  client.publish("m_one", make_model(3, 81));
  client.publish("m_two", make_model(2, 82));

  const auto info = client.store_info();
  EXPECT_EQ(info.enabled, 3u);
  // Each publish appended on exactly its R=2 ring owners.
  EXPECT_EQ(info.appends, 4u);
  EXPECT_EQ(info.wal_records, 4u);
  EXPECT_GT(info.wal_bytes, 0u);
  EXPECT_EQ(info.truncation_events, 0u);
}

TEST(RouterDurable, KilledShardRejoinsFromDiskWithoutRepublish) {
  // Single durable backend on a fixed UNIX path (the supported restart
  // mode): its death takes the keyspace down, and its revival must
  // restore the SAME models from disk — the router never re-publishes.
  StoreDir store;
  const std::string path = ::testing::TempDir() + "/bmf_rdur_" +
                           std::to_string(::getpid()) + ".sock";
  auto make_backend = [&] {
    serve::ServerOptions options;
    options.socket_path = path;
    options.store_dir = store.path;
    return std::make_unique<serve::Server>(std::move(options));
  };

  auto backend = make_backend();
  std::thread backend_thread([&backend] { backend->run(); });

  RouterOptions options;
  options.backends = {"unix:" + path};
  options.replicas = 1;
  options.probe_interval_ms = 50;
  options.reconnect_base_ms = 10;
  options.reconnect_cap_ms = 50;
  const std::string router_path = ::testing::TempDir() + "/bmf_rdur_r_" +
                                  std::to_string(::getpid()) + ".sock";
  options.socket_path = router_path;
  Router router(std::move(options));
  std::thread router_thread([&router] { router.run(); });

  Client client("unix:" + router_path);
  const FittedModel model = make_model(3, 91);
  EXPECT_EQ(client.publish("durable", model), 1u);
  const auto points = make_points(8, 3, 92);
  const auto baseline = client.evaluate("durable", points);

  backend->request_stop();
  backend_thread.join();
  backend.reset();  // unlinks the socket path before the replacement binds

  backend = make_backend();  // hydrates the registry from the store
  std::thread revived_thread([&backend] { backend->run(); });
  EXPECT_EQ(backend->models_recovered(), 1u);

  // Poll evaluate (read-only!) until the router's reconnect lands. No
  // publish happens anywhere in this window.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool rejoined = false;
  while (!rejoined && std::chrono::steady_clock::now() < deadline) {
    try {
      const auto after = client.evaluate("durable", points);
      EXPECT_EQ(after.version, baseline.version);
      EXPECT_EQ(after.values, baseline.values);  // bitwise, from disk
      rejoined = true;
    } catch (const ServeError&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  EXPECT_TRUE(rejoined) << "router never re-adopted the revived shard";

  // The rejoin was replay, not re-publish: the revived daemon has served
  // zero publishes and its WAL gained nothing since boot.
  const auto info = backend->store_info();
  EXPECT_EQ(info.records_replayed, 1u);
  EXPECT_EQ(info.appends, 0u);

  // And the version sequence continues across the crash-restart.
  EXPECT_EQ(client.publish("durable", model), 2u);

  router.request_stop();
  router_thread.join();
  backend->request_stop();
  revived_thread.join();
  std::remove(router_path.c_str());
}

// ---- chaos (seeded, transport-swappable; see ci.sh) ------------------------

TEST(RouterChaos, KillingOneBackendMidPipelineLosesNoAcknowledgedRequest) {
  const std::uint64_t seed = chaos_seed();
  stats::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  const bool tcp = chaos_tcp();

  // Replicas = every backend, so any single death always has a live
  // failover target and the zero-loss contract is unconditional.
  Cluster cluster("chaos", 3, 3, tcp);
  Client client(cluster.endpoint());
  const FittedModel model = make_model(5, seed + 61);
  client.publish("stream", model);

  const std::size_t batch_count = 96;
  std::vector<linalg::Matrix> batches;
  batches.reserve(batch_count);
  for (std::size_t i = 0; i < batch_count; ++i)
    batches.push_back(make_points(32, 5, seed * 1000 + i));
  const serve::BatchEvaluator local;

  // Kill the primary owner mid-stream at a seed-chosen offset. Every
  // in-flight request either already answered, fails over inside the
  // router, or is replayed by the client's retry loop — results[i] must
  // answer batches[i] exactly regardless of where the kill lands.
  const std::size_t victim = cluster.owners("stream")[0];
  const auto delay = std::chrono::microseconds(rng.uniform_int(20000));
  std::thread killer([&cluster, victim, delay] {
    std::this_thread::sleep_for(delay);
    cluster.backend(victim).stop();
  });
  std::vector<Client::Evaluation> results;
  try {
    results = client.evaluate_pipeline("stream", batches, 0, 8);
  } catch (...) {
    killer.join();
    throw;
  }
  killer.join();

  ASSERT_EQ(results.size(), batch_count);
  for (std::size_t i = 0; i < batch_count; ++i) {
    EXPECT_EQ(results[i].version, 1u) << "batch " << i;
    EXPECT_EQ(results[i].values, local.evaluate(model.model, batches[i]))
        << "batch " << i;
  }

  // The cluster keeps serving after the death.
  const auto post = client.evaluate("stream", batches[0]);
  EXPECT_EQ(post.values, local.evaluate(model.model, batches[0]));
}

TEST(RouterChaos, RouterReconnectsWhenABackendComesBack) {
  const std::uint64_t seed = chaos_seed();
  const bool tcp = chaos_tcp();
  // Single backend, so its death takes the whole keyspace down and its
  // return must restore service (reconnect schedule, not a lucky replica).
  // TCP backends come back on a NEW port, which static membership cannot
  // track — this scenario restarts on a fixed UNIX path instead, the
  // supported restart mode (see DESIGN.md §12).
  (void)tcp;
  const std::string path = ::testing::TempDir() + "/bmf_rcycle_" +
                           std::to_string(::getpid()) + ".sock";
  auto make_backend = [&path] {
    serve::ServerOptions options;
    options.socket_path = path;
    return std::make_unique<serve::Server>(std::move(options));
  };

  auto backend = make_backend();
  std::thread backend_thread([&backend] { backend->run(); });

  RouterOptions options;
  options.backends = {"unix:" + path};
  options.replicas = 1;
  options.probe_interval_ms = 50;
  options.reconnect_base_ms = 10;
  options.reconnect_cap_ms = 50;
  const std::string router_path = ::testing::TempDir() + "/bmf_rcycle_r_" +
                                  std::to_string(::getpid()) + ".sock";
  options.socket_path = router_path;
  Router router(std::move(options));
  std::thread router_thread([&router] { router.run(); });

  Client client("unix:" + router_path);
  const FittedModel model = make_model(3, seed + 71);
  client.publish("cycle", model);
  const auto points = make_points(8, 3, seed + 72);
  const auto baseline = client.evaluate("cycle", points);

  backend->request_stop();
  backend_thread.join();
  // Destroy the dead Server BEFORE binding the replacement: its
  // destructor unlinks the socket path, and unlinking after the new
  // server bound would orphan the new listener on a pathless socket.
  backend.reset();

  backend = make_backend();  // same path, fresh (empty) registry
  std::thread revived_thread([&backend] { backend->run(); });

  // Poll until the router's reconnect lands; models were lost with the
  // process, so republish and verify bytes.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool reconnected = false;
  while (!reconnected && std::chrono::steady_clock::now() < deadline) {
    try {
      client.publish("cycle", model);
      reconnected = true;
    } catch (const ServeError&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  if (reconnected) {
    EXPECT_EQ(client.evaluate("cycle", points).values, baseline.values);
  }

  router.request_stop();
  router_thread.join();
  backend->request_stop();
  revived_thread.join();
  std::remove(router_path.c_str());
  EXPECT_TRUE(reconnected) << "router never reconnected to the revived backend";
}

// ---- client-facing contract ------------------------------------------------

/// One backend behind a router whose client-side limits the test sets,
/// driven over a raw UNIX socket: the RouterClientSide tests speak the
/// framing byte by byte, where a Client would hide what the router sent.
class OneShardRouter {
 public:
  explicit OneShardRouter(const std::string& tag, RouterOptions options = {})
      : backend_(tag + "_b", /*tcp=*/false) {
    options.backends = {backend_.spec()};
    options.replicas = 1;
    path_ = ::testing::TempDir() + "/bmf_rc_" + tag + "_" +
            std::to_string(::getpid()) + ".sock";
    options.socket_path = path_;
    router_ = std::make_unique<Router>(std::move(options));
    thread_ = std::thread([this] { router_->run(); });
  }

  ~OneShardRouter() {
    stop();
    std::remove(path_.c_str());
  }

  void stop() {
    if (stopped_) return;
    stopped_ = true;
    router_->request_stop();
    thread_.join();
  }

  serve::UniqueFd connect() const { return serve::connect_unix(path_, 2000); }
  const Router& router() const { return *router_; }

 private:
  BackendFixture backend_;
  std::string path_;
  std::unique_ptr<Router> router_;
  std::thread thread_;
  bool stopped_ = false;
};

void write_raw(int fd, const std::vector<std::uint8_t>& bytes) {
  ASSERT_EQ(::write(fd, bytes.data(), bytes.size()),
            static_cast<::ssize_t>(bytes.size()));
}

std::vector<std::uint8_t> framed(const serve::Request& request) {
  std::vector<std::uint8_t> out;
  const std::vector<std::uint8_t> body = serve::encode_request(request);
  serve::append_frame(out, body.data(), body.size());
  return out;
}

/// A length prefix announcing `n` payload bytes, with no payload after it.
std::vector<std::uint8_t> bare_prefix(std::uint32_t n) {
  std::vector<std::uint8_t> out(serve::kFramePrefixBytes);
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = static_cast<std::uint8_t>(n >> (8 * i));
  return out;
}

/// The next reply's verdict: kOk, or the structured error it carries
/// (its message lands in `message` when asked for).
Status next_status(int fd, std::string* message = nullptr) {
  const auto reply = serve::read_frame(fd, 5000);
  if (!reply) {
    ADD_FAILURE() << "connection closed before the expected reply";
    return Status::kInternal;
  }
  try {
    serve::expect_ok(*reply);
    return Status::kOk;
  } catch (const ServeError& e) {
    if (message != nullptr) *message = e.message();
    return e.status();
  }
}

bool closed_by_peer(int fd) { return !serve::read_frame(fd, 5000); }

TEST(RouterClientSide, OversizedPrefixAfterPingsIsAnsweredInOrderThenCloses) {
  RouterOptions options;
  options.max_frame_bytes = 1024;
  OneShardRouter router("oversized", options);
  serve::UniqueFd fd = router.connect();
  std::vector<std::uint8_t> bytes = framed(serve::PingRequest{});
  const std::vector<std::uint8_t> second = framed(serve::PingRequest{});
  const std::vector<std::uint8_t> huge = bare_prefix(1u << 20);
  bytes.insert(bytes.end(), second.begin(), second.end());
  bytes.insert(bytes.end(), huge.begin(), huge.end());
  write_raw(fd.get(), bytes);
  EXPECT_EQ(next_status(fd.get()), Status::kOk);
  EXPECT_EQ(next_status(fd.get()), Status::kOk);
  EXPECT_EQ(next_status(fd.get()), Status::kTooLarge);
  EXPECT_TRUE(closed_by_peer(fd.get()));
}

TEST(RouterClientSide, EofMidFrameAnswersThePingThenTears) {
  OneShardRouter router("eof");
  serve::UniqueFd fd = router.connect();
  std::vector<std::uint8_t> bytes = framed(serve::PingRequest{});
  const std::vector<std::uint8_t> partial = bare_prefix(8);
  bytes.insert(bytes.end(), partial.begin(), partial.end());
  bytes.insert(bytes.end(), {1, 2, 3});
  write_raw(fd.get(), bytes);
  ASSERT_EQ(::shutdown(fd.get(), SHUT_WR), 0);
  EXPECT_EQ(next_status(fd.get()), Status::kOk);
  EXPECT_EQ(next_status(fd.get()), Status::kBadRequest);
  EXPECT_TRUE(closed_by_peer(fd.get()));
}

TEST(RouterClientSide, ConnectionPastStrictAdmissionIsShedOverloaded) {
  RouterOptions options;
  options.max_connections = 1;
  options.max_pending = 0;
  OneShardRouter router("shed", options);
  serve::UniqueFd first = router.connect();
  write_raw(first.get(), framed(serve::PingRequest{}));
  ASSERT_EQ(next_status(first.get()), Status::kOk);  // registered
  serve::UniqueFd second = router.connect();
  EXPECT_EQ(next_status(second.get()), Status::kOverloaded);
  EXPECT_TRUE(closed_by_peer(second.get()));
  EXPECT_EQ(router.router().connections_shed(), 1u);
  // The registered connection keeps its slot.
  write_raw(first.get(), framed(serve::PingRequest{}));
  EXPECT_EQ(next_status(first.get()), Status::kOk);
}

TEST(RouterClientSide, StopShedsParkedConnectionAndAnswersInFlightRequest) {
  RouterOptions options;
  options.max_connections = 1;
  options.max_pending = 1;
  OneShardRouter router("drain", options);
  serve::UniqueFd active = router.connect();
  serve::UniqueFd parked = router.connect();
  // The ping's reply proves the router has looked at its listener since
  // the parked connection arrived: it was accepted and parked.
  write_raw(active.get(), framed(serve::PingRequest{}));
  ASSERT_EQ(next_status(active.get()), Status::kOk);
  const std::uint64_t routed = router.router().requests_routed();
  write_raw(active.get(), framed(serve::StatsRequest{}));
  // Stop only once the stats frame was read and routed: it is in flight.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (router.router().requests_routed() == routed &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_GT(router.router().requests_routed(), routed);
  std::thread stopper([&router] { router.stop(); });
  EXPECT_EQ(next_status(parked.get()), Status::kShuttingDown);
  EXPECT_EQ(next_status(active.get()), Status::kOk);
  EXPECT_TRUE(closed_by_peer(active.get()));
  stopper.join();
}

TEST(RouterClientSide, IdleConnectionTimesOut) {
  RouterOptions options;
  options.request_timeout_ms = 200;
  OneShardRouter router("idle", options);
  serve::UniqueFd fd = router.connect();
  EXPECT_EQ(next_status(fd.get()), Status::kTimeout);
  EXPECT_TRUE(closed_by_peer(fd.get()));
}

TEST(RouterClientSide, FrameStalledMidTransferIsNamedInTheTimeout) {
  // A half-received frame is a stall, not idleness, and the verdict must
  // say so. 6 of 8 bytes: a prefix announcing 4 payload bytes, then 2 of
  // them (drawn from BMF_CHAOS_SEED like the chaos suite's bytes).
  RouterOptions options;
  options.request_timeout_ms = 200;
  OneShardRouter router("stall", options);
  serve::UniqueFd fd = router.connect();
  stats::Rng rng(chaos_seed());
  std::vector<std::uint8_t> bytes = bare_prefix(4);
  bytes.push_back(static_cast<std::uint8_t>(rng.uniform_int(256)));
  bytes.push_back(static_cast<std::uint8_t>(rng.uniform_int(256)));
  write_raw(fd.get(), bytes);
  std::string message;
  EXPECT_EQ(next_status(fd.get(), &message), Status::kTimeout);
  EXPECT_NE(message.find("mid-transfer"), std::string::npos) << message;
  EXPECT_TRUE(closed_by_peer(fd.get()));
}

}  // namespace
}  // namespace bmf::router
