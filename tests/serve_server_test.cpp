// End-to-end daemon tests over a real UNIX-domain socket: a Server on a
// background thread, Clients in the test thread. Also the TSan proof that
// the registry/evaluator stack and the drain of the worker pool are
// race-free under a live server.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <latch>
#include <thread>
#include <vector>

#include "fault/fault.hpp"
#include "serve/client.hpp"
#include "serve/model_codec.hpp"
#include "serve/protocol.hpp"
#include "stats/rng.hpp"

namespace bmf::serve {
namespace {

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

// 32768 terms of eight factors each: a 1000-row batch computes for a
// while, yet its frame (64 KB) fits in a socket buffer and lands in one
// read.
FittedModel make_slow_model() {
  std::vector<basis::BasisTerm> terms(32768);
  for (std::size_t k = 0; k < terms.size(); ++k)
    for (std::size_t r = 0; r < 8; ++r)
      terms[k].factors.push_back(
          {r, 1 + static_cast<unsigned>((k >> (2 * r)) % 4)});
  const basis::BasisSet basis(8, std::move(terms));
  stats::Rng rng(21);
  linalg::Vector coeffs(basis.size());
  for (double& c : coeffs) c = rng.normal();
  FittedModel model = make_model(8, 22);
  model.model = basis::PerformanceModel(basis, coeffs);
  return model;
}

/// Server on a background thread; joins on destruction (after stop).
class ServerFixture {
 public:
  explicit ServerFixture(const char* tag, ServerOptions options = {}) {
    path_ = ::testing::TempDir() + "/bmf_serve_" + tag + "_" +
            std::to_string(::getpid()) + ".sock";
    options.socket_path = path_;
    server_ = std::make_unique<Server>(std::move(options));
    thread_ = std::thread([this] { server_->run(); });
  }

  ~ServerFixture() {
    stop();
    std::remove(path_.c_str());
  }

  /// request_stop(), then wait for run() to return.
  void stop() {
    server_->request_stop();
    if (thread_.joinable()) thread_.join();
  }

  const std::string& path() const { return path_; }
  Server& server() { return *server_; }

 private:
  std::string path_;
  std::unique_ptr<Server> server_;
  std::thread thread_;
};

TEST(ServeServer, PingPublishEvaluateList) {
  ServerFixture fixture("basic");
  Client client(fixture.path());
  client.ping();

  const FittedModel model = make_model(4, 1);
  EXPECT_EQ(client.publish("ro_power", model), 1u);
  EXPECT_EQ(client.publish("ro_power", model), 2u);

  const auto points = make_points(50, 4, 2);
  const auto result = client.evaluate("ro_power", points);
  EXPECT_EQ(result.version, 2u);
  ASSERT_EQ(result.values.size(), 50u);
  const BatchEvaluator local;
  EXPECT_EQ(result.values, local.evaluate(model.model, points));

  // Version pinning addresses the older model even after the hot swap.
  const auto pinned = client.evaluate("ro_power", points, 1);
  EXPECT_EQ(pinned.version, 1u);

  const auto models = client.list();
  ASSERT_EQ(models.size(), 1u);
  EXPECT_EQ(models[0].name, "ro_power");
  EXPECT_EQ(models[0].latest_version, 2u);
  EXPECT_EQ(models[0].retained, 2u);
  EXPECT_EQ(models[0].dimension, 4u);
}

TEST(ServeServer, StructuredErrorsKeepTheConnectionUsable) {
  ServerFixture fixture("errors");
  Client client(fixture.path());

  // Unknown model.
  try {
    client.evaluate("ghost", make_points(1, 3, 1));
    FAIL() << "expected ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.status(), Status::kNotFound);
    EXPECT_EQ(e.context(), "evaluate");
    EXPECT_NE(e.message().find("ghost"), std::string::npos);
  }

  // Corrupt publish blob.
  auto blob = serialize_model(make_model(3, 5));
  blob[blob.size() / 2] ^= 0x01;
  try {
    client.publish_blob("bad", blob);
    FAIL() << "expected ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.status(), Status::kCorruptModel);
  }

  // Dimension mismatch against a published model.
  client.publish("dim3", make_model(3, 6));
  try {
    client.evaluate("dim3", make_points(2, 5, 7));
    FAIL() << "expected ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.status(), Status::kBadRequest);
  }

  // Evicted version.
  try {
    client.evaluate("dim3", make_points(1, 3, 8), 99);
    FAIL() << "expected ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.status(), Status::kNotFound);
  }

  // After all those failures the same connection still works.
  client.ping();
  EXPECT_EQ(client.evaluate("dim3", make_points(2, 3, 9)).values.size(), 2u);
}

TEST(ServeServer, GracefulShutdownViaProtocol) {
  auto fixture = std::make_unique<ServerFixture>("shutdown");
  const std::string path = fixture->path();
  {
    Client client(path);
    client.publish("m", make_model(2, 3));
    client.shutdown_server();  // acknowledged before the server exits
  }
  // The fixture destructor joins promptly because run() already returned.
  fixture.reset();
  // The daemon is gone: connecting now must time out quickly.
  EXPECT_THROW(Client(path, /*timeout_ms=*/200), ServeError);
}

TEST(ServeServer, SequentialClientsAndReconnects) {
  ServerFixture fixture("reconnect");
  {
    Client first(fixture.path());
    first.publish("m", make_model(2, 4));
  }  // connection closes cleanly
  {
    Client second(fixture.path());
    const auto result = second.evaluate("m", make_points(3, 2, 5));
    EXPECT_EQ(result.values.size(), 3u);
  }
  EXPECT_GE(fixture.server().requests_served(), 2u);
}

TEST(ServeServer, MalformedFrameGetsStructuredReply) {
  ServerFixture fixture("malformed");
  UniqueFd fd = connect_unix(fixture.path(), 2000);
  const std::vector<std::uint8_t> garbage = {0x77, 0x01, 0x02};
  write_frame(fd.get(), garbage, 1000);
  const auto reply = read_frame(fd.get(), 2000);
  ASSERT_TRUE(reply.has_value());
  try {
    expect_ok(*reply);
    FAIL() << "expected ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.status(), Status::kBadRequest);
    EXPECT_EQ(e.context(), "decode_request");
  }
}

TEST(ServeServer, OversizedFrameIsRejected) {
  ServerOptions options;
  options.max_frame_bytes = 1024;
  ServerFixture fixture("oversized", options);
  UniqueFd fd = connect_unix(fixture.path(), 2000);
  // Hand-write a raw length prefix beyond the server's bound; the server
  // must reply kTooLarge before allocating anything (and then drop the
  // connection, since the stream position is lost).
  const std::uint32_t huge = 1 << 20;
  std::uint8_t prefix[4];
  for (int i = 0; i < 4; ++i)
    prefix[i] = static_cast<std::uint8_t>(huge >> (8 * i));
  ::ssize_t wrote = ::write(fd.get(), prefix, sizeof(prefix));
  ASSERT_EQ(wrote, 4);
  const auto reply = read_frame(fd.get(), 2000);
  ASSERT_TRUE(reply.has_value());
  try {
    expect_ok(*reply);
    FAIL() << "expected ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.status(), Status::kTooLarge);
  }
}

TEST(ServeServer, StaleSocketFileIsRecoveredAtStartup) {
  // A crashed daemon leaves its socket file behind: bind one, close the
  // listener without unlinking. A fresh Server must probe the corpse,
  // reclaim the path, and serve normally.
  const std::string path = ::testing::TempDir() + "/bmf_serve_stale_" +
                           std::to_string(::getpid()) + ".sock";
  std::remove(path.c_str());
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)), 0);
  ::close(fd);  // dead daemon; the file stays

  ServerOptions options;
  options.socket_path = path;
  auto server = std::make_unique<Server>(std::move(options));
  std::thread run([&server] { server->run(); });
  {
    Client client(path);
    client.ping();
  }
  server->request_stop();
  run.join();
  server.reset();
  std::remove(path.c_str());
}

// request_stop() wakes an idle loop at once instead of leaving it to its
// 100 ms epoll tick: over five start/stop cycles of a server whose one
// client has come and gone, run() returns a median well under 20 ms after
// the stop.
TEST(ServeServer, IdleServerStopsWithoutWaitingOutTheTick) {
  using Clock = std::chrono::steady_clock;
  std::vector<double> stop_ms;
  for (int cycle = 0; cycle < 5; ++cycle) {
    ServerFixture fixture("idle_stop");
    {
      Client client(fixture.path());
      client.ping();
    }
    // Let the loop see the close and go back to sleep.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const auto t0 = Clock::now();
    fixture.stop();
    stop_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
  }
  std::sort(stop_ms.begin(), stop_ms.end());
  EXPECT_LT(stop_ms[2], 20.0) << "slowest stop " << stop_ms.back() << " ms";
}

// A reply computed in the worker pool goes out once the worker is done:
// its wake() ends the loop's wait, which would otherwise run to the
// 100 ms tick. The blocker's slow evaluate runs inline on the loop thread
// while two clients send one-row evaluates; the loop hands both to the
// pool in one round, and then nothing else wakes it.
TEST(ServeServer, PoolRepliesDoNotWaitForTheTick) {
  using Clock = std::chrono::steady_clock;
  ServerOptions options;
  options.max_connections = 8;
  ServerFixture fixture("pool_wake", options);
  {
    Client client(fixture.path());
    client.publish("slow", make_slow_model());
    client.publish("fast", make_model(2, 31));
  }
  const std::vector<std::uint8_t> slow_request =
      encode_evaluate_request("slow", 0, make_points(1000, 8, 23));
  const std::vector<std::uint8_t> fast_request =
      encode_evaluate_request("fast", 0, make_points(1, 2, 32));

  constexpr std::size_t kClients = 2;
  UniqueFd blocker = connect_unix(fixture.path(), 2000);
  std::vector<UniqueFd> fds;
  for (std::size_t i = 0; i < kClients; ++i)
    fds.push_back(connect_unix(fixture.path(), 2000));
  std::latch release(1);
  std::vector<Clock::time_point> answered(kClients);
  std::vector<std::string> errors(kClients);
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      release.wait();
      try {
        write_frame(fds[i].get(), fast_request, 5000);
        const auto reply = read_frame(fds[i].get(), 5000);
        if (!reply) throw ServeError(Status::kInternal, "test", "closed");
        (void)expect_ok(*reply);
        answered[i] = Clock::now();
      } catch (const ServeError& e) {
        errors[i] = e.what();
      }
    });
  }
  write_frame(blocker.get(), slow_request, 5000);
  release.count_down();
  const auto blocked = read_frame(blocker.get(), 60000);
  const Clock::time_point unblocked = Clock::now();
  for (std::thread& t : clients) t.join();

  ASSERT_TRUE(blocked.has_value());
  (void)expect_ok(*blocked);
  for (std::size_t i = 0; i < kClients; ++i) {
    EXPECT_EQ(errors[i], "") << "client " << i;
    const std::chrono::duration<double, std::milli> after =
        answered[i] - unblocked;
    EXPECT_LT(after.count(), 50.0) << "client " << i;
  }
}

TEST(ServeServer, LiveDaemonSocketIsNotStolen) {
  ServerFixture fixture("occupied");
  // Binding a second server to a path owned by a live daemon must fail
  // loudly instead of unlinking it out from under the running server.
  ServerOptions options;
  options.socket_path = fixture.path();
  try {
    Server squatter(std::move(options));
    FAIL() << "expected ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.status(), Status::kInternal);
    EXPECT_NE(e.message().find("in use"), std::string::npos);
  }
  // The incumbent is unharmed.
  Client client(fixture.path());
  client.ping();
}

/// (name, latest_version, retained) per listed model.
std::vector<std::tuple<std::string, std::uint64_t, std::uint64_t>> listing(
    Client& client) {
  std::vector<std::tuple<std::string, std::uint64_t, std::uint64_t>> rows;
  for (const ModelInfo& m : client.list())
    rows.emplace_back(m.name, m.latest_version, m.retained);
  return rows;
}

/// A fresh, empty store directory under the test temp dir.
std::string fresh_store_dir(const char* tag) {
  const std::string dir = ::testing::TempDir() + "/bmf_serve_store_" + tag +
                          "_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(ServeServer, CapacityEvictionsSurviveRestart) {
  ServerOptions options;
  options.registry_capacity = 2;
  options.store_dir = fresh_store_dir("capacity");
  const std::vector<std::tuple<std::string, std::uint64_t, std::uint64_t>>
      expected = {{"a", 1, 1}, {"b", 1, 1}};
  {
    ServerFixture fixture("capacity", options);
    Client client(fixture.path());
    client.publish("c", make_model(2, 1));
    client.publish("b", make_model(2, 2));
    client.publish("a", make_model(2, 3));  // evicts c, least recently used
    ASSERT_EQ(listing(client), expected);
  }
  // A graceful restart from the same store serves the same set: the
  // eviction of c is as durable as the publish of a.
  ServerFixture restarted("capacity", options);
  Client client(restarted.path());
  EXPECT_EQ(listing(client), expected);
  std::filesystem::remove_all(options.store_dir);
}

TEST(ServeServer, FailedDurablePublishPutsBackWhatItEvicted) {
  if (!fault::compiled_in())
    GTEST_SKIP() << "fault injection compiled out (BMF_FAULT_INJECTION=OFF)";
  ServerOptions options;
  options.registry_capacity = 2;
  options.store_dir = fresh_store_dir("rollback");
  const std::vector<std::tuple<std::string, std::uint64_t, std::uint64_t>>
      expected = {{"b", 1, 1}, {"c", 1, 1}};
  {
    ServerFixture fixture("rollback", options);
    Client client(fixture.path());
    client.publish("c", make_model(2, 1));
    client.publish("b", make_model(2, 2));
    // The publish of a evicts c, then its fsync fails: a is rolled back,
    // and c, whose eviction never reached the log, is put back.
    fault::arm(fault::parse_plan("fsync:drop*1"));
    try {
      client.publish("a", make_model(2, 3));
      ADD_FAILURE() << "expected the failed fsync to fail the publish";
    } catch (const ServeError& e) {
      EXPECT_EQ(e.status(), Status::kInternal);
    }
    fault::disarm();
    EXPECT_EQ(listing(client), expected);
  }
  // Memory and store agree: a restart serves the same set.
  ServerFixture restarted("rollback", options);
  Client client(restarted.path());
  EXPECT_EQ(listing(client), expected);
  std::filesystem::remove_all(options.store_dir);
}

TEST(ServeServer, DrainAnswersEveryJobInTheWorkerPool) {
  ServerOptions options;
  options.max_connections = 8;
  ServerFixture fixture("drain", options);
  const FittedModel model = make_slow_model();
  Client(fixture.path()).publish("slow", model);
  const linalg::Matrix points = make_points(1000, 8, 23);
  const std::vector<std::uint8_t> request =
      encode_evaluate_request("slow", 0, points);
  const std::vector<double> expected =
      BatchEvaluator().evaluate(model.model, points);

  // The blocker's evaluate arrives alone and runs inline on the loop
  // thread; meanwhile the four clients, released together, send theirs.
  // The loop reads all four in the round after the blocker's answer and
  // hands them to the worker pool, and the stop lands while they compute.
  // Every frame is sent before the stop: a frame still unread at the
  // drain is never answered.
  constexpr std::size_t kClients = 4;
  UniqueFd blocker = connect_unix(fixture.path(), 2000);
  std::vector<UniqueFd> fds;
  for (std::size_t i = 0; i < kClients; ++i)
    fds.push_back(connect_unix(fixture.path(), 2000));
  std::latch release(1);
  std::latch sent(kClients);
  std::vector<std::vector<double>> values(kClients);
  std::vector<std::string> errors(kClients);
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      release.wait();
      bool counted = false;
      try {
        write_frame(fds[i].get(), request, 5000);
        sent.count_down();
        counted = true;
        const auto reply = read_frame(fds[i].get(), 60000);
        if (!reply) throw ServeError(Status::kInternal, "test", "closed");
        const auto [body, size] = expect_ok(*reply);
        values[i] = decode_evaluate_response(body, size).values;
      } catch (const ServeError& e) {
        errors[i] = e.what();
      }
      if (!counted) sent.count_down();
    });
  }
  write_frame(blocker.get(), request, 5000);
  release.count_down();
  const auto blocked = read_frame(blocker.get(), 60000);
  sent.wait();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  fixture.server().request_stop();
  for (std::thread& t : clients) t.join();

  ASSERT_TRUE(blocked.has_value());
  const auto [body, size] = expect_ok(*blocked);
  EXPECT_EQ(decode_evaluate_response(body, size).values, expected);
  for (std::size_t i = 0; i < kClients; ++i) {
    EXPECT_EQ(errors[i], "") << "client " << i;
    EXPECT_EQ(values[i], expected) << "client " << i;
  }
}

TEST(ServeServer, ResponsesAreBitIdenticalAcrossConnections) {
  ServerFixture fixture("bits");
  const auto points = make_points(257, 8, 12);
  Client::Evaluation a;
  {
    Client client(fixture.path());
    client.publish("m", make_model(8, 11));
    a = client.evaluate("m", points);
  }
  Client other(fixture.path());
  const auto b = other.evaluate("m", points);
  EXPECT_EQ(a.values, b.values);
}

}  // namespace
}  // namespace bmf::serve
