// Pipelining coverage for the epoll serving path, in three layers:
//
//   * unit tests for the per-connection building blocks (FrameBuffer,
//     OrderedReplies) — byte-level frame reassembly and ordered reply
//     coalescing with no daemon;
//   * the connection deadline, against a ConnectionLoop driven by a
//     scripted handler: a frame still being answered keeps its connection
//     past the deadline, and an answer pushes the deadline out;
//   * end-to-end tests against a live Server: many frames coalesced into
//     one write come back as strictly ordered replies, a torn frame
//     mid-pipeline closes the connection without corrupting the replies
//     already owed, and Client::evaluate_pipeline matches sequential
//     evaluate over both transports.
#include "serve/connection.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.hpp"
#include "serve/connection_loop.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "stats/rng.hpp"

namespace bmf::serve {
namespace {

std::vector<std::uint8_t> bytes(std::initializer_list<int> values) {
  std::vector<std::uint8_t> out;
  for (int v : values) out.push_back(static_cast<std::uint8_t>(v));
  return out;
}

/// One length-prefixed frame around `payload`.
std::vector<std::uint8_t> framed(const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out;
  append_frame(out, payload.data(), payload.size());
  return out;
}

// ---- FrameBuffer -----------------------------------------------------------

TEST(FrameBuffer, ManyFramesInOneFeedDrainInOrder) {
  FrameBuffer fb(1024);
  const std::vector<std::vector<std::uint8_t>> payloads = {
      bytes({1, 2, 3}), bytes({}), bytes({9}), bytes({7, 7, 7, 7})};
  std::vector<std::uint8_t> wire;
  for (const auto& p : payloads) append_frame(wire, p.data(), p.size());

  fb.feed(wire.data(), wire.size());  // one "read" carrying four frames
  EXPECT_EQ(fb.complete_frames(), payloads.size());
  EXPECT_FALSE(fb.mid_frame());

  for (const auto& p : payloads) {
    ASSERT_GT(fb.complete_frames(), 0u);
    ASSERT_EQ(fb.front_size(), p.size());
    if (!p.empty()) {
      EXPECT_EQ(std::memcmp(fb.front_data(), p.data(), p.size()), 0);
    }
    fb.pop_front();
  }
  EXPECT_EQ(fb.complete_frames(), 0u);
  EXPECT_EQ(fb.buffered(), 0u);
}

TEST(FrameBuffer, FrameSplitAcrossArbitraryReadBoundaries) {
  const std::vector<std::uint8_t> payload = bytes({10, 20, 30, 40, 50});
  const std::vector<std::uint8_t> wire = framed(payload);
  FrameBuffer fb(1024);
  // Byte-at-a-time delivery: the worst fragmentation a TCP stream can do.
  for (std::size_t i = 0; i < wire.size(); ++i) {
    EXPECT_EQ(fb.complete_frames(), 0u);
    fb.feed(&wire[i], 1);
    if (i + 1 < wire.size()) {
      EXPECT_TRUE(fb.mid_frame());
    }
  }
  ASSERT_EQ(fb.complete_frames(), 1u);
  std::vector<std::uint8_t> out;
  EXPECT_TRUE(fb.next_frame(out));
  EXPECT_EQ(out, payload);
  EXPECT_FALSE(fb.next_frame(out));
}

TEST(FrameBuffer, MissingBytesSizesTheNextRead) {
  const std::vector<std::uint8_t> wire = framed(bytes({1, 2, 3, 4, 5, 6}));
  FrameBuffer fb(1024);
  EXPECT_EQ(fb.missing_bytes(), 0u);  // no prefix yet: no hint
  fb.feed(wire.data(), 2);            // half a prefix
  EXPECT_EQ(fb.missing_bytes(), 0u);
  fb.feed(wire.data() + 2, 3);  // full prefix + 1 payload byte
  EXPECT_EQ(fb.missing_bytes(), wire.size() - 5);
  fb.feed(wire.data() + 5, wire.size() - 5);
  EXPECT_EQ(fb.missing_bytes(), 0u);
  EXPECT_EQ(fb.complete_frames(), 1u);
}

TEST(FrameBuffer, OversizedPrefixThrowsBeforeAnyPayloadLands) {
  FrameBuffer fb(64);  // tight bound
  std::uint8_t prefix[kFramePrefixBytes] = {0, 1, 0, 0};  // announces 256
  try {
    fb.feed(prefix, sizeof(prefix));
    FAIL() << "expected ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.status(), Status::kTooLarge);
  }
}

TEST(FrameBuffer, OversizedPrefixAfterValidFramesKeepsThem) {
  FrameBuffer fb(64);
  std::vector<std::uint8_t> wire = framed(bytes({42}));
  std::uint8_t bad[kFramePrefixBytes] = {255, 255, 255, 255};
  wire.insert(wire.end(), bad, bad + sizeof(bad));
  // The commit scan throws at the poisoned prefix...
  EXPECT_THROW(fb.feed(wire.data(), wire.size()), ServeError);
  // ...but the frame completed before it is still served.
  ASSERT_EQ(fb.complete_frames(), 1u);
  ASSERT_EQ(fb.front_size(), 1u);
  EXPECT_EQ(fb.front_data()[0], 42);
}

TEST(FrameBuffer, WriteWindowCommitIsTheZeroCopyFeed) {
  const std::vector<std::uint8_t> wire = framed(bytes({5, 6, 7}));
  FrameBuffer fb(1024);
  std::uint8_t* window = fb.write_window(wire.size());
  ASSERT_GE(fb.window_bytes(), wire.size());
  std::memcpy(window, wire.data(), wire.size());
  fb.commit(wire.size());
  ASSERT_EQ(fb.complete_frames(), 1u);
  EXPECT_EQ(fb.front_size(), 3u);
}

TEST(FrameBuffer, DiscardDropsFramesAndPartialTail) {
  FrameBuffer fb(1024);
  const std::vector<std::uint8_t> wire = framed(bytes({1}));
  fb.feed(wire.data(), wire.size());
  fb.feed(wire.data(), 2);  // partial second frame
  EXPECT_EQ(fb.complete_frames(), 1u);
  EXPECT_TRUE(fb.mid_frame());
  fb.discard();
  EXPECT_EQ(fb.complete_frames(), 0u);
  EXPECT_EQ(fb.buffered(), 0u);
  EXPECT_FALSE(fb.mid_frame());
}

// ---- OrderedReplies --------------------------------------------------------

TEST(OrderedReplies, OutOfOrderCompletionsDrainInRequestOrder) {
  OrderedReplies replies;
  const std::uint64_t s0 = replies.reserve();
  const std::uint64_t s1 = replies.reserve();
  const std::uint64_t s2 = replies.reserve();
  EXPECT_EQ(replies.outstanding(), 3u);

  std::vector<std::uint8_t> wire;
  replies.complete(s2, bytes({30}));  // last request finishes first
  EXPECT_EQ(replies.drain_ready(wire), 0u);  // s0 still owed: nothing leaves
  EXPECT_TRUE(wire.empty());

  replies.complete(s0, bytes({10}));
  EXPECT_EQ(replies.drain_ready(wire), 1u);

  replies.complete(s1, bytes({20}));
  EXPECT_EQ(replies.drain_ready(wire), 2u);  // s1 unblocked s2: one flush
  EXPECT_EQ(replies.outstanding(), 0u);

  // The wire now holds the three replies, length-prefixed, in order.
  FrameBuffer fb(1024);
  fb.feed(wire.data(), wire.size());
  ASSERT_EQ(fb.complete_frames(), 3u);
  for (std::uint8_t expected : {10, 20, 30}) {
    ASSERT_EQ(fb.front_size(), 1u);
    EXPECT_EQ(fb.front_data()[0], expected);
    fb.pop_front();
  }
}

// ---- Connection deadline ---------------------------------------------------

using Clock = std::chrono::steady_clock;

/// A ConnectionLoop handler that answers every frame with a plain ok once
/// it has held it for `hold`, from on_round — the way the server applies
/// its workers' completions. Records when it last answered.
class HoldingHandler final : public ConnectionLoop::Handler {
 public:
  HoldingHandler(ConnectionLoop& loop, std::chrono::milliseconds hold)
      : loop_(loop), hold_(hold) {}

  void on_event(std::uint64_t, std::uint32_t) override {}

  void on_round() override {
    while (!held_.empty() && Clock::now() - held_.front().since >= hold_) {
      last_answer_.store(Clock::now().time_since_epoch().count());
      loop_.complete(held_.front().tag, held_.front().seq, encode_ok());
      held_.pop_front();
    }
  }

  void on_frames(const std::vector<std::uint64_t>& ready) override {
    for (const std::uint64_t tag : ready) {
      ConnectionLoop::Conn& c = *loop_.find(tag);
      for (; c.frames.complete_frames() > 0; c.frames.pop_front())
        held_.push_back({tag, c.replies.reserve(), Clock::now()});
    }
  }

  bool drain_pending() override { return false; }

  Clock::time_point last_answer() const {
    return Clock::time_point(Clock::duration(last_answer_.load()));
  }

 private:
  struct Held {
    std::uint64_t tag;
    std::uint64_t seq;
    Clock::time_point since;
  };
  ConnectionLoop& loop_;
  const std::chrono::milliseconds hold_;
  std::deque<Held> held_;
  std::atomic<Clock::rep> last_answer_{0};
};

/// A ConnectionLoop on a UNIX socket with a 100 ms request timeout, run by
/// a HoldingHandler on a background thread; drains and joins on
/// destruction.
class HoldingLoop {
 public:
  static constexpr int kTimeoutMs = 100;

  HoldingLoop(const char* tag, std::chrono::milliseconds hold)
      : path_(::testing::TempDir() + "/bmf_pipe_" + tag + "_" +
              std::to_string(::getpid()) + ".sock"),
        loop_(path_, "",
              ConnectionLimits{.max_connections = 4,
                               .max_pipeline = 8,
                               .request_timeout_ms = kTimeoutMs}),
        handler_(loop_, hold),
        thread_([this] { loop_.run(handler_); }) {}

  ~HoldingLoop() {
    loop_.request_stop();
    thread_.join();
  }

  UniqueFd connect() { return connect_endpoint(parse_endpoint(path_), 2000); }
  const HoldingHandler& handler() const { return handler_; }

 private:
  std::string path_;
  ConnectionLoop loop_;
  HoldingHandler handler_;
  std::thread thread_;
};

TEST(ConnectionDeadline, FrameStillBeingAnsweredOutlivesTheDeadline) {
  // Held three request timeouts: each expiry finds the reply outstanding
  // and re-arms instead of timing the connection out.
  HoldingLoop loop("held",
                   std::chrono::milliseconds(3 * HoldingLoop::kTimeoutMs));
  UniqueFd fd = loop.connect();
  write_frame(fd.get(), encode_request(PingRequest{}), 2000);
  const auto reply = read_frame(fd.get(), 5000);
  ASSERT_TRUE(reply.has_value());
  EXPECT_NO_THROW(expect_ok(*reply));  // the answer, not kTimeout
}

TEST(ConnectionDeadline, IdleTimeoutCountsFromTheLastAnswer) {
  // Held 2.5 timeouts: had the answer not pushed the deadline out, the
  // re-armed deadline would fall half a timeout after the answer.
  HoldingLoop loop("idle",
                   std::chrono::milliseconds(5 * HoldingLoop::kTimeoutMs / 2));
  UniqueFd fd = loop.connect();
  write_frame(fd.get(), encode_request(PingRequest{}), 2000);
  const auto reply = read_frame(fd.get(), 5000);
  ASSERT_TRUE(reply.has_value());
  EXPECT_NO_THROW(expect_ok(*reply));

  const auto verdict = read_frame(fd.get(), 5000);
  const Clock::time_point arrived = Clock::now();
  ASSERT_TRUE(verdict.has_value());
  try {
    expect_ok(*verdict);
    FAIL() << "expected the idle connection's kTimeout";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.status(), Status::kTimeout);
    EXPECT_NE(e.message().find("no request arrived"), std::string::npos);
  }
  EXPECT_GE(arrived - loop.handler().last_answer(),
            std::chrono::milliseconds(HoldingLoop::kTimeoutMs));
  EXPECT_FALSE(read_frame(fd.get(), 5000).has_value());  // then the close
}

// ---- End-to-end pipelining over a live server ------------------------------

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
    path_ = ::testing::TempDir() + "/bmf_pipe_" + tag + "_" +
            std::to_string(::getpid()) + ".sock";
    options.socket_path = path_;
    server_ = std::make_unique<Server>(std::move(options));
    thread_ = std::thread([this] { server_->run(); });
  }

  ~ServerFixture() {
    server_->request_stop();
    thread_.join();
    std::remove(path_.c_str());
  }

  const std::string& path() const { return path_; }
  Server& server() { return *server_; }

 private:
  std::string path_;
  std::unique_ptr<Server> server_;
  std::thread thread_;
};

TEST(ServePipeline, ManyFramesInOneWriteComeBackStrictlyOrdered) {
  ServerFixture fixture("ordered");
  Client publisher(fixture.path());
  const FittedModel model = make_model(3, 11);
  publisher.publish("amp_gain", model);

  // Eight evaluate requests with distinct row counts (1, 2, ..., 8) so
  // each reply identifies which request it answers, coalesced into ONE
  // write — the rawest form of pipelining.
  constexpr std::size_t kRequests = 8;
  UniqueFd fd = connect_endpoint(parse_endpoint(fixture.path()), 2000);
  std::vector<std::uint8_t> wire;
  std::vector<linalg::Matrix> batches;
  for (std::size_t i = 0; i < kRequests; ++i) {
    batches.push_back(make_points(i + 1, 3, 100 + i));
    const auto frame = encode_evaluate_request("amp_gain", 0, batches[i]);
    append_frame(wire, frame.data(), frame.size());
  }
  write_bytes(fd.get(), wire.data(), wire.size(), 2000);

  const BatchEvaluator local;
  for (std::size_t i = 0; i < kRequests; ++i) {
    const auto reply = read_frame(fd.get(), 5000);
    ASSERT_TRUE(reply.has_value()) << "connection closed after " << i;
    const auto [body, size] = expect_ok(*reply);
    const EvaluateResponse response = decode_evaluate_response(body, size);
    ASSERT_EQ(response.values.size(), i + 1);  // reply i answers request i
    EXPECT_EQ(response.values, local.evaluate(model.model, batches[i]));
  }
}

TEST(ServePipeline, TornFrameMidPipelinePreservesEarlierReplies) {
  ServerOptions options;
  options.max_frame_bytes = 4096;  // small bound so a prefix can exceed it
  ServerFixture fixture("torn", options);

  // Two valid pings, then a length prefix announcing far more than the
  // frame bound — all in one write. The server owes both ok replies, then
  // a structured kTooLarge error, then the close.
  std::vector<std::uint8_t> wire;
  const auto ping = encode_request(PingRequest{});
  append_frame(wire, ping.data(), ping.size());
  append_frame(wire, ping.data(), ping.size());
  const std::uint8_t poison[kFramePrefixBytes] = {0, 0, 16, 0};  // 1 MiB
  wire.insert(wire.end(), poison, poison + sizeof(poison));

  UniqueFd fd = connect_endpoint(parse_endpoint(fixture.path()), 2000);
  write_bytes(fd.get(), wire.data(), wire.size(), 2000);

  for (int i = 0; i < 2; ++i) {
    const auto reply = read_frame(fd.get(), 5000, options.max_frame_bytes);
    ASSERT_TRUE(reply.has_value()) << "ok reply " << i << " lost to the tear";
    EXPECT_NO_THROW(expect_ok(*reply));
  }
  const auto error_reply = read_frame(fd.get(), 5000, options.max_frame_bytes);
  ASSERT_TRUE(error_reply.has_value());
  try {
    expect_ok(*error_reply);
    FAIL() << "expected the torn-stream error reply";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.status(), Status::kTooLarge);
  }
  EXPECT_FALSE(read_frame(fd.get(), 5000).has_value());  // clean close
}

TEST(ServePipeline, EofMidFrameAnswersEarlierRequestsThenTears) {
  ServerFixture fixture("eof");
  std::vector<std::uint8_t> wire;
  const auto ping = encode_request(PingRequest{});
  append_frame(wire, ping.data(), ping.size());
  const auto truncated = framed(bytes({1, 2, 3, 4, 5, 6, 7, 8}));
  wire.insert(wire.end(), truncated.begin(), truncated.end() - 4);

  UniqueFd fd = connect_endpoint(parse_endpoint(fixture.path()), 2000);
  write_bytes(fd.get(), wire.data(), wire.size(), 2000);
  ASSERT_EQ(::shutdown(fd.get(), SHUT_WR), 0);  // EOF inside frame two

  const auto ok_reply = read_frame(fd.get(), 5000);
  ASSERT_TRUE(ok_reply.has_value());
  EXPECT_NO_THROW(expect_ok(*ok_reply));

  const auto error_reply = read_frame(fd.get(), 5000);
  ASSERT_TRUE(error_reply.has_value());
  try {
    expect_ok(*error_reply);
    FAIL() << "expected the mid-frame-EOF error reply";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.status(), Status::kBadRequest);
  }
  EXPECT_FALSE(read_frame(fd.get(), 5000).has_value());
}

TEST(ServePipeline, EvaluatePipelineMatchesSequentialEvaluate) {
  ServerFixture fixture("client");
  Client client(fixture.path());
  const FittedModel model = make_model(4, 3);
  client.publish("dac_inl", model);

  std::vector<linalg::Matrix> batches;
  for (std::size_t i = 0; i < 10; ++i)
    batches.push_back(make_points(5 + 3 * i, 4, 200 + i));

  const auto pipelined =
      client.evaluate_pipeline("dac_inl", batches, 0, /*depth=*/3);
  ASSERT_EQ(pipelined.size(), batches.size());
  for (std::size_t i = 0; i < batches.size(); ++i) {
    const auto sequential = client.evaluate("dac_inl", batches[i]);
    EXPECT_EQ(pipelined[i].version, sequential.version);
    EXPECT_EQ(pipelined[i].values, sequential.values) << "batch " << i;
  }
}

TEST(ServePipeline, SemanticErrorMidPipelineSurfacesAndRealigns) {
  ServerFixture fixture("semantic");
  Client client(fixture.path());
  client.publish("known", make_model(2, 9));

  // Every batch targets a model that does not exist: the first reply in
  // the pipeline is a structured error, and the client must absorb the
  // remaining in-flight replies before throwing (stream stays aligned).
  std::vector<linalg::Matrix> batches(4, make_points(3, 2, 77));
  try {
    client.evaluate_pipeline("ghost", batches, 0, /*depth=*/4);
    FAIL() << "expected ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.status(), Status::kNotFound);
  }
  // The connection is still usable for the model that does exist.
  const auto ok = client.evaluate("known", make_points(3, 2, 78));
  EXPECT_EQ(ok.values.size(), 3u);
}

TEST(ServePipeline, PipelineOverTcpLoopback) {
  ServerOptions options;
  options.tcp_address = "127.0.0.1:0";
  std::unique_ptr<Server> server;
  try {
    server = std::make_unique<Server>(std::move(options));
  } catch (const ServeError&) {
    GTEST_SKIP() << "TCP loopback unavailable in this sandbox";
  }
  std::thread runner([&server] { server->run(); });

  {
    Client client(to_string(server->tcp_endpoint()));
    const FittedModel model = make_model(3, 21);
    client.publish("tcp_model", model);
    std::vector<linalg::Matrix> batches;
    for (std::size_t i = 0; i < 6; ++i)
      batches.push_back(make_points(4 + i, 3, 300 + i));
    const auto pipelined =
        client.evaluate_pipeline("tcp_model", batches, 0, /*depth=*/4);
    ASSERT_EQ(pipelined.size(), batches.size());
    const BatchEvaluator local;
    for (std::size_t i = 0; i < batches.size(); ++i)
      EXPECT_EQ(pipelined[i].values, local.evaluate(model.model, batches[i]));
  }

  server->request_stop();
  runner.join();
}

}  // namespace
}  // namespace bmf::serve
