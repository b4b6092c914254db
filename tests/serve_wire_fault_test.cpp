// Partial-I/O coverage for the framing layer: under injected short
// reads/sends, EINTR storms, and corruption, write_frame/read_frame must
// reassemble frames byte-exactly or throw the documented ServeError —
// never hang. A watchdog aborts the process if any test wedges.
#include "serve/wire.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

#include "fault/fault.hpp"
#include "serve/error.hpp"
#include "stats/rng.hpp"

namespace bmf::serve {
namespace {

#ifdef BMF_FAULT_INJECTION

/// Aborts the whole process if a test exceeds its deadline — a hang is
/// exactly the failure mode this suite exists to rule out, so it must
/// fail loudly rather than stall CI.
class Watchdog {
 public:
  explicit Watchdog(int seconds) : thread_([this, seconds] {
    std::unique_lock<std::mutex> lk(mu_);
    if (!cv_.wait_for(lk, std::chrono::seconds(seconds),
                      [this] { return done_; })) {
      std::fprintf(stderr, "Watchdog: test exceeded %d s — aborting\n",
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

/// Connected AF_UNIX stream pair.
struct SocketPair {
  int fds[2] = {-1, -1};
  SocketPair() {
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  }
  ~SocketPair() {
    if (fds[0] >= 0) ::close(fds[0]);
    if (fds[1] >= 0) ::close(fds[1]);
  }
};

struct DisarmGuard {
  ~DisarmGuard() { fault::disarm(); }
};

std::vector<std::uint8_t> make_payload(std::size_t n, std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<std::uint8_t> payload(n);
  for (std::uint8_t& b : payload)
    b = static_cast<std::uint8_t>(rng.uniform_int(256));
  return payload;
}

/// Round-trip one frame with a writer thread (so a blocked send cannot
/// deadlock against the reader on a full socket buffer).
std::vector<std::uint8_t> round_trip(const SocketPair& pair,
                                     const std::vector<std::uint8_t>& payload,
                                     int timeout_ms = 5000) {
  std::thread writer(
      [&] { write_frame(pair.fds[0], payload, timeout_ms); });
  std::optional<std::vector<std::uint8_t>> got;
  try {
    got = read_frame(pair.fds[1], timeout_ms);
  } catch (...) {
    writer.join();
    throw;
  }
  writer.join();
  EXPECT_TRUE(got.has_value());
  return got.value_or(std::vector<std::uint8_t>{});
}

TEST(WireFault, ShortReadsReassembleByteExactly) {
  Watchdog dog(30);
  DisarmGuard guard;
  SocketPair pair;
  const auto payload = make_payload(4096, 1);
  fault::arm(fault::parse_plan("read:short*0"));  // every read returns 1 byte
  EXPECT_EQ(round_trip(pair, payload), payload);
  EXPECT_GE(fault::stats().site[0].triggered, 4096u);
}

TEST(WireFault, ShortSendsReassembleByteExactly) {
  Watchdog dog(30);
  DisarmGuard guard;
  SocketPair pair;
  const auto payload = make_payload(2048, 2);
  fault::arm(fault::parse_plan("send:short*0"));
  EXPECT_EQ(round_trip(pair, payload), payload);
  EXPECT_GE(fault::stats().site[1].triggered, 2048u);
}

TEST(WireFault, EintrStormOnEverySiteIsAbsorbed) {
  Watchdog dog(30);
  DisarmGuard guard;
  SocketPair pair;
  const auto payload = make_payload(512, 3);
  // Half of all reads/sends/polls fail with EINTR, forever. Several round
  // trips, because a single one makes few enough calls that an unlucky
  // seed can dodge every coin flip.
  fault::arm(
      fault::parse_plan("read:eintr*0@0.5;send:eintr*0@0.5;poll:eintr*0@0.5"));
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(round_trip(pair, payload), payload);
  EXPECT_GT(fault::stats().total_triggered(), 0u);
}

TEST(WireFault, CombinedShortAndEintrStorm) {
  Watchdog dog(30);
  DisarmGuard guard;
  SocketPair pair;
  const auto payload = make_payload(1024, 4);
  fault::arm(fault::parse_plan(
      "seed=9;read:eintr*0@0.25;read:short*0;send:eintr*0@0.25;send:short*0"));
  EXPECT_EQ(round_trip(pair, payload), payload);
}

TEST(WireFault, MidFrameEofThrowsBadRequestNotHang) {
  Watchdog dog(30);
  DisarmGuard guard;
  SocketPair pair;
  // Write a length prefix promising 100 bytes, deliver 10, then close.
  const std::uint8_t prefix[4] = {100, 0, 0, 0};
  ASSERT_EQ(::write(pair.fds[0], prefix, 4), 4);
  const auto partial = make_payload(10, 5);
  ASSERT_EQ(::write(pair.fds[0], partial.data(), 10), 10);
  ::close(pair.fds[0]);
  pair.fds[0] = -1;
  try {
    read_frame(pair.fds[1], 2000);
    FAIL() << "expected ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.status(), Status::kBadRequest);
    EXPECT_NE(e.message().find("mid-frame"), std::string::npos);
  }
}

TEST(WireFault, CorruptedLengthPrefixFailsStructurally) {
  Watchdog dog(60);
  DisarmGuard guard;
  // One bit of the first read (the length prefix) flips. Depending on the
  // bit this inflates or deflates the frame length; every outcome must be
  // a documented ServeError within the deadline, or (for low-order bits) a
  // benign length change that still parses as a (wrong-size) frame.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SocketPair pair;
    const auto payload = make_payload(64, seed);
    fault::FaultPlan plan = fault::parse_plan("read:corrupt*1");
    plan.seed = seed;
    fault::arm(plan);
    std::thread writer([&] {
      try {
        write_frame(pair.fds[0], payload, 1000);
      } catch (const ServeError&) {
      }
    });
    try {
      const auto got = read_frame(pair.fds[1], 1000);
      // A small length perturbation can still deliver a frame; it must
      // simply be a frame, not a hang. (Byte integrity under corruption
      // is the checksummed model codec's job, not the transport's.)
      EXPECT_TRUE(got.has_value());
    } catch (const ServeError& e) {
      EXPECT_TRUE(e.status() == Status::kTooLarge ||
                  e.status() == Status::kTimeout ||
                  e.status() == Status::kBadRequest)
          << "unexpected status " << to_string(e.status());
    }
    writer.join();
    fault::disarm();
  }
}

TEST(WireFault, DropMidReadSurfacesAsClosedConnection) {
  Watchdog dog(30);
  DisarmGuard guard;
  SocketPair pair;
  // Promise 256 bytes, deliver 10, and keep the writer side open: only
  // the injected drop (a shutdown mid-read) can end the frame early —
  // without it this read would block until its deadline.
  const std::uint8_t prefix[4] = {0, 1, 0, 0};  // 256 LE
  ASSERT_EQ(::write(pair.fds[0], prefix, 4), 4);
  const auto partial = make_payload(10, 7);
  ASSERT_EQ(::write(pair.fds[0], partial.data(), 10), 10);
  // Read 1 consumes the prefix; read 2 (the payload) trips the drop, the
  // buffered 10 bytes drain, and the next read sees a hard EOF.
  fault::arm(fault::parse_plan("read:drop+1*1"));
  try {
    read_frame(pair.fds[1], 2000);
    FAIL() << "expected ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.status(), Status::kBadRequest);
    EXPECT_NE(e.message().find("mid-frame"), std::string::npos);
  }
}

TEST(WireFault, PollDelayPushesPastDeadline) {
  Watchdog dog(30);
  DisarmGuard guard;
  SocketPair pair;
  // Nothing to read and every poll sleeps 80 ms first: with a 150 ms
  // budget the deadline math must still converge to kTimeout promptly.
  fault::arm(fault::parse_plan("poll:delay=80*0"));
  const auto start = std::chrono::steady_clock::now();
  try {
    read_frame(pair.fds[1], 150);
    FAIL() << "expected ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.status(), Status::kTimeout);
  }
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_LT(elapsed.count(), 5000);
}

TEST(WireFault, ResultsIdenticalOnceFaultsClear) {
  Watchdog dog(30);
  DisarmGuard guard;
  const auto payload = make_payload(1024, 11);
  SocketPair noisy;
  fault::arm(fault::parse_plan("seed=3;read:short*0;send:eintr*0@0.5"));
  const auto under_faults = round_trip(noisy, payload);
  fault::disarm();
  SocketPair clean;
  const auto without = round_trip(clean, payload);
  EXPECT_EQ(under_faults, without);
  EXPECT_EQ(without, payload);
}

#endif  // BMF_FAULT_INJECTION

// ---- parse_endpoint hardening ---------------------------------------------
// A malformed endpoint spec must fail at parse time with a structured
// kBadRequest naming the offending spec — not slip through and fail later
// at connect/bind, far from the typo. No fault injection involved.

void expect_rejected(const std::string& spec) {
  try {
    parse_endpoint(spec);
    FAIL() << "expected ServeError for spec '" << spec << "'";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.status(), Status::kBadRequest) << spec;
    EXPECT_EQ(e.context(), "parse_endpoint") << spec;
  }
}

TEST(ParseEndpoint, AcceptsWellFormedSpecs) {
  Endpoint tcp = parse_endpoint("tcp:127.0.0.1:8191");
  EXPECT_TRUE(tcp.tcp);
  EXPECT_EQ(tcp.host, "127.0.0.1");
  EXPECT_EQ(tcp.port, 8191);

  Endpoint prefixed = parse_endpoint("unix:/tmp/bmf.sock");
  EXPECT_FALSE(prefixed.tcp);
  EXPECT_EQ(prefixed.unix_path, "/tmp/bmf.sock");

  Endpoint bare = parse_endpoint("/tmp/bmf.sock");
  EXPECT_FALSE(bare.tcp);
  EXPECT_EQ(bare.unix_path, "/tmp/bmf.sock");

  // Port edge values parse exactly.
  EXPECT_EQ(parse_endpoint("tcp:h:0").port, 0);
  EXPECT_EQ(parse_endpoint("tcp:h:65535").port, 65535);
}

TEST(ParseEndpoint, RejectsTcpWithNoHostOrPort) { expect_rejected("tcp:"); }

TEST(ParseEndpoint, RejectsTcpWithEmptyPort) {
  expect_rejected("tcp:localhost:");
}

TEST(ParseEndpoint, RejectsTcpWithEmptyHost) { expect_rejected("tcp::8191"); }

TEST(ParseEndpoint, RejectsPortAbove65535) {
  expect_rejected("tcp:localhost:65536");
  expect_rejected("tcp:localhost:99999999");
}

TEST(ParseEndpoint, RejectsNonNumericPort) {
  expect_rejected("tcp:localhost:http");
  // std::stol would accept these; the parser must not.
  expect_rejected("tcp:localhost: 80");
  expect_rejected("tcp:localhost:+80");
  expect_rejected("tcp:localhost:-1");
  expect_rejected("tcp:localhost:80x");
}

TEST(ParseEndpoint, RejectsEmptyUnixPath) {
  expect_rejected("");
  expect_rejected("unix:");
}

}  // namespace
}  // namespace bmf::serve
