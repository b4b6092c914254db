// Unit tests for the deterministic fault-injection layer: plan grammar,
// trigger windows (skip / max_triggers / probability), per-site counters,
// and the env-var arming path. Uses pipes — no sockets needed to exercise
// read/poll wrappers.
#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>

#include <sys/un.h>
#include <unistd.h>

namespace bmf::fault {
namespace {

/// RAII: no plan leaks into the next test.
struct DisarmGuard {
  ~DisarmGuard() { disarm(); }
};

/// A pipe with one byte ready to read.
struct ReadyPipe {
  int fds[2] = {-1, -1};
  ReadyPipe() {
    EXPECT_EQ(::pipe(fds), 0);
    const char byte = 'x';
    EXPECT_EQ(::write(fds[1], &byte, 1), 1);
  }
  ~ReadyPipe() {
    ::close(fds[0]);
    ::close(fds[1]);
  }
};

TEST(FaultPlanGrammar, ParsesTheFullRuleShape) {
  const FaultPlan plan = parse_plan(
      "seed=7;read:short*0;send:eintr*3@0.5;poll:delay=200;read:corrupt+2");
  EXPECT_EQ(plan.seed, 7u);
  ASSERT_EQ(plan.rules.size(), 4u);

  EXPECT_EQ(plan.rules[0].site, Site::kRead);
  EXPECT_EQ(plan.rules[0].action, Action::kShortIo);
  EXPECT_EQ(plan.rules[0].max_triggers, 0u);  // *0 = unlimited

  EXPECT_EQ(plan.rules[1].site, Site::kSend);
  EXPECT_EQ(plan.rules[1].action, Action::kEintr);
  EXPECT_EQ(plan.rules[1].max_triggers, 3u);
  EXPECT_DOUBLE_EQ(plan.rules[1].probability, 0.5);

  EXPECT_EQ(plan.rules[2].site, Site::kPoll);
  EXPECT_EQ(plan.rules[2].action, Action::kDelay);
  EXPECT_EQ(plan.rules[2].delay_ms, 200);

  EXPECT_EQ(plan.rules[3].site, Site::kRead);
  EXPECT_EQ(plan.rules[3].action, Action::kCorrupt);
  EXPECT_EQ(plan.rules[3].skip, 2u);
  EXPECT_EQ(plan.rules[3].max_triggers, 1u);  // default: one shot
}

TEST(FaultPlanGrammar, RoundTripsThroughToString) {
  const FaultPlan plan = parse_plan("connect:drop;accept:drop");
  EXPECT_STREQ(to_string(plan.rules[0].site), "connect");
  EXPECT_STREQ(to_string(plan.rules[0].action), "drop");
  EXPECT_STREQ(to_string(plan.rules[1].site), "accept");
  EXPECT_STREQ(to_string(Site::kPoll), "poll");
  EXPECT_STREQ(to_string(Action::kShortIo), "short");
}

TEST(FaultPlanGrammar, ParsesTheEventLoopSites) {
  const FaultPlan plan = parse_plan("accept:short*2;epoll:short@0.25;epoll:eintr");
  ASSERT_EQ(plan.rules.size(), 3u);
  EXPECT_EQ(plan.rules[0].site, Site::kAccept);
  EXPECT_EQ(plan.rules[0].action, Action::kShortIo);
  EXPECT_EQ(plan.rules[0].max_triggers, 2u);
  EXPECT_EQ(plan.rules[1].site, Site::kEpoll);
  EXPECT_DOUBLE_EQ(plan.rules[1].probability, 0.25);
  EXPECT_EQ(plan.rules[2].site, Site::kEpoll);
  EXPECT_EQ(plan.rules[2].action, Action::kEintr);
  EXPECT_STREQ(to_string(Site::kEpoll), "epoll");
  EXPECT_STREQ(to_string(Site::kAccept), "accept");
}

TEST(FaultPlanGrammar, ParsesTheFilesystemSites) {
  const FaultPlan plan =
      parse_plan("write:crash+3;fsync:short*2;rename:drop;fsync:crash+1");
  ASSERT_EQ(plan.rules.size(), 4u);
  EXPECT_EQ(plan.rules[0].site, Site::kWrite);
  EXPECT_EQ(plan.rules[0].action, Action::kCrash);
  EXPECT_EQ(plan.rules[0].skip, 3u);
  EXPECT_EQ(plan.rules[0].max_triggers, 1u);  // default: one shot
  EXPECT_EQ(plan.rules[1].site, Site::kFsync);
  EXPECT_EQ(plan.rules[1].action, Action::kShortIo);
  EXPECT_EQ(plan.rules[1].max_triggers, 2u);
  EXPECT_EQ(plan.rules[2].site, Site::kRename);
  EXPECT_EQ(plan.rules[2].action, Action::kDrop);
  EXPECT_EQ(plan.rules[3].site, Site::kFsync);
  EXPECT_EQ(plan.rules[3].action, Action::kCrash);
  EXPECT_STREQ(to_string(Site::kWrite), "write");
  EXPECT_STREQ(to_string(Site::kFsync), "fsync");
  EXPECT_STREQ(to_string(Site::kRename), "rename");
  EXPECT_STREQ(to_string(Action::kCrash), "crash");
}

TEST(FaultPlanGrammar, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_plan("read"), std::invalid_argument);          // no action
  EXPECT_THROW(parse_plan("tcp:short"), std::invalid_argument);     // bad site
  EXPECT_THROW(parse_plan("read:explode"), std::invalid_argument);  // bad act
  EXPECT_THROW(parse_plan("read:delay"), std::invalid_argument);    // no =ms
  EXPECT_THROW(parse_plan("read:short@2.0"), std::invalid_argument);
  EXPECT_THROW(parse_plan("seed=x"), std::invalid_argument);
  EXPECT_THROW(parse_plan(""), std::invalid_argument);
}

TEST(FaultPlanGrammar, RejectsNumbersThatDoNotFit) {
  // Each number is the whole field up to the next marker and must fit its
  // type: nothing wraps, no whitespace is skipped, and NaN is no
  // probability.
  for (const char* spec :
       {"read:short*4294967296", "read:delay=4294967297", "read:short@nan",
        "read:short*-1", "read:short+-1", "seed=-1;read:short",
        "read:short* 1"})
    EXPECT_THROW(parse_plan(spec), std::invalid_argument) << spec;
}

TEST(FaultPlanGrammar, RejectsActionsASiteCannotPerform) {
  // These pairs have no effect: a rule for one would fire, count and use
  // up max_triggers while doing nothing, and shadow later rules.
  const std::set<std::string> rejected = {
      "poll:corrupt",   "connect:short", "connect:corrupt",
      "accept:corrupt", "epoll:drop",    "epoll:corrupt",
      "fsync:corrupt",  "rename:short",  "rename:corrupt"};
  int accepted = 0;
  for (std::size_t s = 0; s < kSiteCount; ++s)
    for (const Action action :
         {Action::kShortIo, Action::kEintr, Action::kDelay, Action::kDrop,
          Action::kCorrupt, Action::kCrash}) {
      const std::string pair = std::string(to_string(static_cast<Site>(s))) +
                               ":" + to_string(action);
      const std::string spec = action == Action::kDelay ? pair + "=1" : pair;
      if (rejected.count(pair) != 0) {
        EXPECT_THROW(parse_plan(spec), std::invalid_argument) << pair;
      } else {
        EXPECT_NO_THROW(parse_plan(spec)) << pair;
        ++accepted;
      }
    }
  EXPECT_EQ(accepted, 45);
}

TEST(FaultEngine, CompiledInMatchesTheBuildFlag) {
#ifdef BMF_FAULT_INJECTION
  EXPECT_TRUE(compiled_in());
#else
  EXPECT_FALSE(compiled_in());
#endif
}

#ifdef BMF_FAULT_INJECTION

TEST(FaultEngine, EintrCountIsHonoredThenStops) {
  DisarmGuard guard;
  arm(parse_plan("read:eintr*3"));
  ReadyPipe pipe;
  char buf = 0;
  for (int i = 0; i < 3; ++i) {
    errno = 0;
    EXPECT_EQ(sys_read(pipe.fds[0], &buf, 1), -1);
    EXPECT_EQ(errno, EINTR);
  }
  // Budget exhausted: the call goes through and reads the real byte.
  EXPECT_EQ(sys_read(pipe.fds[0], &buf, 1), 1);
  EXPECT_EQ(buf, 'x');
  EXPECT_EQ(stats().site[0].triggered, 3u);
  EXPECT_EQ(stats().site[0].calls, 4u);
}

TEST(FaultEngine, SkipLeavesEarlyCallsUntouched) {
  DisarmGuard guard;
  arm(parse_plan("read:eintr+2*1"));
  ReadyPipe pipe;
  char buf = 0;
  EXPECT_EQ(sys_read(pipe.fds[0], &buf, 1), 1);  // call 1: skipped
  const char byte = 'y';
  ASSERT_EQ(::write(pipe.fds[1], &byte, 1), 1);
  EXPECT_EQ(sys_read(pipe.fds[0], &buf, 1), 1);  // call 2: skipped
  errno = 0;
  EXPECT_EQ(sys_read(pipe.fds[0], &buf, 1), -1);  // call 3: fires
  EXPECT_EQ(errno, EINTR);
}

TEST(FaultEngine, ZeroProbabilityNeverFires) {
  DisarmGuard guard;
  arm(parse_plan("read:eintr*0@0.0"));
  ReadyPipe pipe;
  char buf = 0;
  EXPECT_EQ(sys_read(pipe.fds[0], &buf, 1), 1);
  EXPECT_EQ(stats().total_triggered(), 0u);
  EXPECT_EQ(stats().site[0].calls, 1u);
}

TEST(FaultEngine, ShortReadClampsToOneByte) {
  DisarmGuard guard;
  ReadyPipe pipe;
  const char more[2] = {'a', 'b'};
  ASSERT_EQ(::write(pipe.fds[1], more, 2), 2);
  arm(parse_plan("read:short*1"));
  char buf[8] = {};
  EXPECT_EQ(sys_read(pipe.fds[0], buf, sizeof(buf)), 1);  // clamped
  EXPECT_EQ(sys_read(pipe.fds[0], buf + 1, sizeof(buf) - 1), 2);
}

TEST(FaultEngine, SpuriousPollTimeout) {
  DisarmGuard guard;
  arm(parse_plan("poll:short*1"));
  ReadyPipe pipe;
  struct pollfd pfd;
  pfd.fd = pipe.fds[0];
  pfd.events = POLLIN;
  pfd.revents = 0;
  EXPECT_EQ(sys_poll(&pfd, 1, 1000), 0);  // injected "nothing ready"
  EXPECT_EQ(sys_poll(&pfd, 1, 1000), 1);  // real poll sees the byte
}

TEST(FaultEngine, SpuriousEpollWakeup) {
  DisarmGuard guard;
  arm(parse_plan("epoll:short*1"));
  ReadyPipe pipe;
  const int epfd = ::epoll_create1(0);
  ASSERT_GE(epfd, 0);
  struct epoll_event want = {};
  want.events = EPOLLIN;
  want.data.fd = pipe.fds[0];
  ASSERT_EQ(::epoll_ctl(epfd, EPOLL_CTL_ADD, pipe.fds[0], &want), 0);
  struct epoll_event got = {};
  // Injected "nothing ready" despite a readable byte; the retry sees it.
  EXPECT_EQ(sys_epoll_wait(epfd, &got, 1, 1000), 0);
  EXPECT_EQ(sys_epoll_wait(epfd, &got, 1, 1000), 1);
  EXPECT_EQ(got.data.fd, pipe.fds[0]);
  EXPECT_EQ(stats().site[5].triggered, 1u);
  ::close(epfd);
}

TEST(FaultEngine, EpollEintrThenRealWait) {
  DisarmGuard guard;
  arm(parse_plan("epoll:eintr*1"));
  ReadyPipe pipe;
  const int epfd = ::epoll_create1(0);
  ASSERT_GE(epfd, 0);
  struct epoll_event want = {};
  want.events = EPOLLIN;
  want.data.fd = pipe.fds[0];
  ASSERT_EQ(::epoll_ctl(epfd, EPOLL_CTL_ADD, pipe.fds[0], &want), 0);
  struct epoll_event got = {};
  errno = 0;
  EXPECT_EQ(sys_epoll_wait(epfd, &got, 1, 1000), -1);
  EXPECT_EQ(errno, EINTR);
  EXPECT_EQ(sys_epoll_wait(epfd, &got, 1, 1000), 1);
  ::close(epfd);
}

TEST(FaultEngine, ShortAcceptReportsNoConnectionBehindTheWakeup) {
  DisarmGuard guard;
  // Abstract-namespace UNIX listener (no filesystem cleanup needed).
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  struct sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path + 1, sizeof(addr.sun_path) - 1,
                "bmf-fault-accept-%d", static_cast<int>(::getpid()));
  const auto len = static_cast<socklen_t>(
      offsetof(struct sockaddr_un, sun_path) + 1 +
      std::strlen(addr.sun_path + 1));
  ASSERT_EQ(::bind(listener, reinterpret_cast<struct sockaddr*>(&addr), len),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  const int client = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(client, 0);
  ASSERT_EQ(
      ::connect(client, reinterpret_cast<struct sockaddr*>(&addr), len), 0);

  arm(parse_plan("accept:short*1"));
  errno = 0;
  EXPECT_EQ(sys_accept(listener), -1);  // wakeup with no connection behind it
  EXPECT_EQ(errno, EAGAIN);
  const int conn = sys_accept(listener);  // the pending client is still there
  EXPECT_GE(conn, 0);
  EXPECT_EQ(stats().site[4].triggered, 1u);
  ::close(conn);
  ::close(client);
  ::close(listener);
}

/// A scratch file opened for read/write (unlinked immediately: the fd is
/// the only handle, so nothing leaks past the test).
struct ScratchFile {
  int fd = -1;
  ScratchFile() {
    char path[] = "/tmp/bmf-fault-fs-XXXXXX";
    fd = ::mkstemp(path);
    EXPECT_GE(fd, 0);
    if (fd >= 0) ::unlink(path);
  }
  ~ScratchFile() {
    if (fd >= 0) ::close(fd);
  }
};

TEST(FaultEngine, WriteDropFailsWithEioThenRecovers) {
  DisarmGuard guard;
  ScratchFile file;
  arm(parse_plan("write:drop*1"));
  const char data[4] = {'a', 'b', 'c', 'd'};
  errno = 0;
  EXPECT_EQ(sys_write(file.fd, data, 4), -1);
  EXPECT_EQ(errno, EIO);
  EXPECT_EQ(sys_write(file.fd, data, 4), 4);  // budget spent: real write
  EXPECT_EQ(stats().site[6].triggered, 1u);
  EXPECT_EQ(stats().site[6].calls, 2u);
}

TEST(FaultEngine, ShortWriteWritesAPrefixOnly) {
  DisarmGuard guard;
  ScratchFile file;
  arm(parse_plan("write:short*1"));
  const char data[4] = {'a', 'b', 'c', 'd'};
  const ssize_t n = sys_write(file.fd, data, 4);
  ASSERT_GE(n, 1);
  ASSERT_LT(n, 4);  // a true prefix: the caller's retry loop must finish it
  EXPECT_EQ(sys_write(file.fd, data + n, 4 - static_cast<std::size_t>(n)),
            4 - n);
}

TEST(FaultEngine, LyingFsyncReturnsSuccessWithoutSyncing) {
  DisarmGuard guard;
  ScratchFile file;
  arm(parse_plan("fsync:short*1"));
  EXPECT_EQ(sys_fsync(file.fd), 0);  // lied: nothing reached the platter
  EXPECT_EQ(stats().site[7].triggered, 1u);
  EXPECT_EQ(sys_fsync(file.fd), 0);  // real fsync
  EXPECT_EQ(stats().site[7].calls, 2u);
}

TEST(FaultEngine, FsyncDropFailsWithEio) {
  DisarmGuard guard;
  ScratchFile file;
  arm(parse_plan("fsync:drop*1"));
  errno = 0;
  EXPECT_EQ(sys_fsync(file.fd), -1);
  EXPECT_EQ(errno, EIO);
  EXPECT_EQ(sys_fsync(file.fd), 0);
}

TEST(FaultEngine, RenameDropFailsWithEioThenSucceeds) {
  DisarmGuard guard;
  char src[] = "/tmp/bmf-fault-ren-src-XXXXXX";
  const int fd = ::mkstemp(src);
  ASSERT_GE(fd, 0);
  ::close(fd);
  const std::string dst = std::string(src) + ".renamed";
  arm(parse_plan("rename:drop*1"));
  errno = 0;
  EXPECT_EQ(sys_rename(src, dst.c_str()), -1);
  EXPECT_EQ(errno, EIO);
  EXPECT_EQ(stats().site[8].triggered, 1u);
  EXPECT_EQ(sys_rename(src, dst.c_str()), 0);
  EXPECT_EQ(::unlink(dst.c_str()), 0);
}

TEST(FaultEngine, CorruptWriteFlipsOneBitOnDiskNotInTheCallersBuffer) {
  DisarmGuard guard;
  ScratchFile file;
  std::uint8_t data[64];
  for (std::size_t i = 0; i < sizeof data; ++i)
    data[i] = static_cast<std::uint8_t>(i * 7);
  std::uint8_t original[sizeof data];
  std::memcpy(original, data, sizeof data);
  arm(parse_plan("write:corrupt"));
  ASSERT_EQ(sys_write(file.fd, data, sizeof data),
            static_cast<ssize_t>(sizeof data));
  EXPECT_EQ(stats().site[6].triggered, 1u);
  EXPECT_EQ(std::memcmp(data, original, sizeof data), 0);

  std::uint8_t on_disk[sizeof data] = {};
  ASSERT_EQ(::pread(file.fd, on_disk, sizeof on_disk, 0),
            static_cast<ssize_t>(sizeof on_disk));
  int bits_differing = 0;
  for (std::size_t i = 0; i < sizeof data; ++i)
    bits_differing += __builtin_popcount(on_disk[i] ^ original[i]);
  EXPECT_EQ(bits_differing, 1);
}

TEST(FaultEngine, PollDropShutsDownTheFirstFdSoItsPeerSeesEof) {
  DisarmGuard guard;
  int pair[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  arm(parse_plan("poll:drop"));
  struct pollfd pfd;
  pfd.fd = pair[0];
  pfd.events = POLLIN;
  pfd.revents = 0;
  // The shutdown happens before the real poll, which then sees the
  // connection gone from its own side.
  EXPECT_EQ(sys_poll(&pfd, 1, 1000), 1);
  EXPECT_NE(pfd.revents & (POLLIN | POLLHUP), 0);
  EXPECT_EQ(stats().site[2].triggered, 1u);
  char byte = 0;
  EXPECT_EQ(::recv(pair[1], &byte, 1, MSG_DONTWAIT), 0);  // the peer: EOF
  ::close(pair[0]);
  ::close(pair[1]);
}

TEST(FaultEngine, CrashActionExitsWithKillSignature) {
  ScratchFile file;
  const char byte = 'x';
  // The crash action _Exit(137)s after a torn prefix — run it in a death
  // test child so the suite survives to observe the exit code.
  EXPECT_EXIT(
      {
        arm(parse_plan("write:crash"));
        (void)sys_write(file.fd, &byte, 1);
      },
      ::testing::ExitedWithCode(137), "bmf_fault: crash injected at write");
}

TEST(FaultEngine, FilesystemSitesReplayIdenticallyForASeed) {
  ScratchFile file;
  auto run = [&](std::uint64_t seed) {
    DisarmGuard guard;
    FaultPlan plan = parse_plan("write:drop*0@0.5");
    plan.seed = seed;
    arm(plan);
    std::string pattern;
    const char byte = 'w';
    for (int i = 0; i < 16; ++i)
      pattern += sys_write(file.fd, &byte, 1) == 1 ? '.' : 'X';
    return pattern;
  };
  const std::string first = run(7);
  EXPECT_EQ(first, run(7));
  EXPECT_NE(first, run(8));
}

TEST(FaultEngine, DisarmRestoresRawBehaviorAndStatsReset) {
  DisarmGuard guard;
  arm(parse_plan("read:eintr*0"));
  ReadyPipe pipe;
  char buf = 0;
  EXPECT_EQ(sys_read(pipe.fds[0], &buf, 1), -1);
  EXPECT_TRUE(armed());
  disarm();
  EXPECT_FALSE(armed());
  EXPECT_EQ(sys_read(pipe.fds[0], &buf, 1), 1);
  arm(parse_plan("send:eintr"));  // re-arming resets the counters
  EXPECT_EQ(stats().total_triggered(), 0u);
  EXPECT_EQ(stats().site[0].calls, 0u);
}

TEST(FaultEngine, DeterministicAcrossRearm) {
  // A probabilistic rule replays the identical trigger pattern for the
  // same seed: the draw is keyed on (seed, site, call index) only.
  ReadyPipe pipe;
  auto run = [&](std::uint64_t seed) {
    DisarmGuard guard;
    FaultPlan plan = parse_plan("read:eintr*0@0.5");
    plan.seed = seed;
    arm(plan);
    std::string pattern;
    char buf = 0;
    for (int i = 0; i < 16; ++i) {
      const char byte = 'z';
      EXPECT_EQ(::write(pipe.fds[1], &byte, 1), 1);
      pattern += sys_read(pipe.fds[0], &buf, 1) == 1 ? '.' : 'X';
      if (pattern.back() == '.') continue;
      EXPECT_EQ(::read(pipe.fds[0], &buf, 1), 1);  // drain for next round
    }
    return pattern;
  };
  const std::string first = run(41);
  EXPECT_EQ(first, run(41));
  EXPECT_NE(first, run(42));  // and the seed actually matters
  // Drain whatever the last run left behind is unnecessary: pipe closes.
}

TEST(FaultEngine, ArmFromEnvHonorsTheVariable) {
  DisarmGuard guard;
  ASSERT_EQ(::setenv("BMF_FAULT_PLAN", "read:eintr*1", 1), 0);
  EXPECT_TRUE(arm_from_env());
  EXPECT_TRUE(armed());
  ReadyPipe pipe;
  char buf = 0;
  errno = 0;
  EXPECT_EQ(sys_read(pipe.fds[0], &buf, 1), -1);
  EXPECT_EQ(errno, EINTR);
  ASSERT_EQ(::unsetenv("BMF_FAULT_PLAN"), 0);
  disarm();
  EXPECT_FALSE(arm_from_env());  // unset variable arms nothing
  EXPECT_FALSE(armed());
}

#endif  // BMF_FAULT_INJECTION

}  // namespace
}  // namespace bmf::fault
