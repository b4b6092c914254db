// Deterministic fault injection for the socket and filesystem syscall
// surface.
//
// Every read/send/poll/connect/accept — and, for the durable store,
// every write/fsync/rename — the serving stack performs goes through the
// sys_* wrappers below instead of the raw syscalls (enforced by
// scripts/lint.sh). With no plan armed, a wrapper is one acquire load and
// then the raw syscall; compiled with BMF_FAULT_INJECTION off it is the
// raw syscall, period — an inline forward with nothing to configure, so
// production builds can prove the layer costs nothing.
//
// A FaultPlan is a seeded list of rules. Each rule names a site (which
// wrapper), an action (what goes wrong), and its trigger window: skip the
// first `skip` eligible calls, then fire with `probability` per call until
// `max_triggers` faults have been injected. Probability draws come from a
// counter-keyed SplitMix64 stream of the plan seed, so a plan replays the
// same faults on the same call sequence every run — chaos tests are
// reproducible from (plan, seed) alone.
//
// Supported (site, action) pairs — 45 of the 54:
//
//            short  eintr  delay  drop  corrupt  crash
//   read       x      x      x     x      x        x
//   send       x      x      x     x      x        x
//   poll       x      x      x     x      -        x
//   connect    -      x      x     x      -        x
//   accept     x      x      x     x      -        x
//   epoll      x      x      x     -      -        x
//   write      x      x      x     x      x        x
//   fsync      x      x      x     x      -        x
//   rename     -      x      x     x      -        x
//
// parse_plan rejects the nine '-' pairs (poll:corrupt, connect:short,
// connect:corrupt, accept:corrupt, epoll:drop, epoll:corrupt,
// fsync:corrupt, rename:short, rename:corrupt): such a rule would fire,
// count and use up max_triggers while doing nothing, and since the first
// matching rule wins it would shadow every later rule for its site.
//
// What each action does:
//   short    read/send/write: clamp the byte count to 1 (partial-I/O
//            storm); poll/epoll: report 0 ready fds (spurious timeout);
//            accept: fail with errno = EAGAIN (a wakeup with no
//            connection behind it — the "short accept" an event loop must
//            absorb); fsync: return 0 WITHOUT syncing (a lying fsync).
//   eintr    fail with errno = EINTR before touching the kernel.
//   delay    sleep delay_ms, then perform the real call (pushes a peer
//            past its deadline without breaking the stream).
//   drop     read/send/poll: shutdown(fd, SHUT_RDWR) first (poll: its
//            first fd), so the real call observes a mid-frame connection
//            loss; connect: refuse with ECONNREFUSED; accept: accept,
//            then drop the new fd; write/fsync/rename: fail with
//            errno = EIO (media error).
//   corrupt  read: flip one bit of the bytes actually read; send/write: a
//            copy with one bit flipped goes to the kernel (wire/disk
//            corruption without framing loss; the caller's buffer is
//            untouched).
//   crash    kill the process on the spot with _Exit(137) — no atexit, no
//            buffers flushed, the closest user-space gets to kill -9.
//            write first puts a draw-derived PREFIX of the buffer on the
//            fd, so the surviving file ends in a torn record; every other
//            site dies before its syscall. Combined with '+N' skip this
//            is the seeded crash-point mode: "write:crash+3" aborts at
//            the 4th store write, and a recovery test can walk N over
//            every syscall the store issues.
#pragma once

#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace bmf::fault {

enum class Site : std::uint8_t {
  kRead = 0,
  kSend = 1,
  kPoll = 2,
  kConnect = 3,
  kAccept = 4,
  kEpoll = 5,  // epoll_wait: the event loop's own blocking point
  // Filesystem sites: the durable store (src/store) routes its
  // persistence syscalls here so crash/torn-write recovery is testable
  // deterministically.
  kWrite = 6,
  kFsync = 7,
  kRename = 8,
};
inline constexpr std::size_t kSiteCount = 9;

enum class Action : std::uint8_t {
  kShortIo = 0,
  kEintr = 1,
  kDelay = 2,
  kDrop = 3,
  kCorrupt = 4,
  kCrash = 5,
};

/// Stable lowercase tokens ("read", ..., "short", ...), as used by the
/// plan spec grammar.
const char* to_string(Site site);
const char* to_string(Action action);

struct FaultRule {
  Site site = Site::kRead;
  Action action = Action::kEintr;
  /// Per-eligible-call trigger chance in [0, 1]; 1 fires every time.
  double probability = 1.0;
  /// Leave the first `skip` calls at this site untouched by this rule.
  std::uint32_t skip = 0;
  /// Stop after this many injected faults; 0 = unlimited.
  std::uint32_t max_triggers = 1;
  /// kDelay only: milliseconds to sleep before the real call.
  int delay_ms = 0;
};

struct FaultPlan {
  std::uint64_t seed = 1;
  std::vector<FaultRule> rules;
};

/// Parse the textual plan grammar:
///
///   plan  = item (';' item)*
///   item  = "seed=" N | rule
///   rule  = site ':' action ['=' delay_ms] tail*
///   tail  = '*' max_triggers | '@' probability | '+' skip
///
/// e.g. "seed=7;read:short*0;send:eintr*3@0.5;poll:delay=200;read:corrupt+2"
/// ('*0' = unlimited). Each number is the whole text up to the next
/// marker, in range for its field: decimal digits only for seed, skip
/// and max_triggers, a non-negative int for delay_ms, and a probability
/// in [0, 1] (not NaN). Throws std::invalid_argument on malformed input,
/// on a number that does not fit, and on a pair the table above rejects.
FaultPlan parse_plan(const std::string& spec);

/// True when BMF_FAULT_INJECTION was compiled in (arm() can take effect).
bool compiled_in() noexcept;

/// Install `plan` for the whole process (replacing any armed plan) and
/// reset the statistics. No-op when the layer is compiled out.
void arm(const FaultPlan& plan);

/// Remove the armed plan; wrappers become raw syscalls again.
void disarm() noexcept;

bool armed() noexcept;

/// Arm from the BMF_FAULT_PLAN environment variable. Returns true if a
/// plan was armed; false when the variable is unset/empty or the layer is
/// compiled out. Throws std::invalid_argument on a malformed spec.
bool arm_from_env();

struct SiteStats {
  std::uint64_t calls = 0;      // wrapper invocations while a plan was armed
  std::uint64_t triggered = 0;  // faults injected
};

struct FaultStats {
  SiteStats site[kSiteCount];
  std::uint64_t total_triggered() const {
    std::uint64_t n = 0;
    for (const SiteStats& s : site) n += s.triggered;
    return n;
  }
};

/// Snapshot of the injection counters since the last arm().
FaultStats stats() noexcept;

#ifdef BMF_FAULT_INJECTION

// ---- Syscall surface (instrumented build) ---------------------------------

ssize_t sys_read(int fd, void* buf, std::size_t n) noexcept;
ssize_t sys_send(int fd, const void* buf, std::size_t n, int flags) noexcept;
int sys_poll(struct pollfd* fds, nfds_t nfds, int timeout_ms) noexcept;
int sys_connect(int fd, const struct sockaddr* addr, socklen_t len) noexcept;
int sys_accept(int fd) noexcept;
int sys_epoll_wait(int epfd, struct epoll_event* events, int max_events,
                   int timeout_ms) noexcept;
ssize_t sys_write(int fd, const void* buf, std::size_t n) noexcept;
int sys_fsync(int fd) noexcept;
int sys_rename(const char* oldpath, const char* newpath) noexcept;

#else

// ---- Syscall surface (layer compiled out: raw calls, zero overhead) -------

inline ssize_t sys_read(int fd, void* buf, std::size_t n) noexcept {
  return ::read(fd, buf, n);
}
inline ssize_t sys_send(int fd, const void* buf, std::size_t n,
                        int flags) noexcept {
  return ::send(fd, buf, n, flags);
}
inline int sys_poll(struct pollfd* fds, nfds_t nfds, int timeout_ms) noexcept {
  return ::poll(fds, nfds, timeout_ms);
}
inline int sys_connect(int fd, const struct sockaddr* addr,
                       socklen_t len) noexcept {
  return ::connect(fd, addr, len);
}
inline int sys_accept(int fd) noexcept { return ::accept(fd, nullptr, nullptr); }
inline int sys_epoll_wait(int epfd, struct epoll_event* events, int max_events,
                          int timeout_ms) noexcept {
  return ::epoll_wait(epfd, events, max_events, timeout_ms);
}
inline ssize_t sys_write(int fd, const void* buf, std::size_t n) noexcept {
  return ::write(fd, buf, n);
}
inline int sys_fsync(int fd) noexcept { return ::fsync(fd); }
inline int sys_rename(const char* oldpath, const char* newpath) noexcept {
  return ::rename(oldpath, newpath);
}

#endif  // BMF_FAULT_INJECTION

}  // namespace bmf::fault
