// POSIX-socket transport: length-prefixed frames with deadlines.
//
// A frame on the wire is a u32 little-endian payload length followed by
// that many bytes. Both sides enforce a maximum frame size *before*
// allocating (a hostile or corrupt length prefix cannot trigger a huge
// allocation) and a per-operation deadline: every read/write is preceded
// by poll() with the time remaining, so a stalled peer fails with
// ServeError(kTimeout) instead of hanging the daemon. Partial reads and
// writes (short recv/send, EINTR) are handled by looping.
//
// Every syscall on this surface goes through src/fault — deterministic,
// seeded fault-injection wrappers (sys_read/sys_send/sys_poll/sys_connect/
// sys_accept) that are raw syscalls unless a FaultPlan is armed. The chaos
// suite uses them to prove the loops above reassemble frames byte-exactly
// under short I/O, EINTR storms, delays, and mid-frame drops.
//
// Two transports speak the same framing: AF_UNIX SOCK_STREAM (many local
// clients — simulation jobs, optimization loops — hammering one daemon)
// and TCP (the network-scale path; SO_REUSEADDR on listeners, TCP_NODELAY
// on both ends so pipelined small frames are not Nagle-delayed). Socket
// options, fcntl, epoll, and eventfd — like every raw syscall — appear
// only here and in src/fault (lint rules 6 and 8); the event-loop pieces
// (Poller, WakeupFd, accept_pending, frame-prefix codecs) are exported so
// the server never touches a descriptor directly.
#pragma once

#include <sys/epoll.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace bmf::serve {

/// Default bound on a single frame's payload (64 MiB: a 1M-point batch
/// over 8 variables, or a ~4M-term model blob).
inline constexpr std::size_t kDefaultMaxFrameBytes = std::size_t{64} << 20;

/// Bytes in the u32 little-endian length prefix that precedes a payload.
inline constexpr std::size_t kFramePrefixBytes = 4;

/// Move-only RAII file descriptor (close on destruction; -1 = empty).
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) : fd_(fd) {}
  UniqueFd(UniqueFd&& other) noexcept : fd_(other.release()) {}
  UniqueFd& operator=(UniqueFd&& other) noexcept;
  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;
  ~UniqueFd() { reset(); }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release();
  void reset(int fd = -1);

 private:
  int fd_ = -1;
};

/// Where a daemon listens / a client connects. Exactly one transport is
/// active: `tcp == false` uses `unix_path`, `tcp == true` uses host:port.
struct Endpoint {
  bool tcp = false;
  std::string unix_path;
  std::string host;
  std::uint16_t port = 0;
};

/// Parse an endpoint spec:
///   "tcp:HOST:PORT"  TCP (HOST resolved via getaddrinfo, PORT numeric;
///                    port 0 asks listen_tcp for an ephemeral port)
///   "unix:PATH"      UNIX-domain socket at PATH
///   anything else    treated as a bare UNIX socket path
/// Throws ServeError(kBadRequest) on a malformed tcp spec.
Endpoint parse_endpoint(const std::string& spec);

/// Canonical spec string ("tcp:host:port" / "unix:path") for logs.
std::string to_string(const Endpoint& endpoint);

/// Create, bind, and listen on a UNIX-domain stream socket. If the path is
/// already bound, a probe connect distinguishes a live daemon (throws
/// ServeError(kInternal, "...in use by a live daemon")) from a stale socket
/// file left by a crash, which is unlinked so the daemon restarts cleanly.
UniqueFd listen_unix(const std::string& path, int backlog = 16);

/// A bound TCP listener plus the port it actually listens on (asking for
/// port 0 picks an ephemeral port; `port` reports the kernel's choice).
struct TcpListener {
  UniqueFd fd;
  std::uint16_t port = 0;
};

/// Create, bind, and listen on a TCP stream socket with SO_REUSEADDR (a
/// restarting daemon must not wait out TIME_WAIT). `host` is resolved via
/// getaddrinfo; empty means all interfaces. Throws ServeError(kInternal)
/// when no resolved address can be bound — in particular when the sandbox
/// forbids loopback listening, which callers may treat as "TCP
/// unavailable" and fall back to UNIX sockets.
TcpListener listen_tcp(const std::string& host, std::uint16_t port,
                       int backlog = 16);

/// Connect to a listening UNIX-domain socket, waiting up to `timeout_ms`
/// for the connection to be accepted. Retries ECONNREFUSED/ENOENT with
/// capped exponential backoff (1 ms doubling to 64 ms) so clients racing a
/// starting daemon don't stampede it. Throws ServeError(kTimeout /
/// kInternal).
UniqueFd connect_unix(const std::string& path, int timeout_ms);

/// Connect to a TCP listener with the same deadline/backoff contract as
/// connect_unix. TCP_NODELAY is set on the connected socket so pipelined
/// small frames leave immediately instead of waiting on Nagle.
UniqueFd connect_tcp(const std::string& host, std::uint16_t port,
                     int timeout_ms);

/// connect_unix or connect_tcp, picked by `endpoint.tcp`.
UniqueFd connect_endpoint(const Endpoint& endpoint, int timeout_ms);

/// Accept without waiting, for a non-blocking listener registered with a
/// Poller: returns an empty optional when no connection is pending
/// (EAGAIN — including the injected "short accept" — or an ECONNABORTED
/// race), retries EINTR, throws ServeError(kInternal) on real failures.
std::optional<UniqueFd> accept_pending(int listen_fd);

/// Switch fd to O_NONBLOCK (event-loop sockets must never park a thread).
void set_nonblocking(int fd);

/// Set TCP_NODELAY on a TCP socket. Pipelining sends many small frames
/// back-to-back; Nagle would hold each until the previous is acked.
void set_tcp_nodelay(int fd);

/// Write one frame (length prefix + payload) within `timeout_ms`.
/// Throws ServeError(kTooLarge) if size > max_frame, kTimeout on deadline,
/// kInternal on a broken connection.
void write_frame(int fd, const std::uint8_t* data, std::size_t size,
                 int timeout_ms, std::size_t max_frame = kDefaultMaxFrameBytes);
void write_frame(int fd, const std::vector<std::uint8_t>& frame,
                 int timeout_ms, std::size_t max_frame = kDefaultMaxFrameBytes);

/// Read one frame within `timeout_ms`. Returns an empty optional on a
/// clean EOF *before any byte* (peer closed between frames); throws
/// ServeError(kBadRequest) on EOF mid-frame, kTooLarge on an oversized
/// length prefix, kTimeout on deadline.
std::optional<std::vector<std::uint8_t>> read_frame(
    int fd, int timeout_ms, std::size_t max_frame = kDefaultMaxFrameBytes);

/// Same contract as read_frame, but the payload lands in `payload`
/// (resized, capacity reused) instead of a fresh vector. Returns false on
/// a clean EOF before any byte. Lets a connection loop receive many large
/// frames into one allocation.
bool read_frame_into(int fd, int timeout_ms, std::size_t max_frame,
                     std::vector<std::uint8_t>& payload);

/// Write `size` raw bytes (no length prefix) within `timeout_ms`. The
/// pipelining client uses this to flush a buffer holding many frames —
/// already individually prefixed via append_frame — in one coalesced
/// write.
void write_bytes(int fd, const std::uint8_t* data, std::size_t size,
                 int timeout_ms);

/// Append one frame (length prefix + payload) to `out`. Throws
/// ServeError(kTooLarge) if size > max_frame. Building frames in a buffer
/// and flushing once is how both the pipelining client and the server's
/// ordered-reply queue coalesce frames into single writes.
void append_frame(std::vector<std::uint8_t>& out, const std::uint8_t* data,
                  std::size_t size,
                  std::size_t max_frame = kDefaultMaxFrameBytes);

/// Decode the u32 little-endian frame length prefix (kFramePrefixBytes
/// bytes at `prefix`). The server's incremental frame parser uses this on
/// its per-connection read buffer.
std::uint32_t decode_frame_length(const std::uint8_t* prefix);

/// Thin RAII epoll instance. Registration tags each fd with a caller
/// chosen u64 (delivered back in epoll_event.data.u64), so the event loop
/// maps events to connections without a descriptor table. wait() goes
/// through fault::sys_epoll_wait — the chaos suite can starve or delay
/// the loop's own blocking point.
class Poller {
 public:
  Poller();  // throws ServeError(kInternal) if epoll_create1 fails
  void add(int fd, std::uint32_t events, std::uint64_t tag);
  void modify(int fd, std::uint32_t events, std::uint64_t tag);
  void remove(int fd);
  /// Returns the number of events written to `out` (0 on timeout; EINTR
  /// is absorbed and reported as 0 — a spurious wakeup the loop already
  /// tolerates). Throws ServeError(kInternal) on real failure.
  int wait(struct epoll_event* out, int max_events, int timeout_ms);

 private:
  UniqueFd epfd_;
};

/// Event-loop wakeup channel (eventfd): ConnectionLoop::wake() signal()s
/// it (a stop request, a worker's queued completion); the loop owns the
/// read end registered with its Poller and drain()s on wakeup. signal() is
/// async-signal-safe and never throws — it must be callable from any
/// thread at any time.
class WakeupFd {
 public:
  WakeupFd();  // throws ServeError(kInternal) if eventfd fails
  int fd() const { return fd_.get(); }
  void signal() noexcept;
  void drain() noexcept;

 private:
  UniqueFd fd_;
};

}  // namespace bmf::serve
