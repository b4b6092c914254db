#include "serve/wire.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "fault/fault.hpp"
#include "serve/error.hpp"

namespace bmf::serve {

namespace {

using Clock = std::chrono::steady_clock;

[[noreturn]] void sys_fail(const char* context, const std::string& what) {
  throw ServeError(Status::kInternal, context,
                   what + ": " + std::strerror(errno));
}

/// Milliseconds left before `deadline` (clamped to >= 0).
int remaining_ms(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - Clock::now())
                        .count();
  return left > 0 ? static_cast<int>(left) : 0;
}

/// poll() for `events` on fd until the deadline; throws kTimeout if the
/// deadline passes first. Retries EINTR with the remaining time, and
/// re-checks the wall clock on a zero return instead of trusting poll's
/// own accounting: a spurious early wakeup must not abandon a connection
/// (and a reply already in flight) while budget remains.
void wait_ready(int fd, short events, Clock::time_point deadline,
                const char* context) {
  for (;;) {
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = events;
    pfd.revents = 0;
    const int left = remaining_ms(deadline);
    const int rc = fault::sys_poll(&pfd, 1, left);
    if (rc > 0) return;  // readable/writable (or HUP/ERR: let the I/O fail)
    if (rc == 0) {
      if (remaining_ms(deadline) == 0)
        throw ServeError(Status::kTimeout, context,
                         "deadline expired waiting for the peer");
      continue;  // woke early: poll again with the remaining time
    }
    if (errno != EINTR) sys_fail(context, "poll");
  }
}

sockaddr_un make_unix_address(const std::string& path, const char* context) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path))
    throw ServeError(Status::kInternal, context,
                     "socket path '" + path + "' is empty or longer than " +
                         std::to_string(sizeof(addr.sun_path) - 1) +
                         " bytes");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

void encode_length(std::uint8_t out[4], std::uint32_t n) {
  for (int i = 0; i < 4; ++i)
    out[i] = static_cast<std::uint8_t>(n >> (8 * i));
}

std::uint32_t decode_length(const std::uint8_t in[4]) {
  std::uint32_t n = 0;
  for (int i = 0; i < 4; ++i) n |= std::uint32_t{in[i]} << (8 * i);
  return n;
}

/// Read exactly n bytes. Returns false on EOF at offset 0 when
/// `eof_ok_at_start`; EOF anywhere else throws.
bool read_exact(int fd, std::uint8_t* out, std::size_t n,
                Clock::time_point deadline, bool eof_ok_at_start,
                const char* context) {
  std::size_t done = 0;
  while (done < n) {
    wait_ready(fd, POLLIN, deadline, context);
    const ssize_t rc = fault::sys_read(fd, out + done, n - done);
    if (rc > 0) {
      done += static_cast<std::size_t>(rc);
      continue;
    }
    if (rc == 0) {
      if (done == 0 && eof_ok_at_start) return false;
      throw ServeError(Status::kBadRequest, context,
                       "connection closed mid-frame (" +
                           std::to_string(done) + " of " + std::to_string(n) +
                           " byte(s) received)");
    }
    if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK)
      sys_fail(context, "read");
  }
  return true;
}

void write_exact(int fd, const std::uint8_t* data, std::size_t n,
                 Clock::time_point deadline, const char* context) {
  std::size_t done = 0;
  while (done < n) {
    wait_ready(fd, POLLOUT, deadline, context);
    const ssize_t rc =
        fault::sys_send(fd, data + done, n - done, MSG_NOSIGNAL);
    if (rc >= 0) {
      done += static_cast<std::size_t>(rc);
      continue;
    }
    if (errno == EPIPE || errno == ECONNRESET)
      throw ServeError(Status::kInternal, context,
                       "connection closed by the peer mid-write");
    if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK)
      sys_fail(context, "send");
  }
}

Clock::time_point deadline_from(int timeout_ms) {
  return Clock::now() + std::chrono::milliseconds(timeout_ms);
}

/// RAII guard for a getaddrinfo result list.
struct AddrInfoList {
  addrinfo* head = nullptr;
  ~AddrInfoList() {
    if (head != nullptr) ::freeaddrinfo(head);
  }
};

/// Resolve host:port for a stream socket. Empty host + passive resolves
/// to the wildcard address.
AddrInfoList resolve_tcp(const std::string& host, std::uint16_t port,
                         bool passive, const char* context) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_NUMERICSERV | (passive ? AI_PASSIVE : 0);
  const std::string service = std::to_string(port);
  AddrInfoList list;
  const int rc =
      ::getaddrinfo(host.empty() ? nullptr : host.c_str(), service.c_str(),
                    &hints, &list.head);
  if (rc != 0)
    throw ServeError(Status::kInternal, context,
                     "getaddrinfo '" + host + "': " + ::gai_strerror(rc));
  return list;
}

/// The port a bound socket actually listens on (resolves a port-0 bind).
std::uint16_t bound_port(int fd, const char* context) {
  sockaddr_storage addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    sys_fail(context, "getsockname");
  if (addr.ss_family == AF_INET)
    return ntohs(reinterpret_cast<const sockaddr_in*>(&addr)->sin_port);
  if (addr.ss_family == AF_INET6)
    return ntohs(reinterpret_cast<const sockaddr_in6*>(&addr)->sin6_port);
  throw ServeError(Status::kInternal, context,
                   "bound socket is not an inet socket");
}

/// The deadline/retry loop both connects share. `attempt` returns a
/// connected fd, or an empty one after a refusal worth retrying (the
/// daemon is still coming up: "start daemon; connect" scripts need no
/// sleep), and throws on anything else. Capped exponential backoff between
/// tries (1 ms doubling to 64 ms) spreads clients racing a starting daemon
/// instead of stampeding it at a fixed period.
template <typename Attempt>
UniqueFd connect_until(int timeout_ms, const std::string& target,
                       const char* context, Attempt&& attempt) {
  const auto deadline = deadline_from(timeout_ms);
  for (int backoff_ms = 1;; backoff_ms = std::min(backoff_ms * 2, 64)) {
    UniqueFd fd = attempt();
    if (fd.valid()) return fd;
    const int left = remaining_ms(deadline);
    if (left == 0)
      throw ServeError(Status::kTimeout, context,
                       "no daemon accepted " + target + " within " +
                           std::to_string(timeout_ms) + " ms");
    std::this_thread::sleep_for(
        std::chrono::milliseconds(std::min(backoff_ms, left)));
  }
}

}  // namespace

Endpoint parse_endpoint(const std::string& spec) {
  const char* context = "parse_endpoint";
  Endpoint ep;
  if (spec.rfind("tcp:", 0) == 0) {
    ep.tcp = true;
    const std::string rest = spec.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 == rest.size())
      throw ServeError(Status::kBadRequest, context,
                       "'" + spec + "' is not of the form tcp:HOST:PORT");
    ep.host = rest.substr(0, colon);
    const std::string port_str = rest.substr(colon + 1);
    // Digits only: std::stol would also take leading whitespace or a sign
    // ("tcp:host: 80", "tcp:host:+80"), which no resolver accepts — a spec
    // that only parses here would fail later, far from the typo.
    long port = 0;
    bool digits_ok = !port_str.empty() && port_str.size() <= 5;
    for (const char ch : port_str)
      if (ch < '0' || ch > '9') digits_ok = false;
    if (digits_ok) port = std::stol(port_str);
    if (!digits_ok || port > 65535)
      throw ServeError(Status::kBadRequest, context,
                       "'" + port_str + "' is not a port number (0-65535)");
    ep.port = static_cast<std::uint16_t>(port);
    return ep;
  }
  ep.unix_path = spec.rfind("unix:", 0) == 0 ? spec.substr(5) : spec;
  if (ep.unix_path.empty())
    throw ServeError(Status::kBadRequest, context,
                     spec.empty()
                         ? std::string("empty endpoint spec")
                         : "'" + spec + "' names an empty unix socket path");
  return ep;
}

std::string to_string(const Endpoint& endpoint) {
  if (endpoint.tcp)
    return "tcp:" + endpoint.host + ":" + std::to_string(endpoint.port);
  return "unix:" + endpoint.unix_path;
}

UniqueFd& UniqueFd::operator=(UniqueFd&& other) noexcept {
  if (this != &other) reset(other.release());
  return *this;
}

int UniqueFd::release() {
  const int fd = fd_;
  fd_ = -1;
  return fd;
}

void UniqueFd::reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

UniqueFd listen_unix(const std::string& path, int backlog) {
  const char* context = "listen_unix";
  const sockaddr_un addr = make_unix_address(path, context);
  UniqueFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) sys_fail(context, "socket");
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    if (errno != EADDRINUSE) sys_fail(context, "bind " + path);
    // The path exists. Distinguish a live daemon from a stale socket file
    // left by a crash: a probe connect reaches a live listener (or queues
    // on its backlog), while a dead socket file refuses. Only the dead
    // file may be unlinked — blindly unlinking would silently steal the
    // path from a running daemon.
    UniqueFd probe(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!probe.valid()) sys_fail(context, "socket (stale-path probe)");
    if (fault::sys_connect(probe.get(),
                           reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr)) == 0 ||
        (errno != ECONNREFUSED && errno != ENOENT))
      throw ServeError(Status::kInternal, context,
                       path + " is in use by a live daemon");
    ::unlink(path.c_str());
    if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0)
      sys_fail(context, "bind " + path + " (after unlinking a stale socket)");
  }
  if (::listen(fd.get(), backlog) != 0) sys_fail(context, "listen " + path);
  return fd;
}

TcpListener listen_tcp(const std::string& host, std::uint16_t port,
                       int backlog) {
  const char* context = "listen_tcp";
  const AddrInfoList list = resolve_tcp(host, port, /*passive=*/true, context);
  int last_errno = 0;
  for (const addrinfo* ai = list.head; ai != nullptr; ai = ai->ai_next) {
    UniqueFd fd(::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol));
    if (!fd.valid()) {
      last_errno = errno;
      continue;
    }
    // SO_REUSEADDR: a restarting daemon rebinds immediately instead of
    // waiting out TIME_WAIT from its previous incarnation's connections.
    const int one = 1;
    if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one)) != 0)
      sys_fail(context, "setsockopt SO_REUSEADDR");
    if (::bind(fd.get(), ai->ai_addr, ai->ai_addrlen) != 0 ||
        ::listen(fd.get(), backlog) != 0) {
      last_errno = errno;
      continue;
    }
    TcpListener listener;
    listener.port = bound_port(fd.get(), context);
    listener.fd = std::move(fd);
    return listener;
  }
  errno = last_errno;
  sys_fail(context, "bind/listen tcp:" + host + ":" + std::to_string(port));
}

UniqueFd connect_unix(const std::string& path, int timeout_ms) {
  const char* context = "connect_unix";
  const sockaddr_un addr = make_unix_address(path, context);
  return connect_until(timeout_ms, path, context, [&] {
    UniqueFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!fd.valid()) sys_fail(context, "socket");
    if (fault::sys_connect(fd.get(),
                           reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr)) == 0)
      return fd;
    if (errno != ECONNREFUSED && errno != ENOENT && errno != EINTR)
      sys_fail(context, "connect " + path);
    return UniqueFd();
  });
}

UniqueFd connect_tcp(const std::string& host, std::uint16_t port,
                     int timeout_ms) {
  const char* context = "connect_tcp";
  const AddrInfoList list =
      resolve_tcp(host, port, /*passive=*/false, context);
  const std::string target = "tcp:" + host + ":" + std::to_string(port);
  return connect_until(timeout_ms, target, context, [&] {
    for (const addrinfo* ai = list.head; ai != nullptr; ai = ai->ai_next) {
      UniqueFd fd(::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol));
      if (!fd.valid()) continue;
      if (fault::sys_connect(fd.get(), ai->ai_addr, ai->ai_addrlen) == 0) {
        set_tcp_nodelay(fd.get());
        return fd;
      }
      if (errno != ECONNREFUSED && errno != EINTR && errno != ETIMEDOUT)
        sys_fail(context, "connect " + target);
    }
    return UniqueFd();
  });
}

UniqueFd connect_endpoint(const Endpoint& endpoint, int timeout_ms) {
  if (endpoint.tcp) return connect_tcp(endpoint.host, endpoint.port, timeout_ms);
  return connect_unix(endpoint.unix_path, timeout_ms);
}

std::optional<UniqueFd> accept_pending(int listen_fd) {
  const char* context = "accept_pending";
  for (;;) {
    const int fd = fault::sys_accept(listen_fd);
    if (fd >= 0) return UniqueFd(fd);
    // EWOULDBLOCK is EAGAIN on Linux (the only platform: epoll/eventfd).
    if (errno == EAGAIN || errno == ECONNABORTED) return std::nullopt;
    if (errno != EINTR) sys_fail(context, "accept");
  }
}

void set_nonblocking(int fd) {
  const char* context = "set_nonblocking";
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0)
    sys_fail(context, "fcntl O_NONBLOCK");
}

void set_tcp_nodelay(int fd) {
  const int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0)
    sys_fail("set_tcp_nodelay", "setsockopt TCP_NODELAY");
}

void write_frame(int fd, const std::uint8_t* data, std::size_t size,
                 int timeout_ms, std::size_t max_frame) {
  const char* context = "write_frame";
  if (size > max_frame)
    throw ServeError(Status::kTooLarge, context,
                     "frame of " + std::to_string(size) +
                         " byte(s) exceeds the " + std::to_string(max_frame) +
                         "-byte bound");
  const auto deadline = deadline_from(timeout_ms);
  std::uint8_t prefix[4];
  encode_length(prefix, static_cast<std::uint32_t>(size));
  write_exact(fd, prefix, sizeof(prefix), deadline, context);
  write_exact(fd, data, size, deadline, context);
}

void write_frame(int fd, const std::vector<std::uint8_t>& frame,
                 int timeout_ms, std::size_t max_frame) {
  write_frame(fd, frame.data(), frame.size(), timeout_ms, max_frame);
}

bool read_frame_into(int fd, int timeout_ms, std::size_t max_frame,
                     std::vector<std::uint8_t>& payload) {
  const char* context = "read_frame";
  const auto deadline = deadline_from(timeout_ms);
  std::uint8_t prefix[4];
  if (!read_exact(fd, prefix, sizeof(prefix), deadline,
                  /*eof_ok_at_start=*/true, context))
    return false;
  const std::uint32_t size = decode_length(prefix);
  if (size > max_frame)
    throw ServeError(Status::kTooLarge, context,
                     "length prefix announces " + std::to_string(size) +
                         " byte(s), bound is " + std::to_string(max_frame));
  payload.resize(size);
  read_exact(fd, payload.data(), size, deadline, /*eof_ok_at_start=*/false,
             context);
  return true;
}

std::optional<std::vector<std::uint8_t>> read_frame(int fd, int timeout_ms,
                                                    std::size_t max_frame) {
  std::vector<std::uint8_t> payload;
  if (!read_frame_into(fd, timeout_ms, max_frame, payload))
    return std::nullopt;
  return payload;
}

void write_bytes(int fd, const std::uint8_t* data, std::size_t size,
                 int timeout_ms) {
  write_exact(fd, data, size, deadline_from(timeout_ms), "write_bytes");
}

void append_frame(std::vector<std::uint8_t>& out, const std::uint8_t* data,
                  std::size_t size, std::size_t max_frame) {
  if (size > max_frame)
    throw ServeError(Status::kTooLarge, "append_frame",
                     "frame of " + std::to_string(size) +
                         " byte(s) exceeds the " + std::to_string(max_frame) +
                         "-byte bound");
  std::uint8_t prefix[kFramePrefixBytes];
  encode_length(prefix, static_cast<std::uint32_t>(size));
  out.insert(out.end(), prefix, prefix + sizeof(prefix));
  out.insert(out.end(), data, data + size);
}

std::uint32_t decode_frame_length(const std::uint8_t* prefix) {
  return decode_length(prefix);
}

Poller::Poller() : epfd_(::epoll_create1(EPOLL_CLOEXEC)) {
  if (!epfd_.valid()) sys_fail("Poller", "epoll_create1");
}

void Poller::add(int fd, std::uint32_t events, std::uint64_t tag) {
  struct epoll_event ev{};
  ev.events = events;
  ev.data.u64 = tag;
  if (::epoll_ctl(epfd_.get(), EPOLL_CTL_ADD, fd, &ev) != 0)
    sys_fail("Poller::add", "epoll_ctl ADD");
}

void Poller::modify(int fd, std::uint32_t events, std::uint64_t tag) {
  struct epoll_event ev{};
  ev.events = events;
  ev.data.u64 = tag;
  if (::epoll_ctl(epfd_.get(), EPOLL_CTL_MOD, fd, &ev) != 0)
    sys_fail("Poller::modify", "epoll_ctl MOD");
}

void Poller::remove(int fd) {
  if (::epoll_ctl(epfd_.get(), EPOLL_CTL_DEL, fd, nullptr) != 0)
    sys_fail("Poller::remove", "epoll_ctl DEL");
}

int Poller::wait(struct epoll_event* out, int max_events, int timeout_ms) {
  const int rc =
      fault::sys_epoll_wait(epfd_.get(), out, max_events, timeout_ms);
  if (rc >= 0) return rc;
  if (errno == EINTR) return 0;  // spurious wakeup: loop re-checks state
  sys_fail("Poller::wait", "epoll_wait");
}

WakeupFd::WakeupFd() : fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
  if (!fd_.valid()) sys_fail("WakeupFd", "eventfd");
}

void WakeupFd::signal() noexcept {
  const std::uint64_t one = 1;
  // The counter saturating (EAGAIN) still leaves the fd readable, which
  // is all a wakeup needs; nothing to do on any failure.
  [[maybe_unused]] const ssize_t rc =
      ::write(fd_.get(), &one, sizeof(one));
}

void WakeupFd::drain() noexcept {
  std::uint64_t count = 0;
  [[maybe_unused]] const ssize_t rc =
      ::read(fd_.get(), &count, sizeof(count));
}

}  // namespace bmf::serve
