#include "serve/connection_loop.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>

#include "fault/fault.hpp"
#include "serve/protocol.hpp"

namespace bmf::serve {

namespace {

/// Epoll timeout cap: the handler's on_round cadence when nothing else
/// wakes the loop (request_stop() and wake() end the wait at once).
constexpr int kLoopTickMs = 100;

/// Deadline for the best-effort error reply on a shed or timed-out
/// connection. Short: the point of shedding is to stay responsive, not to
/// babysit the peer.
constexpr int kShedReplyTimeoutMs = 100;

/// Default read size when the frame parser has no better hint. Large
/// enough that a burst of small pipelined frames lands in one syscall.
constexpr std::size_t kReadChunkBytes = std::size_t{64} * 1024;

constexpr std::uint64_t kTagUnixListener = 1;
constexpr std::uint64_t kTagTcpListener = 2;
constexpr std::uint64_t kTagWakeup = 3;

using Clock = std::chrono::steady_clock;

}  // namespace

ReadStatus read_available(int fd, FrameBuffer& frames) {
  for (;;) {
    // Size the window to finish the pending frame in one read when its
    // length is known; otherwise a chunk that covers a pipelined burst.
    // Bytes land directly in the frame buffer: a large evaluate frame is
    // read straight into the storage it is decoded from.
    const std::size_t want = std::max(frames.missing_bytes(), kReadChunkBytes);
    const ssize_t got = fault::sys_read(fd, frames.write_window(want), want);
    if (got > 0) {
      frames.commit(static_cast<std::size_t>(got));
      continue;
    }
    if (got == 0) return ReadStatus::kEof;
    if (errno == EINTR) continue;
    // EWOULDBLOCK is EAGAIN on Linux (the only platform: epoll/eventfd).
    return errno == EAGAIN ? ReadStatus::kWouldBlock : ReadStatus::kFailed;
  }
}

bool send_available(int fd, std::vector<std::uint8_t>& wire,
                    std::size_t& off) {
  while (off < wire.size()) {
    const ssize_t sent = fault::sys_send(fd, wire.data() + off,
                                         wire.size() - off, MSG_NOSIGNAL);
    if (sent >= 0) {
      off += static_cast<std::size_t>(sent);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN) return true;  // kernel buffer full: EPOLLOUT re-arms
    return false;                      // EPIPE/ECONNRESET: peer gone
  }
  wire.clear();
  off = 0;
  return true;
}

ConnectionLoop::ConnectionLoop(const std::string& socket_path,
                               const std::string& tcp_address,
                               ConnectionLimits limits)
    : limits_(limits), socket_path_(socket_path) {
  if (socket_path.empty() && tcp_address.empty())
    throw ServeError(Status::kInternal, "listen",
                     "no transport configured: set socket_path and/or "
                     "tcp_address");
  poller_.add(wakeup_.fd(), EPOLLIN, kTagWakeup);
  if (!socket_path.empty()) {
    unix_listen_ = listen_unix(socket_path);
    set_nonblocking(unix_listen_.get());
    poller_.add(unix_listen_.get(), EPOLLIN, kTagUnixListener);
  }
  if (!tcp_address.empty()) {
    const Endpoint requested = parse_endpoint("tcp:" + tcp_address);
    TcpListener listener = listen_tcp(requested.host, requested.port);
    tcp_listen_ = std::move(listener.fd);
    tcp_endpoint_.tcp = true;
    tcp_endpoint_.host = requested.host.empty() ? "127.0.0.1" : requested.host;
    tcp_endpoint_.port = listener.port;
    set_nonblocking(tcp_listen_.get());
    poller_.add(tcp_listen_.get(), EPOLLIN, kTagTcpListener);
  }
}

ConnectionLoop::~ConnectionLoop() {
  if (!socket_path_.empty()) ::unlink(socket_path_.c_str());
}

void ConnectionLoop::request_stop() noexcept {
  const int saved_errno = errno;  // may run inside a signal handler
  stop_.store(true, std::memory_order_relaxed);
  wake();
  errno = saved_errno;
}

void ConnectionLoop::run(Handler& handler) {
  std::array<struct epoll_event, 64> events{};
  int wait_ms = kLoopTickMs;
  for (;;) {
    if (stop_requested() && !draining_) start_drain();
    if (draining_ && !handler.drain_pending() && conns_.empty()) return;
    const int n = poller_.wait(events.data(), static_cast<int>(events.size()),
                               wait_ms);
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[static_cast<std::size_t>(i)].data.u64;
      const std::uint32_t ev = events[static_cast<std::size_t>(i)].events;
      if (tag == kTagWakeup) {
        wakeup_.drain();  // on_round below; the stop check next round
      } else if (tag == kTagUnixListener) {
        accept_burst(unix_listen_, /*tcp=*/false);
      } else if (tag == kTagTcpListener) {
        accept_burst(tcp_listen_, /*tcp=*/true);
      } else if (tag < kConnTagBase) {
        handler.on_event(tag, ev);
      } else {
        on_conn_event(tag, ev);
      }
    }
    handler.on_round();
    settle_dirty();
    wait_ms = sweep();
    if (!ready_scratch_.empty()) handler.on_frames(ready_scratch_);
    settle_dirty();
  }
}

ConnectionLoop::Conn* ConnectionLoop::find(std::uint64_t tag) {
  const auto it = conns_.find(tag);
  return it == conns_.end() ? nullptr : &it->second;
}

void ConnectionLoop::complete(std::uint64_t tag, std::uint64_t seq,
                              std::vector<std::uint8_t> reply,
                              bool close_after) {
  Conn* c = find(tag);
  if (c == nullptr) return;  // the client left before its reply was ready
  c->replies.complete(seq, std::move(reply));
  if (close_after) {
    // Torn after this frame (undecodable) or shut down by it: the bytes
    // behind it cannot be trusted / will never be served.
    c->frames.discard();
    c->tear_error.reset();
    c->read_open = false;
    c->close_after_flush = true;
  }
  touch(*c);
  dirty_.push_back(tag);
}

void ConnectionLoop::accept_burst(const UniqueFd& listener, bool tcp) {
  for (;;) {
    std::optional<UniqueFd> conn = accept_pending(listener.get());
    if (!conn) return;
    if (tcp) set_tcp_nodelay(conn->get());
    admit(std::move(*conn));
  }
}

void ConnectionLoop::admit(UniqueFd fd) {
  if (draining_) {
    shed(std::move(fd), Status::kShuttingDown);
  } else if (conns_.size() < limits_.max_connections) {
    make_active(std::move(fd));
  } else if (parked_.size() < limits_.max_pending) {
    // Accepted but unregistered: the peer sees an established connection
    // and its first frames sit in kernel buffers until a slot frees up.
    parked_.push_back(std::move(fd));
  } else {
    shed(std::move(fd), Status::kOverloaded);
  }
}

void ConnectionLoop::make_active(UniqueFd fd) {
  set_nonblocking(fd.get());
  const std::uint64_t tag = next_tag_++;
  auto it = conns_.try_emplace(tag, std::move(fd), limits_.max_frame_bytes)
                .first;
  poller_.add(it->second.fd.get(), EPOLLIN, tag);
  touch(it->second);
}

void ConnectionLoop::shed(UniqueFd fd, Status status) noexcept {
  shed_.fetch_add(1, std::memory_order_relaxed);
  try {
    const ServeError e(
        status, "admission",
        status == Status::kOverloaded
            ? "all " + std::to_string(limits_.max_connections) +
                  " connection slot(s) busy and " +
                  std::to_string(limits_.max_pending) +
                  " pending slot(s) full; retry with backoff"
            : "server is draining; connection rejected");
    write_frame(fd.get(), encode_error(e), kShedReplyTimeoutMs,
                limits_.max_frame_bytes);
  } catch (...) {
    // Best effort only: the peer may already be gone, and a shed path
    // that can throw would defeat its purpose.
  }
}

void ConnectionLoop::on_conn_event(std::uint64_t tag, std::uint32_t ev) {
  auto it = conns_.find(tag);
  if (it == conns_.end()) return;  // closed earlier in this batch
  Conn& c = it->second;
  if ((ev & (EPOLLHUP | EPOLLERR)) != 0 && (ev & EPOLLIN) == 0) {
    close_conn(it);  // peer is gone and nothing is readable
    return;
  }
  if ((ev & EPOLLOUT) != 0 && !try_flush(c)) {
    close_conn(it);
    return;
  }
  if ((ev & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0 && c.read_open) {
    if (!drain_reads(c)) {
      close_conn(it);
      return;
    }
    touch(c);
  }
  settle(it);
}

/// Read until EAGAIN. Returns false when the transport failed and the
/// connection should close silently.
bool ConnectionLoop::drain_reads(Conn& c) {
  ReadStatus status = ReadStatus::kWouldBlock;
  try {
    status = read_available(c.fd.get(), c.frames);
  } catch (const ServeError& e) {
    // Oversized length prefix: frames already buffered are answered, the
    // error reply follows them, then close.
    c.read_open = false;
    c.tear_error = encode_error(e);
    return true;
  }
  if (status == ReadStatus::kFailed) return false;
  if (status == ReadStatus::kEof) {
    c.read_open = false;
    if (c.frames.mid_frame()) {
      // The same verdict the blocking read path gives a truncated frame.
      c.tear_error = encode_error(ServeError(
          Status::kBadRequest, "read_frame", "connection closed mid-frame"));
    } else {
      c.close_after_flush = true;  // clean half-close: answer, then close
    }
  }
  return true;
}

/// Queue every in-order reply (and a tear error once nothing precedes it)
/// and send as much as the socket accepts. False when the peer is gone.
bool ConnectionLoop::try_flush(Conn& c) {
  try {
    c.replies.drain_ready(c.wire, limits_.max_frame_bytes);
    if (c.tear_error && c.replies.outstanding() == 0 &&
        c.frames.complete_frames() == 0) {
      append_frame(c.wire, c.tear_error->data(), c.tear_error->size(),
                   limits_.max_frame_bytes);
      c.tear_error.reset();
      c.close_after_flush = true;
    }
  } catch (const ServeError&) {
    return false;  // reply exceeds the frame bound: unservable connection
  }
  return send_available(c.fd.get(), c.wire, c.wire_off);
}

/// Flush, close when nothing remains, refresh epoll interest otherwise.
void ConnectionLoop::settle(ConnMap::iterator it) {
  Conn& c = it->second;
  if (!try_flush(c) ||
      (c.close_after_flush && !c.work_left() && !c.write_pending())) {
    close_conn(it);
    return;
  }
  update_interest(it->first, c);
}

void ConnectionLoop::settle_dirty() {
  if (dirty_.empty()) return;
  std::sort(dirty_.begin(), dirty_.end());
  dirty_.erase(std::unique(dirty_.begin(), dirty_.end()), dirty_.end());
  for (const std::uint64_t tag : dirty_) {
    auto it = conns_.find(tag);
    if (it != conns_.end()) settle(it);
  }
  dirty_.clear();
}

void ConnectionLoop::update_interest(std::uint64_t tag, Conn& c) {
  std::uint32_t want = 0;
  // Pipelining backpressure: past max_pipeline unanswered frames the loop
  // stops reading; the client blocks in its own send once kernel buffers
  // fill. Answers shrink the count and re-arm EPOLLIN.
  if (c.read_open && c.frames.complete_frames() + c.replies.outstanding() <
                         limits_.max_pipeline)
    want |= EPOLLIN;
  if (c.write_pending()) want |= EPOLLOUT;
  if (want != c.events) {
    poller_.modify(c.fd.get(), want, tag);
    c.events = want;
  }
}

ConnectionLoop::ConnMap::iterator ConnectionLoop::close_conn(
    ConnMap::iterator it) {
  poller_.remove(it->second.fd.get());
  auto next = conns_.erase(it);
  while (!draining_ && !parked_.empty() &&
         conns_.size() < limits_.max_connections) {
    make_active(std::move(parked_.front()));
    parked_.pop_front();
  }
  return next;
}

/// Push the connection's deadline out one full timeout: on accept, on
/// read progress, and on every answer.
void ConnectionLoop::touch(Conn& c) {
  c.deadline =
      Clock::now() + std::chrono::milliseconds(limits_.request_timeout_ms);
}

/// The round's pass over the connections: collect those holding complete
/// frames into ready_scratch_ and time out those past their deadline.
/// Returns how long the loop may sleep: until the earliest deadline left,
/// rounded up to whole milliseconds so the loop never spins, capped at
/// kLoopTickMs.
int ConnectionLoop::sweep() {
  ready_scratch_.clear();
  const Clock::time_point now = Clock::now();
  Clock::time_point earliest = now + std::chrono::milliseconds(kLoopTickMs);
  for (auto it = conns_.begin(); it != conns_.end();) {
    Conn& c = it->second;
    if (c.deadline <= now) {
      if (!c.work_left()) {
        it = time_out(it);
        continue;
      }
      // Answers still being computed or forwarded: not stalled. Answers
      // push the deadline out; this re-arm covers the gap.
      touch(c);
    }
    if (c.frames.complete_frames() > 0) ready_scratch_.push_back(it->first);
    earliest = std::min(earliest, c.deadline);
    ++it;
  }
  const auto wait =
      std::chrono::ceil<std::chrono::milliseconds>(earliest - now).count();
  return std::max(1, static_cast<int>(wait));
}

/// Close a connection past its deadline with nothing left to answer.
ConnectionLoop::ConnMap::iterator ConnectionLoop::time_out(
    ConnMap::iterator it) {
  Conn& c = it->second;
  if (!c.write_pending()) {
    // Idle (no request arrived) or stalled mid-frame: a structured
    // kTimeout verdict, best effort, then close. A peer that stopped
    // reading its replies gets nothing: there is no one to tell.
    const std::string timeout = std::to_string(limits_.request_timeout_ms);
    const ServeError e(
        Status::kTimeout, "serve_connection",
        c.frames.mid_frame()
            ? "request frame stalled mid-transfer for " + timeout + " ms"
            : "no request arrived within " + timeout + " ms");
    try {
      write_frame(c.fd.get(), encode_error(e), kShedReplyTimeoutMs,
                  limits_.max_frame_bytes);
    } catch (const ServeError&) {
    }
  }
  return close_conn(it);
}

void ConnectionLoop::start_drain() {
  draining_ = true;
  for (UniqueFd* listener : {&unix_listen_, &tcp_listen_}) {
    if (!listener->valid()) continue;
    poller_.remove(listener->get());
    listener->reset();
  }
  // Parked connections were never read from: a structured rejection, not
  // a silent close.
  for (UniqueFd& fd : parked_) shed(std::move(fd), Status::kShuttingDown);
  parked_.clear();
  // Everything already received is answered and flushed; idle
  // connections close now.
  for (auto it = conns_.begin(); it != conns_.end();) {
    Conn& c = it->second;
    c.read_open = false;
    if (!c.work_left() && !c.write_pending()) {
      it = close_conn(it);
    } else {
      c.close_after_flush = true;
      update_interest(it->first, c);
      ++it;
    }
  }
}

}  // namespace bmf::serve
