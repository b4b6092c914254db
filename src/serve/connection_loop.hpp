// The client-facing epoll loop both daemons run (DESIGN.md §8): bmf_served
// behind it computes, bmf_router forwards.
//
// One thread owns every client socket: the UNIX and/or TCP listeners
// (bound at construction, so a caller that sees the constructor return can
// connect), the non-blocking connections, and each connection's frame
// parser (FrameBuffer), reply sequencer (OrderedReplies) and outgoing
// bytes. A client may pipeline many frames; replies leave in arrival
// order and consecutive ones coalesce into single writes. Each connection
// carries one deadline, pushed out on accept, read progress and every
// answer; once per round the loop times out the connections past theirs,
// and it sleeps no longer than the earliest deadline left.
//
// Admission: up to max_connections connections are registered, up to
// max_pending more wait parked (accepted, unread), and beyond that a
// connection is shed with a structured kOverloaded reply. A connection
// stops being read once it holds max_pipeline unanswered frames. A frame
// stream that tears (an oversized length prefix, EOF mid-frame) gets its
// error reply after every earlier frame has been answered, then closes:
// bytes past a lost frame boundary cannot be trusted. Stopping drains:
// listeners close, parked connections are shed kShuttingDown, idle
// connections close, and every frame already received is answered.
//
// What a frame means belongs to the Handler. Once per round the loop hands
// it the connections holding complete frames; the handler consumes frames
// and answers each with complete(), in the same round or a later one. It
// may register fds of its own with poller() (the router's backend
// sockets) and gets their events back; threads of its own end the loop's
// wait with wake() (the server's workers, once a completion is queued).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "serve/connection.hpp"
#include "serve/error.hpp"
#include "serve/wire.hpp"

namespace bmf::serve {

/// How a non-blocking read_available left the stream.
enum class ReadStatus { kWouldBlock, kEof, kFailed };

/// Read non-blocking `fd` into `frames` until EAGAIN, EOF or a transport
/// failure. Throws ServeError(kTooLarge) when a length prefix exceeds the
/// buffer's bound (FrameBuffer::commit): the frame boundary is lost.
ReadStatus read_available(int fd, FrameBuffer& frames);

/// Send `wire` from `off` on non-blocking `fd` until done or EAGAIN;
/// clears both once everything is sent. False when the peer is gone.
bool send_available(int fd, std::vector<std::uint8_t>& wire, std::size_t& off);

/// The client-side bounds a daemon runs its ConnectionLoop with.
struct ConnectionLimits {
  std::size_t max_connections = 1;
  std::size_t max_pending = 0;
  std::size_t max_pipeline = 1;
  int request_timeout_ms = 5000;
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
};

class ConnectionLoop {
 public:
  /// One client connection. The handler reads `frames` and claims each
  /// frame's reply slot with `replies.reserve()`; the rest is the loop's.
  struct Conn {
    Conn(UniqueFd f, std::size_t max_frame)
        : fd(std::move(f)), frames(max_frame) {}

    UniqueFd fd;
    FrameBuffer frames;
    OrderedReplies replies;
    /// A parse-level tear's encoded error, held until every frame received
    /// before the tear has been answered.
    std::optional<std::vector<std::uint8_t>> tear_error;
    bool read_open = true;  // false after EOF, a tear, or drain
    bool close_after_flush = false;
    std::uint32_t events = EPOLLIN;  // interest currently registered
    std::vector<std::uint8_t> wire;  // outgoing prefixed replies
    std::size_t wire_off = 0;
    std::chrono::steady_clock::time_point deadline;  // see touch()

    bool write_pending() const { return wire_off < wire.size(); }
    bool work_left() const {
      return replies.outstanding() > 0 || frames.complete_frames() > 0 ||
             tear_error.has_value();
    }
  };

  class Handler {
   public:
    virtual ~Handler() = default;
    /// An event on an fd the handler registered with poller(), under a tag
    /// in [kHandlerTagBase, kConnTagBase).
    virtual void on_event(std::uint64_t tag, std::uint32_t events) = 0;
    /// Once per round, after the socket events.
    virtual void on_round() = 0;
    /// Once per round after on_round: the connections holding complete
    /// frames, in tag order. Every reply completed before this call has
    /// been drained, so `replies.outstanding()` counts exactly the frames
    /// the handler is still answering on that connection.
    virtual void on_frames(const std::vector<std::uint64_t>& ready) = 0;
    /// At the top of every round once the loop drains: true while work the
    /// drain must wait for remains.
    virtual bool drain_pending() = 0;
  };

  static constexpr std::uint64_t kHandlerTagBase = 16;
  static constexpr std::uint64_t kConnTagBase = std::uint64_t{1} << 32;

  /// Binds the listeners (a UNIX path and/or a "host:port" TCP spec; at
  /// least one). Throws ServeError when neither is set or one cannot bind.
  ConnectionLoop(const std::string& socket_path, const std::string& tcp_address,
                 ConnectionLimits limits);
  /// Unlinks the UNIX socket path (if any).
  ~ConnectionLoop();
  ConnectionLoop(const ConnectionLoop&) = delete;
  ConnectionLoop& operator=(const ConnectionLoop&) = delete;

  /// Serve until request_stop(), then drain and return. One thread only.
  void run(Handler& handler);

  /// Async-signal-safe (an atomic store, then wake() with errno
  /// preserved): an idle daemon starts its drain at once, without waiting
  /// out a round.
  void request_stop() noexcept;
  bool stop_requested() const noexcept {
    return stop_.load(std::memory_order_relaxed);
  }
  /// Ends the loop's current epoll_wait, so it runs a round (on_round
  /// included) now. Any thread; async-signal-safe (one eventfd write(2)).
  void wake() noexcept { wakeup_.signal(); }

  /// The TCP endpoint actually bound (port 0 resolved); .tcp is false when
  /// no TCP listener is configured.
  Endpoint tcp_endpoint() const { return tcp_endpoint_; }
  /// Connections shed at admission (kOverloaded) or drain (kShuttingDown).
  std::uint64_t connections_shed() const { return shed_.load(); }

  // ---- for the handler (loop thread) ----

  /// The live connection `tag`, or nullptr once it closed.
  Conn* find(std::uint64_t tag);
  /// Answer slot `seq` of connection `tag` (dropped if it closed). With
  /// close_after the frames after this one are discarded and the
  /// connection closes once the reply is flushed. The flush happens when
  /// the loop settles the connection later in the round, so a Conn the
  /// handler holds stays valid.
  void complete(std::uint64_t tag, std::uint64_t seq,
                std::vector<std::uint8_t> reply, bool close_after = false);
  Poller& poller() { return poller_; }

 private:
  using ConnMap = std::map<std::uint64_t, Conn>;

  void accept_burst(const UniqueFd& listener, bool tcp);
  void admit(UniqueFd fd);
  void make_active(UniqueFd fd);
  void shed(UniqueFd fd, Status status) noexcept;
  void on_conn_event(std::uint64_t tag, std::uint32_t events);
  bool drain_reads(Conn& c);
  bool try_flush(Conn& c);
  void settle(ConnMap::iterator it);
  void settle_dirty();
  void update_interest(std::uint64_t tag, Conn& c);
  ConnMap::iterator close_conn(ConnMap::iterator it);
  void touch(Conn& c);
  int sweep();
  ConnMap::iterator time_out(ConnMap::iterator it);
  void start_drain();

  const ConnectionLimits limits_;
  std::string socket_path_;
  UniqueFd unix_listen_;
  UniqueFd tcp_listen_;
  Endpoint tcp_endpoint_;
  Poller poller_;
  std::atomic<bool> stop_{false};
  WakeupFd wakeup_;  // see wake()
  std::atomic<std::uint64_t> shed_{0};
  // Ordered containers (repo lint: no unordered ones in serve sources).
  ConnMap conns_;
  std::deque<UniqueFd> parked_;
  std::uint64_t next_tag_ = kConnTagBase;
  bool draining_ = false;
  /// Connections answered since they were last settled.
  std::vector<std::uint64_t> dirty_;
  std::vector<std::uint64_t> ready_scratch_;
};

}  // namespace bmf::serve
