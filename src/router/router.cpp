#include "router/router.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "serve/backoff.hpp"
#include "serve/protocol.hpp"

namespace bmf::router {

namespace {

using serve::ConnectionLoop;
using serve::Endpoint;
using serve::FrameBuffer;
using serve::MessageType;
using serve::ModelInfo;
using serve::RouteInfo;
using serve::ServeError;
using serve::StatsResponse;
using serve::Status;
using serve::StoreInfoResponse;
using serve::UniqueFd;

/// Per-attempt connect budget for a down backend. Connects run on the loop
/// thread (a localhost connect to a listening daemon is immediate), so
/// this also bounds the loop stall when a backend is down at attempt time.
constexpr int kConnectTimeoutMs = 50;

/// Backend i's reconnect Backoff draws from kJitterSeed + i: schedules are
/// deterministic, and distinct per backend.
constexpr std::uint64_t kJitterSeed = 1;

using Clock = std::chrono::steady_clock;

ServeError upstream_error(const std::string& what) {
  return ServeError(Status::kUpstreamUnavailable, "route", what);
}

}  // namespace

/// run()'s routing state behind the connection loop: the backends, their
/// pending queues and the fan-out records. Single-threaded: the router
/// never computes, so there is no worker pool and no lock — every
/// structure here is owned by the loop thread.
class RouterLoop final : public ConnectionLoop::Handler {
 public:
  RouterLoop(Router& router, ConnectionLoop& loop)
      : router_(router),
        opt_(router.options_),
        loop_(loop),
        replicas_(std::min(std::max<std::size_t>(opt_.replicas, 1),
                           router.ring_.num_backends())),
        quorum_(replicas_ / 2 + 1) {
    backends_.reserve(router_.backend_endpoints_.size());
    for (std::size_t i = 0; i < router_.backend_endpoints_.size(); ++i)
      backends_.emplace_back(
          router_.backend_endpoints_[i], opt_.max_frame_bytes,
          serve::Backoff(std::max(opt_.reconnect_base_ms, 1),
                         std::max(opt_.reconnect_cap_ms, 1), kJitterSeed + i));
    // Connect before accepting any client frame: the listeners are bound,
    // so a client racing in at startup must not observe a router with
    // zero up backends.
    check_backends(Clock::now());
  }

  void on_event(std::uint64_t tag, std::uint32_t ev) override {
    handle_backend_event(
        static_cast<std::size_t>(tag - ConnectionLoop::kHandlerTagBase), ev);
  }
  void on_round() override { check_backends(Clock::now()); }
  void on_frames(const std::vector<std::uint64_t>& ready) override;
  bool drain_pending() override { return false; }

 private:
  struct FanOut;

  /// One request in flight on a backend connection. Backends answer
  /// strictly in request order, so the per-backend deque is matched
  /// positionally: every reply resolves pending.front().
  struct Pending {
    enum class Kind {
      kProxy,  // single-shard request (evaluate / solve): reply forwarded
      kFan,    // one leg of a fan-out (publish / evict / list / stats)
      kProbe,  // router-originated kStats liveness probe
    };
    Kind kind = Kind::kProbe;
    std::uint64_t client_tag = 0;
    std::uint64_t seq = 0;
    /// The request frame, retained so a kProxy can replay onto a replica
    /// after a transport failure (evaluate/solve are idempotent).
    std::vector<std::uint8_t> frame;
    MessageType type = MessageType::kPing;
    /// Failover candidates left for a kProxy, in preference order.
    std::vector<std::size_t> remaining_owners;
    std::shared_ptr<FanOut> fan;
    Clock::time_point sent;
  };

  /// Scatter-gather record for one fanned-out request. Legs complete in
  /// any order (and any interleaving with other requests); the client
  /// reply materializes when every leg has answered or failed.
  struct FanOut {
    std::uint64_t client_tag = 0;
    std::uint64_t seq = 0;
    MessageType type = MessageType::kPing;
    std::size_t expected = 0;   // legs sent
    std::size_t acks = 0;       // kOk replies
    std::size_t failures = 0;   // transport failures (backend died)
    std::size_t quorum = 1;     // acks needed for a mutation to succeed
    /// First structured non-kOk verdict from an owner, forwarded verbatim
    /// when the quorum fails (it names the real reason).
    std::optional<std::vector<std::uint8_t>> semantic_error;
    std::uint64_t max_version = 0;   // publish: max assigned version
    std::uint64_t max_removed = 0;   // evict: entries one full owner held
    StatsResponse stats_sum;         // stats: summed counters
    /// store-info: summed counters, except last_snapshot_seq (max across
    /// shards — sequence numbers are shard-local, a sum is meaningless).
    /// enabled sums to the number of durable shards.
    StoreInfoResponse store_sum;
    std::map<std::string, ModelInfo> merged_models;  // list: union by name
    bool done = false;

    std::size_t answered() const { return acks + failures; }
  };

  struct Backend {
    Backend(Endpoint ep, std::size_t max_frame, serve::Backoff reconnect)
        : endpoint(std::move(ep)),
          frames(std::make_unique<FrameBuffer>(max_frame)),
          backoff(reconnect) {}

    Endpoint endpoint;
    UniqueFd fd;
    bool up = false;
    std::unique_ptr<FrameBuffer> frames;  // replies (unique_ptr: moveable)
    std::vector<std::uint8_t> wire;       // outgoing prefixed frames
    std::size_t wire_off = 0;
    std::deque<Pending> pending;
    std::uint32_t events = 0;
    bool probe_in_flight = false;
    Clock::time_point next_connect;  // the epoch: connect eagerly
    Clock::time_point next_probe;
    serve::Backoff backoff;  // reconnect delays while down

    bool write_pending() const { return wire_off < wire.size(); }
  };

  // -- routing --
  /// Returns true when the frame tore the stream (remaining buffered
  /// bytes were discarded — the caller must not pop).
  bool route_one(std::uint64_t tag, std::uint64_t seq,
                 const std::uint8_t* frame, std::size_t size);
  void start_proxy(std::uint64_t tag, std::uint64_t seq, RouteInfo info,
                   const std::uint8_t* frame, std::size_t size);
  void start_fan(std::uint64_t tag, std::uint64_t seq, const RouteInfo& info,
                 const std::uint8_t* frame, std::size_t size);
  StatsResponse router_stats(const StatsResponse& backend_sum) const;

  // -- backend side --
  std::vector<std::size_t> up_owners(const std::string& name) const;
  void send_to_backend(std::size_t index, Pending pending);
  void update_backend_interest(std::size_t index);
  void handle_backend_event(std::size_t index, std::uint32_t ev);
  void process_backend_replies(std::size_t index);
  void resolve_reply(std::size_t index, Pending pending,
                     const std::uint8_t* frame, std::size_t size);
  void apply_fan_leg(FanOut& fan, const std::uint8_t* frame,
                     std::size_t size);
  void finish_fan(FanOut& fan);
  void fail_backend(std::size_t index, const char* why);
  void failover_proxy(Pending pending);
  void try_connect(std::size_t index);
  void send_probe(std::size_t index);
  void check_backends(Clock::time_point now);

  Router& router_;
  const RouterOptions& opt_;
  ConnectionLoop& loop_;
  std::size_t replicas_;
  std::size_t quorum_;
  std::vector<Backend> backends_;
  std::size_t solve_rr_ = 0;  // round-robin cursor for solve routing
};

// ---- routing ---------------------------------------------------------------

/// Forward every complete frame in the round it arrived.
void RouterLoop::on_frames(const std::vector<std::uint64_t>& ready) {
  for (const std::uint64_t tag : ready) {
    ConnectionLoop::Conn& c = *loop_.find(tag);
    while (c.frames.complete_frames() > 0) {
      if (route_one(tag, c.replies.reserve(), c.frames.front_data(),
                    c.frames.front_size()))
        break;  // stream torn: the remaining frames were discarded
      c.frames.pop_front();
    }
  }
}

bool RouterLoop::route_one(std::uint64_t tag, std::uint64_t seq,
                           const std::uint8_t* frame, std::size_t size) {
  router_.requests_routed_.fetch_add(1, std::memory_order_relaxed);
  RouteInfo info;
  try {
    info = serve::peek_route(frame, size);
  } catch (const ServeError& e) {
    // Undecodable verb/name: same verdict and torn-stream semantics the
    // daemon gives an undecodable frame — reply in order, then close.
    loop_.complete(tag, seq, serve::encode_error(e), /*close_after=*/true);
    return true;
  }
  switch (info.type) {
    case MessageType::kPing:
      loop_.complete(tag, seq, serve::encode_ok());
      return false;
    case MessageType::kShutdown:
      // Drains the router only. Backends are independent daemons with
      // their own lifecycles — a client-facing shutdown must not take
      // the whole cluster down.
      loop_.complete(tag, seq, serve::encode_ok(), /*close_after=*/true);
      loop_.request_stop();
      return true;
    case MessageType::kEvaluate:
    case MessageType::kSolve:
      start_proxy(tag, seq, std::move(info), frame, size);
      return false;
    case MessageType::kPublish:
    case MessageType::kEvict:
    case MessageType::kList:
    case MessageType::kStats:
    case MessageType::kStoreInfo:
      start_fan(tag, seq, info, frame, size);
      return false;
  }
  return false;
}

/// Up backends owning `name`, primary first (ring order preserved).
std::vector<std::size_t> RouterLoop::up_owners(const std::string& name) const {
  std::vector<std::size_t> owners = router_.ring_.owners(name, replicas_);
  std::vector<std::size_t> up;
  up.reserve(owners.size());
  for (const std::size_t b : owners)
    if (backends_[b].up) up.push_back(b);
  return up;
}

void RouterLoop::start_proxy(std::uint64_t tag, std::uint64_t seq,
                             RouteInfo info, const std::uint8_t* frame,
                             std::size_t size) {
  std::vector<std::size_t> candidates;
  if (info.type == MessageType::kEvaluate) {
    candidates = up_owners(info.name);
  } else {
    // solve is stateless: any up backend, rotating for balance.
    for (std::size_t i = 0; i < backends_.size(); ++i) {
      const std::size_t b = (solve_rr_ + i) % backends_.size();
      if (backends_[b].up) candidates.push_back(b);
    }
    ++solve_rr_;
  }
  if (candidates.empty()) {
    router_.upstream_unavailable_.fetch_add(1, std::memory_order_relaxed);
    loop_.complete(
        tag, seq,
        serve::encode_error(upstream_error(
            info.type == MessageType::kEvaluate
                ? "no live shard owns model '" + info.name + "'"
                : "no live shard available for solve")));
    return;
  }
  Pending p;
  p.kind = Pending::Kind::kProxy;
  p.client_tag = tag;
  p.seq = seq;
  p.frame.assign(frame, frame + size);
  p.type = info.type;
  p.remaining_owners.assign(candidates.begin() + 1, candidates.end());
  send_to_backend(candidates.front(), std::move(p));
}

void RouterLoop::start_fan(std::uint64_t tag, std::uint64_t seq,
                           const RouteInfo& info, const std::uint8_t* frame,
                           std::size_t size) {
  const bool mutation = info.type == MessageType::kPublish ||
                        info.type == MessageType::kEvict;
  std::vector<std::size_t> targets;
  if (mutation) {
    targets = up_owners(info.name);
    // A mutation that cannot reach a quorum of its owners would leave the
    // replica set divergent with no success to show for it: fail fast,
    // before any owner executes it.
    if (targets.size() < quorum_) {
      router_.upstream_unavailable_.fetch_add(1, std::memory_order_relaxed);
      loop_.complete(
          tag, seq,
          serve::encode_error(upstream_error(
              std::to_string(targets.size()) + " of " +
              std::to_string(replicas_) + " owner(s) of '" + info.name +
              "' are up; quorum needs " + std::to_string(quorum_))));
      return;
    }
  } else {
    for (std::size_t b = 0; b < backends_.size(); ++b)
      if (backends_[b].up) targets.push_back(b);
    if (targets.empty()) {
      router_.upstream_unavailable_.fetch_add(1, std::memory_order_relaxed);
      loop_.complete(tag, seq,
                      serve::encode_error(
                          upstream_error("no live shard to aggregate from")));
      return;
    }
  }
  auto fan = std::make_shared<FanOut>();
  fan->client_tag = tag;
  fan->seq = seq;
  fan->type = info.type;
  fan->expected = targets.size();
  fan->quorum = mutation ? quorum_ : 1;
  for (const std::size_t b : targets) {
    Pending p;
    p.kind = Pending::Kind::kFan;
    p.client_tag = tag;
    p.seq = seq;
    p.frame.assign(frame, frame + size);
    p.type = info.type;
    p.fan = fan;
    send_to_backend(b, std::move(p));
  }
}

StatsResponse RouterLoop::router_stats(const StatsResponse& backend_sum) const {
  StatsResponse out = backend_sum;
  // Uptime is the router's own; the backend sum would be meaningless.
  out.uptime_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          Clock::now() - router_.start_time_)
          .count());
  return out;
}

// ---- backend side ----------------------------------------------------------

void RouterLoop::send_to_backend(std::size_t index, Pending pending) {
  Backend& b = backends_[index];
  pending.sent = Clock::now();
  serve::append_frame(b.wire, pending.frame.data(), pending.frame.size(),
                      opt_.max_frame_bytes);
  b.pending.push_back(std::move(pending));
  if (!serve::send_available(b.fd.get(), b.wire, b.wire_off)) {
    fail_backend(index, "send failed");
    return;
  }
  update_backend_interest(index);
}

void RouterLoop::update_backend_interest(std::size_t index) {
  Backend& b = backends_[index];
  if (!b.fd.valid()) return;
  std::uint32_t want = EPOLLIN;
  if (b.write_pending()) want |= EPOLLOUT;
  if (want != b.events) {
    loop_.poller().modify(b.fd.get(), want,
                           ConnectionLoop::kHandlerTagBase + index);
    b.events = want;
  }
}

void RouterLoop::handle_backend_event(std::size_t index, std::uint32_t ev) {
  Backend& b = backends_[index];
  if (!b.fd.valid()) return;  // failed earlier in this event batch
  if ((ev & (EPOLLHUP | EPOLLERR)) != 0 && (ev & EPOLLIN) == 0) {
    fail_backend(index, "connection reset");
    return;
  }
  if ((ev & EPOLLOUT) != 0 &&
      !serve::send_available(b.fd.get(), b.wire, b.wire_off)) {
    fail_backend(index, "send failed");
    return;
  }
  if ((ev & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
    serve::ReadStatus status = serve::ReadStatus::kFailed;
    try {
      status = serve::read_available(b.fd.get(), *b.frames);
    } catch (const ServeError&) {
      // Oversized/garbled reply prefix: the stream is unusable.
    }
    if (status != serve::ReadStatus::kWouldBlock) {  // EOF is a failure too
      fail_backend(index, "read failed");
      return;
    }
    process_backend_replies(index);
  }
  update_backend_interest(index);
}

void RouterLoop::process_backend_replies(std::size_t index) {
  Backend& b = backends_[index];
  while (b.frames->complete_frames() > 0) {
    if (b.pending.empty()) {
      // A reply with no matching request: the stream is out of step.
      fail_backend(index, "unsolicited reply");
      return;
    }
    Pending pending = std::move(b.pending.front());
    b.pending.pop_front();
    resolve_reply(index, std::move(pending), b.frames->front_data(),
                  b.frames->front_size());
    if (!b.fd.valid()) return;  // resolve path failed the backend
    b.frames->pop_front();
  }
}

void RouterLoop::resolve_reply(std::size_t index, Pending pending,
                               const std::uint8_t* frame, std::size_t size) {
  switch (pending.kind) {
    case Pending::Kind::kProbe: {
      backends_[index].probe_in_flight = false;
      return;  // any intact reply is proof of life
    }
    case Pending::Kind::kProxy: {
      // Forwarded verbatim: an evaluate through the router is
      // byte-identical to one against the shard directly. A semantic
      // error reply (kNotFound, ...) is the shard's verdict — failover
      // is for transport failures only.
      loop_.complete(pending.client_tag, pending.seq,
                      std::vector<std::uint8_t>(frame, frame + size));
      return;
    }
    case Pending::Kind::kFan: {
      FanOut& fan = *pending.fan;
      if (fan.done) return;
      apply_fan_leg(fan, frame, size);
      if (fan.answered() == fan.expected) finish_fan(fan);
      return;
    }
  }
}

void RouterLoop::apply_fan_leg(FanOut& fan, const std::uint8_t* frame,
                               std::size_t size) {
  if (size == 0) {
    ++fan.failures;
    return;
  }
  if (frame[0] != static_cast<std::uint8_t>(Status::kOk)) {
    // Structured verdict from an owner. Remember the first one — if the
    // quorum fails it names the actual reason better than a generic
    // kUpstreamUnavailable.
    if (!fan.semantic_error)
      fan.semantic_error = std::vector<std::uint8_t>(frame, frame + size);
    ++fan.failures;
    return;
  }
  const std::uint8_t* body = frame + 1;
  const std::size_t body_size = size - 1;
  try {
    switch (fan.type) {
      case MessageType::kPublish:
        fan.max_version = std::max(
            fan.max_version, serve::decode_publish_response(body, body_size));
        break;
      case MessageType::kEvict:
        fan.max_removed = std::max(
            fan.max_removed, serve::decode_evict_response(body, body_size));
        break;
      case MessageType::kStats: {
        const StatsResponse s = serve::decode_stats_response(body, body_size);
        fan.stats_sum.models_resident += s.models_resident;
        fan.stats_sum.evals_served += s.evals_served;
        fan.stats_sum.requests_served += s.requests_served;
        fan.stats_sum.queue_depth += s.queue_depth;
        break;
      }
      case MessageType::kStoreInfo: {
        const StoreInfoResponse s =
            serve::decode_store_info_response(body, body_size);
        fan.store_sum.enabled += s.enabled;
        fan.store_sum.wal_bytes += s.wal_bytes;
        fan.store_sum.wal_records += s.wal_records;
        fan.store_sum.appends += s.appends;
        fan.store_sum.syncs += s.syncs;
        fan.store_sum.snapshots_written += s.snapshots_written;
        fan.store_sum.last_snapshot_seq =
            std::max(fan.store_sum.last_snapshot_seq, s.last_snapshot_seq);
        fan.store_sum.records_replayed += s.records_replayed;
        fan.store_sum.truncation_events += s.truncation_events;
        break;
      }
      case MessageType::kList: {
        // Union by name: replicas hold copies, so counts must not sum.
        // Shard-local version counters may differ — report the highest.
        for (ModelInfo& m : serve::decode_list_response(body, body_size)) {
          auto [it, inserted] = fan.merged_models.try_emplace(m.name, m);
          if (!inserted && m.latest_version > it->second.latest_version)
            it->second = m;
          else if (!inserted)
            it->second.retained =
                std::max(it->second.retained, m.retained);
        }
        break;
      }
      case MessageType::kPing:  // never fanned out (start_fan's verbs only)
      case MessageType::kEvaluate:
      case MessageType::kShutdown:
      case MessageType::kSolve:
        break;
    }
    ++fan.acks;
  } catch (const ServeError&) {
    ++fan.failures;  // undecodable kOk body: treat the leg as failed
  }
}

void RouterLoop::finish_fan(FanOut& fan) {
  fan.done = true;
  std::vector<std::uint8_t> reply;
  if (fan.acks >= fan.quorum) {
    switch (fan.type) {
      case MessageType::kPublish:
        reply = serve::encode_publish_response(fan.max_version);
        break;
      case MessageType::kEvict:
        reply = serve::encode_evict_response(fan.max_removed);
        break;
      case MessageType::kStats:
        reply = serve::encode_stats_response(router_stats(fan.stats_sum));
        break;
      case MessageType::kStoreInfo:
        reply = serve::encode_store_info_response(fan.store_sum);
        break;
      case MessageType::kList: {
        std::vector<ModelInfo> rows;
        rows.reserve(fan.merged_models.size());
        for (auto& [name, info] : fan.merged_models) rows.push_back(info);
        reply = serve::encode_list_response(rows);
        break;
      }
      case MessageType::kPing:  // never fanned out (start_fan's verbs only)
      case MessageType::kEvaluate:
      case MessageType::kShutdown:
      case MessageType::kSolve:
        reply = serve::encode_ok();
        break;
    }
  } else if (fan.semantic_error) {
    reply = std::move(*fan.semantic_error);
  } else {
    router_.upstream_unavailable_.fetch_add(1, std::memory_order_relaxed);
    reply = serve::encode_error(upstream_error(
        std::to_string(fan.acks) + " of " + std::to_string(fan.expected) +
        " shard(s) acknowledged; quorum needs " +
        std::to_string(fan.quorum)));
  }
  loop_.complete(fan.client_tag, fan.seq, std::move(reply));
}

void RouterLoop::fail_backend(std::size_t index, const char* why) {
  Backend& b = backends_[index];
  if (b.fd.valid()) {
    loop_.poller().remove(b.fd.get());
    b.fd.reset();
  }
  b.up = false;
  b.events = 0;
  b.frames->discard();
  b.wire.clear();
  b.wire_off = 0;
  b.probe_in_flight = false;
  b.next_connect =
      Clock::now() + std::chrono::milliseconds(b.backoff.next_ms());
  (void)why;

  // The dying backend must not torch unrelated in-flight requests: every
  // pending entry re-resolves onto a replica or answers structurally.
  std::deque<Pending> orphans;
  orphans.swap(b.pending);
  for (Pending& p : orphans) {
    switch (p.kind) {
      case Pending::Kind::kProbe:
        break;  // the probe's job is done: it found the failure
      case Pending::Kind::kProxy:
        failover_proxy(std::move(p));
        break;
      case Pending::Kind::kFan: {
        FanOut& fan = *p.fan;
        if (fan.done) break;
        // Mid-fan transport loss: the leg may or may not have executed
        // (publish through a fan is quorum-accounted, not replayed — the
        // reply, had it arrived, is unknowable).
        ++fan.failures;
        if (fan.answered() == fan.expected) finish_fan(fan);
        break;
      }
    }
  }
}

void RouterLoop::failover_proxy(Pending pending) {
  while (!pending.remaining_owners.empty()) {
    const std::size_t next = pending.remaining_owners.front();
    pending.remaining_owners.erase(pending.remaining_owners.begin());
    if (!backends_[next].up) continue;
    // evaluate/solve are idempotent: replaying onto a replica cannot
    // double-execute anything observable (mirrors the client-side
    // RetryPolicy classification for these verbs).
    router_.failovers_.fetch_add(1, std::memory_order_relaxed);
    send_to_backend(next, std::move(pending));
    return;
  }
  router_.upstream_unavailable_.fetch_add(1, std::memory_order_relaxed);
  loop_.complete(pending.client_tag, pending.seq,
                  serve::encode_error(upstream_error(
                      "shard failed mid-request and no replica is up")));
}

void RouterLoop::try_connect(std::size_t index) {
  Backend& b = backends_[index];
  try {
    UniqueFd fd = serve::connect_endpoint(b.endpoint, kConnectTimeoutMs);
    serve::set_nonblocking(fd.get());
    b.fd = std::move(fd);
    b.events = EPOLLIN;
    loop_.poller().add(b.fd.get(), EPOLLIN,
                       ConnectionLoop::kHandlerTagBase + index);
    b.up = true;
    b.backoff.reset();
    b.next_probe = Clock::now();  // probe immediately to confirm liveness
  } catch (const ServeError&) {
    b.next_connect =
        Clock::now() + std::chrono::milliseconds(b.backoff.next_ms());
  }
}

void RouterLoop::send_probe(std::size_t index) {
  Backend& b = backends_[index];
  b.probe_in_flight = true;
  b.next_probe =
      Clock::now() + std::chrono::milliseconds(opt_.probe_interval_ms);
  router_.probes_sent_.fetch_add(1, std::memory_order_relaxed);
  Pending p;
  p.kind = Pending::Kind::kProbe;
  p.frame = serve::encode_request(serve::StatsRequest{});
  p.type = MessageType::kStats;
  send_to_backend(index, std::move(p));
}

void RouterLoop::check_backends(Clock::time_point now) {
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    Backend& b = backends_[i];
    if (!b.up) {
      if (now >= b.next_connect) try_connect(i);
      continue;
    }
    // Head-of-line deadline: backends answer in order, so the front
    // pending entry is the oldest outstanding request. Silence past the
    // deadline means the shard is wedged (or the network ate the reply)
    // — either way its stream is unusable.
    if (!b.pending.empty() &&
        now - b.pending.front().sent >
            std::chrono::milliseconds(opt_.backend_timeout_ms)) {
      fail_backend(i, "head-of-line reply deadline expired");
      continue;
    }
    if (!b.probe_in_flight && now >= b.next_probe) send_probe(i);
  }
}

// ---- Router ----------------------------------------------------------------

Router::Router(RouterOptions options)
    : options_(std::move(options)), ring_(options_.backends) {
  backend_endpoints_.reserve(options_.backends.size());
  for (const std::string& spec : options_.backends)
    backend_endpoints_.push_back(serve::parse_endpoint(spec));
  if (options_.max_pipeline == 0) options_.max_pipeline = 1;
  if (options_.max_connections == 0) options_.max_connections = 1;
  loop_ = std::make_unique<ConnectionLoop>(
      options_.socket_path, options_.tcp_address,
      serve::ConnectionLimits{
          .max_connections = options_.max_connections,
          .max_pending = options_.max_pending,
          .max_pipeline = options_.max_pipeline,
          .request_timeout_ms = options_.request_timeout_ms,
          .max_frame_bytes = options_.max_frame_bytes});
}

void Router::run() {
  RouterLoop handler(*this, *loop_);
  loop_->run(handler);
}

}  // namespace bmf::router
