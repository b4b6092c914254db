// Client library for the bmf_served protocol. One Client owns one
// connection — UNIX-domain or TCP, chosen by the endpoint spec — and
// requests are issued synchronously (send frame, await reply) or
// pipelined (evaluate_pipeline: many frames in flight, coalesced writes,
// replies consumed strictly in order). Server-side failures surface as
// the same ServeError the server threw — status, context, and message
// cross the wire intact.
//
// The client is self-healing: when a request fails in transit (connection
// refused, dropped mid-frame, timed out) or the server sheds it
// (kOverloaded, kShuttingDown) or times it out before execution
// (kTimeout), the client reconnects and retries under a RetryPolicy —
// bounded attempts, a single total deadline budget, and exponential
// backoff with decorrelated jitter so a fleet of clients recovering from
// the same outage does not retry in lockstep. Retries respect
// idempotency: ping/evaluate/list repeat safely and retry on any
// transport failure; publish and shutdown are retried only when the
// failure provably precedes execution (connect failed, or the server
// rejected the connection at admission before reading the request).
// Permanent errors — unknown model, malformed request, oversized frame —
// are never retried.
//
// Threading model: a Client is *externally synchronized*. It owns one
// connection and mutates per-request state (socket, RNG, pipeline queue)
// without internal locking, so concurrent calls on one Client are a data
// race by construction. Use one Client per thread (they are cheap — one
// fd each); the server side handles the concurrency. This is why the
// capability map in DESIGN.md §11 lists no capabilities for Client.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/error.hpp"

#include "linalg/matrix.hpp"
#include "serve/backoff.hpp"
#include "serve/fitted_model.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "serve/wire.hpp"

namespace bmf::serve {

/// Bounds on the client's reconnect-and-retry loop.
struct RetryPolicy {
  /// Total attempts per request (1 = no retries).
  int max_attempts = 4;
  /// First backoff sleep; later sleeps draw from [base, 3 * previous]
  /// (decorrelated jitter), capped at max_backoff_ms.
  int base_backoff_ms = 5;
  int max_backoff_ms = 200;
  /// Single deadline budget across all attempts and backoff sleeps of one
  /// request: no retry starts after it expires.
  int budget_ms = 10000;
  /// Seed for the jitter RNG (deterministic backoff sequences in tests).
  std::uint64_t seed = 1;
};

/// Counters for observing the retry loop (tests assert bounded retries;
/// operators can log them).
struct RetryStats {
  std::uint64_t attempts = 0;    // round-trip attempts, first try included
  std::uint64_t retries = 0;     // attempts after the first
  std::uint64_t reconnects = 0;  // connect calls after the initial one
};

class Client {
 public:
  /// Connects (retrying until `timeout_ms` while the daemon comes up).
  /// The same timeout is then the per-request deadline. `endpoint` is a
  /// spec per parse_endpoint: "tcp:HOST:PORT", "unix:PATH", or a bare
  /// UNIX socket path (the historical form).
  explicit Client(const std::string& endpoint, int timeout_ms = 5000,
                  std::size_t max_frame_bytes = kDefaultMaxFrameBytes,
                  RetryPolicy policy = RetryPolicy{});

  /// Round-trip an empty request (liveness probe).
  void ping();

  /// Publish a model under `name`; returns the assigned version.
  std::uint64_t publish(const std::string& name, const FittedModel& model);

  /// Publish pre-serialized BMFB bytes (e.g. straight from a file) without
  /// decoding them locally; the server validates.
  std::uint64_t publish_blob(const std::string& name,
                             const std::vector<std::uint8_t>& blob);

  struct Evaluation {
    std::uint64_t version = 0;  // version that produced the values
    linalg::Vector values;      // one prediction per batch row
  };

  /// Evaluate a B x R batch against `name` (version 0 = latest).
  Evaluation evaluate(const std::string& name, const linalg::Matrix& points,
                      std::uint64_t version = 0);

  /// Evaluate many batches with up to `depth` requests in flight on the
  /// one connection (0 is taken as 1). Frames queued for the same window
  /// coalesce into single writes, and replies are consumed strictly in
  /// request order, so results[i] always answers batches[i]. Idempotent
  /// like evaluate: a transport failure reconnects and replays the whole
  /// pipeline under the retry policy. A semantic error reply (kNotFound,
  /// ...) absorbs the remaining in-flight replies to keep the stream
  /// aligned, then throws.
  std::vector<Evaluation> evaluate_pipeline(
      const std::string& name, const std::vector<linalg::Matrix>& batches,
      std::uint64_t version = 0, std::size_t depth = 1);

  /// Registry snapshot (sorted by name).
  std::vector<ModelInfo> list();

  struct Solve {
    linalg::Vector coefficients;     // M MAP coefficients
    linalg::RobustSpdReport report;  // degradation diagnostic (never thrown)
  };

  /// Server-side MAP solve of (tau D + G^T G) x = tau D mu + G^T f with
  /// D = diag(q). Numerically indefinite kernels degrade (jitter, then
  /// pseudo-solve) instead of failing; `report` says which path ran.
  /// Idempotent, so it retries like evaluate.
  Solve solve(const linalg::Matrix& g, const linalg::Vector& f,
              const linalg::Vector& q, const linalg::Vector& mu, double tau);

  /// Daemon counters (uptime, models resident, evals served, queue depth).
  /// Read-only and cheap server-side: the shard router uses it as its
  /// health probe. Idempotent, so it retries like ping.
  StatsResponse stats();

  /// Durable-store health (WAL size, snapshot progress, recovery
  /// counters). enabled is 0 when the daemon runs without --store — the
  /// other fields are then all zero. Read-only, so it retries like stats.
  StoreInfoResponse store_info();

  /// Drop retained versions of `name` server-side: the exact `version`, or
  /// every version when `version` is 0. Returns the number of entries
  /// removed. Idempotent (evicting what is already gone removes 0), so
  /// transport failures retry freely.
  std::uint64_t evict(const std::string& name, std::uint64_t version = 0);

  /// Ask the daemon to drain and exit (acknowledged before it stops).
  void shutdown_server();

  const RetryStats& retry_stats() const { return stats_; }

 private:
  /// How a request may be retried after a failure.
  enum class Idempotency {
    kRetryable,    // safe to re-execute (ping, evaluate, list)
    kPreSendOnly,  // retry only failures that precede execution (publish)
  };

  /// Where in an attempt a ServeError escaped — drives the retry
  /// classification (a locally-thrown kTimeout means something very
  /// different from a server reply carrying kTimeout).
  enum class FailurePoint {
    kConnect,      // connect failed: nothing was ever sent
    kTransport,    // send/receive failed: execution state unknown
    kServerReply,  // a structured error reply arrived intact
  };

  /// Send `frame`, read the reply, and return the kOk body (throws the
  /// rehydrated ServeError on an error reply), reconnecting and retrying
  /// per `policy_` as allowed by `idempotency`.
  std::vector<std::uint8_t> round_trip(const std::vector<std::uint8_t>& frame,
                                       Idempotency idempotency);

  /// One attempt: reconnect if needed, send, await, unwrap. On throw,
  /// `failed_at` reports how far the attempt got.
  std::vector<std::uint8_t> attempt_once(
      const std::vector<std::uint8_t>& frame, bool first_attempt,
      FailurePoint& failed_at);

  /// One pipelined-evaluate attempt over the whole batch list.
  std::vector<Evaluation> pipeline_once(const std::string& name,
                                        const std::vector<linalg::Matrix>&
                                            batches,
                                        std::uint64_t version,
                                        std::size_t depth, bool first_attempt,
                                        FailurePoint& failed_at);

  /// Classify a failed attempt (resetting fd_ where the stream is no
  /// longer trustworthy) and report whether a retry is allowed.
  bool retry_allowed(const ServeError& error, FailurePoint failed_at,
                     Idempotency idempotency);

  /// Decorrelated-jitter sleep between attempts (never past `deadline`).
  void backoff_sleep(std::chrono::steady_clock::time_point deadline);

  /// The shared reconnect-and-retry loop: run `attempt(first, failed_at)`
  /// under policy_, retrying as `idempotency` and the failure
  /// classification allow.
  template <typename Attempt>
  auto with_retries(Idempotency idempotency, Attempt&& attempt) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(policy_.budget_ms);
    backoff_.reset();
    for (int attempt_no = 1;; ++attempt_no) {
      ++stats_.attempts;
      FailurePoint failed_at = FailurePoint::kConnect;
      try {
        return attempt(attempt_no == 1, failed_at);
      } catch (const ServeError& e) {
        if (!retry_allowed(e, failed_at, idempotency) ||
            attempt_no >= policy_.max_attempts ||
            std::chrono::steady_clock::now() >= deadline)
          throw;
      }
      ++stats_.retries;
      backoff_sleep(deadline);
    }
  }

  /// Run a response-body decoder; if it throws, the reply was structurally
  /// invalid (e.g. truncated by a corrupted length prefix), so the stream
  /// may hold leftover bytes that would misalign the next request — drop
  /// the connection before rethrowing.
  template <typename Decode>
  auto decode_or_drop(Decode&& decode) {
    try {
      return decode();
    } catch (...) {
      fd_.reset();
      throw;
    }
  }

  UniqueFd fd_;
  /// Scratch frame reused across evaluate calls: batches are large enough
  /// that a fresh allocation per request costs as much as encoding itself.
  std::vector<std::uint8_t> frame_;
  Endpoint endpoint_;
  int timeout_ms_;
  std::size_t max_frame_bytes_;
  RetryPolicy policy_;
  RetryStats stats_;
  Backoff backoff_;  // its RNG runs on across requests
};

}  // namespace bmf::serve
