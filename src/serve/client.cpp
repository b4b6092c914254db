#include "serve/client.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "serve/model_codec.hpp"
#include "serve/protocol.hpp"

namespace bmf::serve {

namespace {

using Clock = std::chrono::steady_clock;

int remaining_ms(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - Clock::now())
                        .count();
  return left > 0 ? static_cast<int>(left) : 0;
}

/// Statuses the server emits before executing the request: at admission
/// (kOverloaded, kShuttingDown) or after its read deadline expired with
/// the request still un-decoded (kTimeout). Retrying them cannot
/// double-execute anything, so even non-idempotent requests may retry.
bool pre_execution_status(Status status) {
  return status == Status::kOverloaded || status == Status::kShuttingDown ||
         status == Status::kTimeout;
}

}  // namespace

Client::Client(const std::string& endpoint, int timeout_ms,
               std::size_t max_frame_bytes, RetryPolicy policy)
    : endpoint_(parse_endpoint(endpoint)),
      timeout_ms_(timeout_ms),
      max_frame_bytes_(max_frame_bytes),
      policy_(policy),
      backoff_(policy.base_backoff_ms, policy.max_backoff_ms, policy.seed) {
  fd_ = connect_endpoint(endpoint_, timeout_ms_);
}

std::vector<std::uint8_t> Client::attempt_once(
    const std::vector<std::uint8_t>& frame, bool first_attempt,
    FailurePoint& failed_at) {
  failed_at = FailurePoint::kConnect;
  if (!fd_.valid()) {
    fd_ = connect_endpoint(endpoint_, timeout_ms_);
    if (!first_attempt) ++stats_.reconnects;
  }
  failed_at = FailurePoint::kTransport;

  // A complete reply frame means the stream is still aligned; a ServeError
  // past unwrap() is the server's structured verdict, not a transport
  // failure — unless expect_ok could not even parse the frame (corrupted
  // in transit), which is transport-grade: the frame boundary itself
  // cannot be trusted.
  auto unwrap = [&](const std::vector<std::uint8_t>& reply) {
    failed_at = FailurePoint::kServerReply;
    try {
      auto [body, size] = expect_ok(reply);
      return std::vector<std::uint8_t>(body, body + size);
    } catch (const ServeError& e) {
      if (e.context() == "expect_ok") failed_at = FailurePoint::kTransport;
      throw;
    }
  };

  try {
    write_frame(fd_.get(), frame, timeout_ms_, max_frame_bytes_);
  } catch (const ServeError& write_error) {
    if (write_error.status() == Status::kTooLarge) throw;
    // The peer closed mid-write. A server that shed this connection at
    // admission (kOverloaded / kShuttingDown) wrote its verdict before
    // closing, so prefer that structured reason over a bare EPIPE.
    std::optional<std::vector<std::uint8_t>> verdict;
    try {
      verdict = read_frame(fd_.get(), timeout_ms_, max_frame_bytes_);
    } catch (const ServeError&) {
      throw write_error;
    }
    if (!verdict) throw write_error;
    return unwrap(*verdict);
  }

  std::optional<std::vector<std::uint8_t>> reply =
      read_frame(fd_.get(), timeout_ms_, max_frame_bytes_);
  if (!reply)
    throw ServeError(Status::kInternal, "Client::round_trip",
                     "server closed the connection without replying");
  return unwrap(*reply);
}

bool Client::retry_allowed(const ServeError& e, FailurePoint failed_at,
                           Idempotency idempotency) {
  if (failed_at == FailurePoint::kServerReply) {
    // Structured reply. Pre-execution rejections (shed at admission, or
    // timed out before the request was decoded) are retryable for every
    // request — the server provably never ran it — and precede the
    // server closing the connection, so drop ours too. Anything else
    // (kNotFound, kBadRequest, ...) is the request's final verdict:
    // rethrow and keep the connection usable.
    const bool retryable = pre_execution_status(e.status());
    if (retryable) fd_.reset();
    return retryable;
  }
  // Local transport failure: the stream position is unknown, so the
  // connection is gone either way. Retry if re-executing is safe
  // (idempotent request), or if nothing was ever sent (connect failed).
  // kTooLarge is permanent — the frame will never fit.
  fd_.reset();
  return e.status() != Status::kTooLarge &&
         (idempotency == Idempotency::kRetryable ||
          failed_at == FailurePoint::kConnect);
}

void Client::backoff_sleep(Clock::time_point deadline) {
  const int sleep_ms = std::min(backoff_.next_ms(), remaining_ms(deadline));
  if (sleep_ms > 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
}

std::vector<std::uint8_t> Client::round_trip(
    const std::vector<std::uint8_t>& frame, Idempotency idempotency) {
  return with_retries(idempotency,
                      [&](bool first_attempt, FailurePoint& failed_at) {
                        return attempt_once(frame, first_attempt, failed_at);
                      });
}

void Client::ping() {
  round_trip(encode_request(PingRequest{}), Idempotency::kRetryable);
}

std::uint64_t Client::publish(const std::string& name,
                              const FittedModel& model) {
  return publish_blob(name, serialize_model(model));
}

std::uint64_t Client::publish_blob(const std::string& name,
                                   const std::vector<std::uint8_t>& blob) {
  PublishRequest request;
  request.name = name;
  request.blob = blob;
  // Publishing twice would mint two registry versions, so transport
  // failures after the frame may have been sent are not retried.
  const std::vector<std::uint8_t> body =
      round_trip(encode_request(request), Idempotency::kPreSendOnly);
  return decode_or_drop(
      [&] { return decode_publish_response(body.data(), body.size()); });
}

Client::Evaluation Client::evaluate(const std::string& name,
                                    const linalg::Matrix& points,
                                    std::uint64_t version) {
  // Encode straight from the caller's matrix into the reusable scratch
  // frame: no Request copy of the batch, no fresh frame allocation.
  frame_ = encode_evaluate_request(name, version, points, std::move(frame_));
  const std::vector<std::uint8_t> body =
      round_trip(frame_, Idempotency::kRetryable);
  EvaluateResponse response = decode_or_drop(
      [&] { return decode_evaluate_response(body.data(), body.size()); });
  return Evaluation{response.version, std::move(response.values)};
}

std::vector<Client::Evaluation> Client::pipeline_once(
    const std::string& name, const std::vector<linalg::Matrix>& batches,
    std::uint64_t version, std::size_t depth, bool first_attempt,
    FailurePoint& failed_at) {
  failed_at = FailurePoint::kConnect;
  if (!fd_.valid()) {
    fd_ = connect_endpoint(endpoint_, timeout_ms_);
    if (!first_attempt) ++stats_.reconnects;
  }
  failed_at = FailurePoint::kTransport;

  std::vector<Evaluation> results;
  results.reserve(batches.size());
  std::size_t next_send = 0;
  std::size_t next_recv = 0;
  std::vector<std::uint8_t> wire;
  std::vector<std::uint8_t> reply;
  while (next_recv < batches.size()) {
    // Top up the in-flight window. Every frame queued in this round —
    // the whole initial burst, one frame per reply thereafter — leaves
    // in a single coalesced write.
    wire.clear();
    while (next_send < batches.size() && next_send - next_recv < depth) {
      frame_ = encode_evaluate_request(name, version, batches[next_send],
                                       std::move(frame_));
      append_frame(wire, frame_.data(), frame_.size(), max_frame_bytes_);
      ++next_send;
    }
    if (!wire.empty())
      write_bytes(fd_.get(), wire.data(), wire.size(), timeout_ms_);

    if (!read_frame_into(fd_.get(), timeout_ms_, max_frame_bytes_, reply))
      throw ServeError(Status::kInternal, "Client::evaluate_pipeline",
                       "server closed the connection mid-pipeline (" +
                           std::to_string(next_recv) + " of " +
                           std::to_string(batches.size()) +
                           " replies received)");
    failed_at = FailurePoint::kServerReply;
    try {
      auto [body, size] = expect_ok(reply);
      EvaluateResponse response = decode_or_drop(
          [&] { return decode_evaluate_response(body, size); });
      results.push_back(
          Evaluation{response.version, std::move(response.values)});
    } catch (const ServeError& e) {
      if (e.context() == "expect_ok") {
        // The reply frame itself would not parse: transport-grade.
        failed_at = FailurePoint::kTransport;
        fd_.reset();
        throw;
      }
      // Semantic verdict mid-pipeline (kNotFound, dimension mismatch...).
      // Replies for the requests already in flight are still coming;
      // absorb them so the stream stays aligned, then rethrow the first
      // verdict. (A pre-execution status closes the connection server
      // side; retry_allowed resets fd_ for those.)
      try {
        for (std::size_t i = next_recv + 1; i < next_send; ++i)
          if (!read_frame_into(fd_.get(), timeout_ms_, max_frame_bytes_,
                               reply)) {
            fd_.reset();
            break;
          }
      } catch (const ServeError&) {
        fd_.reset();
      }
      throw;
    }
    failed_at = FailurePoint::kTransport;
    ++next_recv;
  }
  return results;
}

std::vector<Client::Evaluation> Client::evaluate_pipeline(
    const std::string& name, const std::vector<linalg::Matrix>& batches,
    std::uint64_t version, std::size_t depth) {
  if (batches.empty()) return {};
  if (depth == 0) depth = 1;
  // Idempotent like evaluate: a transport failure replays the whole
  // pipeline on a fresh connection.
  return with_retries(Idempotency::kRetryable,
                      [&](bool first_attempt, FailurePoint& failed_at) {
                        return pipeline_once(name, batches, version, depth,
                                             first_attempt, failed_at);
                      });
}

Client::Solve Client::solve(const linalg::Matrix& g, const linalg::Vector& f,
                            const linalg::Vector& q, const linalg::Vector& mu,
                            double tau) {
  SolveRequest request;
  request.g = g;
  request.f = f;
  request.q = q;
  request.mu = mu;
  request.tau = tau;
  const std::vector<std::uint8_t> body =
      round_trip(encode_request(request), Idempotency::kRetryable);
  SolveResponse response = decode_or_drop(
      [&] { return decode_solve_response(body.data(), body.size()); });
  return Solve{std::move(response.coefficients), response.report};
}

std::vector<ModelInfo> Client::list() {
  const std::vector<std::uint8_t> body =
      round_trip(encode_request(ListRequest{}), Idempotency::kRetryable);
  return decode_or_drop(
      [&] { return decode_list_response(body.data(), body.size()); });
}

StatsResponse Client::stats() {
  const std::vector<std::uint8_t> body =
      round_trip(encode_request(StatsRequest{}), Idempotency::kRetryable);
  return decode_or_drop(
      [&] { return decode_stats_response(body.data(), body.size()); });
}

StoreInfoResponse Client::store_info() {
  const std::vector<std::uint8_t> body =
      round_trip(encode_request(StoreInfoRequest{}), Idempotency::kRetryable);
  return decode_or_drop(
      [&] { return decode_store_info_response(body.data(), body.size()); });
}

std::uint64_t Client::evict(const std::string& name, std::uint64_t version) {
  EvictRequest request;
  request.name = name;
  request.version = version;
  const std::vector<std::uint8_t> body =
      round_trip(encode_request(request), Idempotency::kRetryable);
  return decode_or_drop(
      [&] { return decode_evict_response(body.data(), body.size()); });
}

void Client::shutdown_server() {
  // Re-requesting shutdown is harmless (the flag is idempotent), but a
  // retry against an already-draining daemon would just consume the
  // budget; pre-send-only keeps the common case to one attempt.
  round_trip(encode_request(ShutdownRequest{}), Idempotency::kPreSendOnly);
}

}  // namespace bmf::serve
