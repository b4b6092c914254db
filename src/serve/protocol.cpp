#include "serve/protocol.hpp"

#include "serve/bytes.hpp"

namespace bmf::serve {

namespace {

constexpr const char* kDecodeRequest = "decode_request";

[[noreturn]] void bad_request(const std::string& message) {
  throw ServeError(Status::kBadRequest, kDecodeRequest, message);
}

ByteReader request_reader(const std::uint8_t* data, std::size_t size) {
  return ByteReader(data, size, Status::kBadRequest, kDecodeRequest);
}

ByteReader response_reader(const std::uint8_t* data, std::size_t size,
                           const char* context) {
  return ByteReader(data, size, Status::kBadRequest, context);
}

}  // namespace

// ---- Request codecs --------------------------------------------------------

std::vector<std::uint8_t> encode_request(const Request& request) {
  ByteWriter w;
  if (std::holds_alternative<PingRequest>(request)) {
    w.u8(static_cast<std::uint8_t>(MessageType::kPing));
  } else if (const auto* pub = std::get_if<PublishRequest>(&request)) {
    w.u8(static_cast<std::uint8_t>(MessageType::kPublish));
    w.str16(pub->name);
    w.u32(static_cast<std::uint32_t>(pub->blob.size()));
    w.raw(pub->blob.data(), pub->blob.size());
  } else if (const auto* ev = std::get_if<EvaluateRequest>(&request)) {
    return encode_evaluate_request(ev->name, ev->version, ev->points,
                                   w.take());
  } else if (std::holds_alternative<ListRequest>(request)) {
    w.u8(static_cast<std::uint8_t>(MessageType::kList));
  } else if (std::holds_alternative<StatsRequest>(request)) {
    w.u8(static_cast<std::uint8_t>(MessageType::kStats));
  } else if (std::holds_alternative<StoreInfoRequest>(request)) {
    w.u8(static_cast<std::uint8_t>(MessageType::kStoreInfo));
  } else if (const auto* evt = std::get_if<EvictRequest>(&request)) {
    w.u8(static_cast<std::uint8_t>(MessageType::kEvict));
    w.str16(evt->name);
    w.u64(evt->version);
  } else if (const auto* sv = std::get_if<SolveRequest>(&request)) {
    w.u8(static_cast<std::uint8_t>(MessageType::kSolve));
    w.u64(sv->g.rows());
    w.u64(sv->g.cols());
    w.f64_array(sv->g.data(), sv->g.size());
    w.f64_array(sv->f.data(), sv->f.size());
    w.f64_array(sv->q.data(), sv->q.size());
    w.f64_array(sv->mu.data(), sv->mu.size());
    w.f64(sv->tau);
  } else {
    w.u8(static_cast<std::uint8_t>(MessageType::kShutdown));
  }
  return w.take();
}

std::vector<std::uint8_t> encode_evaluate_request(
    const std::string& name, std::uint64_t version,
    const linalg::Matrix& points, std::vector<std::uint8_t> recycle) {
  ByteWriter w(std::move(recycle));
  w.u8(static_cast<std::uint8_t>(MessageType::kEvaluate));
  w.str16(name);
  w.u64(version);
  w.u64(points.rows());
  w.u64(points.cols());
  w.f64_array(points.data(), points.size());
  return w.take();
}

Request decode_request(const std::uint8_t* data, std::size_t size) {
  ByteReader r = request_reader(data, size);
  const std::uint8_t type = r.u8();
  switch (type) {
    case static_cast<std::uint8_t>(MessageType::kPing): {
      r.expect_done();
      return PingRequest{};
    }
    case static_cast<std::uint8_t>(MessageType::kPublish): {
      PublishRequest pub;
      pub.name = r.str16();
      if (pub.name.empty()) bad_request("publish with an empty model name");
      const std::uint32_t blob_size = r.u32();
      if (blob_size != r.remaining())
        bad_request("publish blob size field says " +
                    std::to_string(blob_size) + " byte(s), frame carries " +
                    std::to_string(r.remaining()));
      const std::uint8_t* blob = r.raw(blob_size);
      pub.blob.assign(blob, blob + blob_size);
      r.expect_done();
      return pub;
    }
    case static_cast<std::uint8_t>(MessageType::kEvaluate): {
      EvaluateRequest ev;
      ev.name = r.str16();
      if (ev.name.empty()) bad_request("evaluate with an empty model name");
      ev.version = r.u64();
      const std::uint64_t rows = r.u64();
      const std::uint64_t cols = r.u64();
      if (rows == 0) bad_request("evaluate with an empty batch");
      // 8 bytes per entry must exactly fill the rest of the frame; this
      // also rejects rows*cols overflows before the allocation below.
      if (cols == 0 || rows > r.remaining() / 8 / cols ||
          rows * cols * 8 != r.remaining())
        bad_request("evaluate batch of " + std::to_string(rows) + " x " +
                    std::to_string(cols) + " entries does not match the " +
                    std::to_string(r.remaining()) + " remaining byte(s)");
      ev.points.assign(rows, cols);
      r.f64_array(ev.points.data(), ev.points.size());
      r.expect_done();
      return ev;
    }
    case static_cast<std::uint8_t>(MessageType::kList): {
      r.expect_done();
      return ListRequest{};
    }
    case static_cast<std::uint8_t>(MessageType::kShutdown): {
      r.expect_done();
      return ShutdownRequest{};
    }
    case static_cast<std::uint8_t>(MessageType::kStats): {
      r.expect_done();
      return StatsRequest{};
    }
    case static_cast<std::uint8_t>(MessageType::kStoreInfo): {
      r.expect_done();
      return StoreInfoRequest{};
    }
    case static_cast<std::uint8_t>(MessageType::kEvict): {
      EvictRequest evt;
      evt.name = r.str16();
      if (evt.name.empty()) bad_request("evict with an empty model name");
      evt.version = r.u64();
      r.expect_done();
      return evt;
    }
    case static_cast<std::uint8_t>(MessageType::kSolve): {
      SolveRequest sv;
      const std::uint64_t k = r.u64();
      const std::uint64_t m = r.u64();
      if (k == 0 || m == 0) bad_request("solve with an empty system");
      // (K*M + K + 2M + 1) f64 entries must exactly fill the rest of the
      // frame; the division guards K*M overflow before any allocation.
      if (k > r.remaining() / 8 / m ||
          (k * m + k + 2 * m + 1) * 8 != r.remaining())
        bad_request("solve system of " + std::to_string(k) + " x " +
                    std::to_string(m) + " entries does not match the " +
                    std::to_string(r.remaining()) + " remaining byte(s)");
      sv.g.assign(k, m);
      r.f64_array(sv.g.data(), sv.g.size());
      sv.f.resize(k);
      r.f64_array(sv.f.data(), sv.f.size());
      sv.q.resize(m);
      r.f64_array(sv.q.data(), sv.q.size());
      sv.mu.resize(m);
      r.f64_array(sv.mu.data(), sv.mu.size());
      sv.tau = r.f64();
      r.expect_done();
      return sv;
    }
    default:
      bad_request("unknown message type " + std::to_string(type));
  }
}

Request decode_request(const std::vector<std::uint8_t>& frame) {
  return decode_request(frame.data(), frame.size());
}

RouteInfo peek_route(const std::uint8_t* data, std::size_t size) {
  ByteReader r(data, size, Status::kBadRequest, "peek_route");
  RouteInfo info;
  const std::uint8_t type = r.u8();
  if (type > static_cast<std::uint8_t>(MessageType::kStoreInfo))
    throw ServeError(Status::kBadRequest, "peek_route",
                     "unknown message type " + std::to_string(type));
  info.type = static_cast<MessageType>(type);
  switch (info.type) {
    case MessageType::kPublish:
    case MessageType::kEvaluate:
    case MessageType::kEvict:
      info.name = r.str16();
      if (info.name.empty())
        throw ServeError(Status::kBadRequest, "peek_route",
                         "model-addressed request with an empty name");
      break;
    case MessageType::kPing:
    case MessageType::kList:
    case MessageType::kShutdown:
    case MessageType::kSolve:
    case MessageType::kStats:
    case MessageType::kStoreInfo:
      break;  // not model-addressed; the rest of the body is opaque here
  }
  return info;
}

// ---- Response codecs -------------------------------------------------------

std::vector<std::uint8_t> encode_ok() {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(Status::kOk));
  return w.take();
}

std::vector<std::uint8_t> encode_publish_response(std::uint64_t version) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(Status::kOk));
  w.u64(version);
  return w.take();
}

std::vector<std::uint8_t> encode_evaluate_response(
    const EvaluateResponse& response) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(Status::kOk));
  w.u64(response.version);
  w.u64(response.values.size());
  w.f64_array(response.values.data(), response.values.size());
  return w.take();
}

std::vector<std::uint8_t> encode_list_response(
    const std::vector<ModelInfo>& models) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(Status::kOk));
  w.u32(static_cast<std::uint32_t>(models.size()));
  for (const ModelInfo& m : models) {
    w.str16(m.name);
    w.u64(m.latest_version);
    w.u64(m.retained);
    w.u64(m.dimension);
    w.u64(m.num_terms);
  }
  return w.take();
}

std::vector<std::uint8_t> encode_solve_response(const SolveResponse& response) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(Status::kOk));
  w.u8(static_cast<std::uint8_t>(response.report.path));
  w.u32(response.report.attempts);
  w.f64(response.report.jitter);
  w.u64(response.report.discarded);
  w.u64(response.coefficients.size());
  w.f64_array(response.coefficients.data(), response.coefficients.size());
  return w.take();
}

std::vector<std::uint8_t> encode_stats_response(const StatsResponse& response) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(Status::kOk));
  w.u64(response.uptime_ms);
  w.u64(response.models_resident);
  w.u64(response.evals_served);
  w.u64(response.requests_served);
  w.u64(response.queue_depth);
  return w.take();
}

std::vector<std::uint8_t> encode_evict_response(std::uint64_t removed) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(Status::kOk));
  w.u64(removed);
  return w.take();
}

std::vector<std::uint8_t> encode_store_info_response(
    const StoreInfoResponse& response) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(Status::kOk));
  w.u64(response.enabled);
  w.u64(response.wal_bytes);
  w.u64(response.wal_records);
  w.u64(response.appends);
  w.u64(response.syncs);
  w.u64(response.snapshots_written);
  w.u64(response.last_snapshot_seq);
  w.u64(response.records_replayed);
  w.u64(response.truncation_events);
  return w.take();
}

std::vector<std::uint8_t> encode_error(const ServeError& error) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(error.status() == Status::kOk
                                     ? Status::kInternal
                                     : error.status()));
  w.str16(error.context());
  w.str16(error.message());
  return w.take();
}

std::pair<const std::uint8_t*, std::size_t> expect_ok(
    const std::vector<std::uint8_t>& frame) {
  ByteReader r = response_reader(frame.data(), frame.size(), "expect_ok");
  const std::uint8_t status_byte = r.u8();
  Status status;
  try {
    status = status_from_byte(status_byte);
  } catch (const std::invalid_argument& e) {
    throw ServeError(Status::kBadRequest, "expect_ok", e.what());
  }
  if (status == Status::kOk)
    return {frame.data() + 1, frame.size() - 1};
  // Error reply: rehydrate the server-side ServeError.
  const std::string context = r.str16();
  const std::string message = r.str16();
  r.expect_done();
  throw ServeError(status, context, message);
}

std::uint64_t decode_publish_response(const std::uint8_t* body,
                                      std::size_t size) {
  ByteReader r = response_reader(body, size, "decode_publish_response");
  const std::uint64_t version = r.u64();
  r.expect_done();
  return version;
}

EvaluateResponse decode_evaluate_response(const std::uint8_t* body,
                                          std::size_t size) {
  ByteReader r = response_reader(body, size, "decode_evaluate_response");
  EvaluateResponse response;
  response.version = r.u64();
  const std::uint64_t count = r.u64();
  if (count > r.remaining() / 8 || count * 8 != r.remaining())
    throw ServeError(Status::kBadRequest, "decode_evaluate_response",
                     "value count " + std::to_string(count) +
                         " does not match the " +
                         std::to_string(r.remaining()) +
                         " remaining byte(s)");
  response.values.resize(count);
  r.f64_array(response.values.data(), count);
  r.expect_done();
  return response;
}

std::vector<ModelInfo> decode_list_response(const std::uint8_t* body,
                                            std::size_t size) {
  ByteReader r = response_reader(body, size, "decode_list_response");
  const std::uint32_t count = r.u32();
  std::vector<ModelInfo> models;
  models.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    ModelInfo m;
    m.name = r.str16();
    m.latest_version = r.u64();
    m.retained = r.u64();
    m.dimension = r.u64();
    m.num_terms = r.u64();
    models.push_back(std::move(m));
  }
  r.expect_done();
  return models;
}

SolveResponse decode_solve_response(const std::uint8_t* body,
                                    std::size_t size) {
  ByteReader r = response_reader(body, size, "decode_solve_response");
  SolveResponse response;
  const std::uint8_t path = r.u8();
  if (path > static_cast<std::uint8_t>(
                 linalg::RobustSpdReport::Path::kPseudoInverse))
    throw ServeError(Status::kBadRequest, "decode_solve_response",
                     "unknown degradation path " + std::to_string(path));
  response.report.path = static_cast<linalg::RobustSpdReport::Path>(path);
  response.report.attempts = r.u32();
  response.report.jitter = r.f64();
  response.report.discarded = r.u64();
  const std::uint64_t count = r.u64();
  if (count > r.remaining() / 8 || count * 8 != r.remaining())
    throw ServeError(Status::kBadRequest, "decode_solve_response",
                     "coefficient count " + std::to_string(count) +
                         " does not match the " +
                         std::to_string(r.remaining()) +
                         " remaining byte(s)");
  response.coefficients.resize(count);
  r.f64_array(response.coefficients.data(), count);
  r.expect_done();
  return response;
}

StatsResponse decode_stats_response(const std::uint8_t* body,
                                    std::size_t size) {
  ByteReader r = response_reader(body, size, "decode_stats_response");
  StatsResponse response;
  response.uptime_ms = r.u64();
  response.models_resident = r.u64();
  response.evals_served = r.u64();
  response.requests_served = r.u64();
  response.queue_depth = r.u64();
  r.expect_done();
  return response;
}

std::uint64_t decode_evict_response(const std::uint8_t* body,
                                    std::size_t size) {
  ByteReader r = response_reader(body, size, "decode_evict_response");
  const std::uint64_t removed = r.u64();
  r.expect_done();
  return removed;
}

StoreInfoResponse decode_store_info_response(const std::uint8_t* body,
                                             std::size_t size) {
  ByteReader r = response_reader(body, size, "decode_store_info_response");
  StoreInfoResponse response;
  response.enabled = r.u64();
  response.wal_bytes = r.u64();
  response.wal_records = r.u64();
  response.appends = r.u64();
  response.syncs = r.u64();
  response.snapshots_written = r.u64();
  response.last_snapshot_seq = r.u64();
  response.records_replayed = r.u64();
  response.truncation_events = r.u64();
  r.expect_done();
  return response;
}

}  // namespace bmf::serve
