// bmf_client — command-line client for bmf_served.
//
//   bmf_client --socket <path> ping            (or --tcp <host:port>)
//   bmf_client --socket <path> publish <name> <model-file>
//   bmf_client --socket <path> eval <name> <points.csv> [--version N]
//              [--out <pred.csv>] [--pipeline D] [--chunk-rows N]
//   bmf_client --socket <path> list
//   bmf_client --socket <path> stats
//   bmf_client --socket <path> store-ls
//   bmf_client --socket <path> evict <name> [--version N]
//   bmf_client --socket <path> shutdown
//
// The endpoint comes from --tcp HOST:PORT, or --socket, which accepts a
// bare UNIX socket path as well as the explicit "tcp:HOST:PORT" /
// "unix:PATH" spec forms. publish accepts both model formats by content
// sniffing: the text format of src/io/model_io ("bmf-model ...",
// provenance recorded as none) and the binary BMFB format of
// src/serve/model_codec (provenance preserved). eval reads a headerless
// CSV of points (one row per sample) and prints one prediction per line
// at full precision, or writes them as a single-column CSV with --out;
// with --pipeline D the batch is split into --chunk-rows row chunks
// evaluated with D requests in flight on the one connection. A malformed
// or negative number, or a zero --chunk-rows, is a usage error, reported
// before connecting. Exit status 0 on success, 1 on any error (server-side
// errors print their structured status/context/message).
#include <cstdio>
#include <exception>
#include <fstream>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/args.hpp"
#include "io/csv.hpp"
#include "io/model_io.hpp"
#include "serve/client.hpp"
#include "serve/model_codec.hpp"

namespace {

int usage(const std::string& program) {
  std::fprintf(
      stderr,
      "usage: %s (--socket <path> | --tcp <host:port>) [--timeout-ms N]"
      " <command>\n"
      "commands:\n"
      "  ping\n"
      "  publish <name> <model-file>        (text bmf-model or binary BMFB)\n"
      "  eval <name> <points.csv> [--version N] [--out <pred.csv>]\n"
      "       [--pipeline D] [--chunk-rows N]\n"
      "  list\n"
      "  stats\n"
      "  store-ls                          (durable-store health counters)\n"
      "  evict <name> [--version N]        (N omitted or 0 = every version)\n"
      "  shutdown\n",
      program.c_str());
  return 1;
}

/// The numeric flags, parsed and range-checked before connecting.
struct NumericFlags {
  int timeout_ms = 0;
  std::uint64_t version = 0;  // 0: latest (eval) or every version (evict)
  std::size_t pipeline = 0;
  std::size_t chunk_rows = 0;
};

NumericFlags parse_numeric_flags(const bmf::io::Args& args) {
  NumericFlags flags;
  flags.timeout_ms = static_cast<int>(args.get_int(
      "timeout-ms", 5000, 0, std::numeric_limits<int>::max()));
  flags.version = static_cast<std::uint64_t>(args.get_int("version", 0, 0));
  flags.pipeline = static_cast<std::size_t>(args.get_int("pipeline", 1, 0));
  flags.chunk_rows =
      static_cast<std::size_t>(args.get_int("chunk-rows", 4096, 1));
  return flags;
}

std::vector<std::uint8_t> read_file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot open " + path);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(is)),
                                  std::istreambuf_iterator<char>());
  if (is.bad()) throw std::runtime_error("read failed for " + path);
  return bytes;
}

int run_publish(bmf::serve::Client& client, const std::string& name,
                const std::string& path) {
  const std::vector<std::uint8_t> bytes = read_file_bytes(path);
  std::uint64_t version = 0;
  if (bmf::serve::looks_like_binary_model(bytes.data(), bytes.size())) {
    version = client.publish_blob(name, bytes);
  } else {
    bmf::serve::FittedModel fitted;
    fitted.model = bmf::io::load_model(path);
    version = client.publish(name, fitted);
  }
  std::printf("published %s v%llu\n", name.c_str(),
              static_cast<unsigned long long>(version));
  return 0;
}

/// Split `points` into row chunks of at most `chunk_rows` (last one may be
/// smaller) for pipelined evaluation.
std::vector<bmf::linalg::Matrix> chunk_rows(const bmf::linalg::Matrix& points,
                                            std::size_t rows_per_chunk) {
  std::vector<bmf::linalg::Matrix> chunks;
  for (std::size_t row = 0; row < points.rows(); row += rows_per_chunk) {
    const std::size_t n = std::min(rows_per_chunk, points.rows() - row);
    bmf::linalg::Matrix chunk(n, points.cols());
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < points.cols(); ++c)
        chunk(r, c) = points(row + r, c);
    chunks.push_back(std::move(chunk));
  }
  return chunks;
}

int run_eval(bmf::serve::Client& client, const bmf::io::Args& args,
             const NumericFlags& flags, const std::string& name,
             const std::string& csv_path) {
  const bmf::linalg::Matrix points =
      bmf::io::read_csv(csv_path, /*has_header=*/false);

  bmf::linalg::Vector values;
  std::uint64_t served_version = 0;
  if (flags.pipeline > 1 && points.rows() > 0) {
    const std::vector<bmf::serve::Client::Evaluation> parts =
        client.evaluate_pipeline(name, chunk_rows(points, flags.chunk_rows),
                                 flags.version, flags.pipeline);
    values = bmf::linalg::Vector(points.rows());
    std::size_t at = 0;
    for (const auto& part : parts) {
      served_version = part.version;
      for (double v : part.values) values[at++] = v;
    }
  } else {
    bmf::serve::Client::Evaluation result =
        client.evaluate(name, points, flags.version);
    served_version = result.version;
    values = std::move(result.values);
  }

  const std::string out = args.get("out");
  if (!out.empty()) {
    bmf::io::write_csv_columns(out, {"prediction"}, {values});
  } else {
    for (double v : values) std::printf("%.17g\n", v);
  }
  std::fprintf(stderr, "evaluated %zu point(s) against %s v%llu\n",
               values.size(), name.c_str(),
               static_cast<unsigned long long>(served_version));
  return 0;
}

int run_list(bmf::serve::Client& client) {
  const std::vector<bmf::serve::ModelInfo> models = client.list();
  for (const auto& m : models)
    std::printf("%s latest=v%llu retained=%llu dim=%llu terms=%llu\n",
                m.name.c_str(),
                static_cast<unsigned long long>(m.latest_version),
                static_cast<unsigned long long>(m.retained),
                static_cast<unsigned long long>(m.dimension),
                static_cast<unsigned long long>(m.num_terms));
  if (models.empty()) std::fprintf(stderr, "(registry is empty)\n");
  return 0;
}

int run_stats(bmf::serve::Client& client) {
  const bmf::serve::StatsResponse s = client.stats();
  std::printf(
      "uptime_ms=%llu models_resident=%llu evals_served=%llu"
      " requests_served=%llu queue_depth=%llu\n",
      static_cast<unsigned long long>(s.uptime_ms),
      static_cast<unsigned long long>(s.models_resident),
      static_cast<unsigned long long>(s.evals_served),
      static_cast<unsigned long long>(s.requests_served),
      static_cast<unsigned long long>(s.queue_depth));
  return 0;
}

int run_store_ls(bmf::serve::Client& client) {
  const bmf::serve::StoreInfoResponse s = client.store_info();
  if (s.enabled == 0) {
    std::printf("enabled=0\n");
    std::fprintf(stderr, "(daemon runs without --store)\n");
    return 0;
  }
  std::printf(
      "enabled=%llu wal_bytes=%llu wal_records=%llu appends=%llu"
      " syncs=%llu snapshots_written=%llu last_snapshot_seq=%llu"
      " records_replayed=%llu truncation_events=%llu\n",
      static_cast<unsigned long long>(s.enabled),
      static_cast<unsigned long long>(s.wal_bytes),
      static_cast<unsigned long long>(s.wal_records),
      static_cast<unsigned long long>(s.appends),
      static_cast<unsigned long long>(s.syncs),
      static_cast<unsigned long long>(s.snapshots_written),
      static_cast<unsigned long long>(s.last_snapshot_seq),
      static_cast<unsigned long long>(s.records_replayed),
      static_cast<unsigned long long>(s.truncation_events));
  return 0;
}

int run_evict(bmf::serve::Client& client, const NumericFlags& flags,
              const std::string& name) {
  const std::uint64_t removed = client.evict(name, flags.version);
  std::printf("evicted %llu entr%s of %s\n",
              static_cast<unsigned long long>(removed),
              removed == 1 ? "y" : "ies", name.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bmf::io::Args args(argc, argv);
  std::string endpoint = args.get("socket");
  const std::string tcp = args.get("tcp");
  if (!tcp.empty()) endpoint = "tcp:" + tcp;
  const auto& positional = args.positional();
  if (endpoint.empty() || positional.empty()) return usage(args.program());
  const std::string& command = positional[0];
  NumericFlags flags;
  try {
    flags = parse_numeric_flags(args);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "bmf_client: %s\n", e.what());
    return usage(args.program());
  }

  try {
    bmf::serve::Client client(endpoint, flags.timeout_ms);
    if (command == "ping" && positional.size() == 1) {
      client.ping();
      std::printf("ok\n");
      return 0;
    }
    if (command == "publish" && positional.size() == 3)
      return run_publish(client, positional[1], positional[2]);
    if (command == "eval" && positional.size() == 3)
      return run_eval(client, args, flags, positional[1], positional[2]);
    if (command == "list" && positional.size() == 1) return run_list(client);
    if (command == "stats" && positional.size() == 1) return run_stats(client);
    if (command == "store-ls" && positional.size() == 1)
      return run_store_ls(client);
    if (command == "evict" && positional.size() == 2)
      return run_evict(client, flags, positional[1]);
    if (command == "shutdown" && positional.size() == 1) {
      client.shutdown_server();
      std::printf("server shutting down\n");
      return 0;
    }
    return usage(args.program());
  } catch (const bmf::serve::ServeError& e) {
    std::fprintf(stderr, "bmf_client: [%s] %s: %s\n",
                 bmf::serve::to_string(e.status()), e.context().c_str(),
                 e.message().c_str());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bmf_client: %s\n", e.what());
    return 1;
  }
}
