// bmf_router — the sharding proxy daemon.
//
//   bmf_router --backend tcp:HOST:PORT [--backend ...]
//              [--socket /tmp/bmf_router.sock] [--tcp HOST:PORT]
//              [--replicas 2] [--timeout-ms 5000] [--backend-timeout-ms 5000]
//              [--probe-interval-ms 500] [--max-connections 64]
//              [--max-pending 8] [--max-pipeline 128]
//              [--tcp-announce <file>] [--quiet]
//
// Fronts a static set of bmf_served backends with the same wire protocol
// the daemons speak (src/router/router.hpp has the routing rules):
// clients connect to the router exactly as they would to a single daemon
// and model names shard across the backends by consistent hashing, with
// --replicas owners per name for publish fan-out and evaluate failover.
// --backend is repeatable, one per shard, in any parse_endpoint form
// (tcp:HOST:PORT or a UNIX socket path); order defines shard identity, so
// every router given the same list computes identical placements.
// SIGINT/SIGTERM (or a client "shutdown" request) drain the router — the
// backends are independent daemons and keep running. --tcp-announce
// mirrors bmf_served's: the resolved endpoint is written to a file once
// listening. A malformed or negative number is a usage error. Exit 0 on
// graceful shutdown, 1 on a usage, startup or fatal error.
#include <csignal>
#include <cstdio>
#include <exception>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "fault/fault.hpp"
#include "io/args.hpp"
#include "router/router.hpp"

namespace {

bmf::router::Router* g_router = nullptr;

extern "C" void handle_signal(int) {
  // request_stop is an atomic store plus an eventfd write(2), errno
  // preserved — async-signal-safe.
  if (g_router != nullptr) g_router->request_stop();
}

int usage(const std::string& program) {
  std::fprintf(stderr,
               "usage: %s --backend <endpoint> [--backend ...]\n"
               "          [--socket <path>] [--tcp <host:port>]\n"
               "          [--replicas N] [--timeout-ms N]"
               " [--backend-timeout-ms N]\n"
               "          [--probe-interval-ms N] [--max-connections N]\n"
               "          [--max-pending N] [--max-pipeline N]\n"
               "          [--tcp-announce <file>] [--quiet]\n"
               "at least one --backend and one of --socket / --tcp are "
               "required\n",
               program.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const bmf::io::Args args(argc, argv);

  bmf::router::RouterOptions options;
  options.socket_path = args.get("socket");
  options.tcp_address = args.get("tcp");
  options.backends = args.get_all("backend");
  if (options.backends.empty() ||
      (options.socket_path.empty() && options.tcp_address.empty()))
    return usage(args.program());
  try {
    constexpr long kMaxMs = std::numeric_limits<int>::max();
    options.replicas =
        static_cast<std::size_t>(args.get_int("replicas", 2, 0));
    options.request_timeout_ms =
        static_cast<int>(args.get_int("timeout-ms", 5000, 0, kMaxMs));
    options.backend_timeout_ms =
        static_cast<int>(args.get_int("backend-timeout-ms", 5000, 0, kMaxMs));
    options.probe_interval_ms =
        static_cast<int>(args.get_int("probe-interval-ms", 500, 0, kMaxMs));
    options.max_connections =
        static_cast<std::size_t>(args.get_int("max-connections", 64, 0));
    options.max_pending =
        static_cast<std::size_t>(args.get_int("max-pending", 8, 0));
    options.max_pipeline =
        static_cast<std::size_t>(args.get_int("max-pipeline", 128, 0));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "bmf_router: %s\n", e.what());
    return usage(args.program());
  }
  const std::string announce_path = args.get("tcp-announce");
  const bool quiet = args.flag("quiet");

  try {
    if (bmf::fault::arm_from_env() && !quiet)
      std::fprintf(stderr, "bmf_router: fault injection armed from "
                           "BMF_FAULT_PLAN\n");
    bmf::router::Router router(options);
    g_router = &router;
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    if (!options.socket_path.empty() && !quiet)
      std::fprintf(stderr, "bmf_router: listening on unix:%s\n",
                   options.socket_path.c_str());
    if (!options.tcp_address.empty()) {
      const std::string resolved = to_string(router.tcp_endpoint());
      if (!quiet)
        std::fprintf(stderr, "bmf_router: listening on %s\n",
                     resolved.c_str());
      if (!announce_path.empty()) {
        std::ofstream announce(announce_path, std::ios::trunc);
        announce << resolved << "\n";
        if (!announce)
          throw std::runtime_error("cannot write --tcp-announce file " +
                                   announce_path);
      }
    }
    if (!quiet)
      std::fprintf(stderr,
                   "bmf_router: %zu backend(s), %zu replica(s) per model\n",
                   options.backends.size(),
                   std::min(options.replicas < 1 ? std::size_t{1}
                                                 : options.replicas,
                            options.backends.size()));
    router.run();
    g_router = nullptr;
    if (!quiet)
      std::fprintf(
          stderr,
          "bmf_router: shutdown after %llu request(s), %llu failover(s)\n",
          static_cast<unsigned long long>(router.requests_routed()),
          static_cast<unsigned long long>(router.failovers()));
  } catch (const std::exception& e) {
    g_router = nullptr;
    std::fprintf(stderr, "bmf_router: fatal: %s\n", e.what());
    return 1;
  }
  return 0;
}
