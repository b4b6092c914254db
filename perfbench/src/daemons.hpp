// In-process daemons and their scratch directories, for the serve
// workloads and the wire/store probes.
#pragma once

#include <unistd.h>

#include <cstdio>
#include <exception>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <thread>
#include <utility>

namespace perfbench {

/// A fresh scratch directory under the run dir, removed on destruction.
class ScratchDir {
 public:
  ScratchDir(const std::string& run_dir, const std::string& tag, int rep)
      : path_(run_dir + "/" + tag + "-" + std::to_string(::getpid()) + "-" +
              std::to_string(rep)) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// A daemon (serve::Server or router::Router) running on its own thread;
/// stopped and joined on destruction.
template <typename Daemon>
class Running {
 public:
  template <typename Options>
  explicit Running(Options options)
      : daemon_(std::make_unique<Daemon>(std::move(options))),
        thread_([this] {
          try {
            daemon_->run();
          } catch (const std::exception& e) {
            std::fprintf(stderr, "perfbench: daemon stopped: %s\n", e.what());
          }
        }) {}
  ~Running() {
    daemon_->request_stop();
    thread_.join();
  }
  Running(const Running&) = delete;
  Running& operator=(const Running&) = delete;
  Daemon& operator*() { return *daemon_; }
  Daemon* operator->() { return daemon_.get(); }

 private:
  std::unique_ptr<Daemon> daemon_;
  std::thread thread_;  // declared last: it uses the members above
};

}  // namespace perfbench
