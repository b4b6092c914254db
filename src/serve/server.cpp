#include "serve/server.hpp"

#include <cmath>
#include <cstdio>
#include <deque>
#include <exception>
#include <thread>
#include <utility>

#include "bmf/map_solver.hpp"
#include "bmf/prior.hpp"
#include "serve/model_codec.hpp"
#include "serve/protocol.hpp"
#include "sync/mutex.hpp"

namespace bmf::serve {

/// run()'s compute stage behind the connection loop: the worker pool and
/// its hand-off queues. Lives on run()'s stack, so the workers outlive the
/// loop's drain and stop only when run() destroys the stage. Loop-thread
/// only except jobs_/stopping_/done_ (mutex-protected) and loop_.wake() —
/// the only points the workers touch.
class ComputeStage final : public ConnectionLoop::Handler {
 public:
  ComputeStage(Server& server, ConnectionLoop& loop)
      : server_(server), loop_(loop) {
    workers_.reserve(server_.options_.worker_threads);
    for (std::size_t i = 0; i < server_.options_.worker_threads; ++i)
      workers_.emplace_back([this] { worker_body(); });
  }

  ~ComputeStage() override {
    {
      sync::LockGuard lk(jobs_mu_);
      stopping_ = true;
    }
    jobs_cv_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  }

  ComputeStage(const ComputeStage&) = delete;
  ComputeStage& operator=(const ComputeStage&) = delete;

  void on_event(std::uint64_t, std::uint32_t) override {}  // no fds of its own
  void on_round() override;
  void on_frames(const std::vector<std::uint64_t>& ready) override;
  /// Handed-off jobs still outstanding. The workers outlive the drain, and
  /// each completion wakes the loop (loop_.wake()).
  bool drain_pending() override {
    return server_.queue_depth_.load(std::memory_order_relaxed) != 0;
  }

 private:
  struct Job {
    std::uint64_t tag = 0;
    std::uint64_t seq = 0;
    std::vector<std::uint8_t> frame;
  };
  struct Completion {
    std::uint64_t tag = 0;
    std::uint64_t seq = 0;
    Server::ExecuteResult result;
  };

  void worker_body();
  void answer(std::uint64_t tag, std::uint64_t seq,
              Server::ExecuteResult result);
  void run_inline(std::uint64_t tag);

  Server& server_;
  ConnectionLoop& loop_;
  /// The two hand-off points between the loop thread and the worker pool
  /// (DESIGN.md §11). Lock order: jobs_mu_ and done_mu_ are never held
  /// together — each critical section touches exactly one queue.
  sync::Mutex jobs_mu_;
  sync::CondVar jobs_cv_;
  std::deque<Job> jobs_ BMF_GUARDED_BY(jobs_mu_);
  /// Set by the destructor: idle workers exit instead of waiting on.
  bool stopping_ BMF_GUARDED_BY(jobs_mu_) = false;
  sync::Mutex done_mu_;
  std::deque<Completion> done_ BMF_GUARDED_BY(done_mu_);
  std::vector<std::uint64_t> idle_scratch_;
  std::vector<std::thread> workers_;  // last: workers use everything above
};

void ComputeStage::worker_body() {
  for (;;) {
    Job job;
    {
      sync::UniqueLock lk(jobs_mu_);
      // Written as an explicit loop, not a predicate lambda: jobs_ is
      // guarded by jobs_mu_, and the analysis checks the read against the
      // lock held in *this* function (see sync/mutex.hpp).
      while (!stopping_ && jobs_.empty()) jobs_cv_.wait(lk);
      if (stopping_) return;
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    Completion done;
    done.tag = job.tag;
    done.seq = job.seq;
    done.result = server_.execute_request(job.frame.data(), job.frame.size());
    {
      sync::LockGuard lk(done_mu_);
      done_.push_back(std::move(done));
    }
    loop_.wake();  // on_round applies it
  }
}

void ComputeStage::answer(std::uint64_t tag, std::uint64_t seq,
                          Server::ExecuteResult result) {
  if (result.shutdown) loop_.request_stop();
  loop_.complete(tag, seq, std::move(result.reply), result.close_after);
}

/// Apply the completions the workers queued.
void ComputeStage::on_round() {
  std::deque<Completion> batch;
  {
    sync::LockGuard lk(done_mu_);
    batch.swap(done_);
  }
  for (Completion& done : batch) {
    server_.queue_depth_.fetch_sub(1, std::memory_order_relaxed);
    answer(done.tag, done.seq, std::move(done.result));
  }
}

/// Hand each idle connection's next frame to the compute stage. One
/// request per connection at a time: a connection with a reply still
/// outstanding is computing.
void ComputeStage::on_frames(const std::vector<std::uint64_t>& ready) {
  idle_scratch_.clear();
  for (const std::uint64_t tag : ready)
    if (loop_.find(tag)->replies.outstanding() == 0)
      idle_scratch_.push_back(tag);
  if (idle_scratch_.empty()) return;

  // Inline path: with a single busy connection and an idle pool, worker
  // handoff is pure latency — the single-stream fast path runs the whole
  // pipelined burst on the loop thread and the loop flushes one coalesced
  // reply batch.
  if (idle_scratch_.size() == 1 &&
      server_.queue_depth_.load(std::memory_order_relaxed) == 0) {
    run_inline(idle_scratch_.front());
    return;
  }
  {
    sync::LockGuard lk(jobs_mu_);
    for (const std::uint64_t tag : idle_scratch_) {
      ConnectionLoop::Conn& c = *loop_.find(tag);
      Job job;
      job.tag = tag;
      job.seq = c.replies.reserve();
      c.frames.next_frame(job.frame);  // copies: the worker needs ownership
      jobs_.push_back(std::move(job));
      server_.queue_depth_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  jobs_cv_.notify_all();
}

void ComputeStage::run_inline(std::uint64_t tag) {
  ConnectionLoop::Conn& c = *loop_.find(tag);
  // A close_after answer discards the frames behind it, ending the burst.
  while (c.frames.complete_frames() > 0) {
    const std::uint64_t seq = c.replies.reserve();
    // Zero-copy: decode straight out of the read buffer.
    Server::ExecuteResult result =
        server_.execute_request(c.frames.front_data(), c.frames.front_size());
    c.frames.pop_front();
    answer(tag, seq, std::move(result));
  }
}

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      registry_(options_.registry_capacity) {
  if (options_.worker_threads == 0) options_.worker_threads = 1;
  if (options_.max_pipeline == 0) options_.max_pipeline = 1;
  if (!options_.store_dir.empty()) {
    // Hydrate before binding any listener: a daemon that cannot recover
    // its durable state must not start answering as if it were empty.
    store::StoreOptions store_options;
    store_options.sync = options_.store_sync;
    store_options.snapshot_wal_bytes = options_.store_snapshot_bytes;
    store_ = std::make_unique<store::ModelStore>(options_.store_dir,
                                                 store_options);
    store::ModelStore::Recovery recovery = store_->recover();
    // Floors first: they cover names whose versions were all evicted, so
    // the never-reuse invariant survives even with zero live models.
    for (const auto& [name, floor] : recovery.next_versions)
      registry_.set_version_floor(name, floor);
    for (store::ModelStore::RecoveredModel& m : recovery.models)
      if (registry_.restore(m.name, m.version, deserialize_model(m.blob)))
        ++models_recovered_;
    registry_.seed_mutation_seq(recovery.max_seq);
  }
  loop_ = std::make_unique<ConnectionLoop>(
      options_.socket_path, options_.tcp_address,
      ConnectionLimits{.max_connections = options_.max_connections != 0
                                              ? options_.max_connections
                                              : options_.worker_threads,
                       .max_pending = options_.max_pending,
                       .max_pipeline = options_.max_pipeline,
                       .request_timeout_ms = options_.request_timeout_ms,
                       .max_frame_bytes = options_.max_frame_bytes});
}

void Server::run() {
  {
    ComputeStage stage(*this, *loop_);
    loop_->run(stage);
  }  // joins the worker pool
  if (store_) {
    try {
      store_->flush();  // sync=never: push the acked tail to disk on drain
    } catch (const store::StoreError&) {
      // Shutdown path: the WAL is still scannable; recovery re-derives
      // whatever the kernel managed to persist.
    }
  }
}

StoreInfoResponse Server::store_info() const {
  StoreInfoResponse info;
  if (!store_) return info;
  const store::StoreStats s = store_->stats();
  info.enabled = 1;
  info.wal_bytes = s.wal_bytes;
  info.wal_records = s.wal_records;
  info.appends = s.appends;
  info.syncs = s.syncs;
  info.snapshots_written = s.snapshots_written;
  info.last_snapshot_seq = s.last_snapshot_seq;
  info.records_replayed = s.records_replayed;
  info.truncation_events = s.truncation_events;
  return info;
}

void Server::maybe_compact() noexcept {
  if (!store_ || !store_->wants_compaction()) return;
  try {
    // The state callback runs under the store lock with appends blocked,
    // which makes the snapshot a superset of the WAL it replaces: every
    // record in the WAL belongs to a registry mutation that completed
    // (install happens before append), so snapshot_state() sees it.
    store_->compact([this] {
      store::Snapshot snap;
      RegistrySnapshot reg = registry_.snapshot_state();
      snap.last_seq = reg.last_seq;
      snap.next_versions = std::move(reg.next_versions);
      snap.models.reserve(reg.entries.size());
      for (const std::shared_ptr<const ModelEntry>& entry : reg.entries)
        snap.models.push_back(
            {entry->name, entry->version, serialize_model(entry->model)});
      return snap;
    });
  } catch (const std::exception& e) {
    // Never fail the request that tripped the threshold: its record is
    // durable in the intact WAL, and the next append retries compaction.
    std::fprintf(stderr, "bmf_served: store compaction failed: %s\n",
                 e.what());
  }
}

Server::ExecuteResult Server::execute_request(const std::uint8_t* frame,
                                              std::size_t size) {
  ExecuteResult out;
  try {
    const Request request = decode_request(frame, size);
    if (std::holds_alternative<PingRequest>(request)) {
      out.reply = encode_ok();
    } else if (const auto* pub = std::get_if<PublishRequest>(&request)) {
      // Install, then (with a store) append the original wire bytes to the
      // WAL, then ack — so an acked publish always survives a crash, and a
      // crash before the append leaves nothing a client was told about.
      const PublishTicket ticket = registry_.publish_ticketed(
          pub->name, deserialize_model(pub->blob));
      if (store_) {
        std::vector<std::pair<std::string, std::uint64_t>> evicted;
        for (const std::shared_ptr<const ModelEntry>& entry : ticket.evicted)
          evicted.emplace_back(entry->name, entry->version);
        try {
          store_->append_publish(ticket.seq, pub->name, ticket.version,
                                 pub->blob.data(), pub->blob.size(), evicted);
        } catch (const store::StoreError& e) {
          // Not durable => not acked => must not be served: roll the
          // registry back so memory never outlives the log, and put back
          // what the publish evicted, whose evictions were not logged.
          registry_.evict(pub->name, ticket.version);
          for (const std::shared_ptr<const ModelEntry>& entry : ticket.evicted)
            registry_.restore(entry->name, entry->version, entry->model);
          throw ServeError(Status::kInternal, "store", e.what());
        }
        maybe_compact();
      }
      out.reply = encode_publish_response(ticket.version);
    } else if (const auto* ev = std::get_if<EvaluateRequest>(&request)) {
      std::shared_ptr<const ModelEntry> entry =
          ev->version == 0 ? registry_.latest(ev->name)
                           : registry_.at(ev->name, ev->version);
      if (!entry)
        throw ServeError(Status::kNotFound, "evaluate",
                         ev->version == 0
                             ? "no model named '" + ev->name + "'"
                             : "no version " + std::to_string(ev->version) +
                                   " of model '" + ev->name +
                                   "' (never published, or evicted)");
      if (ev->points.cols() != entry->model.model.basis().dimension())
        throw ServeError(
            Status::kBadRequest, "evaluate",
            "batch has " + std::to_string(ev->points.cols()) +
                " column(s), model '" + ev->name + "' v" +
                std::to_string(entry->version) + " expects " +
                std::to_string(entry->model.model.basis().dimension()));
      EvaluateResponse response;
      response.version = entry->version;
      evaluator_.evaluate_into(entry->model.model, ev->points,
                               response.values);
      out.reply = encode_evaluate_response(response);
      evals_served_.fetch_add(1, std::memory_order_relaxed);
    } else if (std::holds_alternative<ListRequest>(request)) {
      out.reply = encode_list_response(registry_.list());
    } else if (std::holds_alternative<StatsRequest>(request)) {
      StatsResponse stats;
      stats.uptime_ms = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - start_time_)
              .count());
      stats.models_resident = registry_.size();
      stats.evals_served = evals_served_.load(std::memory_order_relaxed);
      stats.requests_served = requests_served_.load(std::memory_order_relaxed);
      stats.queue_depth = queue_depth_.load(std::memory_order_relaxed);
      out.reply = encode_stats_response(stats);
    } else if (const auto* evt = std::get_if<EvictRequest>(&request)) {
      const EvictTicket ticket =
          registry_.evict_ticketed(evt->name, evt->version);
      if (store_ && ticket.removed > 0) {
        try {
          store_->append_evict(ticket.seq, evt->name, evt->version);
        } catch (const store::StoreError& e) {
          // The registry already dropped the entries; disk disagrees
          // until the next successful append or restart. The error reply
          // tells the caller the evict may not be durable.
          throw ServeError(Status::kInternal, "store", e.what());
        }
        maybe_compact();
      }
      out.reply = encode_evict_response(ticket.removed);
    } else if (std::holds_alternative<StoreInfoRequest>(request)) {
      out.reply = encode_store_info_response(store_info());
    } else if (const auto* sv = std::get_if<SolveRequest>(&request)) {
      // Explicit validation: the numeric layer's contract checks compile
      // out of Release builds, and a daemon must answer garbage input with
      // kBadRequest, not undefined behaviour or a kInternal surprise.
      if (!(sv->tau > 0.0) || !std::isfinite(sv->tau))
        throw ServeError(Status::kBadRequest, "solve",
                         "tau must be positive and finite");
      for (std::size_t i = 0; i < sv->g.size(); ++i)
        if (!std::isfinite(sv->g.data()[i]))
          throw ServeError(Status::kBadRequest, "solve",
                           "design matrix must be finite");
      for (double v : sv->f)
        if (!std::isfinite(v))
          throw ServeError(Status::kBadRequest, "solve",
                           "responses must be finite");
      core::CoefficientPrior prior = [&] {
        try {
          return core::CoefficientPrior::from_moments(sv->mu, sv->q);
        } catch (const std::invalid_argument& e) {
          throw ServeError(Status::kBadRequest, "solve", e.what());
        }
      }();
      const core::RobustMapResult result =
          core::map_solve_robust(sv->g, sv->f, prior, sv->tau);
      SolveResponse response;
      response.coefficients = result.coefficients;
      response.report = result.report;
      out.reply = encode_solve_response(response);
    } else {  // ShutdownRequest
      out.reply = encode_ok();
      out.shutdown = true;
      out.close_after = true;
    }
  } catch (const ServeError& e) {
    out.reply = encode_error(e);
    // A frame that failed to decode may be the product of a torn or
    // corrupted stream (e.g. a damaged length prefix slicing the frame
    // short), so the bytes after it cannot be trusted as a frame
    // boundary: reply, then drop the connection. Semantic failures on a
    // well-decoded request (kNotFound, kCorruptModel, ...) keep it open.
    if (e.context() == "decode_request") out.close_after = true;
  } catch (const std::exception& e) {
    // Anything else (contract violation, bad_alloc, ...) is a server-side
    // bug surface: report it structurally rather than dying silently.
    out.reply =
        encode_error(ServeError(Status::kInternal, "handle_request", e.what()));
  }
  // Count before the reply flushes so a client that has seen its reply is
  // always included in the total, even reading the counter immediately.
  requests_served_.fetch_add(1);
  return out;
}

}  // namespace bmf::serve
