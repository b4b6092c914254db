// Shared pieces of the repository benchmark: clocks and percentiles,
// per-op-kind success/failure accounting, the in-memory span recorder used
// by the traced mode, and the result record every workload fills in.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double s_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolated percentile (p in [0, 1]) of an unsorted sample.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

/// Fixed-size log-linear latency histogram: 128 buckets per power of two
/// from 1/16 us to 2^28 us, each under 0.8 % wide. Memory does not grow
/// with the sample count (so peak_rss_mb does not track throughput), and
/// histograms merge exactly by adding counts.
class Histogram {
 public:
  Histogram();
  void add(double us);
  void merge(const Histogram& other);
  std::uint64_t count() const { return count_; }
  /// p in [0, 1]; linear interpolation inside the bucket holding the rank.
  double percentile(double p) const;

 private:
  std::vector<std::uint32_t> counts_;
  std::uint64_t count_ = 0;
};

/// Latency samples bucketed by completion time into back-to-back windows of
/// `window_s` seconds, each with its own Histogram.
class Timeline {
 public:
  explicit Timeline(double window_s) : window_s_(window_s) {}
  /// `end_s`: seconds since the timed window started.
  void add(double end_s, double us);
  void merge(const Timeline& other);
  /// Drop the trailing partial window of a timed window `elapsed_s` long.
  void close(double elapsed_s);
  Histogram total() const;
  double window_s() const { return window_s_; }
  const std::vector<Histogram>& windows() const { return windows_; }

 private:
  double window_s_;
  std::vector<Histogram> windows_;
};

/// attempted / succeeded / failed per op kind ("fit", "evaluate", ...).
/// Not synchronized: each thread keeps its own and merges at the end.
class OpCounts {
 public:
  struct Count {
    std::uint64_t attempted = 0;
    std::uint64_t succeeded = 0;
    std::uint64_t failed = 0;
  };
  void ok(const std::string& kind);
  void fail(const std::string& kind, const std::string& why);
  void merge(const OpCounts& other);
  std::uint64_t attempted() const;
  std::uint64_t failed() const;
  const std::map<std::string, Count>& kinds() const { return kinds_; }
  /// First few failure reasons, for the report.
  const std::vector<std::string>& reasons() const { return reasons_; }

 private:
  std::map<std::string, Count> kinds_;
  std::vector<std::string> reasons_;
};

/// In-memory span recorder, one per thread. Disabled logs record nothing
/// and cost one branch per call, so traced and untraced runs execute the
/// same code. Spans are kept in memory; write_spans dumps them at exit.
class SpanLog {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  struct Span {
    const char* name;  // string literal
    std::uint64_t request;
    std::uint32_t parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  SpanLog(bool enabled, std::uint32_t thread, std::size_t reserve = 0);

  bool enabled() const { return enabled_; }
  /// Open a span; returns its id (kNone when disabled or full).
  std::uint32_t begin(const char* name, std::uint64_t request,
                      std::uint32_t parent = kNone);
  void end(std::uint32_t id);
  /// Record a span whose bounds the caller already measured.
  std::uint32_t record(const char* name, std::uint64_t request,
                       std::uint32_t parent, Clock::time_point start,
                       Clock::time_point end);

  const std::vector<Span>& spans() const { return spans_; }
  std::uint32_t thread() const { return thread_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  bool enabled_;
  std::uint32_t thread_;
  std::uint64_t dropped_ = 0;
  std::vector<Span> spans_;
};

/// RAII span: begin on construction, end on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, std::uint64_t request,
             std::uint32_t parent = SpanLog::kNone)
      : log_(log), id_(log.begin(name, request, parent)) {}
  ~ScopedSpan() { log_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint32_t id() const { return id_; }

 private:
  SpanLog& log_;
  std::uint32_t id_;
};

/// Per span name: count, median duration and median self time (duration
/// minus the union of its children's intervals).
struct SpanStats {
  std::size_t count = 0;
  double median_us = 0.0;
  double median_self_us = 0.0;
};
std::map<std::string, SpanStats> span_stats(const std::vector<SpanLog>& logs);
/// Median self time over every root span (spans without a parent).
double root_self_median_us(const std::vector<SpanLog>& logs);
std::uint64_t span_count(const std::vector<SpanLog>& logs);
/// One JSON object per line; at most `per_thread_cap` spans per log.
void write_spans(const std::string& path, const std::vector<SpanLog>& logs,
                 std::size_t per_thread_cap);

/// A named number with its unit. `moves` names the end-to-end metric and
/// workload a per-layer metric should move ("op_p50_us@serve_bulk").
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string moves;
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string run_dir;  // scratch space for sockets, stores, span files
};

inline constexpr double kStatWindowSeconds = 2.0;

/// What a workload run hands back to main.
struct WorkloadResult {
  /// Wall time of each set-up repetition (the last one is the live one).
  std::vector<double> setup_s;
  /// Latency of each timed primary operation (fit / evaluate), in 2-second
  /// windows: the serve workloads report medians over windows, so a few
  /// seconds of host noise do not decide a run's tail and rate, and even a
  /// slow window holds ~1000 requests (10 beyond its p99). A fit takes over
  /// a second, so fit_sram uses one window for the whole run.
  Timeline latency{kStatWindowSeconds};
  /// Traced mode: the untraced half (the tracing-overhead base).
  Timeline untraced_latency{kStatWindowSeconds};
  /// Input rows one primary operation carries.
  double rows_per_op = 0.0;
  /// Input rows the timed operations completed (samples fitted, rows
  /// evaluated) and the wall time of the timed window.
  double rows = 0.0;
  double window_s = 0.0;
  OpCounts ops;
  /// Workload-specific metrics (fit_s, eval_p50_us, publish_p99_us, ...).
  std::vector<Metric> named;
  /// Per-layer metrics the run itself produced (counters, publisher lag).
  std::vector<Metric> layers;
  /// Free-form report fields, already JSON-encoded values keyed by name.
  std::map<std::string, std::string> extra;
  std::vector<SpanLog> span_logs;
};

// ---- tiny JSON helpers ----------------------------------------------------

std::string json_str(const std::string& s);
std::string json_num(double v);
std::string json_metric_map(const std::vector<Metric>& metrics,
                            bool with_moves);

/// Peak resident set of this process so far, MiB.
double peak_rss_mb();

}  // namespace perfbench
