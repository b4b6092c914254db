#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace perfbench {

namespace {

std::int64_t now_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

// Beyond this a log stops recording and counts drops instead, so a long
// traced run cannot grow without bound (40 bytes a span).
constexpr std::size_t kMaxSpansPerLog = 500000;

}  // namespace

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

namespace {

constexpr int kSubBuckets = 128;  // per power of two
constexpr int kMinExp = -4;       // lowest bucket starts at 2^-4 us
constexpr int kOctaves = 32;

double bucket_low(std::size_t i) {
  const int octave = static_cast<int>(i) / kSubBuckets;
  const int sub = static_cast<int>(i) % kSubBuckets;
  return std::ldexp(1.0 + double(sub) / kSubBuckets, octave + kMinExp);
}

}  // namespace

Histogram::Histogram() : counts_(kSubBuckets * kOctaves, 0) {}

void Histogram::add(double us) {
  std::size_t i = 0;
  if (us >= std::ldexp(1.0, kMinExp)) {
    int exp = 0;
    const double m = std::frexp(us, &exp);  // us = m * 2^exp, m in [0.5, 1)
    const int octave = exp - 1 - kMinExp;
    const int sub = static_cast<int>((2.0 * m - 1.0) * kSubBuckets);
    i = std::min<std::size_t>(
        static_cast<std::size_t>(octave) * kSubBuckets +
            static_cast<std::size_t>(sub),
        counts_.size() - 1);
  }
  ++counts_[i];
  ++count_;
}

void Histogram::merge(const Histogram& other) {
  for (std::size_t i = 0; i < counts_.size(); ++i)
    counts_[i] += other.counts_[i];
  count_ += other.count_;
}

double Histogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  const double rank = p * static_cast<double>(count_ - 1);
  std::uint64_t before = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const std::uint64_t c = counts_[i];
    if (c == 0) continue;
    if (rank < static_cast<double>(before + c)) {
      const double frac = (rank - static_cast<double>(before) + 0.5) /
                          static_cast<double>(c);
      const double lo = bucket_low(i);
      return lo + (bucket_low(i + 1) - lo) * frac;
    }
    before += c;
  }
  return bucket_low(counts_.size() - 1);
}

void Timeline::add(double end_s, double us) {
  const std::size_t w = static_cast<std::size_t>(end_s / window_s_);
  if (w >= windows_.size()) windows_.resize(w + 1);
  windows_[w].add(us);
}

void Timeline::merge(const Timeline& other) {
  if (other.windows_.size() > windows_.size())
    windows_.resize(other.windows_.size());
  for (std::size_t w = 0; w < other.windows_.size(); ++w)
    windows_[w].merge(other.windows_[w]);
}

void Timeline::close(double elapsed_s) {
  const std::size_t complete =
      std::max<std::size_t>(static_cast<std::size_t>(elapsed_s / window_s_), 1);
  if (windows_.size() > complete) windows_.resize(complete);
}

Histogram Timeline::total() const {
  Histogram h;
  for (const Histogram& w : windows_) h.merge(w);
  return h;
}

void OpCounts::ok(const std::string& kind) {
  Count& c = kinds_[kind];
  ++c.attempted;
  ++c.succeeded;
}

void OpCounts::fail(const std::string& kind, const std::string& why) {
  Count& c = kinds_[kind];
  ++c.attempted;
  ++c.failed;
  if (reasons_.size() < 8) reasons_.push_back(kind + ": " + why);
}

void OpCounts::merge(const OpCounts& other) {
  for (const auto& [kind, c] : other.kinds_) {
    Count& mine = kinds_[kind];
    mine.attempted += c.attempted;
    mine.succeeded += c.succeeded;
    mine.failed += c.failed;
  }
  for (const std::string& r : other.reasons_)
    if (reasons_.size() < 8) reasons_.push_back(r);
}

std::uint64_t OpCounts::attempted() const {
  std::uint64_t n = 0;
  for (const auto& [kind, c] : kinds_) n += c.attempted;
  return n;
}

std::uint64_t OpCounts::failed() const {
  std::uint64_t n = 0;
  for (const auto& [kind, c] : kinds_) n += c.failed;
  return n;
}

SpanLog::SpanLog(bool enabled, std::uint32_t thread, std::size_t reserve)
    : enabled_(enabled), thread_(thread) {
  if (enabled_) spans_.reserve(std::min(reserve, kMaxSpansPerLog));
}

std::uint32_t SpanLog::begin(const char* name, std::uint64_t request,
                             std::uint32_t parent) {
  if (!enabled_) return kNone;
  if (spans_.size() >= kMaxSpansPerLog) {
    ++dropped_;
    return kNone;
  }
  const std::int64_t t = now_ns(Clock::now());
  spans_.push_back(Span{name, request, parent, t, t});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

void SpanLog::end(std::uint32_t id) {
  if (id == kNone) return;
  spans_[id].end_ns = now_ns(Clock::now());
}

std::uint32_t SpanLog::record(const char* name, std::uint64_t request,
                              std::uint32_t parent, Clock::time_point start,
                              Clock::time_point end) {
  if (!enabled_) return kNone;
  if (spans_.size() >= kMaxSpansPerLog) {
    ++dropped_;
    return kNone;
  }
  spans_.push_back(Span{name, request, parent, now_ns(start), now_ns(end)});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

namespace {

/// Self time of every span in one log: duration minus the union of the
/// child intervals (clipped to the parent).
std::vector<double> self_times_us(const SpanLog& log) {
  const auto& spans = log.spans();
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const auto& s : spans)
    if (s.parent != SpanLog::kNone && s.parent < spans.size())
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0, cursor = s.start_ns;
    for (auto [a, b] : kids) {
      a = std::max(a, cursor);
      b = std::min(b, s.end_ns);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    self[i] = static_cast<double>(s.end_ns - s.start_ns - covered) / 1e3;
  }
  return self;
}

}  // namespace

std::map<std::string, SpanStats> span_stats(const std::vector<SpanLog>& logs) {
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
      samples;
  for (const SpanLog& log : logs) {
    const std::vector<double> self = self_times_us(log);
    for (std::size_t i = 0; i < log.spans().size(); ++i) {
      const auto& s = log.spans()[i];
      auto& [dur, slf] = samples[s.name];
      dur.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      slf.push_back(self[i]);
    }
  }
  std::map<std::string, SpanStats> out;
  for (auto& [name, pair] : samples) {
    SpanStats st;
    st.count = pair.first.size();
    st.median_us = median(std::move(pair.first));
    st.median_self_us = median(std::move(pair.second));
    out[name] = st;
  }
  return out;
}

double root_self_median_us(const std::vector<SpanLog>& logs) {
  std::vector<double> roots;
  for (const SpanLog& log : logs) {
    const std::vector<double> self = self_times_us(log);
    for (std::size_t i = 0; i < log.spans().size(); ++i)
      if (log.spans()[i].parent == SpanLog::kNone) roots.push_back(self[i]);
  }
  return median(std::move(roots));
}

std::uint64_t span_count(const std::vector<SpanLog>& logs) {
  std::uint64_t n = 0;
  for (const SpanLog& log : logs) n += log.spans().size();
  return n;
}

void write_spans(const std::string& path, const std::vector<SpanLog>& logs,
                 std::size_t per_thread_cap) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  char line[256];
  for (const SpanLog& log : logs) {
    const std::size_t n = std::min(per_thread_cap, log.spans().size());
    for (std::size_t i = 0; i < n; ++i) {
      const auto& s = log.spans()[i];
      std::snprintf(line, sizeof(line),
                    "{\"thread\":%u,\"id\":%zu,\"name\":\"%s\",\"request\":%llu,"
                    "\"parent\":%lld,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                    log.thread(), i, s.name,
                    static_cast<unsigned long long>(s.request),
                    s.parent == SpanLog::kNone
                        ? -1LL
                        : static_cast<long long>(s.parent),
                    static_cast<long long>(s.start_ns),
                    static_cast<long long>(s.end_ns));
      out << line;
    }
  }
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string json_metric_map(const std::vector<Metric>& metrics,
                            bool with_moves) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i) out += ", ";
    out += json_str(m.name) + ": {\"value\": " + json_num(m.value) +
           ", \"unit\": " + json_str(m.unit);
    if (with_moves && !m.moves.empty())
      out += ", \"moves\": " + json_str(m.moves);
    out += "}";
  }
  return out + "}";
}

double peak_rss_mb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
