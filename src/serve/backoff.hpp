// Decorrelated-jitter retry delays, shared by the client's retry loop and
// the router's backend reconnects.
#pragma once

#include <algorithm>
#include <cstdint>

#include "stats/rng.hpp"

namespace bmf::serve {

/// Each delay draws uniformly from the integers in [base, 3 * previous],
/// capped: a fleet recovering from the same outage spreads out instead of
/// retrying in lockstep, and the schedule still grows while failures last.
/// A base of 0 yields no delay at all. Deterministic per seed.
class Backoff {
 public:
  Backoff(int base_ms, int cap_ms, std::uint64_t seed)
      : base_ms_(std::max(base_ms, 0)),
        cap_ms_(std::max(cap_ms, 0)),
        prev_ms_(base_ms_),
        rng_(seed) {}

  /// The next delay in milliseconds.
  int next_ms() {
    const std::uint64_t base = static_cast<std::uint64_t>(base_ms_);
    const std::uint64_t hi =
        std::max(base, 3 * static_cast<std::uint64_t>(prev_ms_));
    prev_ms_ = static_cast<int>(std::min<std::uint64_t>(
        base + rng_.uniform_int(hi - base + 1),
        static_cast<std::uint64_t>(cap_ms_)));
    return prev_ms_;
  }

  /// Start over from the base delay (after a success).
  void reset() { prev_ms_ = base_ms_; }

 private:
  int base_ms_;
  int cap_ms_;
  int prev_ms_;
  stats::Rng rng_;
};

}  // namespace bmf::serve
