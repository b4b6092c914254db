// Per-connection building blocks of the epoll connection loop
// (connection_loop.cpp): incremental frame parsing and ordered reply
// sequencing. These are pure data structures — no sockets, no syscalls —
// so the pipelining unit tests (tests/serve_pipeline_test.cpp) exercise
// frame reassembly and reply ordering byte-for-byte without a live daemon.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "serve/wire.hpp"

namespace bmf::serve {

/// Incremental reassembler for length-prefixed frames. Bytes arrive in
/// whatever fragmentation the transport produces — the event loop reads
/// straight into write_window() and commit()s what landed — and complete
/// frames come out the front, either as zero-copy views (front_data /
/// front_size / pop_front: the loop's inline fast path decodes a request
/// in place) or copied out (next_frame: the worker-handoff path, which
/// needs ownership). One read may carry many pipelined frames and one
/// frame may span many reads; commit() scans new bytes as they land, so
/// an oversized length prefix throws ServeError(kTooLarge) before any
/// payload accumulates — the same bound read_frame enforces. The stream
/// boundary is lost at that point: stop committing and close.
class FrameBuffer {
 public:
  explicit FrameBuffer(std::size_t max_frame) : max_frame_(max_frame) {}

  // ---- filling (socket side) ----------------------------------------

  /// Writable, uninitialized space of at least `min_bytes` at the end of
  /// the buffer (grows/compacts as needed). Read into it, then commit().
  std::uint8_t* write_window(std::size_t min_bytes);

  /// Bytes available at the current write window.
  std::size_t window_bytes() const { return cap_ - size_; }

  /// Declare `n` bytes of the window filled. Scans them for frame
  /// boundaries; throws ServeError(kTooLarge) on an oversized prefix.
  void commit(std::size_t n);

  /// Convenience: window + memcpy + commit.
  void feed(const std::uint8_t* data, std::size_t n);

  // ---- draining (parser side) ---------------------------------------

  /// Complete frames currently buffered.
  std::size_t complete_frames() const { return complete_; }

  /// Zero-copy view of the first complete frame's payload. Valid until
  /// the next pop_front/commit/write_window. Requires complete_frames()>0.
  const std::uint8_t* front_data() const;
  std::size_t front_size() const;

  /// Discard the first complete frame.
  void pop_front();

  /// Copy the first complete frame's payload into `payload` (resized,
  /// capacity reused) and pop it. Returns false when none is complete.
  bool next_frame(std::vector<std::uint8_t>& payload);

  /// Drop everything (complete frames and partial tail): the connection
  /// is being torn down and the remaining bytes cannot be trusted.
  void discard();

  /// Bytes still missing to finish the trailing partial frame — a read
  /// sizing hint, so a large frame completes in one more read. 0 when
  /// the buffer ends on a frame boundary or lacks a full prefix.
  std::size_t missing_bytes() const;

  /// Bytes committed but not yet popped (complete frames + partial tail).
  std::size_t buffered() const { return size_ - consumed_; }

  /// True when committed bytes end inside a frame: EOF now is a mid-frame
  /// truncation, not a clean close.
  bool mid_frame() const { return size_ > scan_; }

 private:
  std::size_t max_frame_;
  std::unique_ptr<std::uint8_t[]> buf_;
  std::size_t cap_ = 0;
  std::size_t size_ = 0;      // bytes committed
  std::size_t consumed_ = 0;  // bytes popped off the front
  std::size_t scan_ = 0;      // end of the last complete frame found
  std::size_t complete_ = 0;  // complete frames in [consumed_, scan_)
};

/// Reply sequencer for pipelined requests: reserve() one slot per request
/// in arrival order, complete() slots in any completion order, and
/// drain_ready() appends the contiguous completed prefix — each reply
/// length-prefixed — to the connection's write buffer. Replies therefore
/// leave the socket in exactly the order their requests arrived, no
/// matter which worker finished first, and consecutive replies coalesce
/// into a single write.
class OrderedReplies {
 public:
  /// Claim the next sequence slot (call in request arrival order).
  std::uint64_t reserve() { return next_reserve_++; }

  /// Attach the encoded reply for slot `seq`.
  void complete(std::uint64_t seq, std::vector<std::uint8_t> reply);

  /// Append every reply that is next-in-order and completed to `wire`,
  /// length-prefixed. Returns the number of replies appended.
  std::size_t drain_ready(std::vector<std::uint8_t>& wire,
                          std::size_t max_frame = kDefaultMaxFrameBytes);

  /// Slots reserved whose replies have not yet drained.
  std::size_t outstanding() const { return next_reserve_ - next_flush_; }

 private:
  std::uint64_t next_reserve_ = 0;
  std::uint64_t next_flush_ = 0;
  // Ordered map (not unordered — repo lint rule): completions are looked
  // up strictly in sequence order, so begin() is always the candidate.
  std::map<std::uint64_t, std::vector<std::uint8_t>> completed_;
};

}  // namespace bmf::serve
