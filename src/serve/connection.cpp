#include "serve/connection.hpp"

#include <cstring>
#include <string>

#include "serve/error.hpp"

namespace bmf::serve {

std::uint8_t* FrameBuffer::write_window(std::size_t min_bytes) {
  if (cap_ - size_ < min_bytes) {
    // Compact first: the popped prefix is dead space, and a buffer that
    // drains completely between requests compacts for free.
    if (consumed_ > 0) {
      std::memmove(buf_.get(), buf_.get() + consumed_, size_ - consumed_);
      size_ -= consumed_;
      scan_ -= consumed_;
      consumed_ = 0;
    }
    if (cap_ - size_ < min_bytes) {
      std::size_t cap = cap_ > 0 ? cap_ : std::size_t{4096};
      while (cap - size_ < min_bytes) cap *= 2;
      // make_unique_for_overwrite: the window is written by the next read
      // before it is ever read back — zero-initializing it would charge
      // every large frame an extra pass over its bytes.
      auto grown = std::make_unique_for_overwrite<std::uint8_t[]>(cap);
      if (size_ > 0) std::memcpy(grown.get(), buf_.get(), size_);
      buf_ = std::move(grown);
      cap_ = cap;
    }
  }
  return buf_.get() + size_;
}

void FrameBuffer::commit(std::size_t n) {
  size_ += n;
  // Scan the new bytes for frame boundaries. Jumping prefix-to-prefix is
  // O(frames), not O(bytes), and rejects a hostile length the moment its
  // prefix lands — before any payload accumulates.
  while (size_ - scan_ >= kFramePrefixBytes) {
    const std::uint32_t len = decode_frame_length(buf_.get() + scan_);
    if (len > max_frame_)
      throw ServeError(Status::kTooLarge, "read_frame",
                       "length prefix announces " + std::to_string(len) +
                           " byte(s), bound is " + std::to_string(max_frame_));
    if (size_ - scan_ < kFramePrefixBytes + len) break;
    scan_ += kFramePrefixBytes + len;
    ++complete_;
  }
}

void FrameBuffer::feed(const std::uint8_t* data, std::size_t n) {
  if (n == 0) return;
  std::memcpy(write_window(n), data, n);
  commit(n);
}

const std::uint8_t* FrameBuffer::front_data() const {
  return buf_.get() + consumed_ + kFramePrefixBytes;
}

std::size_t FrameBuffer::front_size() const {
  return decode_frame_length(buf_.get() + consumed_);
}

void FrameBuffer::pop_front() {
  consumed_ += kFramePrefixBytes + front_size();
  --complete_;
  if (consumed_ == size_) {
    consumed_ = 0;
    scan_ = 0;
    size_ = 0;
  }
}

bool FrameBuffer::next_frame(std::vector<std::uint8_t>& payload) {
  if (complete_ == 0) return false;
  const std::uint8_t* body = front_data();
  payload.assign(body, body + front_size());
  pop_front();
  return true;
}

void FrameBuffer::discard() {
  consumed_ = 0;
  scan_ = 0;
  size_ = 0;
  complete_ = 0;
}

std::size_t FrameBuffer::missing_bytes() const {
  if (size_ - scan_ < kFramePrefixBytes) return 0;
  const std::uint32_t len = decode_frame_length(buf_.get() + scan_);
  return kFramePrefixBytes + std::size_t{len} - (size_ - scan_);
}

void OrderedReplies::complete(std::uint64_t seq,
                              std::vector<std::uint8_t> reply) {
  completed_.emplace(seq, std::move(reply));
}

std::size_t OrderedReplies::drain_ready(std::vector<std::uint8_t>& wire,
                                        std::size_t max_frame) {
  std::size_t drained = 0;
  for (auto it = completed_.begin();
       it != completed_.end() && it->first == next_flush_;
       it = completed_.begin()) {
    append_frame(wire, it->second.data(), it->second.size(), max_frame);
    completed_.erase(it);
    ++next_flush_;
    ++drained;
  }
  return drained;
}

}  // namespace bmf::serve
