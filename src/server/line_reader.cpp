#include "server/line_reader.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <cstring>

namespace rct::server {

ssize_t LineReader::read_from(int fd) {
  if (begin_ > 0) {
    const std::size_t kept = end_ - begin_;
    if (kept > 0) std::memmove(data_.get(), data_.get() + begin_, kept);
    scanned_ -= begin_;
    end_ = kept;
    begin_ = 0;
  }
  if (capacity_ - end_ < kReadSize) {
    const std::size_t grown = std::max(capacity_ * 2, end_ + kReadSize);
    // make_unique_for_overwrite: the bytes are recv()'s to fill, so they
    // are never zeroed first.
    auto bigger = std::make_unique_for_overwrite<char[]>(grown);
    if (end_ > 0) std::memcpy(bigger.get(), data_.get(), end_);
    data_ = std::move(bigger);
    capacity_ = grown;
  }
  const ssize_t n = ::recv(fd, data_.get() + end_, capacity_ - end_, 0);
  if (n > 0) end_ += static_cast<std::size_t>(n);
  return n;
}

bool LineReader::next_line(std::string_view& line) {
  const char* base = data_.get();
  const void* nl = scanned_ < end_ ? std::memchr(base + scanned_, '\n', end_ - scanned_) : nullptr;
  if (nl == nullptr) {
    scanned_ = end_;
    return false;
  }
  const std::size_t pos = static_cast<std::size_t>(static_cast<const char*>(nl) - base);
  line = std::string_view(base + begin_, pos - begin_);
  begin_ = scanned_ = pos + 1;
  return true;
}

}  // namespace rct::server
